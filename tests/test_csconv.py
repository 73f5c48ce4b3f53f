import numpy as np
import pytest

from csdenoise import csconv
from csdenoise import functional as F
from csdenoise.autodiff import Tensor, no_grad
from csdenoise.csdn import CsdnConfig, build_csdn
from csdenoise.csconv import CsConv2d, DispatchPlan, csconv_forward
from csdenoise.errors import ConfigError, ContractError, DispatchError, ShapeError
from helpers import cs_layer, fd_worst_rel_err, plan_for, traced_bytes


def random_bank(rng, m=5, c_out=4, c_in=3, k=3, bias=True):
    stacks = [rng.standard_normal((c_out, c_in, k, k)) * 0.4 for _ in range(m)]
    biases = [rng.standard_normal(c_out) * 0.1 for _ in range(m)] if bias else None
    return cs_layer(stacks, biases)


def class_kernel(bank, index):
    """Weights of class ``index`` (1-based) as (C_out, C_in, K, K)."""
    c = bank.out_channels
    return bank.kernels.data[(index - 1) * c : index * c]


def class_bias(bank, index):
    """Biases of class ``index`` (1-based) as (C_out,)."""
    c = bank.out_channels
    return bank.biases.data.reshape(-1)[(index - 1) * c : index * c]


def copy_layer(bank):
    m = bank.num_classes
    return cs_layer(np.split(bank.kernels.data, m), np.split(bank.biases.data.reshape(-1), m))


def csconv_backward(grad_out, q, plan, bank):
    """(grad_q, grad_kernels, grad_biases) of sum(output * grad_out), from
    backward() through csconv_forward on fresh copies of q and the bank."""
    fresh = copy_layer(bank)
    qt = Tensor(q.data.copy(), requires_grad=True)
    (csconv_forward(qt, plan, fresh) * Tensor(grad_out)).sum().backward()
    return qt.grad, fresh.kernels.grad, fresh.biases.grad


class TestForward:
    def test_uniform_map_equals_conv(self, rng):
        bank = random_bank(rng)
        q = Tensor(rng.standard_normal((2, 3, 7, 7)))
        for i in (1, 3, 5):
            classes = np.full((7, 7), i, dtype=np.int64)
            got = csconv_forward(q, plan_for(q, classes, bank), bank).data
            ref = F.conv2d(
                Tensor(q.data),
                Tensor(class_kernel(bank, i)),
                Tensor(class_bias(bank, i).reshape(1, -1, 1, 1)),
            ).data
            assert np.max(np.abs(got - ref)) < 1e-12

    def test_checkerboard_pointwise_example(self):
        # M=2, K=1, scalar weights 2 and 3 on an all-ones input
        bank = cs_layer([np.full((1, 1, 1, 1), 2.0), np.full((1, 1, 1, 1), 3.0)])
        yy, xx = np.mgrid[0:4, 0:4]
        classes = ((yy + xx) % 2 + 1).astype(np.int64)
        q = Tensor(np.ones((1, 1, 4, 4)))
        out = csconv_forward(q, plan_for(q, classes, bank), bank).data[0, 0]
        assert np.array_equal(out, np.where((yy + xx) % 2 == 0, 2.0, 3.0))

    def test_zero_bank_annihilates(self, rng):
        bank = cs_layer([np.zeros((2, 1, 3, 3))] * 3)
        classes = rng.integers(1, 4, size=(5, 5))
        q = Tensor(rng.random((1, 1, 5, 5)))
        out = csconv_forward(q, plan_for(q, classes, bank), bank)
        assert np.all(out.data == 0.0)

    def test_degenerate_equivalence_random_maps(self, rng):
        base = rng.standard_normal((3, 2, 3, 3))
        bias = rng.standard_normal(3)
        bank = cs_layer([base] * 6, [bias] * 6)
        q = Tensor(rng.standard_normal((2, 2, 6, 6)))
        ref = F.conv2d(Tensor(q.data), Tensor(base), Tensor(bias.reshape(1, 3, 1, 1))).data
        for _ in range(5):
            classes = rng.integers(1, 7, size=(2, 6, 6))
            got = csconv_forward(q, plan_for(q, classes, bank), bank).data
            assert np.max(np.abs(got - ref)) < 1e-10

    def test_linearity_in_input_without_bias(self, rng):
        bank = random_bank(rng, bias=False)
        classes = rng.integers(1, 6, size=(5, 5))
        q1 = rng.standard_normal((1, 3, 5, 5))
        q2 = rng.standard_normal((1, 3, 5, 5))
        plan = plan_for(q1, classes, bank)
        lhs = csconv_forward(Tensor(2.0 * q1 - 0.5 * q2), plan, bank).data
        rhs = (
            2.0 * csconv_forward(Tensor(q1), plan, bank).data
            - 0.5 * csconv_forward(Tensor(q2), plan, bank).data
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_deterministic(self, rng):
        bank = random_bank(rng)
        q = Tensor(rng.standard_normal((1, 3, 6, 6)))
        classes = rng.integers(1, 6, size=(6, 6))
        a = csconv_forward(q, plan_for(q, classes, bank), bank).data
        b = csconv_forward(q, plan_for(q, classes, bank), bank).data
        assert np.array_equal(a, b)

    def test_out_of_range_class_rejected(self, rng):
        bank = random_bank(rng, m=3)
        q = Tensor(rng.random((1, 3, 4, 4)))
        for bad in (0, 4):
            classes = np.full((4, 4), bad, dtype=np.int64)
            with pytest.raises(DispatchError):
                csconv_forward(q, plan_for(q, classes, bank), bank)

    def test_shape_mismatches(self, rng):
        bank = random_bank(rng)
        with pytest.raises(ShapeError):
            q = Tensor(rng.random((1, 2, 4, 4)))
            csconv_forward(q, plan_for(q, np.ones((4, 4), dtype=np.int64), bank), bank)
        with pytest.raises(ShapeError):
            q = Tensor(rng.random((1, 3, 4, 4)))
            csconv_forward(q, plan_for(q, np.ones((5, 5), dtype=np.int64), bank), bank)


class TestBackward:
    def test_absent_class_gets_exactly_zero_grad(self, rng):
        bank = random_bank(rng, m=4)
        q = Tensor(rng.standard_normal((1, 3, 5, 5)), requires_grad=True)
        classes = np.full((5, 5), 2, dtype=np.int64)
        classes[0, :] = 4
        out = csconv_forward(q, plan_for(q, classes, bank), bank)
        (out * Tensor(rng.standard_normal(out.shape))).sum().backward()
        gk = bank.kernels.grad.reshape(4, -1)
        gb = bank.biases.grad.reshape(4, -1)
        for absent in (0, 2):  # classes 1 and 3
            assert np.all(gk[absent] == 0.0)
            assert np.all(gb[absent] == 0.0)
        for present in (1, 3):  # classes 2 and 4
            assert np.any(gk[present] != 0.0)

    def test_uniform_map_matches_conv_grads(self, rng):
        base = rng.standard_normal((3, 2, 3, 3))
        bias = rng.standard_normal(3)
        bank = cs_layer([base] * 2, [bias] * 2)
        qv = rng.standard_normal((1, 2, 5, 5))
        wv = rng.standard_normal((1, 3, 5, 5))

        q1 = Tensor(qv.copy(), requires_grad=True)
        out = csconv_forward(q1, plan_for(q1, np.ones((5, 5), dtype=np.int64), bank), bank)
        (out * Tensor(wv)).sum().backward()

        q2 = Tensor(qv.copy(), requires_grad=True)
        k2 = Tensor(base.copy(), requires_grad=True)
        b2 = Tensor(bias.reshape(1, 3, 1, 1).copy(), requires_grad=True)
        (F.conv2d(q2, k2, b2) * Tensor(wv)).sum().backward()

        assert np.max(np.abs(q1.grad - q2.grad)) < 1e-10
        assert np.max(np.abs(bank.kernels.grad[:3] - k2.grad)) < 1e-10
        assert np.max(np.abs(bank.biases.grad.reshape(-1)[:3] - b2.grad.reshape(-1))) < 1e-10
        assert np.all(bank.kernels.grad[3:] == 0.0)

    def test_gradients_match_finite_differences(self, rng):
        bank = random_bank(rng)
        q = Tensor(rng.standard_normal((2, 3, 5, 5)), requires_grad=True)
        classes = rng.integers(1, 6, size=(2, 5, 5))
        w = Tensor(rng.standard_normal((2, 4, 5, 5)))
        err = fd_worst_rel_err(
            lambda: (csconv_forward(q, plan_for(q, classes, bank), bank) * w).sum(),
            [q, bank.kernels, bank.biases],
        )
        assert err < 1e-4

    def test_standalone_backward_matches_autodiff(self, rng):
        bank = random_bank(rng)
        qv = rng.standard_normal((1, 3, 6, 6))
        classes = rng.integers(1, 6, size=(6, 6))
        gout = rng.standard_normal((1, 4, 6, 6))

        q = Tensor(qv.copy(), requires_grad=True)
        out = csconv_forward(q, plan_for(q, classes, bank), bank)
        (out * Tensor(gout)).sum().backward()

        gq, gk, gb = csconv_backward(gout, Tensor(qv), plan_for(q, classes, bank), bank)
        assert np.max(np.abs(gq - q.grad)) < 1e-12
        assert np.max(np.abs(gk - bank.kernels.grad)) < 1e-12
        assert np.max(np.abs(gb - bank.biases.grad)) < 1e-12
        _, ref_gq, ref_gk, ref_gb = per_pixel_csconv(qv, classes, bank, gout)
        assert np.max(np.abs(gq - ref_gq)) < 1e-12
        assert np.max(np.abs(gk - ref_gk)) < 1e-12
        assert np.max(np.abs(gb - ref_gb)) < 1e-12

    def test_locality_of_credit(self, rng):
        # perturbing one class's weights only moves pixels of that class
        bank = random_bank(rng, m=3, bias=False)
        q = Tensor(rng.standard_normal((1, 3, 6, 6)))
        classes = rng.integers(1, 4, size=(6, 6))
        before = csconv_forward(q, plan_for(q, classes, bank), bank).data.copy()
        c_out = bank.out_channels
        bank.kernels.data[1 * c_out : 2 * c_out] += 0.5  # class 2 weights
        after = csconv_forward(q, plan_for(q, classes, bank), bank).data
        changed = np.any(np.abs(after - before) > 0, axis=(0, 1))
        assert np.array_equal(changed, classes == 2)


def fused_and_unfused(qv, classes, bank, alpha_v, skip_v, grad_out):
    """[output, grad_q, grad_alpha, grad_skip, grad_kernels, grad_biases] of
    sum(output * grad_out), for the fused op and for skip + CSConv(PReLU(q)),
    each on fresh copies of the inputs and the bank. With ``skip_v`` None
    there is no skip, and its gradient is None."""
    results = []
    for fused in (True, False):
        layer = copy_layer(bank)
        q, alpha = (Tensor(v.copy(), requires_grad=True) for v in (qv, alpha_v))
        skip = None if skip_v is None else Tensor(skip_v.copy(), requires_grad=True)
        if fused:
            out = csconv_forward(q, plan_for(q, classes, layer), layer, alpha=alpha, skip=skip)
        else:
            out = csconv_forward(F.prelu(q, alpha), plan_for(q, classes, layer), layer)
            out = out if skip is None else skip + out
        (out * Tensor(grad_out)).sum().backward()
        results.append([out.data, q.grad, alpha.grad, None if skip is None else skip.grad,
                        layer.kernels.grad, layer.biases.grad])
    return results


# slopes below 0, at 0 and above 1, per channel (C_in = 3) and shared
SLOPES = {
    "per-channel": [-0.5, 0.0, 1.5],
    "shared-negative": [-0.5],
    "shared-zero": [0.0],
    "shared-steep": [1.5],
}


class TestFusedPrelu:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("slopes", list(SLOPES))
    def test_equals_unfused_bit_for_bit(self, rng, k, slopes):
        bank = random_bank(rng, k=k)
        qv = rng.standard_normal((2, 3, 6, 7))
        qv[rng.random(qv.shape) < 0.2] = 0.0
        classes = rng.integers(1, 6, size=(2, 6, 7))
        alpha_v = np.array(SLOPES[slopes]).reshape(1, -1, 1, 1)
        skip_v = rng.standard_normal((2, 4, 6, 7))
        gout = rng.standard_normal((2, 4, 6, 7))
        fused, unfused = fused_and_unfused(qv, classes, bank, alpha_v, skip_v, gout)
        names = ["output", "q", "alpha", "skip", "kernels", "biases"]
        for name, a, b in zip(names, fused, unfused):
            assert np.array_equal(a, b), name

    def test_gradients_match_finite_differences(self, rng):
        bank = random_bank(rng)
        q = Tensor(rng.standard_normal((2, 3, 5, 5)), requires_grad=True)
        alpha = Tensor(np.array([0.25, -0.3, 1.2]).reshape(1, 3, 1, 1), requires_grad=True)
        skip = Tensor(rng.standard_normal((2, 4, 5, 5)), requires_grad=True)
        classes = rng.integers(1, 6, size=(2, 5, 5))
        w = Tensor(rng.standard_normal((2, 4, 5, 5)))
        err = fd_worst_rel_err(
            lambda: (csconv_forward(q, plan_for(q, classes, bank), bank, alpha=alpha, skip=skip)
                     * w).sum(),
            [q, alpha, skip, bank.kernels, bank.biases],
        )
        assert err < 1e-4

    def test_shape_mismatches(self, rng):
        bank = random_bank(rng)
        q = Tensor(rng.random((1, 3, 4, 4)))
        classes = np.ones((4, 4), dtype=np.int64)
        with pytest.raises(ShapeError):
            csconv_forward(q, plan_for(q, classes, bank), bank,
                           alpha=Tensor(np.full((1, 2, 1, 1), 0.25)))
        with pytest.raises(ShapeError):
            csconv_forward(q, plan_for(q, classes, bank), bank,
                           skip=Tensor(rng.random((1, 3, 4, 4))))


def per_pixel_csconv(x, classes, bank, grad_out):
    """The definition, one pixel at a time: output, and the gradients of
    sum(output * grad_out) for the input, the kernels and the biases."""
    n, _, h, w = x.shape
    k = bank.kernel_size
    r = k // 2
    cls = np.broadcast_to(classes, (n, h, w))
    xp = np.pad(x, ((0, 0), (0, 0), (r, r), (r, r)))
    out = np.zeros((n, bank.out_channels, h, w))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(bank.kernels.data)
    gb = np.zeros(bank.kernels.shape[0])
    c = bank.out_channels
    for b in range(n):
        for y in range(h):
            for xx in range(w):
                i = int(cls[b, y, xx])
                kern = class_kernel(bank, i)
                patch = xp[b, :, y : y + k, xx : xx + k]
                g = grad_out[b, :, y, xx]
                out[b, :, y, xx] = np.tensordot(kern, patch, axes=3) + class_bias(bank, i)
                gxp[b, :, y : y + k, xx : xx + k] += np.tensordot(g, kern, axes=1)
                gk[(i - 1) * c : i * c] += np.multiply.outer(g, patch)
                gb[(i - 1) * c : i * c] += g
    gx = gxp[:, :, r : r + h, r : r + w]
    return out, gx, gk, gb.reshape(1, -1, 1, 1)


# H x W with N=2 gives 3 * _CHUNK pixels, so each of two classes gets about
# 1.5 gather chunks: every segment crosses a chunk boundary mid-segment, and
# the second one starts off the chunk grid.
_MULTI_CHUNK_HW = (csconv._CHUNK // 16, 24)

DISPATCH_CASES = {
    # name: (N, map shape kind, K, random (or zero) biases, classes drawn from, (H, W))
    "batch_of_maps": (3, "nhw", 3, True, (1, 2, 3, 4, 5), (6, 7)),
    "one_map_broadcast": (2, "hw", 3, True, (1, 2, 3, 4, 5), (6, 7)),
    "absent_classes": (2, "nhw", 3, True, (2, 5), (6, 7)),
    "single_class": (2, "nhw", 3, True, (4,), (6, 7)),
    "no_bias": (2, "nhw", 3, False, (1, 2, 3, 4, 5), (6, 7)),
    "k1": (2, "nhw", 1, True, (1, 2, 3, 4, 5), (6, 7)),
    "k5": (2, "nhw", 5, True, (1, 2, 3, 4, 5), (6, 7)),
    "multi_chunk": (2, "nhw", 3, True, (2, 4), _MULTI_CHUNK_HW),
    "smaller_than_kernel": (2, "nhw", 5, True, (1, 2, 3), (1, 2)),
}


class TestDispatch:
    """The sorted-segment dispatch against the per-pixel definition."""

    @pytest.mark.parametrize("case", sorted(DISPATCH_CASES))
    def test_matches_per_pixel_reference(self, rng, case):
        n, kind, k, bias, present, (h, w) = DISPATCH_CASES[case]
        bank = random_bank(rng, m=5, c_out=3, c_in=2, k=k, bias=bias)
        shape = (n, h, w) if kind == "nhw" else (h, w)
        raw = rng.choice(np.array(present), size=shape)
        if case == "multi_chunk":
            sizes = np.bincount(raw.reshape(-1))[list(present)]
            assert np.all(sizes > csconv._CHUNK) and np.all(sizes % csconv._CHUNK)
        xv = rng.standard_normal((n, 2, h, w))
        gout = rng.standard_normal((n, 3, h, w))
        ref_out, ref_gx, ref_gk, ref_gb = per_pixel_csconv(xv, raw, bank, gout)

        x = Tensor(xv.copy(), requires_grad=True)
        out = csconv_forward(x, plan_for(x, raw, bank), bank)
        (out * Tensor(gout)).sum().backward()
        assert np.max(np.abs(out.data - ref_out)) < 1e-12
        with no_grad():
            assert np.array_equal(csconv_forward(Tensor(xv), plan_for(x, raw, bank), bank).data,
                                  out.data)
        assert np.max(np.abs(x.grad - ref_gx)) < 1e-12
        assert np.max(np.abs(bank.kernels.grad - ref_gk)) < 1e-12
        assert np.max(np.abs(bank.biases.grad - ref_gb)) < 1e-12
        absent = [i for i in range(1, 6) if i not in np.unique(raw)]
        stacks = bank.kernels.grad.reshape(5, -1)
        for i in absent:
            assert np.all(stacks[i - 1] == 0.0)
            assert np.all(bank.biases.grad.reshape(5, -1)[i - 1] == 0.0)

    @pytest.mark.parametrize("case", ["batch_of_maps", "one_map_broadcast", "k5"])
    def test_standalone_backward_matches_autodiff_with_plan(self, rng, case):
        n, kind, k, bias, present, _ = DISPATCH_CASES[case]
        bank = random_bank(rng, m=5, c_out=3, c_in=2, k=k, bias=bias)
        shape = (n, 5, 6) if kind == "nhw" else (5, 6)
        classes = rng.choice(np.array(present), size=shape)
        qv = rng.standard_normal((n, 2, 5, 6))
        gout = rng.standard_normal((n, 3, 5, 6))
        q = Tensor(qv.copy(), requires_grad=True)
        plan = plan_for(q, classes, bank)
        (csconv_forward(q, plan, bank) * Tensor(gout)).sum().backward()
        gq, gk, gb = csconv_backward(gout, Tensor(qv), plan, bank)
        assert np.array_equal(gq, q.grad)
        assert np.array_equal(gk, bank.kernels.grad)
        assert np.array_equal(gb, bank.biases.grad)

    def test_plan_segments_follow_stable_class_order(self):
        classes = np.array([[[3, 1, 3], [1, 2, 3]], [[2, 2, 1], [3, 1, 1]]])
        plan = DispatchPlan(classes, 2, 2, 3, 4)
        flat = classes.reshape(-1)
        assert plan.segments == [(1, 0, 5), (2, 5, 8), (3, 8, 12)]
        for i, start, stop in plan.segments:
            assert np.array_equal(plan.order[start:stop], np.flatnonzero(flat == i))
        assert plan.indices.shape == (2, 2, 3)
        assert np.array_equal(np.stack([plan.image, plan.pixel]), np.divmod(plan.order, 6))

    def test_plan_is_reused_not_rebuilt(self, rng, monkeypatch):
        bank = random_bank(rng)
        classes = rng.integers(1, 6, size=(2, 4, 5))
        q = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
        plan = plan_for(q, classes, bank)
        fresh = csconv_forward(q, plan_for(q, classes, bank), bank).data

        def rebuilt(*args):
            raise AssertionError("a layer built a plan of its own")

        monkeypatch.setattr(csconv.DispatchPlan, "__init__", rebuilt)
        out = csconv_forward(q, plan, bank)
        out.sum().backward()
        assert np.array_equal(out.data, fresh)

    def test_plan_checked_against_feature_and_bank(self, rng):
        plan = DispatchPlan(np.full((2, 4, 4), 5), 2, 4, 4, 5)
        q = Tensor(rng.random((2, 3, 4, 4)))
        with pytest.raises(DispatchError):
            csconv_forward(q, plan, random_bank(rng, m=4))
        with pytest.raises(ShapeError):
            csconv_forward(Tensor(rng.random((1, 3, 4, 4))), plan, random_bank(rng, m=5))

    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 4)])
    def test_raw_class_map_rejected(self, rng, shape):
        bank = random_bank(rng)
        q = Tensor(rng.random((2, 3, 4, 4)))
        with pytest.raises(ContractError):
            csconv_forward(q, np.ones(shape, dtype=np.int64), bank)
        with pytest.raises(ContractError):
            bank(q, np.ones(shape, dtype=np.int64))

    def test_empty_feature_rejected(self, rng):
        bank = random_bank(rng, c_in=2)
        q = Tensor(rng.random((1, 2, 0, 3)))
        with pytest.raises(ShapeError, match="H=0"):
            csconv_forward(q, plan_for(q, np.ones((0, 3), dtype=np.int64), bank), bank)
        with pytest.raises(ShapeError, match="N=0, W=0"):
            DispatchPlan(np.ones((0, 4, 0), dtype=np.int64), 0, 4, 0, 5)


# Three images of 16 channels, 151 rows of 37 pixels: a band of at most
# _SLAB_BYTES of (rows, W, C) pixel rows holds 110 rows, so each image is moved
# to and from pixel-major rows in two bands of unequal height.
_BANDED = (3, 16, 151, 37)
# per-channel slopes below 0, at 0, between 0 and 1 and above 1, and shared ones
_BANDED_SLOPES = {
    "per-channel": np.resize([-0.5, 0.0, 0.25, 1.5], 16),
    "shared-negative": [-0.5],
    "shared-zero": [0.0],
    "shared-steep": [1.5],
}


class TestBands:
    """Band edges of the transpositions to and from pixel-major rows."""

    def test_images_cross_band_edges(self):
        bands = [ys for img, ys in csconv._bands(_BANDED) if img == 0]
        assert len(bands) > 1
        assert len({ys.stop - ys.start for ys in bands}) > 1

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_per_pixel_reference(self, rng, k):
        n, c, h, w = _BANDED
        bank = random_bank(rng, m=5, c_out=c, c_in=c, k=k)
        classes = rng.integers(1, 6, size=(n, h, w))
        xv = rng.standard_normal(_BANDED)
        gout = rng.standard_normal(_BANDED)
        ref_out, ref_gx, ref_gk, ref_gb = per_pixel_csconv(xv, classes, bank, gout)
        x = Tensor(xv.copy(), requires_grad=True)
        out = csconv_forward(x, plan_for(x, classes, bank), bank)
        (out * Tensor(gout)).sum().backward()
        assert np.max(np.abs(out.data - ref_out)) < 1e-12
        assert np.max(np.abs(x.grad - ref_gx)) < 1e-12
        assert np.max(np.abs(bank.kernels.grad - ref_gk)) < 1e-12
        assert np.max(np.abs(bank.biases.grad - ref_gb)) < 1e-12

    @pytest.mark.parametrize("with_skip", [True, False], ids=["skip", "no-skip"])
    @pytest.mark.parametrize("slopes", list(_BANDED_SLOPES))
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_fused_equals_unfused_bit_for_bit(self, rng, k, slopes, with_skip):
        n, c, h, w = _BANDED
        bank = random_bank(rng, m=5, c_out=c, c_in=c, k=k)
        qv = rng.standard_normal(_BANDED)
        qv[rng.random(qv.shape) < 0.2] = 0.0
        classes = rng.integers(1, 6, size=(n, h, w))
        alpha_v = np.array(_BANDED_SLOPES[slopes], dtype=np.float64).reshape(1, -1, 1, 1)
        skip_v = rng.standard_normal(_BANDED) if with_skip else None
        gout = rng.standard_normal(_BANDED)
        fused, unfused = fused_and_unfused(qv, classes, bank, alpha_v, skip_v, gout)
        names = ["output", "q", "alpha", "skip", "kernels", "biases"]
        for name, a, b in zip(names, fused, unfused):
            assert (a is None and b is None) or np.array_equal(a, b), name


class TestPreluFill:
    """The fused PReLU's fill against ``F.prelu``, on the values where two forms
    of a PReLU could part: both compute max(x, 0) + alpha * min(x, 0)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_prelu_on_special_values(self, dtype):
        tiny = np.finfo(dtype)
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, tiny.max, -tiny.max,
                  tiny.tiny, -tiny.tiny, tiny.smallest_subnormal, -tiny.smallest_subnormal]
        slopes = np.array([0.25, 0.0, -0.5, 1.5, -0.0]).reshape(1, -1, 1, 1)
        x = np.broadcast_to(np.array(values, dtype), (2, slopes.size, 3, len(values))).copy()
        dst = np.empty(x.transpose(0, 2, 3, 1).shape, dtype)
        with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf, 1.5 * max
            csconv._to_pixels(x, dst, slopes)
            ref = F.prelu(Tensor(x), Tensor(slopes)).data
        got = dst.transpose(0, 3, 1, 2)
        assert got.dtype == ref.dtype == dtype
        assert np.array_equal(got, ref, equal_nan=True)
        bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
        assert np.array_equal(got.view(bits), ref.view(bits))

    def test_signed_zeros_agree(self):
        x = np.array([-0.0, -1.0]).reshape(1, 1, 1, 2)
        dst = np.empty((1, 1, 2, 1))
        csconv._to_pixels(x, dst, np.zeros((1, 1, 1, 1)))
        ref = F.prelu(Tensor(x), Tensor(np.zeros((1, 1, 1, 1)))).data
        assert np.array_equal(np.signbit(dst.reshape(-1)), np.signbit(ref.reshape(-1)))


class TestPatchSource:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c,w", [(16, 7), (16, 31), (3, 13)])
    def test_rows_start_on_a_cache_line(self, rng, dtype, c, w):
        """Every 16-channel row starts on a 64-byte line (a float32 one fills it),
        and the padded rows hold the zero-padded input."""
        n, h, k = 2, 5, 3
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        plan = DispatchPlan(np.ones((h, w), np.int64), n, h, w, 1)
        rows, _, _ = csconv._patch_source(x, plan, k)
        assert rows.dtype == dtype
        assert rows.ctypes.data % 64 == 0
        if c == 16:
            assert rows.strides[0] % 64 == 0
        padded = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (1, 1), (1, 1), (0, 0)))
        assert np.array_equal(rows.reshape(padded.shape), padded)


class TestMemory:
    def test_recorded_forward_keeps_no_patch_matrix(self, rng):
        bank = random_bank(rng, m=5, c_out=16, c_in=16, k=3)
        x = Tensor(rng.standard_normal((2, 16, 32, 32)), requires_grad=True)
        classes = rng.integers(1, 6, size=(2, 32, 32))
        out, held, peak = traced_bytes(
            lambda: csconv_forward(x, plan_for(x, classes, bank), bank))
        assert out._backward is not None
        # output plus what backward keeps, and the transient high-water mark;
        # a kept (N*H*W, C*K*K) patch matrix alone is 9x the input
        assert held < 3 * x.data.nbytes
        assert peak < 6 * x.data.nbytes

    def test_recorded_forward_keeps_no_padded_rows(self, rng):
        bank = random_bank(rng, m=4, c_out=16, c_in=16, k=3)
        x = Tensor(rng.standard_normal((2, 16, 32, 32)), requires_grad=True)
        plan = plan_for(x, rng.integers(1, 5, size=(2, 32, 32)), bank)
        out, held, _ = traced_bytes(lambda: csconv_forward(x, plan, bank))
        # backward pads x.data and re-derives the corners from the shared plan;
        # kept padded rows alone are 1.13x the output
        assert held < 1.2 * out.data.nbytes

    def test_inference_peak(self, rng):
        bank = random_bank(rng, m=72, c_out=16, c_in=16, k=3)
        x = Tensor(rng.standard_normal((1, 16, 256, 256)))
        classes = rng.integers(1, 73, size=(256, 256))
        with no_grad():
            out, _, peak = traced_bytes(
                lambda: csconv_forward(x, plan_for(x, classes, bank), bank))
        assert out._backward is None
        assert peak < 3.5 * x.data.nbytes

    def test_no_grad_network_forward_keeps_no_layer_buffers(self, rng):
        net = build_csdn(CsdnConfig(num_blocks=4, num_features=16, num_classes=8), seed=0)
        x = rng.random((1, 1, 128, 128))
        classes = rng.integers(1, 9, size=(128, 128))
        with no_grad():
            out, held, peak = traced_bytes(lambda: net(Tensor(x), classes))
        activation = 16 * 128 * 128 * 8
        # only the one-channel output is held. At the peak a CS block holds the
        # long skip, its input, its first conv's output, the padded rows and
        # the staged output rows (5.6 activations); a staged or padded array
        # kept past its layer would add one activation per layer
        assert held < out.data.nbytes + activation / 8
        assert peak < 6 * activation


class TestTypes:
    def test_layer_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            CsConv2d(0, 3, 2, 3)
        with pytest.raises(ConfigError):
            CsConv2d(4, 3, 2, 2)

    def test_module_layer_starts_shared(self, rng):
        layer = CsConv2d(4, 3, 2, 3, rng=rng)
        stacks = layer.kernels.data.reshape(4, 2, 3, 3, 3)
        for i in range(1, 4):
            assert np.array_equal(stacks[0], stacks[i])
        assert layer.flops_per_pixel() == 2 * 9 * 3 * 2

    def test_parameter_registration_order(self, rng):
        layer = CsConv2d(2, 2, 2, 3, rng=rng)
        names = [n for n, _ in layer.named_parameters()]
        assert names == ["kernels", "biases"]
