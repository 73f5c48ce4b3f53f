import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csdenoise import functional as F
from csdenoise.autodiff import Tensor, _result, no_grad
from csdenoise.errors import ConfigError, ShapeError
from helpers import fd_worst_rel_err, traced_bytes


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.random((1, 1, 5, 6))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = F.conv2d(Tensor(x), Tensor(k))
        assert np.array_equal(out.data, x)

    def test_ones_kernel_counts_taps(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        out = F.conv2d(x, Tensor(np.ones((1, 1, 3, 3)))).data[0, 0]
        assert out[1, 1] == 9.0 and out[2, 2] == 9.0
        assert out[0, 0] == 4.0 and out[3, 3] == 4.0
        assert out[0, 1] == 6.0

    def test_groups_match_per_group_dense_oracle(self, rng):
        x = rng.standard_normal((2, 4, 6, 6))
        k = rng.standard_normal((4, 2, 3, 3))
        b = rng.standard_normal((1, 4, 1, 1))
        got = F.conv2d(Tensor(x), Tensor(k), Tensor(b), groups=2).data
        lo = F.conv2d(Tensor(x[:, :2]), Tensor(k[:2]), Tensor(b[:, :2])).data
        hi = F.conv2d(Tensor(x[:, 2:]), Tensor(k[2:]), Tensor(b[:, 2:])).data
        oracle = np.concatenate([lo, hi], axis=1)
        assert np.max(np.abs(got - oracle)) < 1e-12

    def test_linearity_without_bias(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        y = rng.standard_normal((1, 2, 5, 5))
        k = Tensor(rng.standard_normal((3, 2, 3, 3)))
        lhs = F.conv2d(Tensor(2.0 * x + 3.0 * y), k).data
        rhs = 2.0 * F.conv2d(Tensor(x), k).data + 3.0 * F.conv2d(Tensor(y), k).data
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_spatial_shape_preserved(self, rng, k):
        x = Tensor(rng.random((1, 2, 7, 9)))
        out = F.conv2d(x, Tensor(rng.standard_normal((3, 2, k, k))))
        assert out.shape == (1, 3, 7, 9)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ShapeError):
            F.conv2d(Tensor(rng.random((1, 3, 4, 4))),
                     Tensor(rng.random((2, 2, 3, 3))))

    def test_bad_groups(self, rng):
        with pytest.raises(ConfigError):
            F.conv2d(Tensor(rng.random((1, 3, 4, 4))),
                     Tensor(rng.random((2, 1, 3, 3))), groups=3)

    def test_even_kernel_rejected(self, rng):
        with pytest.raises(ConfigError):
            F.conv2d(Tensor(rng.random((1, 1, 4, 4))),
                     Tensor(rng.random((1, 1, 2, 2))))

    def test_gradients(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 5, 6)), requires_grad=True)
        k = Tensor(rng.standard_normal((6, 2, 3, 3)) * 0.4, requires_grad=True)
        b = Tensor(rng.standard_normal((1, 6, 1, 1)) * 0.1, requires_grad=True)
        w = Tensor(rng.standard_normal((2, 6, 5, 6)))
        err = fd_worst_rel_err(
            lambda: (F.conv2d(x, k, b, groups=2) * w).sum(), [x, k, b]
        )
        assert err < 1e-4

    def test_gradients_k5_groups4(self, rng):
        x = Tensor(rng.standard_normal((2, 8, 6, 7)), requires_grad=True)
        k = Tensor(rng.standard_normal((4, 2, 5, 5)) * 0.3, requires_grad=True)
        b = Tensor(rng.standard_normal((1, 4, 1, 1)) * 0.1, requires_grad=True)
        w = Tensor(rng.standard_normal((2, 4, 6, 7)))
        err = fd_worst_rel_err(
            lambda: (F.conv2d(x, k, b, groups=4) * w).sum(), [x, k, b]
        )
        assert err < 1e-4


def _conv_reference(x, k, b, groups, go):
    """Per-tap loops over the zero-padded input: output, then the adjoint
    of each tap for the input, kernel and bias gradients."""
    n, c_in, h, w = x.shape
    c_out, cpg, kk, _ = k.shape
    r = kk // 2
    opg = c_out // groups
    xp = np.pad(x, ((0, 0), (0, 0), (r, r), (r, r)))
    out = np.zeros((n, c_out, h, w))
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    for o in range(c_out):
        for c in range(cpg):
            ci = (o // opg) * cpg + c
            for i in range(kk):
                for j in range(kk):
                    window = xp[:, ci, i : i + h, j : j + w]
                    out[:, o] += k[o, c, i, j] * window
                    gxp[:, ci, i : i + h, j : j + w] += k[o, c, i, j] * go[:, o]
                    gk[o, c, i, j] = np.sum(go[:, o] * window)
    if b is not None:
        out += b
    gb = None if b is None else go.sum(axis=(0, 2, 3)).reshape(b.shape)
    return out, gxp[:, :, r : r + h, r : r + w], gk, gb


# At C=4, rows of more than one patch slab at every K, so block boundaries
# fall inside the image, and rows wider than one GEMM, so each row splits
# into column spans.
_TALL_HW = (70, 240)
_WIDE_HW = (9, 400)


class TestConv2dAgainstPerTapReference:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("hw", [(7, 5), (3, 11), (1, 2), (2, 1), _TALL_HW, _WIDE_HW])
    def test_output_and_gradients(self, rng, k, groups, hw):
        x = rng.standard_normal((2, 4) + hw)
        if hw == _TALL_HW:  # an image's patch matrix outgrows one slab
            assert 8 * x[0].size * k * k > F._SLAB_BYTES
        if hw == _WIDE_HW:
            assert hw[1] > F._GEMM_COLS
        kernel = rng.standard_normal((8, 4 // groups, k, k))
        bias = rng.standard_normal((1, 8, 1, 1))
        go = rng.standard_normal((2, 8) + hw)
        xt = Tensor(x, requires_grad=True)
        kt = Tensor(kernel, requires_grad=True)
        bt = Tensor(bias, requires_grad=True)
        out = F.conv2d(xt, kt, bt, groups=groups)
        (out * Tensor(go)).sum().backward()
        ref_out, ref_gx, ref_gk, ref_gb = _conv_reference(x, kernel, bias, groups, go)
        assert np.max(np.abs(out.data - ref_out)) < 1e-12
        assert np.max(np.abs(xt.grad - ref_gx)) < 1e-12
        assert np.max(np.abs(kt.grad - ref_gk)) < 1e-12
        assert np.max(np.abs(bt.grad - ref_gb)) < 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("groups", [1, 3])
    def test_one_channel_1x1_bits_match_gemm(self, rng, dtype, groups):
        # a 1x1 kernel on one channel per group (the PCN head) runs as an
        # outer product; these are the bits of the (C_out/groups x 1) GEMMs
        x = rng.standard_normal((4, groups, 96, 96)).astype(dtype)
        kernel = rng.standard_normal((12, 1, 1, 1))
        bias = rng.standard_normal((1, 12, 1, 1))
        want = np.empty((4, groups, 12 // groups, 96 * 96), dtype)
        wmat = kernel.astype(dtype).reshape(groups, 12 // groups, 1)
        for img, cols, src in F._slab_spans(x, 1, groups):
            np.matmul(wmat, src, out=want[img, :, :, cols])
        want = want.reshape(4, 12, 96, 96)
        want += bias.astype(dtype)
        got = F.conv2d(Tensor(x), Tensor(kernel), Tensor(bias), groups=groups).data
        assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("frozen", ["input", "kernel"])
    def test_no_bias_and_frozen_operand(self, rng, frozen):
        x = rng.standard_normal((2, 6, 9, 4))
        kernel = rng.standard_normal((4, 3, 3, 3))
        go = rng.standard_normal((2, 4, 9, 4))
        xt = Tensor(x, requires_grad=frozen != "input")
        kt = Tensor(kernel, requires_grad=frozen != "kernel")
        out = F.conv2d(xt, kt, None, groups=2)
        (out * Tensor(go)).sum().backward()
        ref_out, ref_gx, ref_gk, _ = _conv_reference(x, kernel, None, 2, go)
        assert np.max(np.abs(out.data - ref_out)) < 1e-12
        if frozen == "input":
            assert xt.grad is None
            assert np.max(np.abs(kt.grad - ref_gk)) < 1e-12
        else:
            assert kt.grad is None
            assert np.max(np.abs(xt.grad - ref_gx)) < 1e-12

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_recorded_forward_keeps_no_patch_matrix(self, rng, with_bias):
        x = Tensor(rng.standard_normal((2, 16, 32, 32)))
        k = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 16, 1, 1))) if with_bias else None
        out, held, peak = traced_bytes(lambda: F.conv2d(x, k, b))
        assert out._backward is not None
        # output plus what backward keeps, and the transient high-water mark
        assert held < 3 * x.data.nbytes
        assert peak < 6 * x.data.nbytes

    def test_recorded_forward_keeps_no_padded_copy(self, rng):
        x = Tensor(rng.standard_normal((2, 16, 32, 32)), requires_grad=True)
        k = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 16, 1, 1)), requires_grad=True)
        out, held, _ = traced_bytes(lambda: F.conv2d(x, k, b))
        # backward pads x.data again; a kept padded input alone is 1.16x
        assert held < 1.2 * out.data.nbytes

    def test_backward_makes_no_full_size_temporaries(self, rng):
        x = Tensor(rng.standard_normal((4, 16, 96, 96)), requires_grad=True)
        k = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 16, 1, 1)), requires_grad=True)
        loss = (F.conv2d(x, k, b) * Tensor(rng.standard_normal(x.shape))).sum()
        _, _, peak = traced_bytes(loss.backward)
        # the output's gradient and the input's are 1x each; the rest is per block
        assert peak < 3 * x.data.nbytes

    def test_inference_makes_no_full_size_temporaries(self, rng):
        x = Tensor(rng.standard_normal((1, 16, 256, 256)))
        k = Tensor(rng.standard_normal((16, 16, 3, 3)))
        b = Tensor(rng.standard_normal((1, 16, 1, 1)))
        with no_grad():
            _, _, peak = traced_bytes(lambda: F.conv2d(x, k, b))
        # the output is 1x; the rest is per block
        assert peak < 1.5 * x.data.nbytes


class TestRelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_where_form_on_special_values(self, dtype):
        # x > 0 keeps x and sends NaN and -0 to +0; np.fmax must do the same
        info = np.finfo(dtype)
        values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0,
                           info.max, -info.max, info.tiny, -info.tiny,
                           info.smallest_subnormal, -info.smallest_subnormal], dtype)
        # odd lengths and a strided view reach the vector loops' tails
        x = np.resize(values, (2, 3, 5, 2 * len(values) + 1))
        for view in (x, x[..., ::2]):
            got = F.relu(Tensor(view)).data
            want = np.where(view > 0, view, 0.0)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()


class TestPrelu:
    def test_positive_passthrough(self):
        out = F.prelu(Tensor(np.full((1, 1, 1, 1), 3.0)),
                      Tensor(np.full((1, 1, 1, 1), 0.25)))
        assert out.item() == 3.0

    def test_negative_scaled(self):
        out = F.prelu(Tensor(np.full((1, 1, 1, 1), -2.0)),
                      Tensor(np.full((1, 1, 1, 1), 0.25)))
        assert out.item() == -0.5

    def test_alpha_grad_at_negative_input(self):
        x = Tensor(np.full((1, 1, 1, 1), -2.0))
        a = Tensor(np.full((1, 1, 1, 1), 0.25), requires_grad=True)
        F.prelu(x, a).sum().backward()
        assert np.allclose(a.grad, -2.0)

    def test_alpha_length_mismatch(self, rng):
        with pytest.raises(ShapeError):
            F.prelu(Tensor(rng.random((1, 3, 2, 2))),
                    Tensor(rng.random((1, 2, 1, 1))))

    def test_gradients(self, rng):
        # inputs kept away from the kink at 0
        xv = rng.standard_normal((2, 3, 4, 4))
        xv += np.where(xv >= 0, 0.1, -0.1)
        x = Tensor(xv, requires_grad=True)
        a = Tensor(rng.random((1, 3, 1, 1)) * 0.5, requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 4, 4)))
        err = fd_worst_rel_err(lambda: (F.prelu(x, a) * w).sum(), [x, a])
        assert err < 1e-4


class TestResampling:
    def test_downsample_constant(self):
        out = F.avg_downsample2x(Tensor(np.full((1, 1, 4, 4), 0.7)))
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out.data, 0.7)

    def test_downsample_block_mean(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert F.avg_downsample2x(x).item() == 2.5

    def test_downsample_grad_is_quarter(self, rng):
        x = Tensor(rng.random((1, 1, 4, 4)), requires_grad=True)
        F.avg_downsample2x(x).sum().backward()
        assert np.allclose(x.grad, 0.25)

    def test_downsample_odd_extent_rejected(self, rng):
        with pytest.raises(ShapeError):
            F.avg_downsample2x(Tensor(rng.random((1, 1, 5, 4))))

    def test_upsample_constant(self):
        out = F.bilinear_upsample2x(Tensor(np.full((1, 2, 3, 3), 0.3)))
        assert out.shape == (1, 2, 6, 6)
        assert np.allclose(out.data, 0.3)

    def test_upsample_row_weights(self):
        row = Tensor(np.array([[[[0.0, 1.0]]]]))
        out = F.bilinear_upsample2x(row).data[0, 0, 0]
        assert np.allclose(out, [0.0, 0.25, 0.75, 1.0])

    def test_round_trip_on_constant(self):
        x = Tensor(np.full((1, 1, 4, 4), 0.42))
        back = F.avg_downsample2x(F.bilinear_upsample2x(x))
        assert np.allclose(back.data, x.data)

    def test_resampling_gradients(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 4, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 8, 12)))
        err = fd_worst_rel_err(lambda: (F.bilinear_upsample2x(x) * w).sum(), [x])
        assert err < 1e-4
        y = Tensor(rng.standard_normal((2, 2, 6, 4)), requires_grad=True)
        w2 = Tensor(rng.standard_normal((2, 2, 3, 2)))
        err = fd_worst_rel_err(lambda: (F.avg_downsample2x(y) * w2).sum(), [y])
        assert err < 1e-4


# -- references: the index-gather resampling and its np.add.at adjoints -------


def ref_upsample_indices(length):
    src = (np.arange(2 * length) + 0.5) / 2.0 - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    lo = np.clip(i0, 0, length - 1)
    hi = np.clip(i0 + 1, 0, length - 1)
    return lo, hi, frac


def ref_scatter_axis(g, idx, length, axis):
    gm = np.moveaxis(g, axis, 0)
    out = np.zeros((length,) + gm.shape[1:])
    np.add.at(out, idx, gm)
    return np.moveaxis(out, 0, axis)


def ref_bilinear_upsample2x(x):
    n, c, h, w = x.shape
    hlo, hhi, hf = ref_upsample_indices(h)
    wlo, whi, wf = ref_upsample_indices(w)
    hf_col = hf.reshape(1, 1, -1, 1)
    wf_row = wf.reshape(1, 1, 1, -1)
    rows = (1.0 - hf_col) * x.data[:, :, hlo, :] + hf_col * x.data[:, :, hhi, :]
    out = (1.0 - wf_row) * rows[:, :, :, wlo] + wf_row * rows[:, :, :, whi]

    def bw(g):
        if x.requires_grad:
            grows = ref_scatter_axis((1.0 - wf_row) * g, wlo, w, 3)
            grows += ref_scatter_axis(wf_row * g, whi, w, 3)
            gx = ref_scatter_axis((1.0 - hf_col) * grows, hlo, h, 2)
            gx += ref_scatter_axis(hf_col * grows, hhi, h, 2)
            x._accumulate(gx)

    return _result(out, (x,), bw)


def ref_avg_downsample2x(x):
    n, c, h, w = x.shape
    out = x.data.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))

    def bw(g):
        if x.requires_grad:
            x._accumulate(np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25)

    return _result(out, (x,), bw)


def output_and_grad(op, xv, gv):
    """op(x) and the gradient of sum(op(x) * gv) for x."""
    x = Tensor(xv, requires_grad=True)
    out = op(x)
    (out * Tensor(gv)).sum().backward()
    return out.data, x.grad


def resampling_cases(draw):
    """Each layer with its reference, on an (N, C, H, W) of 1..3 x 1..3 x
    1..9 x 1..9."""
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    return [
        ((n, c, h, w), (n, c, 2 * h, 2 * w), F.bilinear_upsample2x, ref_bilinear_upsample2x),
        ((n, c, 2 * h, 2 * w), (n, c, h, w), F.avg_downsample2x, ref_avg_downsample2x),
    ]


class TestResamplingMatchesReference:
    @given(st.data())
    def test_equal_to_reference_on_drawn_values(self, data):
        values = st.floats(-1e3, 1e3, allow_subnormal=False)
        for shape, out_shape, op, ref in resampling_cases(data.draw):
            xv = data.draw(arrays(np.float64, shape, elements=values))
            gv = data.draw(arrays(np.float64, out_shape, elements=values))
            for got, want in zip(output_and_grad(op, xv, gv), output_and_grad(ref, xv, gv)):
                assert np.array_equal(got, want)

    @given(st.data(), st.integers(0, 2**32 - 1))
    def test_bytes_equal_to_reference_on_normal_values(self, data, seed):
        rng = np.random.default_rng(seed)
        for shape, out_shape, op, ref in resampling_cases(data.draw):
            xv, gv = rng.standard_normal(shape), rng.standard_normal(out_shape)
            for got, want in zip(output_and_grad(op, xv, gv), output_and_grad(ref, xv, gv)):
                assert got.tobytes() == want.tobytes()

    def test_pcn_training_unchanged_by_reference_upsample(self, monkeypatch, micro_images):
        from csdenoise.pcn import PcnConfig
        from csdenoise.pipeline import TrainConfig, train_pcn

        cfg = TrainConfig(batch_size=2, patch_size=16, epochs=2, steps_per_epoch=2,
                          learning_rate=1e-3)
        pcn_cfg = PcnConfig(base_channels=4, num_scales=3, residual_blocks=1)
        net, history = train_pcn(micro_images, cfg, pcn_cfg)
        monkeypatch.setattr(F, "bilinear_upsample2x", ref_bilinear_upsample2x)
        ref_net, ref_history = train_pcn(micro_images, cfg, pcn_cfg)
        assert history == ref_history
        for (name, p), (_, q) in zip(net.named_parameters(), ref_net.named_parameters()):
            assert p.data.tobytes() == q.data.tobytes(), name


class TestL1Loss:
    def test_identical_inputs(self, rng):
        x = rng.random((1, 2, 3, 3))
        assert F.l1_loss(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_constant_offset(self, rng):
        x = rng.random((1, 2, 3, 3))
        assert np.isclose(F.l1_loss(Tensor(x + 0.5), Tensor(x)).item(), 0.5)

    def test_subgradient_above(self, rng):
        xv = rng.random((1, 1, 2, 2))
        a = Tensor(xv + 1.0, requires_grad=True)
        F.l1_loss(a, Tensor(xv)).backward()
        assert np.allclose(a.grad, 1.0 / xv.size)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            F.l1_loss(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 2, 3))))

    def test_gradients_away_from_kinks(self, rng):
        xv = rng.standard_normal((1, 2, 4, 4))
        yv = xv + np.where(rng.random((1, 2, 4, 4)) > 0.5, 0.6, -0.6)
        x = Tensor(xv, requires_grad=True)
        err = fd_worst_rel_err(lambda: F.l1_loss(x, Tensor(yv)), [x])
        assert err < 1e-4


class TestPlumbing:
    def test_concat_and_slice_round_trip(self, rng):
        a = Tensor(rng.random((1, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.random((1, 3, 3, 3)))
        cat = F.concat_channels([a, b])
        assert cat.shape == (1, 5, 3, 3)
        assert np.array_equal(cat.data[:, 0:2], a.data)
        assert np.array_equal(cat.data[:, 2:5], b.data)

    def test_concat_gradients(self, rng):
        a = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 1, 3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((1, 3, 3, 3)))
        err = fd_worst_rel_err(
            lambda: (F.concat_channels([a, b]) * w).sum(), [a, b]
        )
        assert err < 1e-4
