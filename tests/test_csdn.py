import numpy as np
import pytest

from csdenoise.autodiff import Tensor
from csdenoise.csdn import CsdnConfig, build_csdn, csdn_forward, csdn_loss
from csdenoise.errors import ConfigError, CsdError, DispatchError, ShapeError
from helpers import fd_worst_rel_err_params


def small_cfg(arch="edsr", use_csconv=True, m=6):
    return CsdnConfig(arch=arch, num_blocks=2, num_features=8,
                      use_csconv=use_csconv, num_classes=m)


def copy_shared_weights(cs_net, plain_net, m):
    """Make every class stack equal to the plain net's second-conv weights."""
    cs_params = dict(cs_net.named_parameters())
    for name, plain_p in plain_net.named_parameters():
        if name in cs_params:
            cs_params[name].data[...] = plain_p.data
        else:  # conv2 kernel/bias -> tiled bank stacks
            bank_name = name.replace("conv2.kernel", "conv2.kernels").replace(
                "conv2.bias", "conv2.biases"
            )
            bank_p = cs_params[bank_name]
            if name.endswith("kernel"):
                bank_p.data[...] = np.tile(plain_p.data, (m, 1, 1, 1))
            else:
                bank_p.data[...] = np.tile(plain_p.data, (1, m, 1, 1))


class TestEdsr:
    def test_forward_shape(self, rng):
        net = build_csdn(CsdnConfig(num_blocks=16, num_features=16,
                                    use_csconv=True, num_classes=72), seed=0)
        classes = rng.integers(1, 73, size=(48, 48))
        out = net(Tensor(rng.random((1, 1, 48, 48))), classes)
        assert out.shape == (1, 1, 48, 48)

    def test_degenerate_equivalence_with_plain(self, rng):
        m = 6
        cs = build_csdn(small_cfg(m=m), seed=1)
        plain = build_csdn(small_cfg(use_csconv=False, m=m), seed=2)
        copy_shared_weights(cs, plain, m)
        x = Tensor(rng.random((2, 1, 12, 12)))
        ref = plain(Tensor(x.data)).data
        for _ in range(3):
            classes = rng.integers(1, m + 1, size=(2, 12, 12))
            got = cs(Tensor(x.data), classes).data
            assert np.max(np.abs(got - ref)) < 1e-10

    def test_zero_weights_give_zero_output(self, rng):
        net = build_csdn(small_cfg(), seed=3)
        for _, p in net.named_parameters():
            p.data[...] = 0.0
        classes = rng.integers(1, 7, size=(10, 10))
        out = net(Tensor(rng.random((1, 1, 10, 10))), classes)
        assert np.all(out.data == 0.0)

    def test_plain_net_ignores_class_map(self, rng):
        net = build_csdn(small_cfg(use_csconv=False), seed=4)
        x = rng.random((1, 1, 10, 10))
        a = net(Tensor(x.copy()), rng.integers(1, 7, size=(10, 10))).data
        b = net(Tensor(x.copy()), None).data
        c = net(Tensor(x.copy()), rng.integers(1, 7, size=(10, 10))).data
        assert np.array_equal(a, b) and np.array_equal(a, c)

    def test_missing_class_map_rejected(self, rng):
        net = build_csdn(small_cfg(), seed=5)
        with pytest.raises(ConfigError):
            net(Tensor(rng.random((1, 1, 8, 8))), None)

    def test_parameter_count_relation(self):
        m = 6
        cs = build_csdn(small_cfg(m=m), seed=0)
        plain = build_csdn(small_cfg(use_csconv=False, m=m), seed=0)
        f = 8
        replaced = 2 * (f * f * 9 + f)  # two blocks' second convs, kernel+bias
        assert cs.parameter_count() == plain.parameter_count() + (m - 1) * replaced

    def test_gradcheck_two_block_net(self, rng):
        net = build_csdn(small_cfg(), seed=7)
        x = Tensor(rng.random((1, 1, 8, 8)))
        target = Tensor(rng.random((1, 1, 8, 8)))
        classes = rng.integers(1, 7, size=(8, 8))
        err = fd_worst_rel_err_params(
            net, lambda: csdn_loss(net(x, classes), target), per_tensor=3
        )
        assert err < 1e-3


class TestCarn:
    def test_forward_shape(self, rng):
        net = build_csdn(CsdnConfig(arch="carn", num_features=16,
                                    use_csconv=True, num_classes=72), seed=0)
        classes = rng.integers(1, 73, size=(48, 48))
        out = net(Tensor(rng.random((1, 1, 48, 48))), classes)
        assert out.shape == (1, 1, 48, 48)

    def test_degenerate_equivalence_with_plain(self, rng):
        m = 4
        cs = build_csdn(small_cfg("carn", m=m), seed=1)
        plain = build_csdn(small_cfg("carn", use_csconv=False, m=m), seed=2)
        copy_shared_weights(cs, plain, m)
        x = Tensor(rng.random((1, 1, 12, 12)))
        ref = plain(Tensor(x.data)).data
        classes = rng.integers(1, m + 1, size=(12, 12))
        got = cs(Tensor(x.data), classes).data
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_cascade_connections_are_live(self, rng, monkeypatch):
        net = build_csdn(small_cfg("carn", use_csconv=False), seed=3)
        x = Tensor(rng.random((1, 1, 10, 10)))
        base = net(Tensor(x.data)).data.copy()
        # zero out the first residual block's output inside the first cascade
        block = net.cascades[0].blocks[0]
        orig_forward = block.forward

        def zeroed(xin, classes=None):
            out = orig_forward(xin, classes)
            return out * 0.0

        monkeypatch.setattr(block, "forward", zeroed)
        ablated = net(Tensor(x.data)).data
        assert np.max(np.abs(ablated - base)) > 1e-8

    def test_grouped_first_conv(self):
        net = build_csdn(small_cfg("carn"), seed=4)
        assert net.cascades[0].blocks[0].conv1.groups == 2

    def test_odd_features_rejected_for_carn(self):
        with pytest.raises(ConfigError):
            CsdnConfig(arch="carn", num_features=7)

    def test_gradcheck(self, rng):
        net = build_csdn(small_cfg("carn", m=3), seed=5)
        x = Tensor(rng.random((1, 1, 8, 8)))
        target = Tensor(rng.random((1, 1, 8, 8)))
        classes = rng.integers(1, 4, size=(8, 8))
        err = fd_worst_rel_err_params(
            net, lambda: csdn_loss(net(x, classes), target), per_tensor=2
        )
        assert err < 1e-3


class TestForwardWrapper:
    def test_deterministic(self, rng):
        net = build_csdn(small_cfg(), seed=8)
        img = rng.random((16, 16))
        classes = rng.integers(1, 7, size=(16, 16))
        a = csdn_forward(net, img, classes)
        b = csdn_forward(net, img, classes)
        assert np.array_equal(a, b)

    def test_out_of_range_class_dispatch_error(self, rng):
        net = build_csdn(small_cfg(m=4), seed=9)
        with pytest.raises(DispatchError):
            csdn_forward(net, rng.random((8, 8)),
                         np.full((8, 8), 9, dtype=np.int64))

    def test_class_edit_stays_within_receptive_field(self, rng):
        net = build_csdn(small_cfg(), seed=10)
        for i in range(2):  # stacks start shared; make classes distinguishable
            net.blocks[i].conv2.kernels.data += 0.2 * rng.standard_normal(
                net.blocks[i].conv2.kernels.shape
            )
        img = rng.random((24, 24))
        classes = rng.integers(1, 7, size=(24, 24))
        base = csdn_forward(net, img, classes)
        flipped = classes.copy()
        flipped[12, 12] = (flipped[12, 12] % 6) + 1
        moved = np.argwhere(np.abs(csdn_forward(net, img, flipped) - base) > 0)
        # head + 2 blocks of two 3x3 convs + tail: radius 1 + 2*2 + 1 = 6
        assert moved.size > 0
        assert np.all(np.abs(moved - 12).max(axis=1) <= 6)

    @pytest.mark.parametrize("scale", [1e300, 1e39])
    def test_non_finite_output_raises(self, rng, scale):
        """RuntimeWarnings are errors here, so this also shows that the explicit
        check, not numpy's overflow warning, is what reports the failure."""
        net = build_csdn(small_cfg(use_csconv=False), seed=12)
        net.head.kernel.data[...] = scale
        net.tail.kernel.data[...] = scale
        with pytest.raises(CsdError, match="non-finite"):
            csdn_forward(net, rng.random((16, 16)))

    def test_empty_image_rejected(self):
        net = build_csdn(CsdnConfig(num_blocks=1, num_features=4, num_classes=4))
        with pytest.raises(ShapeError, match="H=0"):
            csdn_forward(net, np.zeros((0, 4)), np.ones((0, 4), int))

    def test_loss_examples(self, rng):
        a = rng.random((1, 1, 5, 5))
        assert csdn_loss(Tensor(a), Tensor(a.copy())).item() == 0.0
        assert np.isclose(
            csdn_loss(Tensor(a + 0.25), Tensor(a)).item(), 0.25
        )

    def test_gradient_reaches_only_present_classes(self, rng):
        net = build_csdn(small_cfg(m=5), seed=11)
        x = Tensor(rng.random((1, 1, 8, 8)))
        target = Tensor(rng.random((1, 1, 8, 8)))
        classes = np.full((8, 8), 2, dtype=np.int64)
        classes[:4] = 5
        loss = csdn_loss(net(x, classes), target)
        net.zero_grads()
        loss.backward()
        for i in range(2):  # both blocks' banks
            gk = net.blocks[i].conv2.kernels.grad.reshape(5, -1)
            present = {1, 4}  # classes 2 and 5, zero-based
            for cls in range(5):
                if cls in present:
                    assert np.any(gk[cls] != 0.0)
                else:
                    assert np.all(gk[cls] == 0.0)


class TestSharedPlan:
    """One dispatch plan per forward, shared by every CSConv layer."""

    @pytest.mark.parametrize("arch", ["edsr", "carn"])
    def test_shared_plan_equals_per_layer_maps(self, rng, monkeypatch, arch):
        from csdenoise import csconv, csdn

        net = build_csdn(small_cfg(arch, m=5), seed=5)
        for _, p in net.named_parameters():  # distinct class stacks
            p.data[...] += rng.normal(0.0, 0.1, p.shape)
        xv = rng.random((2, 1, 9, 10))
        target = Tensor(rng.random((2, 1, 9, 10)))
        classes = rng.integers(1, 6, size=(2, 9, 10))

        def run():
            net.zero_grads()
            x = Tensor(xv.copy(), requires_grad=True)
            out = net(x, classes)
            csdn_loss(out, target).backward()
            return [out.data, x.grad] + [p.grad for p in net.parameters()]

        built = []

        class CountingPlan(csconv.DispatchPlan):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(csdn, "DispatchPlan", CountingPlan)
        shared = run()
        assert len(built) == 1
        # every layer sorting the class map into a plan of its own gives the same bits
        forward = csconv.CsConv2d.forward

        def own_plan(layer, x, plan, **kw):
            plan = CountingPlan(plan.indices, *plan.indices.shape, layer.num_classes)
            return forward(layer, x, plan, **kw)

        monkeypatch.setattr(csconv.CsConv2d, "forward", own_plan)
        per_layer = run()
        n_cs = sum(isinstance(m, csconv.CsConv2d) for m in _modules(net))
        assert len(built) == 2 + n_cs
        for a, b in zip(shared, per_layer):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("arch", ["edsr", "carn"])
    def test_plan_keeps_the_class_map(self, rng, monkeypatch, arch):
        """``perfbench`` counts the classes present from a plan's ``indices``."""
        from csdenoise import csconv

        net = build_csdn(small_cfg(arch, m=5), seed=5)
        classes = rng.integers(1, 6, size=(9, 10))
        seen = []
        forward = csconv.CsConv2d.forward

        def record(layer, x, plan, **kw):
            seen.append(plan)
            return forward(layer, x, plan, **kw)

        monkeypatch.setattr(csconv.CsConv2d, "forward", record)
        net(Tensor(rng.random((2, 1, 9, 10))), classes)
        assert seen and all(plan is seen[0] for plan in seen)
        assert np.array_equal(seen[0].indices, np.broadcast_to(classes, (2, 9, 10)))


def _modules(module):
    yield module
    for child in module._children.values():
        yield from _modules(child)
