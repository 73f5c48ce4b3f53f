import threading
import tracemalloc

import numpy as np
import pytest

from csdenoise.autodiff import Tensor, no_grad
from csdenoise.csdn import CsdnConfig, build_csdn, csdn_loss
from csdenoise.errors import ContractError, ShapeError
from csdenoise.functional import concat_channels, l1_loss, relu
from csdenoise.pcn import PcnConfig, build_pcn, pcn_loss
from helpers import traced_bytes


class TestCreate:
    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((3, 3)))

    def test_item_on_scalar(self):
        assert Tensor(np.full((1, 1, 1, 1), 2.5)).item() == 2.5


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.random.rand(1, 1, 2, 2), requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((1, 1, 2, 2)))

    def test_mean_abs_grad_is_sign_over_numel(self, rng):
        xv = rng.standard_normal((1, 2, 3, 3))
        yv = xv + np.where(rng.random((1, 2, 3, 3)) > 0.5, 0.7, -0.7)
        x = Tensor(xv, requires_grad=True)
        y = Tensor(yv)
        l1_loss(x, y).backward()
        assert np.allclose(x.grad, np.sign(xv - yv) / xv.size)

    def test_square_at_three(self):
        x = Tensor(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, 6.0)

    def test_loss_grad_wrt_itself_is_one(self):
        x = Tensor(np.random.rand(1, 1, 2, 2), requires_grad=True)
        loss = x.sum()
        loss.backward()
        assert np.array_equal(loss.grad, np.ones((1, 1, 1, 1)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.random.rand(1, 1, 2, 2), requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2.0).backward()

    def test_accumulation_across_calls(self):
        x = Tensor(np.random.rand(1, 1, 2, 2), requires_grad=True)
        x.sum().backward()
        x.sum().backward()
        assert np.array_equal(x.grad, 2 * np.ones((1, 1, 2, 2)))
        x.zero_grad()
        assert x.grad is None

    def test_graph_linearity(self, rng):
        xv = rng.standard_normal((1, 1, 3, 3))
        x1 = Tensor(xv.copy(), requires_grad=True)
        (x1.sum() + (x1 * x1).sum()).backward()
        x2 = Tensor(xv.copy(), requires_grad=True)
        x2.sum().backward()
        (x2 * x2).sum().backward()
        assert np.allclose(x1.grad, x2.grad)

    def test_diamond_reuse(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)), requires_grad=True)
        y = x * 3.0
        (y.sum() + (y * y).sum() * (1.0 / x.data.size)).backward()
        expected = 3.0 + 2.0 * 9.0 * x.data / x.data.size
        assert np.allclose(x.grad, expected)

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.random.rand(1, 1, 2, 2), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert not y.requires_grad
        assert y._backward is None

    def test_interleaved_no_grad_threads_leave_recording_on(self):
        # A enters, B enters, A leaves, B leaves: with one process-wide flag,
        # B restores the "off" it saw on entry and recording stays off.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        recorded_inside = []

        def inference(enter_after, entered, leave_after, left=None):
            assert enter_after.wait(10)
            with no_grad():
                x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
                recorded_inside.append((x * 2.0).requires_grad)
                entered.set()
                assert leave_after.wait(10)
            if left is not None:
                left.set()

        start = threading.Event()
        start.set()
        threads = [
            threading.Thread(target=inference, args=(start, a_in, b_in, a_out)),
            threading.Thread(target=inference, args=(a_in, b_in, a_out)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert recorded_inside == [False, False]

        w = Tensor(np.full((1, 1, 2, 2), 0.5), requires_grad=True)
        (w * 3.0).sum().backward()
        assert w.grad is not None and np.all(w.grad == 3.0)


class TestArithmetic:
    def test_shape_mismatch(self):
        a = Tensor(np.zeros((1, 1, 2, 2)))
        b = Tensor(np.zeros((1, 1, 2, 3)))
        with pytest.raises(ShapeError):
            a + b

    def test_values_finite_after_ops(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4, 4)))
        b = Tensor(rng.standard_normal((2, 3, 4, 4)))
        out = l1_loss(a * b + b * 0.5, a)
        assert np.isfinite(out.item())


class TestSingleUseGraph:
    def test_second_backward_on_one_loss_rejected(self, rng):
        x, w = _leaf(rng), _leaf(rng)
        loss = (relu(x * w) * 2.0).sum()
        loss.backward()
        gx, gw = x.grad, w.grad
        with pytest.raises(ContractError):
            loss.backward()
        assert x.grad is gx and w.grad is gw  # grads are read-only: replaced, never written
        assert np.array_equal(loss.grad, np.ones((1, 1, 1, 1)))

    def test_loss_on_a_consumed_subgraph_rejected(self, rng):
        x, w, v = _leaf(rng), _leaf(rng), _leaf(rng)
        h = relu(x * w)
        h.sum().backward()
        gx, gw = x.grad, w.grad
        with pytest.raises(ContractError):
            (h * v + x).sum().backward()
        assert x.grad is gx and w.grad is gw
        assert v.grad is None


# -- the reverse pass against its reference -------------------------------------


def _reference_accumulate(self, grad):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += grad


def _reference_backward(self):
    """The earlier reverse pass: a fresh zeroed buffer for every interior
    node, each contribution added into it in place, all kept until the
    graph is dropped."""
    order, seen, stack = [], set(), [(self, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if p.requires_grad)
    for node in order:
        if node._backward is not None:
            node.grad = np.zeros_like(node.data)
    self._accumulate(np.ones((1, 1, 1, 1)))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def _graph(loss):
    """Every tensor reachable from ``loss`` through recorded edges."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def _grads_both_ways(monkeypatch, build_loss, leaves):
    """Leaf grads after backward() and after the reference pass, each from
    a freshly built graph and cleared leaves."""
    grads = []
    for reference in (False, True):
        for t in leaves:
            t.zero_grad()
        with monkeypatch.context() as m:
            if reference:
                m.setattr(Tensor, "_accumulate", _reference_accumulate)
                m.setattr(Tensor, "backward", _reference_backward)
            loss = build_loss()
            interior = [t for t in _graph(loss) if t._backward is not None and t is not loss]
            loss.backward()
        grads.append([t.grad for t in leaves])
        if not reference:
            assert interior and all(t.grad is None for t in interior)
            assert np.array_equal(loss.grad, np.ones((1, 1, 1, 1)))
    return grads


def _leaf(rng, shape=(1, 2, 3, 3)):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def _x_plus_x(rng):
    x = _leaf(rng)
    return lambda: ((x + x) * x).sum(), [x]


def _diamond(rng):
    x, w = _leaf(rng), _leaf(rng)

    def build():
        h = relu(x * w)
        return (h * 2.0 + h * h).sum() * (1.0 / h.data.size)

    return build, [x, w]


def _concat_fan_out(rng):
    x, y = _leaf(rng), _leaf(rng)

    def build():
        h = x * 1.5
        c = concat_channels([h, y, h])
        return (c * c).sum()

    return build, [x, y]


def _add_aliasing(rng):
    # s hands one array to a and b; each then gets a second contribution
    x, y = _leaf(rng), _leaf(rng)

    def build():
        a, b = x * 2.0, y * 3.0
        s = a + b
        return (s * s).sum() + (a * y).sum() + (b * x).sum()

    return build, [x, y]


def _micro_csdn(rng, **kw):
    net = build_csdn(CsdnConfig(num_blocks=2, num_features=8, num_classes=5, **kw), seed=1)
    x = rng.random((2, 1, 12, 12))
    classes = rng.integers(1, 6, size=(2, 12, 12)) if net.config.use_csconv else None
    return lambda: csdn_loss(net(Tensor(x), classes), Tensor(x * 0.9)), net.parameters()


def _micro_pcn(rng):
    net = build_pcn(PcnConfig(base_channels=4, num_scales=2, residual_blocks=1), seed=1)
    x, target = rng.random((2, 1, 12, 12)), rng.random((2, 3, 12, 12))
    return lambda: pcn_loss(net(Tensor(x)), Tensor(target)), net.parameters()


GRAPHS = {
    "x+x": _x_plus_x,
    "diamond": _diamond,
    "concat-fan-out": _concat_fan_out,
    "add-aliasing": _add_aliasing,
    "cs-edsr": _micro_csdn,
    "cs-carn": lambda rng: _micro_csdn(rng, arch="carn"),
    "edsr-plain": lambda rng: _micro_csdn(rng, use_csconv=False),
    "pcn": _micro_pcn,
}


class TestGradientLifetime:
    @pytest.mark.parametrize("case", list(GRAPHS))
    def test_leaf_grads_match_reference_pass(self, rng, monkeypatch, case):
        build_loss, leaves = GRAPHS[case](rng)
        got, want = _grads_both_ways(monkeypatch, build_loss, leaves)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_shared_leaf_grads_accumulate_apart(self, rng):
        # x and y adopt the one array the add hands both; a second call must
        # not add into it through either of them
        x, y = _leaf(rng), _leaf(rng)
        ((x + y) * 2.0).sum().backward()
        assert x.grad is y.grad
        ((x + y) * 2.0).sum().backward()
        assert np.array_equal(x.grad, np.full(x.shape, 4.0))
        assert np.array_equal(y.grad, np.full(y.shape, 4.0))

    def test_grads_are_read_only(self, rng):
        x, y = _leaf(rng), _leaf(rng)
        (x + y).sum().backward()
        with pytest.raises(ValueError):
            x.grad += 1.0
        assert np.array_equal(y.grad, np.ones(y.shape))

    def test_gradient_of_wrong_shape_rejected(self):
        x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            x._accumulate(np.ones((1, 1, 1, 1)))
        assert x.grad is None

    @staticmethod
    def _held_activations(rng, arch):
        cfg = CsdnConfig(arch=arch, num_blocks=4, num_features=16, num_classes=4)
        net = build_csdn(cfg, seed=0)
        x = rng.random((2, 1, 32, 32))
        classes = rng.integers(1, 5, size=(2, 32, 32))
        _, held, _ = traced_bytes(lambda: csdn_loss(net(Tensor(x), classes), Tensor(x)))
        return held / (2 * 16 * 32 * 32 * 8)

    def test_recorded_forward_memory(self, rng):
        # closures rebuild padded copies and masks from their parents' data
        # (keeping them held 29.7 activations), and a CS block's PReLU and
        # skip add run inside its CSConv op (held apart: 18.2)
        assert self._held_activations(rng, "edsr") < 12

    def test_recorded_forward_memory_carn(self, rng):
        # 73.4 activations with the PReLU and skip add held apart
        assert self._held_activations(rng, "carn") < 60

    def test_reverse_pass_frees_the_graph(self, rng):
        net = build_csdn(CsdnConfig(num_blocks=4, num_features=16, num_classes=4), seed=0)
        x = rng.random((2, 1, 32, 32))
        tracemalloc.start()
        try:
            loss = csdn_loss(net(Tensor(x), rng.integers(1, 5, size=(2, 32, 32))), Tensor(x))
            before = tracemalloc.get_traced_memory()[0]
            loss.backward()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # with the loss still held, a pass that keeps the graph ends 1.48
        # activations up (the parameter grads); consuming it, 8.74 down
        assert after < before

    def test_reverse_pass_memory(self, rng):
        # few classes, so the interior grads outweigh the filter bank's
        net = build_csdn(CsdnConfig(num_blocks=4, num_features=16, num_classes=4), seed=0)
        x = rng.random((2, 1, 32, 32))
        loss = csdn_loss(net(Tensor(x), rng.integers(1, 5, size=(2, 32, 32))), Tensor(x))
        _, held, peak = traced_bytes(loss.backward)
        activation = 2 * 16 * 32 * 32 * 8
        params = sum(p.data.nbytes for p in net.parameters())
        # only the parameter grads outlive the pass (the reference pass kept
        # every interior grad: 19.5 activations held, 26.5 at the peak)
        assert held < params + activation
        assert peak < 14 * activation
