import threading

import numpy as np
import pytest

from csdenoise.autodiff import Tensor, no_grad
from csdenoise.errors import ContractError, ShapeError


class TestCreate:
    def test_zero_fill(self):
        t = Tensor.create((1, 1, 2, 2), fill=0)
        assert t.shape == (1, 1, 2, 2)
        assert np.all(t.data == 0)
        assert t.grad is None and not t.requires_grad

    def test_data_fill_row_major(self):
        data = np.arange(18.0)
        t = Tensor.create((1, 2, 3, 3), fill=data)
        assert np.array_equal(t.data.reshape(-1), data)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor.create((1, 1, 2, 2), fill=[1.0, 2.0, 3.0])

    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((3, 3)))

    def test_item_on_scalar(self):
        assert Tensor.scalar(2.5).item() == 2.5


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
        (x - y).abs().mean().backward()
        assert np.allclose(x.grad, np.sign(xv - yv) / xv.size)

    def test_square_at_three(self):
        x = Tensor.create((1, 1, 1, 1), fill=3.0, requires_grad=True)
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
        loss = x.sum()
        loss.backward()
        loss.backward()
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
        (y.sum() + (y * y).mean()).backward()
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
        out = ((a * b - a) + b * 0.5).abs().mean()
        assert np.isfinite(out.item())
