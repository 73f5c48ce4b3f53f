import numpy as np
import pytest

from csdenoise.autodiff import Tensor
from csdenoise.errors import ContractError
from csdenoise.optim import Adam


def _param(value, shape=(1, 1, 1, 1)):
    return Tensor(np.full(shape, value), requires_grad=True)


def test_zero_grad_leaves_params_unchanged():
    p = _param(0.7, (1, 2, 2, 2))
    before = p.data.copy()
    p.grad = np.zeros_like(p.data)
    Adam([p], learning_rate=1e-2).step()
    assert np.array_equal(p.data, before)


def test_first_step_magnitude_matches_hand_derivation():
    # at t=1: m_hat = g, v_hat = g^2, so the step is lr * g/(|g| + eps)
    p = _param(1.0)
    p.grad = np.ones_like(p.data)
    opt = Adam([p], learning_rate=1e-4)
    opt.step()
    expected_decrease = 1e-4 * 1.0 / (1.0 + 1e-8)
    assert abs((1.0 - p.data[0, 0, 0, 0]) - expected_decrease) < 1e-12
    assert opt.step_count == 1


def test_identical_params_get_identical_updates():
    a, b = _param(0.3), _param(0.3)
    for p in (a, b):
        p.grad = np.full_like(p.data, 0.25)
    Adam([a, b], learning_rate=1e-3).step()
    assert np.array_equal(a.data, b.data)


def test_bit_identical_across_runs(rng):
    g = rng.standard_normal((1, 2, 3, 3))
    results = []
    for _ in range(2):
        p = Tensor(np.full((1, 2, 3, 3), 0.5), requires_grad=True)
        opt = Adam([p], learning_rate=3e-4)
        for _ in range(5):
            p.grad = g.copy()
            opt.step()
        results.append(p.data.copy())
    assert np.array_equal(results[0], results[1])


def test_missing_grad_is_a_contract_error():
    p = _param(1.0)
    with pytest.raises(ContractError):
        Adam([p]).step()


def test_grads_untouched_by_step():
    p = _param(1.0)
    p.grad = np.full_like(p.data, 2.0)
    Adam([p]).step()
    assert np.array_equal(p.grad, np.full_like(p.data, 2.0))


def test_moment_invariants():
    p = _param(1.0, (1, 1, 2, 2))
    opt = Adam([p], learning_rate=1e-3)
    assert opt.step_count == 0
    assert all(np.all(m == 0) for m in opt.first_moment)
    assert all(np.all(v == 0) for v in opt.second_moment)
    rng = np.random.default_rng(0)
    for _ in range(4):
        p.grad = rng.standard_normal(p.data.shape)
        opt.step()
    assert all(np.all(v >= 0) for v in opt.second_moment)
