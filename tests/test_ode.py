import cmath
import math

import numpy as np
import pytest

from pviso.errors import StepUnderflowError
from pviso.ode import ORDER, STEP_BUDGET, integrate_rk54


def _counted(f):
    calls = []

    def g(t, n):
        calls.append(t)
        return f(t, n)

    return g, calls


def _constant(M):
    """Field of the constant system y' = M y, M an (m, m, B) stack."""

    def f(t, n):
        C = np.zeros((n, *M.shape), dtype=complex)
        C[0] = M
        return C

    return f


def _stack(*matrices):
    """(m, m, B) stack of B equal-shaped matrices."""
    return np.stack([np.asarray(a, dtype=complex) for a in matrices], axis=-1)


def _rotation():
    return _constant(_stack([[1j]]))


def test_scalar_exponential():
    out = integrate_rk54(_rotation(), 0.0, 10.0, _stack([[1.0]]), 1e-12)
    assert out.shape == (1, 1, 1) and out.dtype == complex
    assert abs(out[0, 0, 0] - cmath.exp(10j)) <= 1e-10


def test_constant_linear_system_matches_matrix_exponential():
    M = np.array([[0.3 + 1.0j, -0.7], [0.4j, -0.2 - 0.5j]])
    T = 3.0
    w, V = np.linalg.eig(M)
    expected = V @ np.diag(np.exp(w * T)) @ np.linalg.inv(V)
    out = integrate_rk54(_constant(_stack(M)), 0.0, T, _stack(np.eye(2)), 1e-12)
    assert np.max(np.abs(out[..., 0] - expected)) <= 1e-10


def test_time_dependent_scalar_matches_gaussian():
    # y' = 2t y: C(t + s) = 2t + 2s, so y(2) = e^4
    def f(t, n):
        C = np.zeros((n, 1, 1, 1), dtype=complex)
        C[0], C[1] = 2.0 * t, 2.0
        return C

    out = integrate_rk54(f, 0.0, 2.0, _stack([[1.0]]), 1e-12)
    assert abs(out[0, 0, 0] / math.exp(4.0) - 1.0) <= 1e-11


def test_zero_span_returns_input():
    f, calls = _counted(_rotation())
    out = integrate_rk54(f, 2.0, 2.0, _stack([[0.5 - 1j]]), 1e-12)
    assert np.array_equal(out, _stack([[0.5 - 1j]]))
    assert calls == []


def test_blow_up_raises_step_underflow():
    # y' = y / (1 - t), y(0) = 1 leaves every bound at t = 1: the steps
    # shrink with the distance to the pole until they underflow
    def f(t, n):
        return (1.0 - t) ** -np.arange(1.0, n + 1.0).reshape(n, 1, 1, 1) + 0j

    with pytest.raises(StepUnderflowError, match="underflow"):
        integrate_rk54(f, 0.0, 2.0, _stack([[1.0]]), 1e-10)


def test_step_budget_raises_on_tiny_radius():
    # coefficients i rho^-(n+1) at every t, those of i / (rho - s): a
    # radius of 1e-4 everywhere allows steps of ~2e-5, far above the
    # floor, and the unit span would take ~4e4 of them
    rho = 1e-4

    def f(t, n):
        return 1j * rho ** -np.arange(1.0, n + 1.0).reshape(n, 1, 1, 1)

    f, calls = _counted(f)
    with pytest.raises(StepUnderflowError, match="budget"):
        integrate_rk54(f, 0.0, 1.0, _stack([[1.0]]), 1e-12)
    assert len(calls) == STEP_BUDGET


def test_nan_member_raises_step_underflow():
    # a member whose field turns NaN makes its coefficients NaN, so the
    # kernel raises rather than carry NaN beside the finite members
    f = _constant(_stack([[1j]], [[np.nan]]))
    with pytest.raises(StepUnderflowError, match="non-finite"):
        integrate_rk54(f, 0.0, 1.0, _stack([[1.0]], [[1.0]]), 1e-12)


def _cos_field(t, n):
    # C(t) = [[i, 0.1], [0, -cos t]]; the n-th derivative of cos t is cos(t + n pi/2)
    C = np.zeros((n, 2, 2, 1), dtype=complex)
    C[0, 0, 0], C[0, 0, 1] = 1j, 0.1
    C[:, 1, 1, 0] = [-math.cos(t + k * math.pi / 2.0) / math.factorial(k) for k in range(n)]
    return C


def test_repeated_runs_are_identical():
    f1, calls1 = _counted(_cos_field)
    f2, calls2 = _counted(_cos_field)
    y0 = _stack([[1.0, 0.0], [0.5j, 1.0]])
    a = integrate_rk54(f1, 0.0, 7.0, y0, 1e-12)
    b = integrate_rk54(f2, 0.0, 7.0, y0, 1e-12)
    assert len(calls1) == len(calls2) > 0
    assert calls1 == calls2
    assert np.array_equal(a, b)


def test_feval_budget_on_rotation():
    # one field call per step; the order-20 step on e^(it) is ~1.7
    f, calls = _counted(_rotation())
    out = integrate_rk54(f, 0.0, 10.0, _stack([[1.0]]), 1e-12)
    assert ORDER == 20
    assert abs(out[0, 0, 0] - cmath.exp(10j)) <= 1e-11
    assert len(calls) == 6


def _rotations(omega):
    # two rotations, at rates omega and -omega/2, one batch member per rate
    omega = np.atleast_1d(omega)
    zero = np.zeros_like(omega)
    return _constant(np.array([[1j * omega, zero], [zero, -0.5j * omega]]))


def test_batch_matches_scalar_runs():
    tol = 1e-12
    omega = np.array([0.3, 1.0, 2.5, 4.0])
    y0 = _stack(*[[[1.0, 0.5], [-0.25j, 1.0]]] * 4)
    out = integrate_rk54(_rotations(omega), 0.0, 6.0, y0, tol)
    assert out.shape == (2, 2, 4) and out.dtype == complex
    for b, w in enumerate(omega):
        ref = integrate_rk54(_rotations(w), 0.0, 6.0, y0[..., :1], tol)
        assert np.max(np.abs(out[..., b] - ref[..., 0])) <= 10.0 * tol


def test_batch_steps_with_its_hardest_member():
    # one shared h: the slow member is stepped at the fast member's pace
    tol = 1e-12
    fast, calls_fast = _counted(_rotations(8.0))
    integrate_rk54(fast, 0.0, 5.0, _stack(np.eye(2)), tol)
    both, calls_both = _counted(_rotations(np.array([0.1, 8.0])))
    out = integrate_rk54(both, 0.0, 5.0, _stack(np.eye(2), np.eye(2)), tol)
    assert len(calls_both) >= len(calls_fast)
    assert abs(out[0, 0, 0] - cmath.exp(0.5j)) <= 1e-11
    assert abs(out[0, 0, 1] - cmath.exp(40j)) <= 1e-10
