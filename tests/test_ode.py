import cmath
import math

import numpy as np
import pytest

from pviso import ode
from pviso.errors import StepUnderflowError
from pviso.ode import integrate_rk54


def _counted(f):
    calls = []

    def g(t, y):
        calls.append(t)
        return f(t, y)

    return g, calls


def _rotation(t, y):
    return [1j * y[0]]


def test_scalar_exponential():
    out = integrate_rk54(_rotation, 0.0, 10.0, [1.0], 1e-12)
    assert out.shape == (1,)
    assert abs(out[0] - cmath.exp(10j)) <= 1e-10


def test_constant_linear_system_matches_matrix_exponential():
    M = np.array([[0.3 + 1.0j, -0.7], [0.4j, -0.2 - 0.5j]])
    T = 3.0
    w, V = np.linalg.eig(M)
    expected = V @ np.diag(np.exp(w * T)) @ np.linalg.inv(V)

    def f(t, y):
        Y = np.reshape(y, (2, 2))
        return (M @ Y).ravel().tolist()

    out = integrate_rk54(f, 0.0, T, np.eye(2, dtype=complex).ravel(), 1e-12)
    assert np.max(np.abs(out.reshape(2, 2) - expected)) <= 1e-10


def test_list_and_array_inputs_agree():
    y0 = [1.0 + 0.5j, -0.25j, 2.0, 0.0]

    def f(t, y):
        a, b, c, d = y
        return (b, -a + 0.1j * c, d * t, c - a)

    a = integrate_rk54(f, 0.5, 4.0, y0, 1e-11)
    b = integrate_rk54(f, 0.5, 4.0, np.array(y0), 1e-11)
    assert isinstance(a, np.ndarray) and a.dtype == complex
    assert np.array_equal(a, b)


def test_zero_span_returns_input():
    f, calls = _counted(_rotation)
    out = integrate_rk54(f, 2.0, 2.0, [0.5 - 1j], 1e-12)
    assert np.array_equal(out, [0.5 - 1j])
    assert calls == []


def test_backward_span_raises():
    with pytest.raises(ValueError):
        integrate_rk54(_rotation, 1.0, 0.0, [1.0], 1e-12)


def test_blow_up_raises_step_underflow():
    # y' = y^2, y(0) = 1 leaves every bound at t = 1
    with pytest.raises(StepUnderflowError):
        integrate_rk54(lambda t, y: [y[0] * y[0]], 0.0, 2.0, [1.0], 1e-10)


def test_repeated_runs_are_identical():
    def f(t, y):
        return [1j * y[0] + 0.1 * y[1], -y[1] * cmath.cos(t)]

    f1, calls1 = _counted(f)
    f2, calls2 = _counted(f)
    a = integrate_rk54(f1, 0.0, 7.0, [1.0, 0.5j], 1e-12)
    b = integrate_rk54(f2, 0.0, 7.0, [1.0, 0.5j], 1e-12)
    assert len(calls1) == len(calls2) > 0
    assert calls1 == calls2
    assert np.array_equal(a, b)


def test_tableau_order_conditions():
    rows = [getattr(ode, f"A{i}") for i in range(2, 13)]
    nodes = [getattr(ode, f"C{i}") for i in range(2, 13)]
    for row, c in zip(rows, nodes):
        assert abs(math.fsum(row) - c) <= 1e-14
    # B and E5 weight stages 1 and 6..12, BHH stages 1, 9 and 12
    c = [0.0, *nodes[4:]]
    for k in range(1, 9):
        moment = math.fsum(b * ci ** (k - 1) for b, ci in zip(ode.B, c))
        assert abs(moment - 1.0 / k) <= 1e-14
    e3 = list(ode.B)
    for i, g in zip((0, 4, 7), ode.BHH):
        e3[i] -= g
    assert abs(math.fsum(ode.E5)) <= 1e-14
    assert abs(math.fsum(e3)) <= 1e-14


def test_feval_budget_on_rotation():
    f, calls = _counted(_rotation)
    out = integrate_rk54(f, 0.0, 10.0, [1.0], 1e-12)
    assert abs(out[0] - cmath.exp(10j)) <= 1e-11
    assert len(calls) == 637


def _rotations(omega):
    # two rotations, at rates omega and -omega/2; an array omega makes
    # one batch member per rate
    def f(t, y):
        return [1j * omega * y[0], -0.5j * omega * y[1]]

    return f


def test_batch_matches_scalar_runs():
    tol = 1e-12
    omega = np.array([0.3, 1.0, 2.5, 4.0])
    y0 = [np.ones(4, dtype=complex), np.full(4, 0.5 - 0.25j)]
    out = integrate_rk54(_rotations(omega), 0.0, 6.0, y0, tol)
    assert out.shape == (2, 4) and out.dtype == complex
    for b, w in enumerate(omega):
        ref = integrate_rk54(_rotations(w), 0.0, 6.0, [1.0, 0.5 - 0.25j], tol)
        assert np.max(np.abs(out[:, b] - ref)) <= 10.0 * tol


def test_batch_steps_with_its_hardest_member():
    # one shared h: the slow member is stepped at the fast member's pace
    tol = 1e-12
    fast, calls_fast = _counted(_rotations(8.0))
    integrate_rk54(fast, 0.0, 5.0, [1.0, 1.0], tol)
    both, calls_both = _counted(_rotations(np.array([0.1, 8.0])))
    out = integrate_rk54(both, 0.0, 5.0, np.ones((2, 2), dtype=complex), tol)
    assert len(calls_both) >= len(calls_fast)
    assert abs(out[0, 0] - cmath.exp(0.5j)) <= 1e-11
    assert abs(out[0, 1] - cmath.exp(40j)) <= 1e-10
