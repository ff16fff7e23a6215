import cmath
import math

import numpy as np
import pytest

from pviso.errors import PvisoValueError, SingularMatrixError
from pviso.linalg import (
    DELTA_MINUS,
    DELTA_PLUS,
    I2,
    J,
    BranchedLog,
    branched_power,
    det2,
    eigvals2,
    mat,
    mat_inv,
    mat_norm,
)


def test_basis_products():
    assert np.array_equal(J @ J, I2)
    assert np.allclose(mat_inv(J), J)
    assert eigvals2(DELTA_PLUS + DELTA_MINUS) == (1.0, -1.0)


def test_associativity_and_identity():
    rng = np.random.RandomState(0)
    for _ in range(25):
        a, b, c = (rng.randn(2, 2) + 1j * rng.randn(2, 2) for _ in range(3))
        assert np.allclose((a @ b) @ c, a @ (b @ c), atol=1e-12)
        assert np.allclose(a @ I2, a)
        assert np.allclose(I2 @ a, a)


def test_inverse_and_eig_residual():
    rng = np.random.RandomState(1)
    for _ in range(40):
        a = rng.randn(2, 2) + 1j * rng.randn(2, 2)
        assert mat_norm(a @ mat_inv(a) - I2) < 1e-12 * (1 + mat_norm(a) ** 2)
        for lam in eigvals2(a):
            res = abs(det2(a - lam * I2))
            assert res <= 1e-12 * max(1.0, mat_norm(a) ** 2)


def test_eig_ordering_deterministic():
    a = mat(2.0, 1.0, 0.0, -3.0)
    assert eigvals2(a) == (2.0, -3.0)
    b = mat(1j, 0, 0, -1j)
    assert eigvals2(b) == (1j, -1j)


def test_singular_matrix_error():
    with pytest.raises(SingularMatrixError):
        mat_inv(mat(1.0, 2.0, 2.0, 4.0))


def test_branched_log_roundtrip():
    for z in (1 + 2j, -3.5 + 0.1j, 1e-4j, -7.0 + 0j):
        bl = BranchedLog.from_point(z)
        assert abs(bl.point - z) <= 1e-13 * abs(z)


def test_branched_log_of_zero_raises():
    with pytest.raises(PvisoValueError):
        BranchedLog.from_point(0.0)


def test_branched_log_continuity_two_turns():
    # two positive turns around the origin: the tracked argument gains 4*pi
    bl = BranchedLog.from_point(1.0)
    n = 64
    for k in range(1, 2 * n + 1):
        bl = bl.continue_to(cmath.exp(2j * math.pi * k / n))
    assert abs(bl.tracked_arg - 4.0 * math.pi) < 1e-12
    assert abs(bl.point - 1.0) < 1e-12


def test_branched_power_examples():
    base = BranchedLog.from_point(1j)
    assert abs(branched_power(base, 2.0) - (-1.0)) < 1e-14
    one = BranchedLog.from_point(1.0)
    assert branched_power(one, 0.37 + 5j) == 1.0
    # base i*e with tracked arg pi/2, exponent i
    ie = BranchedLog.from_point(1j * math.e)
    expected = math.exp(-math.pi / 2.0) * (math.cos(1.0) + 1j * math.sin(1.0))
    assert abs(branched_power(ie, 1j) - expected) < 1e-14


def test_branched_power_additivity():
    rng = np.random.RandomState(2)
    for _ in range(30):
        z = complex(rng.randn(), rng.randn())
        if abs(z) < 1e-3:
            continue
        base = BranchedLog.from_point(z, arg_hint=rng.uniform(-9, 9))
        a = complex(rng.randn(), rng.randn())
        b = complex(rng.randn(), rng.randn())
        lhs = branched_power(base, a + b)
        rhs = branched_power(base, a) * branched_power(base, b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
