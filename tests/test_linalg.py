import cmath
import math

import numpy as np
import pytest

from pviso.errors import SingularMatrixError
from pviso.linalg import (
    DELTA_MINUS,
    DELTA_PLUS,
    I2,
    J,
    branched_power,
    det2,
    mat,
    mat_inv,
    mat_norm,
    tr2,
)


def test_basis_products():
    assert np.array_equal(J @ J, I2)
    assert np.allclose(mat_inv(J), J)
    # Delta+ + Delta- has eigenvalues +-1
    assert (tr2(DELTA_PLUS + DELTA_MINUS), det2(DELTA_PLUS + DELTA_MINUS)) == (0.0, -1.0)


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
        for lam in np.linalg.eigvals(a):
            res = abs(det2(a - lam * I2))
            assert res <= 1e-12 * max(1.0, mat_norm(a) ** 2)


def test_singular_matrix_error():
    with pytest.raises(SingularMatrixError):
        mat_inv(mat(1.0, 2.0, 2.0, 4.0))


def test_branched_power_examples():
    # principal log i = i pi/2
    assert abs(branched_power(0.5j * math.pi, 2.0) - (-1.0)) < 1e-14
    assert branched_power(0j, 0.37 + 5j) == 1.0
    # base i*e, log 1 + i pi/2, exponent i
    ie = complex(1.0, math.pi / 2.0)
    expected = math.exp(-math.pi / 2.0) * (math.cos(1.0) + 1j * math.sin(1.0))
    assert abs(branched_power(ie, 1j) - expected) < 1e-14
    # one turn past the principal branch of i: the square root changes sign
    turned = complex(0.0, math.pi / 2.0 + 2.0 * math.pi)
    assert abs(cmath.exp(turned) - 1j) < 1e-14
    assert abs(branched_power(turned, 0.5) + cmath.exp(0.25j * math.pi)) < 1e-14


def test_branched_power_additivity():
    rng = np.random.RandomState(2)
    for _ in range(30):
        z = complex(rng.randn(), rng.randn())
        if abs(z) < 1e-3:
            continue
        # the branch of arg z nearest a random argument in (-9, 9)
        a = cmath.phase(z)
        a += 2.0 * math.pi * round((rng.uniform(-9, 9) - a) / (2.0 * math.pi))
        base = complex(math.log(abs(z)), a)
        a = complex(rng.randn(), rng.randn())
        b = complex(rng.randn(), rng.randn())
        lhs = branched_power(base, a + b)
        rhs = branched_power(base, a) * branched_power(base, b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
