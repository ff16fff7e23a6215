"""Complex 2x2 matrix helpers and complex powers on a given branch of log.

Matrices are plain ``numpy`` arrays of shape (2, 2) and dtype complex128.
The named constants I2, J, DELTA_PLUS, DELTA_MINUS are the four basis
matrices used throughout: identity, diag(1, -1), and the upper/lower
nilpotents.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import SingularMatrixError

__all__ = [
    "I2",
    "J",
    "DELTA_PLUS",
    "DELTA_MINUS",
    "mat",
    "mat_inv",
    "det2",
    "tr2",
    "commutator",
    "mat_norm",
    "exp_J",
    "branched_power",
    "power_J",
]


def _const(a11, a12, a21, a22) -> np.ndarray:
    m = np.array([[a11, a12], [a21, a22]], dtype=complex)
    m.setflags(write=False)
    return m


I2 = _const(1, 0, 0, 1)
J = _const(1, 0, 0, -1)
DELTA_PLUS = _const(0, 1, 0, 0)
DELTA_MINUS = _const(0, 0, 1, 0)


def mat(a11, a12, a21, a22) -> np.ndarray:
    """Build a complex 2x2 matrix from its entries."""
    return np.array([[a11, a12], [a21, a22]], dtype=complex)


def det2(a: np.ndarray) -> complex:
    return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]


def tr2(a: np.ndarray) -> complex:
    return a[0, 0] + a[1, 1]


def mat_inv(a: np.ndarray) -> np.ndarray:
    d = det2(a)
    if abs(d) <= 1e-300:
        raise SingularMatrixError(f"matrix is numerically singular, |det| = {abs(d)}")
    return mat(a[1, 1] / d, -a[0, 1] / d, -a[1, 0] / d, a[0, 0] / d)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def mat_norm(a: np.ndarray) -> float:
    """Max-abs entry norm; enough for the tolerances used here."""
    return float(np.max(np.abs(a)))


def exp_J(w: complex) -> np.ndarray:
    """exp(w * J) = diag(e^w, e^-w)."""
    return mat(cmath.exp(w), 0.0, 0.0, cmath.exp(-w))


def branched_power(log: complex, exponent: complex) -> complex:
    """z**exponent on the branch of log z given as ``log`` = ln|z| + i arg z."""
    return cmath.exp(complex(exponent) * log)


def power_J(log: complex, exponent: complex) -> np.ndarray:
    """lambda^(exponent * J) = diag(lambda^exponent, lambda^-exponent) on
    the branch ``log`` of log lambda."""
    p = branched_power(log, exponent)
    return mat(p, 0.0, 0.0, 1.0 / p)
