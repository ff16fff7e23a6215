"""Complex 2x2 matrix helpers and branch-tracked complex powers.

Matrices are plain ``numpy`` arrays of shape (2, 2) and dtype complex128.
The named constants I2, J, DELTA_PLUS, DELTA_MINUS are the four basis
matrices used throughout: identity, diag(1, -1), and the upper/lower
nilpotents.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PvisoValueError, SingularMatrixError

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
    "BranchedLog",
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


@dataclass(frozen=True)
class BranchedLog:
    """Logarithm of a nonzero point with an explicitly tracked argument.

    ``value`` is ln|z| + i * tracked_arg, so ``exp(value)`` recovers the
    point on the universal cover.  Monodromy computations are precisely
    the study of branch jumps, so the argument is never silently reduced
    mod 2*pi.
    """

    log_abs: float
    tracked_arg: float

    @property
    def value(self) -> complex:
        return complex(self.log_abs, self.tracked_arg)

    @property
    def point(self) -> complex:
        return cmath.exp(self.value)

    @classmethod
    def from_point(cls, z: complex) -> "BranchedLog":
        """Branched log of ``z`` on the principal branch of the argument;
        build the instance directly for another branch."""
        z = complex(z)
        if z == 0:
            raise PvisoValueError("branched log of 0")
        return cls(math.log(abs(z)), cmath.phase(z))


def branched_power(base: BranchedLog, exponent: complex) -> complex:
    """base**exponent on the branch recorded in ``base``."""
    return cmath.exp(complex(exponent) * base.value)


def power_J(base: BranchedLog, exponent: complex) -> np.ndarray:
    """lambda^(exponent * J) = diag(lambda^exponent, lambda^-exponent)."""
    p = branched_power(base, exponent)
    return mat(p, 0.0, 0.0, 1.0 / p)
