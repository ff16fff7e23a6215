"""Container for monodromy/Stokes data and the braid action on it.

The data (M0, Mx, Minf, s1, s2) is constant along the deformation; the
braid maps below realize the change of the pair under a shift of arg x
by 2*pi (always an even number of half-turns).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OddStepsError
from .linalg import mat_inv

__all__ = ["MonodromyData", "braid_shift"]


@dataclass
class MonodromyData:
    """Monodromy matrices about 0, x, infinity plus the Stokes scalars;
    the Stokes matrices are S1 = I + s1 Delta- and S2 = I + s2 Delta+."""

    M0: np.ndarray
    Mx: np.ndarray
    Minf: np.ndarray
    s1: complex
    s2: complex
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def from_pair(
        cls,
        M0: np.ndarray,
        Mx: np.ndarray,
        thetainf: complex,
        s1: complex | None = None,
        s2: complex | None = None,
    ) -> "MonodromyData":
        """Complete the data from the pair: Minf = M0^-1 Mx^-1 and, when
        not supplied, the Stokes scalars from the product entries
        s1 = -e^(pi i thetainf) (MxM0)_21, s2 = -e^(pi i thetainf) (MxM0)_12."""
        M0 = np.array(M0, dtype=complex)
        Mx = np.array(Mx, dtype=complex)
        prod = Mx @ M0
        phase = cmath.exp(1j * math.pi * complex(thetainf))
        if s1 is None:
            s1 = -phase * prod[1, 0]
        if s2 is None:
            s2 = -phase * prod[0, 1]
        return cls(
            M0=M0,
            Mx=Mx,
            Minf=mat_inv(prod),
            s1=complex(s1),
            s2=complex(s2),
        )


def _shift_up(M0: np.ndarray, Mx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    Mxi = mat_inv(Mx)
    new0 = Mx @ M0 @ Mxi
    newx = Mx @ M0 @ Mx @ mat_inv(M0) @ Mxi
    return new0, newx


def _shift_down(M0: np.ndarray, Mx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    M0i = mat_inv(M0)
    new0 = M0i @ mat_inv(Mx) @ M0 @ Mx @ M0
    newx = M0i @ Mx @ M0
    return new0, newx


def braid_shift(md: MonodromyData, steps: int, thetainf: complex = 0.0) -> MonodromyData:
    """Apply the half-turn shift ``steps`` times (steps must be even;
    each +-2 block is one application of the displayed maps).

    ``thetainf`` is carried through so the Stokes scalars of the result
    are rebuilt with the same phase convention; the product Mx M0 (hence
    s1, s2) is invariant under these maps.
    """
    if steps % 2 != 0:
        raise OddStepsError("braid shift is defined for even step counts")
    M0, Mx = md.M0, md.Mx
    n = steps // 2
    for _ in range(abs(n)):
        M0, Mx = _shift_up(M0, Mx) if n > 0 else _shift_down(M0, Mx)
    return MonodromyData.from_pair(M0, Mx, thetainf)
