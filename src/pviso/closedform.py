"""Gamma-function formulas for the monodromy data of the family.

Two independent constructions are kept side by side:

(i) entrywise: the explicit entries of M0 and Mx (and the Stokes scalars
    s1, s2) as combinations of reciprocal-Gamma values.  These are entire
    in the parameters and extend by continuity to every non-resonant
    point, including integer theta.
(ii) structural: Mx = Cx^-1 e^(pi i thetax J) Cx and
    M0 = S2 (C0^2)^-1 e^(pi i theta0 J) C0^2 S2^-1 built from the
    connection factors; for integer theta the local factor degenerates
    to (-1)^theta (I + 2 pi i Delta) with digamma entries in the V hat
    matrices.

Both are computed and must agree; the returned data comes from (i)
completed through the trace/Stokes relations, which stays finite in the
corner cases where (ii) hits a genuine resonance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, GammaPoleError, ResonanceError, ZeroConstantError
from .linalg import DELTA_MINUS, DELTA_PLUS, I2, det2, mat, mat_inv, mat_norm
from .monodata import MonodromyData
from .series import Parameters
from .special import digamma, gamma, rgamma

__all__ = ["ConnectionFactors", "closed_form_factors", "closed_form_monodromy"]

_TWO_PI_I = 2j * math.pi

_INT_TOL = 1e-12


def _as_integer(z: complex) -> int | None:
    z = complex(z)
    n = round(z.real)
    if abs(z - n) < _INT_TOL:
        return int(n)
    return None


@dataclass
class ConnectionFactors:
    """Connection matrices linking the local frames at 0, x, infinity."""

    V0: np.ndarray
    Vx: np.ndarray
    Sstar: np.ndarray
    Sstarstar: np.ndarray
    C01: np.ndarray
    C02: np.ndarray
    Cx: np.ndarray
    integer_case_0: bool
    integer_case_x: bool
    delta_star_0: str | None  # "plus" | "minus" when integer_case_0
    delta_star_x: str | None
    sqrt_c0: complex  # recorded branch used in c0^(-J/2)
    sqrt_cx: complex


def _hadamard_ratio(m: np.ndarray) -> float:
    """||row1|| * ||row2|| / |det|: conditioning of the conjugation by m."""
    r1 = math.hypot(abs(m[0, 0]), abs(m[0, 1]))
    r2 = math.hypot(abs(m[1, 0]), abs(m[1, 1]))
    d = abs(det2(m))
    return math.inf if d == 0.0 else r1 * r2 / d


def _ensure_nonsingular(name: str, m: np.ndarray) -> None:
    if _hadamard_ratio(m) > 1e10:
        raise ResonanceError(
            f"parameter resonance: {name} is numerically singular "
            f"(det = {det2(m)})"
        )


def _v_generic(sigma: complex, theta: complex, thetainf: complex) -> np.ndarray:
    """Local-to-canonical connection matrix for a regular point with
    exponents +-theta/2 (the 0-point version; the x-point one follows by
    the substitution (sigma, theta0) -> (-sigma, thetax))."""
    a = (sigma + 2.0 * theta - thetainf) / 4.0
    b = (sigma - 2.0 * theta - thetainf) / 4.0
    gp = gamma(-theta)
    gm = gamma(theta)
    return mat(
        cmath.exp(1j * math.pi * b) * gp * rgamma(1.0 - a),
        gp * rgamma(1.0 + b),
        cmath.exp(1j * math.pi * a) * gm * rgamma(-b),
        -gm * rgamma(a),
    )


def _v_integer(sigma: complex, theta_int: int, thetainf: complex) -> np.ndarray:
    """Integer-exponent replacement of the V matrix (digamma entries).

    Both digamma arguments of the logarithmic row refer to the same
    quarter-combination ((sigma - 2 theta - thetainf)/4 in the upper
    branch, (sigma + 2 theta - thetainf)/4 in the lower one); this is
    what the integer limit of the generic conjugation demands for every
    integer, and it is verified against that limit in the tests.
    """
    sigma = complex(sigma)
    a = (sigma + 2.0 * theta_int - thetainf) / 4.0
    b = (sigma - 2.0 * theta_int - thetainf) / 4.0
    psi1 = digamma(1.0)
    if theta_int >= 0:
        fact = math.factorial(theta_int)
        d1 = cmath.exp(1j * math.pi * a) / fact * rgamma(1.0 - a)
        d2 = (-1.0) ** theta_int / fact * rgamma(1.0 + b)
        v11 = digamma(-b) - psi1 - digamma(1.0 + theta_int) - 1j * math.pi
        v12 = digamma(1.0 + b) - psi1 - digamma(1.0 + theta_int)
        return mat(v11 * d1, v12 * d2, d1, d2)
    fact = math.factorial(-theta_int)
    d1 = -cmath.exp(1j * math.pi * b) / fact * rgamma(-b)
    d2 = (-1.0) ** theta_int / fact * rgamma(a)
    v21 = digamma(-a) - psi1 - digamma(1.0 - theta_int) - 1j * math.pi
    v22 = digamma(1.0 + a) - psi1 - digamma(1.0 - theta_int)
    return mat(d1, d2, v21 * d1, v22 * d2)


def _exp_piJ(w: complex) -> np.ndarray:
    """diag(e^(i pi w), e^(-i pi w))."""
    e = cmath.exp(1j * math.pi * w)
    return mat(e, 0.0, 0.0, 1.0 / e)


def _c_half_inv(c: complex) -> tuple[np.ndarray, complex]:
    """c^(-J/2) = diag(1/sqrt(c), sqrt(c)) on the principal branch."""
    r = cmath.sqrt(c)
    return mat(1.0 / r, 0.0, 0.0, r), r


def _require_constants(p: Parameters) -> None:
    if p.c0 == 0 or p.cx == 0:
        raise ZeroConstantError("closed form needs c0 != 0 and cx != 0")


def closed_form_factors(p: Parameters) -> ConnectionFactors:
    """All connection matrices of the closed-form monodromy description."""
    _require_constants(p)
    s, t0, tx, ti = p.sigma, p.theta0, p.thetax, p.thetainf
    a = (s + 2.0 * t0 - ti) / 4.0
    b = (s - 2.0 * t0 - ti) / 4.0

    n0 = _as_integer(t0)
    nx = _as_integer(tx)
    V0 = _v_generic(s, t0, ti) if n0 is None else _v_integer(s, n0, ti)
    Vx = _v_generic(-s, tx, ti) if nx is None else _v_integer(-s, nx, ti)
    _ensure_nonsingular("V0", V0)
    _ensure_nonsingular("Vx", Vx)

    sstar = I2 - _TWO_PI_I * rgamma(-b) * rgamma(1.0 - a) * DELTA_MINUS
    sstarstar = (
        I2
        + _TWO_PI_I
        * cmath.exp(-1j * math.pi * (s - ti) / 2.0)
        * rgamma(a)
        * rgamma(1.0 + b)
        * DELTA_PLUS
    )

    c0_half_inv, r0 = _c_half_inv(p.c0)
    cx_half_inv, rx = _c_half_inv(p.cx)
    e_quarter = _exp_piJ((s + ti) / 4.0)
    C01 = V0 @ mat_inv(sstar) @ e_quarter @ c0_half_inv
    C02 = V0 @ mat_inv(sstarstar) @ mat_inv(e_quarter) @ c0_half_inv
    Cx = Vx @ cx_half_inv

    return ConnectionFactors(
        V0=V0,
        Vx=Vx,
        Sstar=sstar,
        Sstarstar=sstarstar,
        C01=C01,
        C02=C02,
        Cx=Cx,
        integer_case_0=n0 is not None,
        integer_case_x=nx is not None,
        delta_star_0=None if n0 is None else ("plus" if n0 >= 0 else "minus"),
        delta_star_x=None if nx is None else ("plus" if nx >= 0 else "minus"),
        sqrt_c0=r0,
        sqrt_cx=rx,
    )


def _local_monodromy_factor(theta: complex) -> np.ndarray:
    """The middle factor of the conjugation construction: e^(i pi theta J)
    generically, (-1)^theta (I + 2 pi i Delta) at integer theta."""
    n = _as_integer(theta)
    if n is None:
        return _exp_piJ(theta)
    delta = DELTA_PLUS if n >= 0 else DELTA_MINUS
    return ((-1.0) ** n) * (I2 + _TWO_PI_I * delta)


def _entrywise(p: Parameters) -> tuple[np.ndarray, np.ndarray, complex, complex]:
    """Construction (i): explicit reciprocal-Gamma entries, completed via
    tr M0 = 2 cos(pi theta0), tr Mx = 2 cos(pi thetax) and the Stokes
    product relations (MxM0)_12 = -e^(-pi i thetainf) s2,
    (MxM0)_21 = -e^(-pi i thetainf) s1."""
    _require_constants(p)
    s, t0, tx, ti = p.sigma, p.theta0, p.thetax, p.thetainf
    a = (s + 2.0 * t0 - ti) / 4.0
    b = (s - 2.0 * t0 - ti) / 4.0
    ax = (s + 2.0 * tx + ti) / 4.0
    bx = (s - 2.0 * tx + ti) / 4.0

    k0 = _TWO_PI_I / p.c0 * rgamma(1.0 - a) * rgamma(-b)
    kx = _TWO_PI_I * p.cx * rgamma(1.0 - ax) * rgamma(-bx)

    m0_11 = cmath.exp(1j * math.pi * (s - ti) / 2.0) * (1.0 - k0 * kx)
    m0_21 = cmath.exp(-1j * math.pi * ti) * k0
    mx_11 = cmath.exp(-1j * math.pi * (s + ti) / 2.0)
    mx_12 = kx

    s1 = (
        -cmath.exp(1j * math.pi * (s + ti) / 2.0) * k0
        - _TWO_PI_I / p.cx * rgamma(1.0 + bx) * rgamma(ax)
    )
    s2 = (
        -_TWO_PI_I * cmath.exp(1j * math.pi * ti) * p.c0 * rgamma(1.0 + b) * rgamma(a)
        - cmath.exp(1j * math.pi * (s + ti) / 2.0) * kx
    )

    m0_22 = 2.0 * cmath.cos(math.pi * t0) - m0_11
    mx_22 = 2.0 * cmath.cos(math.pi * tx) - mx_11
    phase = cmath.exp(-1j * math.pi * ti)
    # (Mx M0)_12 = mx_11 m0_12 + mx_12 m0_22 = -phase*s2; mx_11 never 0
    m0_12 = (-phase * s2 - mx_12 * m0_22) / mx_11
    # (Mx M0)_21 = mx_21 m0_11 + mx_22 m0_21 = -phase*s1
    if abs(m0_11) > 1e-8:
        mx_21 = (-phase * s1 - mx_22 * m0_21) / m0_11
    else:
        # fall back to det Mx = 1 (resonant corner where (M0)_11 ~ 0)
        mx_21 = (mx_11 * mx_22 - 1.0) / mx_12
    M0 = mat(m0_11, m0_12, m0_21, m0_22)
    Mx = mat(mx_11, mx_12, mx_21, mx_22)
    return M0, Mx, s1, s2


def _structural(p: Parameters, cf: ConnectionFactors, s2: complex) -> tuple[np.ndarray, np.ndarray]:
    e0 = _local_monodromy_factor(p.theta0)
    ex = _local_monodromy_factor(p.thetax)
    Mx = mat_inv(cf.Cx) @ ex @ cf.Cx
    S2 = I2 + s2 * DELTA_PLUS
    M0 = S2 @ mat_inv(cf.C02) @ e0 @ cf.C02 @ mat_inv(S2)
    return M0, Mx


def closed_form_monodromy(
    p: Parameters,
    *,
    check_tol: float = 1e-10,
    require_structural: bool = False,
) -> MonodromyData:
    """Monodromy data from the explicit formulas, cross-checked against
    the conjugation construction whenever the latter is non-resonant.

    The two constructions must agree entrywise within ``check_tol``.
    When the conjugation route hits a genuine resonance (singular V or a
    digamma pole), the entrywise data is returned alone unless
    ``require_structural`` is set.
    """
    M0, Mx, s1, s2 = _entrywise(p)
    diag = {"structural_checked": False, "structural_max_diff": math.nan}
    try:
        cf = closed_form_factors(p)
        M0s, Mxs = _structural(p, cf, s2)
    except (ResonanceError, GammaPoleError):
        if require_structural:
            raise
    else:
        diff = max(mat_norm(M0 - M0s), mat_norm(Mx - Mxs))
        # the conjugation route loses accuracy like the conditioning of
        # its connection matrices; near-integer theta this is large
        cond = max(_hadamard_ratio(cf.V0), _hadamard_ratio(cf.Vx), 1.0)
        scale = (1.0 + max(mat_norm(M0), mat_norm(Mx))) * cond
        if diff > check_tol * scale:
            raise ConsistencyError(
                "closed-form constructions disagree: "
                f"max entry diff {diff:.3e} (entrywise vs conjugation)"
            )
        diag = {"structural_checked": True, "structural_max_diff": diff}
    md = MonodromyData.from_pair(M0, Mx, p.thetainf, s1=s1, s2=s2)
    md.diagnostics.update(diag)
    return md
