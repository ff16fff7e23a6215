"""The Painleve V function y (with companions z, u) from matrix data,
its leading series, zero/pole lattices on the imaginary strip, and the
pi-substituted Backlund transform.

y is the quotient

    y = (Ax)_12 (A0_11 + theta0/2) / (A0_12 ((Ax)_11 + thetax/2)),

which stays computable from the matrix pair right through the zeros and
poles of y itself (the pair is holomorphic there; only the quotient
degenerates).  Root refinement therefore rides on flow transport.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .errors import (
    ConvergenceError,
    DegenerateParameterError,
    PvisoNumericalError,
    PvisoValueError,
    ResonanceError,
    StencilError,
)
from .flow import FlowState, Seed, integrate, ray_stencil, refine_at, rhs, seed_state
from .series import Parameters, domain_check, smallness_score

__all__ = [
    "PVPoint",
    "SeedLattice",
    "LatticeKind",
    "yzu_from_matrices",
    "y_series",
    "DegenerateBranch",
    "y_degenerate_series",
    "pv_residual",
    "zero_pole_seeds",
    "root_check",
    "refine_root",
    "refine_lattice",
    "backlund_pi",
]

_POLE_CUTOFF = 1e-13


class LatticeKind(str, enum.Enum):
    ZERO = "zero"
    POLE = "pole"


class DegenerateBranch(str, enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass
class PVPoint:
    """Values (y, z, u) at one x; ``pole`` flags a sample where one of
    the defining denominators vanished to working precision."""

    y: complex
    z: complex
    u: complex
    pole: bool = False


@dataclass
class SeedLattice:
    """Predicted roots and the smallness heuristic for their asymptotics,
    which passes when score * strip_level <= 0.5."""

    kind: LatticeKind
    rho: complex
    seeds: list[tuple[int, complex]]
    score: float  # series.smallness_score of the parameters
    strip_level: float  # |rho c| for zeros, 1/|rho c| for poles
    # set by refine_lattice: the state at each root, and the seed of the
    # anchor state on the axis at the top seed
    roots: list[FlowState] | None = None
    anchor: Seed | None = None

    @property
    def smallness_pass(self) -> bool:
        return self.score * self.strip_level <= 0.5


def yzu_from_matrices(s: FlowState) -> PVPoint:
    a0, ax = s.A0, s.Ax
    t0, tx = s.params.theta0, s.params.thetax
    num = ax[0, 1] * (a0[0, 0] + t0 / 2.0)
    den = a0[0, 1] * (ax[0, 0] + tx / 2.0)
    scale = max(abs(a0[0, 1]), abs(ax[0, 1]), 1e-30)
    z = a0[0, 0] - t0 / 2.0
    u_den = a0[0, 0] + t0 / 2.0
    pole = bool(abs(den) < _POLE_CUTOFF * scale)
    y = num / den if not pole else complex(math.inf, 0.0)
    u = -a0[0, 1] / u_den if abs(u_den) > _POLE_CUTOFF * scale else complex(math.inf, 0.0)
    return PVPoint(y=complex(y), z=complex(z), u=complex(u), pole=pole)


def y_series(p: Parameters, x: complex, *, check_domain: bool = True, eps: float = 0.1) -> complex:
    """Printed leading series: y = c e^x x^sigma (1 + a1 E+ + b1 E-) with
    a1 = c(-sigma+theta0+thetax)/2, b1 = (sigma+theta0+thetax)/(2c).
    Relative truncation error O(1/x)."""
    c = p.c
    s, t0, tx = p.sigma, p.theta0, p.thetax
    for excl in (-2.0 * t0 + p.thetainf, 2.0 * tx - p.thetainf):
        if abs(s - excl) < 1e-9:
            raise ResonanceError(f"sigma = {s} hits the excluded value {excl}")
    if check_domain and not domain_check(p, x, eps):
        raise PvisoValueError(f"x = {x} outside the admissible strip")
    a1 = c * (-s + t0 + tx) / 2.0
    b1 = (s + t0 + tx) / (2.0 * c)
    xs = cmath.exp(s * cmath.log(x))
    ep = cmath.exp(x) * xs / x
    em = 1.0 / (cmath.exp(x) * xs * x)
    return c * cmath.exp(x) * xs * (1.0 + a1 * ep + b1 * em)


def y_degenerate_series(p: Parameters, x: complex, branch: DegenerateBranch) -> complex:
    """One-parameter branches at the degenerate sigma values; printed
    leading terms only."""
    t0, tx, ti = p.theta0, p.thetax, p.thetainf
    if branch is DegenerateBranch.PLUS:
        if tx * (t0 - tx - ti) == 0:
            raise DegenerateParameterError("plus branch needs thetax(theta0-thetax-thetainf) != 0")
        s0 = -2.0 * tx - ti
        c = p.c if p.cx != 0 else 0.0
        lead = 0.5 * (t0 - tx - ti) / x
        return lead + c * cmath.exp(x) * cmath.exp(s0 * cmath.log(x))
    if t0 * (t0 - tx + ti) == 0:
        raise DegenerateParameterError("minus branch needs theta0(theta0-thetax+thetainf) != 0")
    s0p = 2.0 * t0 + ti
    cp = p.cprime if p.cx != 0 else 0.0
    recip = 0.5 * (t0 - tx + ti) / x + cp / (cmath.exp(x) * cmath.exp(s0p * cmath.log(x)))
    return 1.0 / recip


def pv_residual(
    p: Parameters,
    x: complex,
    h: float = 1e-3,
    *,
    state: FlowState | None = None,
    tol: float = 1e-12,
    seed_radius: float | None = None,
) -> float:
    """Absolute residual of the second-order Painleve V equation at x,
    with y', y'' from centered differences of the flow-transported y.

    A refined state near x may be passed to avoid re-seeding.
    """
    x = complex(x)
    if state is None:
        state = refine_at(p, x, tol, seed_radius=seed_radius).state
    states, step = ray_stencil(state, x, h, 1, tol)
    ym1, y0, yp1 = ys = [yzu_from_matrices(st).y for st in states]
    if not all(abs(y) < 1e12 for y in ys):  # a flagged pole reads inf
        raise StencilError(f"the stencil about {x} is at or near a pole of y")
    # second-order stencils: the documented tolerance model is h^2 * y''''
    d1 = (yp1 - ym1) / (2.0 * step)
    d2 = (yp1 - 2.0 * y0 + ym1) / (step * step)
    if abs(y0) < 1e-10 or abs(y0 - 1.0) < 1e-10:
        raise StencilError("y at the stencil center is too close to 0 or 1")
    t0, tx, ti = p.theta0, p.thetax, p.thetainf
    rhs = (
        (0.5 / y0 + 1.0 / (y0 - 1.0)) * d1 * d1
        - d1 / x
        + (y0 - 1.0) ** 2 / (8.0 * x * x) * ((t0 - tx + ti) ** 2 * y0 - (t0 - tx - ti) ** 2 / y0)
        + (1.0 - t0 - tx) * y0 / x
        - y0 * (y0 + 1.0) / (2.0 * (y0 - 1.0))
    )
    return abs(d2 - rhs)


def zero_pole_seeds(p: Parameters, kind: LatticeKind, m_from: int, m_to: int) -> SeedLattice:
    """Predicted root locations: for zeros

        x_m = 2 m pi i - (sigma+1) log(2 m pi i) - log(rho0 c),
        rho0 = -4/(sigma + 2 theta0 - thetainf),

    and for poles (of y; zeros of 1/y)

        x_m = 2 m pi i - (sigma-1) log(2 m pi i) - log(rhoinf c),
        rhoinf = -(sigma - 2 thetax + thetainf)/4,

    principal logs with arg(2 m pi i) = pi/2.
    """
    if m_from < 1:
        raise PvisoValueError("m_from must be >= 1")
    if m_to < m_from:
        raise PvisoValueError("empty m range")
    score = smallness_score(p)  # raises ZeroConstantError for c0 = 0 or cx = 0
    s, t0, tx, ti = p.sigma, p.theta0, p.thetax, p.thetainf
    c = p.c
    if kind is LatticeKind.ZERO:
        if tx * (t0 + tx - ti) == 0 or tx * (t0 - tx - ti) == 0:
            raise DegenerateParameterError("zero lattice needs thetax(theta0+-thetax-thetainf) != 0")
        if s + 2.0 * t0 - ti == 0:
            raise ResonanceError(f"rho0 is infinite at sigma = thetainf - 2 theta0 = {s}")
        rho = -4.0 / (s + 2.0 * t0 - ti)
        drift = -(s + 1.0)
    else:
        if t0 * (t0 - tx + ti) == 0 or t0 * (-t0 - tx + ti) == 0:
            raise DegenerateParameterError("pole lattice needs theta0(+-theta0-thetax+thetainf) != 0")
        rho = -(s - 2.0 * tx + ti) / 4.0
        if rho == 0:
            raise ResonanceError(f"rhoinf vanishes at sigma = 2 thetax - thetainf = {s}")
        drift = -(s - 1.0)
    if rho * c == 0:
        raise PvisoNumericalError(f"rho c underflows to 0 at rho = {rho}, c = {c}")
    level = abs(rho * c) if kind is LatticeKind.ZERO else 1.0 / abs(rho * c)
    log_rc = cmath.log(rho * c)
    seeds = []
    for m in range(m_from, m_to + 1):
        two_m_pi_i = 2.0 * m * math.pi * 1j
        lg = complex(math.log(2.0 * m * math.pi), math.pi / 2.0)
        seeds.append((m, two_m_pi_i + drift * lg - log_rc))
    return SeedLattice(kind=kind, rho=rho, seeds=seeds, score=score, strip_level=level)


def _newton(s: FlowState, kind: LatticeKind) -> tuple[complex, complex]:
    """F and the Newton step -F/F' at the state, for F = N/D with
    N = (Ax)_12 (A0_11 + theta0/2), D = A0_12 ((Ax)_11 + thetax/2) when
    seeking zeros of y, and N, D swapped (F = 1/y) for poles.  N' and D'
    come from the flow's vector field, so -F/F' = -N D / (N' D - N D')
    is exact; a vanishing D or F' gives an infinite F or step."""
    a0, ax = s.A0, s.Ax
    da0, dax = rhs(s)
    p0 = a0[0, 0] + s.params.theta0 / 2.0
    px = ax[0, 0] + s.params.thetax / 2.0
    n, d = ax[0, 1] * p0, a0[0, 1] * px
    dn = dax[0, 1] * p0 + ax[0, 1] * da0[0, 0]
    dd = da0[0, 1] * px + a0[0, 1] * dax[0, 0]
    if kind is LatticeKind.POLE:
        n, d, dn, dd = d, n, dd, dn
    slope = dn * d - n * dd
    return (n / d if d != 0 else math.inf), (-n * d / slope if slope != 0 else math.inf)


def root_check(s: FlowState, kind: LatticeKind) -> tuple[float, float]:
    """The residual |y| (kind ZERO) or |1/y| (kind POLE) at the state, and
    the root's error bar: the size of the Newton step from there."""
    f, step = _newton(s, kind)
    return abs(f), abs(step)


def refine_root(
    p: Parameters,
    seed: complex,
    kind: LatticeKind,
    tol: float = 1e-9,
    *,
    state: FlowState,
    flow_tol: float = 1e-12,
    max_iter: int = 30,
) -> FlowState:
    """Newton refinement of a zero of y (kind ZERO) or of 1/y (kind POLE)
    starting from ``seed``.

    ``state`` is transported straight to the seed, then once per Newton
    step.  The step comes from ``_newton``: exact, from the flow's vector
    field, at no extra transport.

    Returns the state at the root, whose ``.x`` has |y| <= tol (resp.
    |1/y| <= tol).
    """
    state = integrate(state, complex(seed), flow_tol)
    for _ in range(max_iter):
        f, step = _newton(state, kind)
        if abs(f) <= tol:
            return state
        if abs(step) > 2.0:
            raise ConvergenceError(f"Newton step {abs(step):.2f} leaves the basin of seed {seed}")
        state = integrate(state, state.x + step, flow_tol)
    raise ConvergenceError(f"no convergence after {max_iter} Newton iterations")


def refine_lattice(
    p: Parameters,
    kind: LatticeKind,
    m_from: int,
    m_to: int,
    *,
    root_tol: float = 1e-9,
    flow_tol: float = 1e-12,
) -> SeedLattice:
    """The seeds of ``zero_pole_seeds`` for m_from..m_to refined by
    ``refine_root`` from the top down: the anchor state comes from
    ``flow.seed_state`` on the axis at the top seed, and every root starts
    from the state at the root above.  The returned lattice's ``roots``
    holds the state at each root, in seed order, and ``anchor`` the
    anchor's seed."""
    lattice = zero_pole_seeds(p, kind, m_from, m_to)
    lattice.anchor = seed_state(p, 1j * lattice.seeds[-1][1].imag, flow_tol)
    state = lattice.anchor.state
    roots = []
    for _, seed in reversed(lattice.seeds):
        state = refine_root(p, seed, kind, root_tol, state=state, flow_tol=flow_tol)
        roots.append(state)
    lattice.roots = roots[::-1]
    return lattice


def backlund_pi(
    p: Parameters, x: complex, y: complex, Ax11: complex
) -> tuple[complex, Parameters]:
    """Backlund transform of y through the matrix entry (Ax)_11:

        Y = x^-1 (y-1) ((Ax)_11 + thetax/2 - ((Ax)_11 - thetax/2)/y),
        y_new = Y/(1+Y).

    The output solves the same equation with the substituted constants

        theta0' = 1 + (thetax + thetainf - theta0)/2,
        thetax' = (theta0 + thetainf - thetax)/2,
        thetainf' = 1 - theta0 - thetax,

    returned in the attached parameter record.  (The substitution was
    pinned numerically by fitting the transformed function against the
    equation's three parameter invariants; the zero locus of the output
    sits exactly on y = 1 through the (y-1) factor.)
    """
    if y == 0:
        raise PvisoValueError("Backlund transform undefined at y = 0")
    tx = p.thetax
    Y = (y - 1.0) * (Ax11 + tx / 2.0 - (Ax11 - tx / 2.0) / y) / x
    if abs(1.0 + Y) < 1e-300:
        raise PvisoValueError("Backlund transform pole: 1 + Y = 0")
    t0, txv, ti = p.theta0, p.thetax, p.thetainf
    new_params = p.replace(
        theta0=1.0 + (txv + ti - t0) / 2.0,
        thetax=(t0 + ti - txv) / 2.0,
        thetainf=1.0 - t0 - txv,
    )
    return Y / (1.0 + Y), new_params
