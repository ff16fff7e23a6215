"""The Painleve V function y (with companions z, u) from matrix data,
zero/pole lattices on the imaginary strip, and the pi-substituted
Backlund transform.

y is the quotient

    y = (Ax)_12 (A0_11 + theta0/2) / (A0_12 ((Ax)_11 + thetax/2)),

which stays computable from the matrix pair right through the zeros and
poles of y itself (the pair is holomorphic there; only the quotient
degenerates).  So a root is refined by Newton on the pair: on the
degree-12 series pair wherever its measured truncation allows (for
all roots of a lattice as one batch, ``_series_roots``), and on
flow-transported states elsewhere (``refine_root``).  ``pv_residual``
differences y by ``flow.ray_derivatives``.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateParameterError,
    PvisoNumericalError,
    PvisoValueError,
    ResonanceError,
    StencilError,
)
from .flow import FlowState, Seed, _drift_budget, integrate, ray_derivatives, rhs, seed_at
from .series import Parameters, _in_sector, _series_pair, smallness_score

__all__ = [
    "PVPoint",
    "SeedLattice",
    "LatticeKind",
    "yzu_from_matrices",
    "pv_residual",
    "zero_pole_seeds",
    "refine_root",
    "refine_lattice",
    "backlund_pi",
]

_POLE_CUTOFF = 1e-13
# Newton steps refine_root and the series batch take before they give up
MAX_NEWTON = 30
# a root is accepted once |F| <= root_tol and its Newton step is this small
ROOT_STEP = 1e-12
# total degree of the series pair the lattice runs Newton on
ROOT_SERIES_DEGREE = 12


class LatticeKind(str, enum.Enum):
    ZERO = "zero"
    POLE = "pole"


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
    # set by refine_lattice, in seed order: the state at each root, how it
    # was reached ("series" or "transport"), the seed truncation of the
    # series behind it, and (|F|, |step|) of the Newton evaluation that
    # accepted it; and the seed of the anchor state on the axis at the top
    # seed, when the top root was transported
    roots: list[FlowState] | None = None
    sources: list[str] | None = None
    seed_truncations: list[float] | None = None
    newton: list[tuple[float, float]] | None = None
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


def pv_residual(
    p: Parameters,
    x: complex,
    h: float = 1e-3,
    *,
    state: FlowState,
    tol: float = 1e-12,
) -> float:
    """Absolute residual of the second-order Painleve V equation at x,
    with y', y'' from ``flow.ray_derivatives`` on 3 points about x, walked
    from ``state``, a state near x.  A sample at or near a pole of y, or
    y at x within 1e-10 of 0 or 1, raises StencilError.
    """
    x = complex(x)

    def y_at(st: FlowState) -> complex:
        y = yzu_from_matrices(st).y
        if not abs(y) < 1e12:  # a flagged pole reads inf
            raise StencilError(f"the stencil about {x} is at or near a pole of y")
        return y

    # the documented tolerance model is h^2 * y''''
    y0, d1, d2 = ray_derivatives(state, x, h, y_at, 2, tol)
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


def _newton(s: FlowState, kind: LatticeKind):
    """F and the Newton step -F/F' at the state, for F = N/D with
    N = (Ax)_12 (A0_11 + theta0/2), D = A0_12 ((Ax)_11 + thetax/2) when
    seeking zeros of y, and N, D swapped (F = 1/y) for poles.  N' and D'
    come from the flow's vector field, so -F/F' = -N D / (N' D - N D')
    is exact; a vanishing D or F' gives a non-finite F or step.  ``s``
    may also be a record of N states, as ``rhs`` takes it, and F and the
    step are then arrays."""
    a0, ax = s.A0, s.Ax
    da0, dax = rhs(s)
    p0 = a0[0, 0] + s.params.theta0 / 2.0
    px = ax[0, 0] + s.params.thetax / 2.0
    n, d = ax[0, 1] * p0, a0[0, 1] * px
    dn = dax[0, 1] * p0 + ax[0, 1] * da0[0, 0]
    dd = da0[0, 1] * px + a0[0, 1] * dax[0, 0]
    if kind is LatticeKind.POLE:
        n, d, dn, dd = d, n, dd, dn
    with np.errstate(divide="ignore", invalid="ignore"):
        return n / d, -n * d / (dn * d - n * dd)


def refine_root(
    seed: complex,
    kind: LatticeKind,
    tol: float = 1e-9,
    *,
    state: FlowState,
    flow_tol: float = 1e-12,
) -> tuple[FlowState, tuple[float, float]]:
    """Newton refinement of a zero of y (kind ZERO) or of 1/y (kind POLE)
    starting from ``seed``.

    ``state`` is transported straight to the seed, then once per Newton
    step.  The step comes from ``_newton``: exact, from the flow's vector
    field, at no extra transport.

    Returns the state at the root, where |y| <= tol (resp. |1/y| <= tol)
    and the Newton step is at most ``ROOT_STEP``, with (|F|, |step|) of
    that Newton evaluation: the residual and the root's error bar.
    """
    state = integrate(state, complex(seed), flow_tol)
    for _ in range(MAX_NEWTON):
        f, step = _newton(state, kind)
        if abs(f) <= tol and abs(step) <= ROOT_STEP:
            return state, (float(abs(f)), float(abs(step)))
        if not abs(step) <= 2.0:
            raise ConvergenceError(f"Newton step {abs(step):.2f} leaves the basin of seed {seed}")
        state = integrate(state, state.x + step, flow_tol)
    raise ConvergenceError(f"no convergence after {MAX_NEWTON} Newton iterations")


# N states in the form rhs and _newton take: x (N,), A0 and Ax (2, 2, N)
_Iterates = namedtuple("_Iterates", "x A0 Ax params")


def _series_roots(
    p: Parameters, seeds: list[complex], kind: LatticeKind, tol: float, flow_tol: float
) -> list[tuple[FlowState, float, tuple[float, float]] | None]:
    """Newton refinement of every seed's root, as ``refine_root`` does
    it, on the series pair of total degree ``ROOT_SERIES_DEGREE`` at each
    iterate: no transport, and all seeds as one batch.

    The lattice roots lie outside the strip ``series_seed`` admits
    (|E-| = 0.24 at P8Z's zero at m = 10), where the series still
    converges.  So the pair is evaluated in the strip's sector alone, and
    a root is accepted when its seed truncation fits the drift budget at
    ``flow_tol``, the rule ``seed_at`` applies.  Returns, per seed, the
    state at its root, its seed truncation and (|F|, |step|) of the
    Newton evaluation that accepted it, or None when an iterate leaves
    the sector or is not finite there (whatever numpy's error state), a
    Newton step leaves the seed's basin (> 2), Newton does not converge,
    or the truncation at the root is over the budget."""
    x = np.array(seeds, dtype=complex)
    hits = [None] * len(x)
    live = np.arange(len(x))
    for _ in range(MAX_NEWTON):
        rows = live[_in_sector(x[live])]
        if not rows.size:
            break
        with np.errstate(all="ignore"):
            A0, Ax, truncation = _series_pair(p, x[rows], ROOT_SERIES_DEGREE)
            f, step = _newton(_Iterates(x[rows], A0, Ax, p), kind)
            entries = [*A0.reshape(4, -1), *Ax.reshape(4, -1), f, step, truncation]
            finite = np.isfinite(entries).all(axis=0)
            converged = finite & (abs(f) <= tol) & (abs(step) <= ROOT_STEP)
            moving = finite & ~converged & (abs(step) <= 2.0)
        for j in np.flatnonzero(converged):
            state = FlowState(x=x[rows[j]], A0=A0[..., j], Ax=Ax[..., j], params=p)
            if truncation[j] <= _drift_budget(state.A0, state.Ax, flow_tol):
                newton = float(abs(f[j])), float(abs(step[j]))
                hits[rows[j]] = state, float(truncation[j]), newton
        live = rows[moving]
        x[live] += step[moving]
    return hits


def refine_lattice(
    p: Parameters,
    kind: LatticeKind,
    m_from: int,
    m_to: int,
    *,
    root_tol: float = 1e-9,
    flow_tol: float = 1e-12,
) -> SeedLattice:
    """The seeds of ``zero_pole_seeds`` for m_from..m_to refined from the
    top down.  Every root is tried first on the series, all in one batch
    with no transport (``_series_roots``).  A root the series does not
    reach is refined by ``refine_root``, from the state at the root
    above, or at the top seed from an anchor state that ``flow.seed_at``
    seeds on the axis.

    The returned lattice's ``roots`` holds the state at each root in seed
    order, ``sources`` says which path reached it, and
    ``seed_truncations`` gives the seed truncation of the series behind
    it: its own for a series root, and that of the state it was carried
    from for a transported one.  ``newton`` holds (|F|, |step|) of the
    Newton evaluation that accepted each root.  ``anchor`` is the anchor's
    seed, or None when the top root came from the series."""
    lattice = zero_pole_seeds(p, kind, m_from, m_to)
    seeds = [seed for _, seed in lattice.seeds]
    hits = _series_roots(p, seeds, kind, root_tol, flow_tol)
    state, truncation, found = None, None, []
    for seed, hit in zip(reversed(seeds), reversed(hits)):
        if hit is not None:
            (state, truncation, newton), source = hit, "series"
        else:
            if state is None:
                lattice.anchor = seed_at(p, 1j * seed.imag, flow_tol)
                state, truncation = lattice.anchor.state, lattice.anchor.seed_truncation
            state, newton = refine_root(seed, kind, root_tol, state=state, flow_tol=flow_tol)
            source = "transport"
        found.append((state, source, truncation, newton))
    columns = map(list, zip(*reversed(found)))
    lattice.roots, lattice.sources, lattice.seed_truncations, lattice.newton = columns
    return lattice


def backlund_pi(
    p: Parameters, x: complex, y: complex, Ax11: complex
) -> tuple[complex, tuple[complex, complex, complex]]:
    """Backlund transform of y through the matrix entry (Ax)_11:

        Y = x^-1 (y-1) ((Ax)_11 + thetax/2 - ((Ax)_11 - thetax/2)/y),
        y_new = Y/(1+Y).

    The output solves the same equation with the substituted constants

        theta0' = 1 + (thetax + thetainf - theta0)/2,
        thetax' = (theta0 + thetainf - thetax)/2,
        thetainf' = 1 - theta0 - thetax,

    returned as the triple (theta0', thetax', thetainf').  The output's
    sigma, c0 and cx are not computed, so no parameter record is returned.
    (The substitution was pinned numerically by fitting the transformed
    function against the equation's three parameter invariants; the zero
    locus of the output sits exactly on y = 1 through the (y-1) factor.)
    """
    if y == 0:
        raise PvisoValueError("Backlund transform undefined at y = 0")
    tx = p.thetax
    Y = (y - 1.0) * (Ax11 + tx / 2.0 - (Ax11 - tx / 2.0) / y) / x
    if abs(1.0 + Y) < 1e-300:
        raise PvisoValueError("Backlund transform pole: 1 + Y = 0")
    t0, ti = p.theta0, p.thetainf
    thetas = (1.0 + (tx + ti - t0) / 2.0, (t0 + ti - tx) / 2.0, 1.0 - t0 - tx)
    return Y / (1.0 + Y), thetas
