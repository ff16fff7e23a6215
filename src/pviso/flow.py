"""Numerical transport of the matrix pair under the deformation equations

    x dA0/dx = [Ax, A0],
    x dAx/dx = [A0, Ax] + (x/2) [J, Ax].

The flow conserves tr A0, tr Ax, det A0, det Ax and (A0 + Ax)_11, which
are monitored over every transport.  Series seeds at large |x| on the
imaginary axis are refined into high-accuracy states and carried to
moderate |x| where monodromy is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvariantDriftError, OriginError, PathError, PvisoValueError
from .linalg import det2, mat, mat_norm, tr2
from .ode import integrate_rk54
from .series import Parameters, Truncation, domain_check, series_A_pair

__all__ = ["FlowState", "RefineResult", "rhs", "integrate", "refine_from_series"]

_SEED_CHECK_TOL = 1e-12


@dataclass
class FlowState:
    """The pair (x, A0(x), Ax(x)) together with its parameter record."""

    x: complex
    A0: np.ndarray
    Ax: np.ndarray
    params: Parameters
    validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        self.x = complex(self.x)
        self.A0 = np.array(self.A0, dtype=complex)
        self.Ax = np.array(self.Ax, dtype=complex)
        if self.validate:
            scale = 1.0 + mat_norm(self.A0) + mat_norm(self.Ax)
            if abs(tr2(self.A0)) > _SEED_CHECK_TOL * scale or abs(
                tr2(self.Ax)
            ) > _SEED_CHECK_TOL * scale:
                raise PvisoValueError("flow state requires traceless A0, Ax")
            b = self.A0[0, 0] + self.Ax[0, 0] + self.params.thetainf / 2.0
            if abs(b) > 1e-9 * scale:
                raise PvisoValueError(
                    "flow state requires (A0+Ax)_11 = -thetainf/2, defect "
                    f"{abs(b):.3e}"
                )

    def invariants(self) -> dict[str, complex]:
        return {
            "tr_A0": tr2(self.A0),
            "tr_Ax": tr2(self.Ax),
            "det_A0": det2(self.A0),
            "det_Ax": det2(self.Ax),
            "sum_11": self.A0[0, 0] + self.Ax[0, 0],
        }


class RefineResult(NamedTuple):
    state: FlowState
    diagnostic: float


def _flow_field(x0: complex, u: complex):
    """The flow's vector field along x = x0 + t u, as scalar arithmetic.

    With y = (A0 | Ax) row by row and P = [Ax, A0]/x (P_11 = -P_00 since
    a commutator is traceless), dA0/dt = u P and
    dAx/dt = u (-P + [J, Ax]/2), where [J, Ax]/2 has off-diagonal
    (Ax_01, -Ax_10).
    """

    def f(t, y):
        a, b, c, d, e, g, k, m = y
        w = u / (x0 + t * u)
        p00 = (g * c - b * k) * w
        p01 = (b * (e - m) - g * (a - d)) * w
        p10 = (k * (a - d) - c * (e - m)) * w
        return (p00, p01, p10, -p00, -p00, u * g - p01, -u * k - p10, p00)

    return f


def rhs(s: FlowState) -> tuple[np.ndarray, np.ndarray]:
    """(dA0/dx, dAx/dx) at the state's point."""
    if s.x == 0:
        raise OriginError("the vector field is singular at x = 0")
    dy = _flow_field(s.x, 1.0)(0.0, [*s.A0.ravel().tolist(), *s.Ax.ravel().tolist()])
    return mat(*dy[:4]), mat(*dy[4:])


def _segment_distance(a: complex, b: complex, point: complex = 0.0) -> float:
    """Distance from ``point`` to the segment [a, b]."""
    a, b = a - point, b - point
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(a)
    t = -((a.conjugate() * d).real) / L2
    t = min(1.0, max(0.0, t))
    return abs(a + t * d)


def _transport_segment(x0, A0, Ax, x1, tol, max_step):
    length = abs(x1 - x0)
    y0 = [*A0.ravel().tolist(), *Ax.ravel().tolist()]
    # tighten with length so accumulated drift stays within the budget
    tol_local = tol * min(1.0, 10.0 / max(length, 1.0))
    f = _flow_field(x0, (x1 - x0) / length)
    y1 = integrate_rk54(f, 0.0, length, y0, tol_local, max_step=max_step)
    return y1[:4].reshape(2, 2), y1[4:].reshape(2, 2)


def integrate(
    s: FlowState,
    x_target: complex,
    tol: float = 1e-12,
    *,
    max_step: float = 0.5,
    waypoints: Sequence[complex] = (),
    check_drift: bool = True,
) -> FlowState:
    """Transport the state to ``x_target`` along straight segments.

    The default path is the single segment from s.x to x_target; a
    polyline detour can be supplied through ``waypoints``.  Every
    segment must keep |x| > 1.  Conserved quantities are checked at the
    end; drift beyond 100*tol (relative to scale) raises.
    """
    x_target = complex(x_target)
    points = [s.x, *map(complex, waypoints), x_target]
    for a, b in zip(points, points[1:]):
        if a == b:
            continue
        if _segment_distance(a, b) < 1.0:
            raise PathError(f"segment [{a}, {b}] enters the unit disk about 0")
    A0, Ax = s.A0.copy(), s.Ax.copy()
    for a, b in zip(points, points[1:]):
        if a == b:
            continue
        A0, Ax = _transport_segment(a, A0, Ax, b, tol, max_step)
    out = FlowState(x=x_target, A0=A0, Ax=Ax, params=s.params, validate=False)
    if check_drift:
        before = s.invariants()
        after = out.invariants()
        scale = 1.0 + mat_norm(s.A0) + mat_norm(s.Ax)
        budget = 100.0 * tol * scale
        for key in before:
            drift = abs(after[key] - before[key])
            if drift > budget:
                raise InvariantDriftError(
                    f"conserved quantity {key} drifted by {drift:.3e} "
                    f"(> {budget:.3e}) over [{s.x} -> {x_target}]"
                )
    return out


def _project_eigenvalue_constraints(A: np.ndarray, theta: complex) -> np.ndarray:
    """Nudge the off-diagonal pair so det A = -theta^2/4 holds exactly.

    The determinant conditions are exact identities of the true family
    and are conserved by the flow, so enforcing them at the seed removes
    the truncation defect from every downstream conserved quantity (in
    particular the numeric monodromy traces match the local exponents
    exactly).  The correction is the minimum-norm change of (A01, A10)
    reaching the target product, well inside the truncation-error ball.
    """
    out = A.copy()
    # det A = A00 A11 - A01 A10 = -theta^2/4
    prod_target = A[0, 0] * A[1, 1] + (theta * theta) / 4.0
    for _ in range(3):
        a01, a10 = out[0, 1], out[1, 0]
        delta = prod_target - a01 * a10
        if delta == 0:
            break
        w = abs(a01) ** 2 + abs(a10) ** 2
        if w == 0 or abs(delta) > 0.01 * w:
            return A  # degenerate off-diagonal: leave the seed untouched
        out[0, 1] = a01 + delta * np.conj(a10) / w
        out[1, 0] = a10 + delta * np.conj(a01) / w
    return out


def refine_from_series(
    p: Parameters,
    seed_radius: float,
    x_target: complex,
    tol: float = 1e-12,
    *,
    order: Truncation = Truncation.L2,
    eps: float = 0.1,
    diagnostics: bool = True,
    waypoints: Sequence[complex] = (),
    project: bool = True,
) -> RefineResult:
    """Seed the pair from the series at x = i*seed_radius and transport
    to ``x_target``.

    ``order`` is the series truncation of the seed; the default L2
    evaluates every coefficient up to total degree 3.  With ``project``
    the seed is nudged onto the exact determinant constraints
    det A0 = -theta0^2/4, det Ax = -thetax^2/4 before the transport.
    The returned diagnostic is the max entry difference against the same
    transport seeded at twice the radius; it estimates the seed
    truncation error surviving at the target.
    """
    x_target = complex(x_target)
    x_seed = 1j * float(seed_radius)
    if not domain_check(p, x_seed, eps):
        raise PathError(f"seed point {x_seed} fails the domain check (eps = {eps})")
    if abs(x_target) < 20.0:
        raise PathError("refinement target should satisfy |x| >= 20")

    def run(radius: float) -> FlowState:
        ab = series_A_pair(p, 1j * radius, order, eps=eps)
        A0, Ax = ab.A0, ab.Ax
        if project:
            A0 = _project_eigenvalue_constraints(A0, p.theta0)
            Ax = _project_eigenvalue_constraints(Ax, p.thetax)
        st = FlowState(x=ab.x, A0=A0, Ax=Ax, params=p, validate=False)
        if st.x == x_target:
            return st
        pts = [w for w in waypoints]
        return integrate(st, x_target, tol, waypoints=pts)

    state = run(float(seed_radius))
    diag = math.nan
    if diagnostics:
        other = run(2.0 * float(seed_radius))
        diag = max(
            mat_norm(state.A0 - other.A0), mat_norm(state.Ax - other.Ax)
        )
    return RefineResult(state=state, diagnostic=diag)
