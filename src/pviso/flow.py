"""Numerical transport of the matrix pair under the deformation equations

    x dA0/dx = [Ax, A0],
    x dAx/dx = [A0, Ax] + (x/2) [J, Ax].

The flow conserves tr A0, tr Ax, det A0, det Ax and (A0 + Ax)_11, which
are monitored over every transport.  A transport steps the flow's
Taylor series, whose coefficients a Cauchy-product recurrence gives
exactly (``_taylor_step``).  ``integrate`` takes serial steps along the
segment, each sized by the last two orders.  A series seed on the
imaginary axis is carried to moderate |x|, where monodromy is computed,
by multiple shooting instead (``_shooting_segment``): the series itself
guesses the state at every node of the path, so one batched pass of the
same recurrence over all segments at once (``_taylor_batch``), a Newton
correction of the nodes and a second pass that certifies every node
replace the serial chain; the serial kernel takes over wherever the
shooting cannot certify its result.  ``seed_state`` picks the seed's
radius from its truncation and is the seeding rule of every default
path.  ``ray_derivatives`` is the one centred-difference stencil, on
states walked along a ray.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from operator import mul
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    InvariantDriftError,
    OriginError,
    PathError,
    PvisoValueError,
    StepUnderflowError,
)
from .linalg import det2, mat, mat_norm, tr2
from .ode import horner, radius
from .series import EPS, Parameters, _in_sector, _series_pair, axis_radii, series_seed

__all__ = ["FlowState", "Seed", "rhs", "integrate", "walk", "ray_derivatives",
           "refine_from_series", "seed_state", "seed_at", "SEED_DEGREE"]

_SEED_CHECK_TOL = 1e-12
# total degree of the series behind seed_state
SEED_DEGREE = 5
# highest order of a Taylor step of the flow
MAX_ORDER = 30
# a segment of length L may take max(MIN_STEP_BUDGET, STEPS_PER_UNIT L)
# steps; no state a series seeds comes near it (criterion 1's 360-long
# flow takes 115), while a state with entries ~1e15 would step ~1e-9
MIN_STEP_BUDGET = 1_000
STEPS_PER_UNIT = 10
# the shooting transport's fine passes before it falls back to the serial
# kernel; the fewest segments it takes, below which the serial kernel is
# faster (its ~3 ms of batched passes against ~0.27 ms per serial step,
# measured on transports down the axis to 40i); and the most, whose
# Jacobian pass (7 members each) would hold more than ~3 MB
SHOOTING_ROUNDS = 3
SHOOTING_BREAK_EVEN = 12
SHOOTING_MAX_SEGMENTS = 256
# order of the pass whose forward differences give the node Jacobians,
# and their step relative to 1 + max|y|
JACOBIAN_ORDER = 14
_JACOBIAN_STEP = 1e-8


@dataclass
class FlowState:
    """The pair (x, A0(x), Ax(x)) together with its parameter record.

    Construction raises PvisoValueError unless A0 and Ax are traceless and
    (A0 + Ax)_11 = -thetainf/2, relative to 1 + |A0| + |Ax| (max-abs
    norms); every pair the package builds passes by construction.
    """

    x: complex
    A0: np.ndarray
    Ax: np.ndarray
    params: Parameters

    def __post_init__(self):
        self.x = complex(self.x)
        self.A0 = np.array(self.A0, dtype=complex)
        self.Ax = np.array(self.Ax, dtype=complex)
        a, b, c, d = self.A0.ravel().tolist()
        e, g, k, m = self.Ax.ravel().tolist()
        scale = 1.0 + max(abs(a), abs(b), abs(c), abs(d)) + max(abs(e), abs(g), abs(k), abs(m))
        if abs(a + d) > _SEED_CHECK_TOL * scale or abs(e + m) > _SEED_CHECK_TOL * scale:
            raise PvisoValueError("flow state requires traceless A0, Ax")
        defect = abs(a + e + self.params.thetainf / 2.0)
        if defect > 1e-9 * scale:
            raise PvisoValueError(
                f"flow state requires (A0+Ax)_11 = -thetainf/2, defect {defect:.3e}"
            )

    def invariants(self) -> dict[str, complex]:
        return {
            "tr_A0": tr2(self.A0),
            "tr_Ax": tr2(self.Ax),
            "det_A0": det2(self.A0),
            "det_Ax": det2(self.Ax),
            "sum_11": self.A0[0, 0] + self.Ax[0, 0],
        }


class Seed(NamedTuple):
    """A seeded state and how it was seeded."""

    state: FlowState
    seed_radius: float  # the series was evaluated at i*seed_radius
    degree: int  # total degree of the series
    seed_truncation: float  # largest entry of the last degree's terms


def rhs(s: FlowState) -> tuple[np.ndarray, np.ndarray]:
    """(dA0/dx, dAx/dx) at the state's point.  ``s`` may also be any
    record of N states at once: x an array of N points, and A0, Ax of
    shape (2, 2, N), as are the two derivatives then.

    With P = [Ax, A0]/x (P_11 = -P_00 since a commutator is traceless),
    dA0/dx = P and dAx/dx = -P + [J, Ax]/2, where [J, Ax]/2 has
    off-diagonal (Ax_01, -Ax_10).
    """
    try:
        w = 1.0 / s.x
    except ZeroDivisionError:
        raise OriginError("the vector field is singular at x = 0") from None
    # one state's entries as plain complex numbers: faster than numpy scalars
    (a, b), (c, d) = s.A0.tolist() if s.A0.ndim == 2 else s.A0
    (e, g), (k, m) = s.Ax.tolist() if s.Ax.ndim == 2 else s.Ax
    p00 = (g * c - b * k) * w
    p01 = (b * (e - m) - g * (a - d)) * w
    p10 = (k * (a - d) - c * (e - m)) * w
    return mat(p00, p01, p10, -p00), mat(-p00, g - p01, -k - p10, p00)


def _segment_distance(a: complex, b: complex) -> float:
    """Distance from 0 to the segment [a, b]."""
    d = b - a
    L2 = abs(d) ** 2
    if L2 == 0.0:
        return abs(a)
    t = -((a.conjugate() * d).real) / L2
    t = min(1.0, max(0.0, t))
    return abs(a + t * d)


def _drift_budget(A0: np.ndarray, Ax: np.ndarray, tol: float) -> float:
    """The drift ``integrate`` allows and the truncation ``seed_at`` accepts."""
    return 100.0 * tol * (1.0 + mat_norm(A0) + mat_norm(Ax))


def _taylor_step(xs: complex, u: complex, y: tuple, tol: float, span: float):
    """The Taylor expansion of the flow at x = xs along x = xs + u t, and
    the step in t it allows.

    y is (a, b, c, e, g, k), with A0 = [[a, b], [c, -a]] and
    Ax = [[e, g], [k, -e]].  With Q = [Ax, A0] and L y the off-diagonal
    (Ax_01, -Ax_10) on the Ax rows, the coefficients obey
    xs (n+1) y_{n+1} = +-u Q_n - u n y_n + u (xs L y_n + u L y_{n-1}),
    + on the A0 rows and - on the Ax rows, where Q_n comes from Cauchy
    products of the coefficients so far.  Since Q = [A0 + Ax, A0] and
    A0 + Ax = [[s, B], [C, -s]] has the constant diagonal s = a + e, four
    products per order suffice: on B = b + g and C = c + k,
    Q_00 = B c - b C, Q_01 = 2 (s b - a B), Q_10 = 2 (a C - s c).
    Orders are added until, at the first order k >= 2, the step
    h = 0.9 min(r_{k-1}, r_k) reaches ``span``, or k = ``MAX_ORDER``;
    r_n = (eps / |y_n|)^(1/n), with max-abs norms and
    eps = tol (1 + max|y|).  A coefficient that is not finite raises
    StepUnderflowError.

    Returns h and the coefficients of orders 0..k, one list per entry of y.
    """
    a, b, c, e, g, k = cols = tuple([z] for z in y)
    diag = a[0] + e[0]
    bsum, csum = [b[0] + g[0]], [c[0] + k[0]]
    w = u / xs
    eps = tol * (1.0 + max(map(abs, y)))
    r_prev = h = math.inf
    for n in range(MAX_ORDER):
        q00 = sum(map(mul, bsum, reversed(c))) - sum(map(mul, b, reversed(csum)))
        q01 = 2.0 * (diag * b[n] - sum(map(mul, a, reversed(bsum))))
        q10 = 2.0 * (sum(map(mul, a, reversed(csum))) - diag * c[n])
        lg = xs * g[n] + (u * g[n - 1] if n else 0.0)
        lk = xs * k[n] + (u * k[n - 1] if n else 0.0)
        s = w / (n + 1)
        # a and e take q00 with opposite signs, so every coefficient of
        # a + e past order 0 is exactly 0
        new = (
            s * (q00 - n * a[n]),
            s * (q01 - n * b[n]),
            s * (q10 - n * c[n]),
            s * (-q00 - n * e[n]),
            s * (-q01 - n * g[n] + lg),
            s * (-q10 - n * k[n] - lk),
        )
        if not cmath.isfinite(sum(new)):
            raise StepUnderflowError(f"non-finite Taylor coefficient of order {n + 1} at x = {xs}")
        for col, z in zip(cols, new):
            col.append(z)
        bsum.append(new[1] + new[4])
        csum.append(new[2] + new[5])
        size = max(map(abs, new))
        r = radius(eps, size, n + 1)
        if n:
            h = 0.9 * min(r_prev, r)
            if h >= span:
                break
        r_prev = r
    return h, cols


def _local_tol(tol: float, length: float) -> float:
    """The tolerance of each step of a transport of this length,
    tightened with length so accumulated drift stays within the budget."""
    return tol * min(1.0, 10.0 / max(length, 1.0))


def _six(A0, Ax) -> tuple:
    """The six free entries (a, b, c, e, g, k) of a traceless pair."""
    (a, b), (c, _) = A0.tolist()
    (e, g), (k, _) = Ax.tolist()
    return a, b, c, e, g, k


def _transport_segment(x0, A0, Ax, x1, tol):
    length = abs(x1 - x0)
    u = (x1 - x0) / length
    tol_local = _local_tol(tol, length)
    floor = 1e-13 * max(1.0, length)
    y, t = _six(A0, Ax), 0.0
    for _ in range(math.ceil(max(MIN_STEP_BUDGET, STEPS_PER_UNIT * length))):
        h, cols = _taylor_step(x0 + t * u, u, y, tol_local, length - t)
        if h >= length - t:
            break
        if not h >= floor:  # a NaN h fails this too
            raise StepUnderflowError(f"step size underflow at x = {x0 + t * u} (h = {h})")
        y = tuple(horner(col, h) for col in cols)
        t += h
    else:
        raise StepUnderflowError(
            f"step budget of the segment [{x0}, {x1}] spent at x = {x0 + t * u} (h = {h})"
        )
    a, b, c, e, g, k = (horner(col, length - t) for col in cols)
    return mat(a, b, c, -a), mat(e, g, k, -e)


def _taylor_batch(xs: np.ndarray, u: complex, y: np.ndarray, order: int) -> np.ndarray:
    """``_taylor_step``'s recurrence on arrays, to a fixed order: the
    coefficients of orders 0..``order`` of the flow at each of the points
    xs (B,) along x = xs + u t, from the entries y (6, B) there, as an
    (order + 1, 6, B) array.

    The rows carry B = b + g and C = c + k beside the six entries; Q
    cancels in their recurrence, so they need no Cauchy sum of their own.
    The Cauchy sums of Q = (B c - b C, 2 (s b - a B), 2 (a C - s c)),
    with the constant s = a + e, are ``einsum``s over slices of the rows
    (fixed summation order, no BLAS)."""
    Z = np.empty((order + 1, 8, y.shape[1]), dtype=complex)
    Z[0, :6] = y
    Z[0, 6:] = y[1:3] + y[4:6]
    diag2, w = 2.0 * (y[0] + y[3]), u / xs
    for n in range(order):
        z, head, tail = Z[n], Z[: n + 1], Z[n::-1]
        aB, aC = np.einsum("jb,jmb->mb", head[:, 0], tail[:, 6:])
        d = np.empty_like(z)
        d[0] = np.einsum("jb,jb->b", head[:, 6], tail[:, 2])  # B c
        d[0] -= np.einsum("jb,jb->b", head[:, 1], tail[:, 7])  # b C
        d[1] = diag2 * z[1] - 2.0 * aB
        d[2] = 2.0 * aC - diag2 * z[2]
        # Q on the A0 rows, -Q on the Ax rows, none on B and C
        np.negative(d[:3], out=d[3:6])
        d[6:] = 0.0
        d -= n * z
        linear = xs * z[4:6] + (u * Z[n - 1, 4:6] if n else 0.0)
        linear[1] *= -1.0
        d[4:6] += linear
        d[6:] += linear
        np.multiply(w / (n + 1), d, out=Z[n + 1])
    return Z[:, :6]


def _batch_steps(Y: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """The step ``_taylor_step`` allows each member of a pass of order N,
    0.9 min(r_(N-1), r_N), at its own eps."""
    N = len(Y) - 1
    r = [(eps / np.abs(Y[n]).max(axis=0)) ** (1.0 / n) for n in (N - 1, N)]
    return 0.9 * np.minimum(*r)


def _guesses(p: Parameters, xs: np.ndarray) -> np.ndarray:
    """The entries (6, B) of the degree-``SEED_DEGREE`` series pair at the
    array of points xs, in one batch."""
    A0, Ax, _ = _series_pair(p, xs, SEED_DEGREE)
    return np.array([A0[0, 0], A0[0, 1], A0[1, 0], Ax[0, 0], Ax[0, 1], Ax[1, 0]])


def _sweep(xs, u, nodes, hseg, defects) -> np.ndarray:
    """The corrections (6, K) of the nodes by one Newton round of the
    shooting: delta_0 = 0 and delta_(j+1) = Phi_j delta_j + e_j, with e_j
    segment j's defect and Phi_j the Jacobian of its map, from forward
    differences on one pass of order ``JACOBIAN_ORDER`` over every node
    and its six kicked copies."""
    K = nodes.shape[1]
    kick = _JACOBIAN_STEP * (1.0 + np.abs(nodes).max(axis=0))
    kicked = np.repeat(nodes[:, None], 7, axis=1)
    kicked[range(6), range(1, 7)] += kick
    Y = _taylor_batch(np.tile(xs, 7), u, kicked.reshape(6, 7 * K), JACOBIAN_ORDER)
    ends = horner(Y, hseg).reshape(6, 7, K)
    jacobians = ((ends[:, 1:] - ends[:, :1]) / kick).transpose(2, 0, 1)
    delta = np.zeros_like(nodes)
    for j in range(K - 1):
        delta[:, j + 1] = jacobians[j] @ delta[:, j] + defects[:, j]
    return delta


def _shoot(p: Parameters, x0, y0: tuple, x1, tol_local: float, segments: int):
    """The entries (6,) at x1 from the entries y0 at x0 by multiple
    shooting over ``segments`` equal segments at first, or None where
    ``_shooting_segment`` falls back."""
    length = abs(x1 - x0)
    u = (x1 - x0) / length
    nodes = None
    for _ in range(SHOOTING_ROUNDS):
        if nodes is None:
            if segments > SHOOTING_MAX_SEGMENTS:
                return None
            hseg = length / segments
            xs = x0 + u * hseg * np.arange(segments)
            if not _in_sector(xs[1:]).all():
                return None
            nodes = np.concatenate([np.array(y0)[:, None], _guesses(p, xs[1:])], axis=1)
        Y = _taylor_batch(xs, u, nodes, MAX_ORDER)
        if not np.isfinite(Y).all():
            return None
        eps = tol_local * (1.0 + np.abs(nodes).max(axis=0))
        allowed = _batch_steps(Y, eps)
        if not (allowed >= hseg).all():
            segments, nodes = math.ceil(length / allowed.min()), None
            continue
        ends = horner(Y, hseg)
        del Y  # the Jacobian pass below is the larger one
        defects = ends[:, :-1] - nodes[:, 1:]
        if (np.abs(defects).max(axis=0) <= eps[:-1]).all():
            return ends[:, -1]
        nodes = nodes + _sweep(xs, u, nodes, hseg, defects)
    return None


def _shooting_segment(p: Parameters, x0, A0, Ax, x1, tol):
    """``_transport_segment`` by multiple shooting guided by the series
    (Gander & Vandewalle, SIAM J. Sci. Comput. 29, 2007): the serial
    chain of Taylor steps becomes a few batched passes over all segments.

    [x0, x1] is cut into K equal segments, sized by the step rule of
    ``_taylor_step`` at x0 and at the series' value at x1.  Every node
    but the first (the given state) is guessed from the degree-
    ``SEED_DEGREE`` series.  A round is one fine pass, one Taylor step of
    order ``MAX_ORDER`` per segment, all segments at once
    (``_taylor_batch``).  It accepts when every coefficient is finite,
    every segment is within the step rule at its node and every node
    defect e_j (segment j's end against node j + 1) is within segment
    j's eps = tol_local (1 + max|y_j|), the serial kernel's bound per
    step; the state at x1 is then the last segment's end.  A segment
    over the step rule re-cuts [x0, x1] by the smallest step allowed and
    guesses again; defects over eps correct the nodes by ``_sweep``.

    The serial ``_transport_segment`` takes over, with the same result
    as ``integrate``, when the serial kernel's first step at x0 puts K
    below ``SHOOTING_BREAK_EVEN``, when K is above
    ``SHOOTING_MAX_SEGMENTS``, when x1 or a node lies outside the series'
    sector (``series._in_sector``), when a guess or coefficient is not
    finite, or when ``SHOOTING_ROUNDS`` fine passes do not accept.
    """
    length = abs(x1 - x0)
    u = (x1 - x0) / length
    tol_local = _local_tol(tol, length)
    y0 = _six(A0, Ax)
    # the serial kernel's first step; it raises on a state that is not finite
    h, _ = _taylor_step(x0, u, y0, tol_local, length)
    if length >= SHOOTING_BREAK_EVEN * h and _in_sector(x1):
        try:
            with np.errstate(all="ignore"):
                y1 = tuple(_guesses(p, np.array([x1]))[:, 0].tolist())
                h1, _ = _taylor_step(x1, u, y1, tol_local, length)
                end = _shoot(p, x0, y0, x1, tol_local, math.ceil(length / min(h, h1)))
        except (ArithmeticError, StepUnderflowError):
            end = None
        if end is not None:
            a, b, c, e, g, k = end.tolist()
            return mat(a, b, c, -a), mat(e, g, k, -e)
    return _transport_segment(x0, A0, Ax, x1, tol)


def _transport(s: FlowState, x_target: complex, tol: float, segment) -> FlowState:
    """The state transported to ``x_target`` by the kernel ``segment``,
    with ``integrate``'s checks of the target, of the path and, at the
    end, of the conserved quantities: both transports run through it."""
    x_target = complex(x_target)
    if not cmath.isfinite(x_target):
        raise DomainError(f"transport target x = {x_target} is not finite")
    A0, Ax = s.A0.copy(), s.Ax.copy()
    if s.x != x_target:
        if _segment_distance(s.x, x_target) < 1.0:
            raise PathError(f"segment [{s.x}, {x_target}] enters the unit disk about 0")
        A0, Ax = segment(s.x, A0, Ax, x_target, tol)
    out = FlowState(x=x_target, A0=A0, Ax=Ax, params=s.params)
    before = s.invariants()
    after = out.invariants()
    budget = _drift_budget(s.A0, s.Ax, tol)
    for key in before:
        drift = abs(after[key] - before[key])
        if drift > budget:
            raise InvariantDriftError(
                f"conserved quantity {key} drifted by {drift:.3e} "
                f"(> {budget:.3e}) over [{s.x} -> {x_target}]"
            )
    return out


def integrate(s: FlowState, x_target: complex, tol: float = 1e-12) -> FlowState:
    """Transport the state to ``x_target`` along the straight segment
    from s.x, which must keep |x| > 1, by serial Taylor steps.
    Conserved quantities are checked at the end; drift beyond 100*tol
    (relative to scale) raises.  A non-finite target raises DomainError.
    """
    return _transport(s, x_target, tol, _transport_segment)


def _carry(s: FlowState, x_target: complex, tol: float) -> FlowState:
    """``integrate`` by the series-guided ``_shooting_segment``: the
    transport of every series seed."""
    return _transport(s, x_target, tol, partial(_shooting_segment, s.params))


def walk(s: FlowState, points: Iterable[complex], tol: float) -> Iterator[FlowState]:
    """The state at each of ``points`` in turn, each transported from the
    one before (the first from ``s``); a point where the state already
    is takes no transport."""
    for x in points:
        s = integrate(s, x, tol) if s.x != x else s
        yield s


def ray_derivatives(s: FlowState, x: complex, h: float, value, order: int, tol: float) -> list:
    """``value`` at x and its first ``order`` (2 or 3) derivatives, from
    centred differences, second order in d = h x/|x|, of its values at the
    states x + k d, |k| <= order - 1, walked from ``s``:
    d1 = (v_1 - v_-1)/2d, d2 = (v_1 - 2 v_0 + v_-1)/d^2 and
    d3 = (v_2 - 2 v_1 + 2 v_-1 - v_-2)/2d^3."""
    if order not in (2, 3):
        raise PvisoValueError(f"centred derivatives are of order 2 or 3, not {order}")
    if x == 0:
        raise OriginError("a ray through x = 0 has no direction")
    unit = x / abs(x)
    step = h * unit
    v = [value(st) for st in walk(s, [x + k * h * unit for k in range(1 - order, order)], tol)]
    vm1, v0, vp1 = v[order - 2:order + 1]
    out = [v0, (vp1 - vm1) / (2.0 * step), (vp1 - 2.0 * v0 + vm1) / (step * step)]
    if order == 3:
        out.append((v[4] - 2.0 * vp1 + 2.0 * vm1 - v[0]) / (2.0 * step**3))
    return out


def refine_from_series(
    p: Parameters,
    seed_radius: float,
    x_target: complex,
    tol: float = 1e-12,
    *,
    diagnostics: bool = True,
) -> Seed:
    """Seed the pair from the series at x = i*seed_radius and transport
    to ``x_target``, which must satisfy |x| >= 20.

    The seed is the series pair with every coefficient up to total
    degree 3, as ``series_seed`` returns it, and its seed truncation
    overestimates the seed error.  The transport shoots from the degree-
    ``SEED_DEGREE`` series (see ``_shooting_segment``).  ``diagnostics`` is ignored and kept
    only for callers that still pass it.
    """
    if abs(x_target) < 20.0:
        raise PathError("refinement target should satisfy |x| >= 20")
    radius = float(seed_radius)
    A0, Ax, truncation = series_seed(p, 1j * radius, 3)
    state = FlowState(x=1j * radius, A0=A0, Ax=Ax, params=p)
    return Seed(_carry(state, x_target, tol), radius, 3, truncation)


def _axis_message(p: Parameters, first: float, last: float) -> str:
    """Why no seed radius from ``first`` to ``last`` lies in the strip."""
    radii = axis_radii(p)
    held = "no point i r" if radii is None else "i r only for r in ({:.6g}, {:.6g})".format(*radii)
    return (
        f"sigma = {p.sigma}: the series' admissible strip (eps = {EPS}) holds {held}, "
        f"so no seed radius from {first:.6g} to {last:.6g} is admissible"
    )


def seed_state(p: Parameters, x: complex, tol: float = 1e-12) -> Seed:
    """``seed_at`` for a target x with |x| >= 20: the seeding rule of
    every default path."""
    x = complex(x)
    if abs(x) < 20.0:
        raise PathError(f"seed target should satisfy |x| >= 20, not {x}")
    return seed_at(p, x, tol)


def seed_at(p: Parameters, x: complex, tol: float = 1e-12) -> Seed:
    """The state at x from the series pair of total degree ``SEED_DEGREE``
    on the axis, transported to x.  Unlike ``seed_state`` it puts no
    bound on |x|; the zero/pole lattice anchors its top root, which can
    lie below 20i, with it.

    The series is evaluated at i|x| when that point lies in its
    admissible strip and the seed truncation is within the pair's drift
    budget 100 tol (1 + |A0| + |Ax|), which ``integrate`` applies.
    Otherwise it is evaluated at 2i|x|, 4i|x|, ... up to max(300, 2|x|),
    where it is taken whatever its truncation; if that one fails the
    strip too, the DomainError names sigma and the radii on the axis
    that the strip holds.  For x = i r, |x| is r exactly.

    The state is carried to x by the shooting transport
    (``_shooting_segment``): about 4 ms of batched passes plus 0.01 ms
    per unit of length, where serial Taylor steps on the axis cost
    0.09 ms per unit (about a third of a step, ten coefficient orders;
    2-vCPU machine).  So a doubling that passes spares little time, and
    a short transport is stepped serially.  A non-finite
    x, or x = 0, raises DomainError.
    """
    if not cmath.isfinite(x) or x == 0:
        raise DomainError(f"seed target x = {x} is 0 or not finite")
    radius, ceiling = abs(x), max(300.0, 2.0 * abs(x))
    while True:
        try:
            A0, Ax, truncation = series_seed(p, 1j * radius, SEED_DEGREE)
        except DomainError as exc:
            if radius == ceiling:
                raise DomainError(_axis_message(p, abs(x), ceiling)) from exc
        else:
            if truncation <= _drift_budget(A0, Ax, tol) or radius == ceiling:
                break
        radius = min(2.0 * radius, ceiling)
    state = FlowState(x=1j * radius, A0=A0, Ax=Ax, params=p)
    return Seed(_carry(state, x, tol), radius, SEED_DEGREE, truncation)
