"""Numeric monodromy of the deformed linear system

    dY/dlambda = (A0/lambda + Ax/(lambda - x) + J/2) Y

computed with respect to the solution normalized as
Y = (I + O(1/lambda)) e^(lambda/2 J) lambda^(-thetainf/2 J) on the branch
arg lambda in (-pi/2, 3pi/2).

Both loops have one shape, a ``Loop``: down a descent along the imaginary
axis, once around a unit circle (positively) and back up the same way
(R >= 4(|x|+10)):
  around x:  base point iR, descent to x + i, unit circle about x;
  around 0:  base point -iR on the continued branch (arg = 3pi/2),
             descent to -i, unit circle about 0.

The ODE transport runs only on the pieces that hug the imaginary axis
or the unit circles, where the two exponential modes e^(+-lambda/2) have
equal modulus and the transfer matrices stay well conditioned.  The loop
about 0 is not reached from iR by the left arc of radius R: along that
arc (Re lambda down to -R) the dominant mode would amplify local errors
by e^R.  Instead the continued germ at -iR is expressed through the
truncated asymptotic frame on the continued branch, where the frame
represents the second canonical solution so that the value of the
continued Y is frame * S2^-1 with S2 = I + s2 Delta+ the (a priori
unknown) Stokes factor.  The unknown drops out algebraically: with

    N0 := F(-iR)^-1 T0 F(-iR),   Nx := F(iR)^-1 Tx F(iR)

(T0, Tx the loop transfers), the monodromy data satisfies
Mx = Nx, M0 = S2 N0 S2^-1, and the product identity
Mx M0 = S1^-1 e^(-pi i thetainf J) S2^-1 forces

    (Nx S2 N0)_12 = 0  =>  s2 = -(Nx N0)_12 / ((Nx)_11 (N0)_22),

a linear solve; s1 then reads off the (2,1) entry and the diagonal
entries provide a two-sided internal consistency check.  The frame has
FRAME_ORDERS = 16 terms, whose coefficients are computed once per call.
They fall geometrically, by a ratio of about |x|/R <= 1/4 under the
RadiusError rule, so the first omitted term |G_17|/R^17 names the frame
truncation error (``frame_truncation``; 9.2e-15 for the criterion-1
state at R = 200, below the transport error).  One pass at R is
therefore the whole computation.

Every transfer is integrated in the interaction picture Y = e^(lambda J/2) Z
(the substitution of exponential integrators; Hochbruck & Ostermann,
Acta Numerica 2010), where

    dZ/dlambda = e^(-lambda J/2) (A0/lambda + Ax/(lambda - x)) e^(lambda J/2) Z

has no J/2 rotation left on its diagonal and carries e^(-+lambda) on its
off-diagonal entries, which have unit modulus along the imaginary axis.
The step size is then set by the 1/lambda and 1/(lambda - x) terms
instead of the rotation: a single pass at R = 200 (400) takes 1.4x
(1.6x) fewer field evaluations than stepping Y directly, at a transport
error more than ten times smaller.  A piece's transfer is mapped back with
W = e^(lambda_end J/2) Z e^(-lambda_start J/2).

The system is linear, so a line's transfer is the ordered product of
the transfers over its sub-segments, and each of those starts from the
identity whatever came before it.  Each Line is therefore split into
ceil(length / SUB_SEGMENT) equal sub-segments (SUB_SEGMENT = 2) and all
of them are stepped as one lockstep batch through the one kernel (the
parallel-in-time property of linear propagators; Gander, "50 years of
time parallel time integration", 2015), at the line's tolerance.  The
kernel's Python bookkeeping is then paid once per batched step rather
than once per member: at R = 200 the four transfers take 1,352 field
calls (37,130 member evaluations).  The unit circles stay single
systems.

A loop's transfer is P^-1 C P, with P the transfer down the descent, a
single Line, and C the circle's.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, PathError, RadiusError
from .flow import FlowState, _segment_distance
from .linalg import (
    DELTA_PLUS,
    I2,
    J,
    BranchedLog,
    det2,
    exp_J,
    mat,
    mat_inv,
    mat_norm,
    power_J,
)
from .monodata import MonodromyData, braid_shift
from .ode import integrate_rk54

__all__ = [
    "Line",
    "Arc",
    "Loop",
    "loop_around_origin",
    "loop_around_x",
    "normalized_frame",
    "frame_coefficients",
    "continue_along",
    "monodromy",
    "braid_shift",
    "MonodromyData",
]

# asymptotic frame orders of monodromy(); the first omitted one is its
# frame_truncation diagnostic
FRAME_ORDERS = 16
# bound on the diagonal defect of Nx S2 N0 and on the Stokes trace identity
CONSISTENCY_TOL = 1e-6


# ---------------------------------------------------------------------------
# paths


@dataclass(frozen=True)
class Line:
    start: complex
    end: complex

    @property
    def length(self) -> float:
        return abs(self.end - self.start)

    @functools.cached_property
    def direction(self) -> complex:
        return (self.end - self.start) / self.length

    def locate(self, t: float) -> tuple[complex, complex]:
        """(point, velocity) at arclength t."""
        return self.start + t * self.direction, self.direction


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    angle_start: float
    angle_end: float

    @property
    def length(self) -> float:
        return self.radius * abs(self.angle_end - self.angle_start)

    def locate(self, t: float) -> tuple[complex, complex]:
        """(point, velocity) at arclength t, from one complex exponential."""
        s = 1.0 if self.angle_end >= self.angle_start else -1.0
        e = cmath.exp(1j * (self.angle_start + s * t / self.radius))
        return self.center + self.radius * e, 1j * s * e

    @property
    def start(self) -> complex:
        return self.center + self.radius * cmath.exp(1j * self.angle_start)

    @property
    def end(self) -> complex:
        return self.center + self.radius * cmath.exp(1j * self.angle_end)


Piece = Line | Arc


@dataclass(frozen=True)
class Loop:
    """Down ``descent``, once around ``circle`` (positively) and back up
    the same way; the base point is where the descent starts."""

    descent: tuple[Line, ...]
    circle: Arc


def _axis_loop(unit: complex, R: float, entry: complex, circle: Arc, other: complex) -> Loop:
    """Descent from unit*R along the imaginary axis to ``entry`` on the
    circle."""
    # a descend-circle-return loop winds once about the points inside its
    # circle and never about those outside
    if abs(other - circle.center) <= circle.radius:
        raise PathError(f"loop about {circle.center} also encloses {other}")
    return Loop((Line(unit * R, entry),), circle)


def loop_around_x(x: complex, R: float) -> Loop:
    """Base iR, descent to x + i, unit circle about x."""
    half = math.pi / 2.0
    return _axis_loop(1j, R, x + 1j, Arc(x, 1.0, half, half + 2.0 * math.pi), 0.0)


def loop_around_origin(x: complex, R: float) -> Loop:
    """Base -iR (on the continued branch), descent to -i, unit circle
    about 0."""
    half = math.pi / 2.0
    return _axis_loop(-1j, R, -1j, Arc(0.0, 1.0, -half, 3.0 * half), x)


# ---------------------------------------------------------------------------
# asymptotic frame


def frame_coefficients(s: FlowState, orders: int):
    """Coefficients G_1..G_orders of the expansion
    Y ~ (I + G_1/lambda + ...) e^(lambda/2 J) lambda^(-thetainf/2 J).

    The off-diagonal of G_k comes from matching the lambda^-k terms of
    the system; the diagonal of G_k is fixed by the diagonal consistency
    of the next order (it starts at -x (Ax)_11 J for k = 1 and is
    essential for the frame to track the true solution at fixed R/x).
    """
    ti = s.params.thetainf
    x = s.x
    b1 = s.A0 + s.Ax
    defect = abs(b1[0, 0] + ti / 2.0)
    if defect > 1e-8 * (1.0 + mat_norm(b1)):
        raise ConsistencyError(
            "frame expansion does not close: (A0+Ax)_11 + thetainf/2 = "
            f"{b1[0, 0] + ti / 2.0}"
        )

    def B(j: int) -> np.ndarray:
        return b1 if j == 1 else x ** (j - 1) * s.Ax

    G = [np.array(I2)]
    for k in range(1, orders + 1):
        rhs = (k - 1) * G[k - 1] + (ti / 2.0) * (G[k - 1] @ J)
        for j in range(1, k + 1):
            rhs = rhs + B(j) @ G[k - j]
        gk = mat(0.0, -rhs[0, 1], rhs[1, 0], 0.0)
        acc11 = b1[0, 1] * gk[1, 0]
        acc22 = b1[1, 0] * gk[0, 1]
        for j in range(2, k + 2):
            prod = B(j) @ G[k + 1 - j]
            acc11 += prod[0, 0]
            acc22 += prod[1, 1]
        gk[0, 0] = -acc11 / k
        gk[1, 1] = -acc22 / k
        G.append(gk)
    return G[1:]


def normalized_frame(
    s: FlowState,
    R: float,
    *,
    arg_lambda: float = math.pi / 2.0,
    orders: int = 1,
    coefficients: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Value of the normalized solution at lambda = R e^(i arg_lambda)
    from its asymptotic expansion truncated after ``orders`` terms, each
    with its diagonal (``frame_coefficients``).  A caller that already
    holds ``frame_coefficients(s, orders)`` passes them as
    ``coefficients``, and ``orders`` is then their number.

    The default is the first correction; monodromy() takes FRAME_ORDERS
    terms at arg pi/2 (base iR) and 3pi/2 (base -iR), computed once
    together with the first omitted one.
    """
    if R < 4.0 * (abs(s.x) + 10.0):
        raise RadiusError(f"normalization radius {R} < 4(|x|+10)")
    if coefficients is None:
        coefficients = frame_coefficients(s, orders)
    lam = BranchedLog(math.log(R), arg_lambda)
    z = lam.point
    series = np.array(I2, dtype=complex)
    for k, gk in enumerate(coefficients, start=1):
        series = series + gk / z**k
    return series @ exp_J(z / 2.0) @ power_J(lam, -s.params.thetainf / 2.0)


# ---------------------------------------------------------------------------
# transport


def _linear_field(s: FlowState, piece: Piece, starts: np.ndarray | None = None):
    """The linear system's vector field along ``piece`` in the interaction
    picture Y = e^(lambda J/2) Z, as scalar arithmetic on Z row by row:
    dZ/dt = (C v) Z with C = e^(-lambda J/2) (A0/lambda + Ax/(lambda - x))
    e^(lambda J/2), v the velocity.  Conjugation multiplies the (1,2)
    entry by e^(-lambda) and the (2,1) entry by e^(lambda); the diagonal
    carries no +-v/2 rotation.

    With ``starts`` (``piece`` a Line) the field is that of a batch: one
    member per sub-segment of the line beginning at each start point,
    lambda = starts + t v, on arrays of Z entries."""
    a, b, c, d = s.A0.ravel().tolist()
    e, g, k, m = s.Ax.ravel().tolist()
    x = s.x
    if starts is None:
        locate, exp = piece.locate, cmath.exp
    else:

        def locate(t):
            return starts + t * piece.direction, piece.direction

        exp = np.exp

    def f(t, z):
        lam, v = locate(t)
        p = v / lam
        q = v / (lam - x)
        w = exp(lam)
        c00 = a * p + e * q
        c01 = (b * p + g * q) / w
        c10 = (c * p + k * q) * w
        c11 = d * p + m * q
        z0, z1, z2, z3 = z
        return (
            c00 * z0 + c01 * z2,
            c00 * z1 + c01 * z3,
            c10 * z0 + c11 * z2,
            c10 * z1 + c11 * z3,
        )

    return f


# length of the sub-segments a Line is split into and stepped as one batch
SUB_SEGMENT = 2.0

# past this norm the determinant check's bound 100*tol*|W|^2 means
# nothing; the pieces monodromy() integrates stay below 1.5
_MAX_TRANSFER_NORM = 1e3


def _capped(W: np.ndarray, where) -> np.ndarray:
    """W, unless its norm exceeds _MAX_TRANSFER_NORM."""
    if mat_norm(W) > _MAX_TRANSFER_NORM:
        raise ConsistencyError(f"transfer norm {mat_norm(W):.3e} after {where}")
    return W


def _map_back(z, start, end) -> np.ndarray:
    """W = e^(end J/2) Z e^(-start J/2) from the entries z of Z: a 2x2
    matrix, or a (B, 2, 2) stack for entries and end points of length B."""
    z00, z01, z10, z11 = z
    rot = np.exp(0.5 * (end - start))
    mid = np.exp(0.5 * (end + start))
    W = np.array([[rot * z00, mid * z01], [z10 / mid, z11 / rot]])
    return np.moveaxis(W, (0, 1), (-2, -1))


def _piece_transfer(s: FlowState, piece: Piece, tol: float) -> np.ndarray:
    """Transfer matrix of the linear system along one piece.

    Z is integrated from the identity and mapped back with
    W = e^(lambda_end J/2) Z e^(-lambda_start J/2).  The integrator
    tolerance is tightened with the piece's length so the accumulated
    error stays within ~100*tol.

    A Line is split into ceil(length / SUB_SEGMENT) equal sub-segments.
    Each one's Z starts from the identity, so all of them are stepped
    together as one batch.  They share the interaction picture of the
    whole line, so its Z is their ordered product, and the partial
    products map back to the transfers from the line's start to each
    sub-segment's end, each held to _MAX_TRANSFER_NORM.  An Arc is
    stepped as a single system.
    """
    tol_local = tol * min(1.0, 10.0 / max(piece.length, 1.0))
    if isinstance(piece, Arc):
        z = integrate_rk54(
            _linear_field(s, piece), 0.0, piece.length, (1.0, 0.0, 0.0, 1.0), tol_local
        )
        return _map_back(z, piece.start, piece.end)
    m = max(1, math.ceil(piece.length / SUB_SEGMENT))
    points = np.linspace(piece.start, piece.end, m + 1)
    one, zero = np.ones(m, dtype=complex), np.zeros(m, dtype=complex)
    z = integrate_rk54(
        _linear_field(s, piece, points[:-1]),
        0.0,
        piece.length / m,
        (one, zero, zero, one),
        tol_local,
    )
    partial = np.empty((m, 2, 2), dtype=complex)
    Z = np.array(I2, dtype=complex)
    for j, Zj in enumerate(z.T.reshape(m, 2, 2)):
        Z = partial[j] = Zj @ Z
    W = _map_back(partial.reshape(m, 4).T, piece.start, points[1:])
    # every partial product is within the cap when the largest one is
    j = int(np.argmax(np.abs(W).max(axis=(1, 2))))
    _capped(W[j], f"sub-segment {j} of {piece}")
    return W[-1]


def _transfer(s: FlowState, pieces: Sequence[Piece], tol: float) -> np.ndarray:
    """Transfer matrix along the concatenated pieces, the product of the
    per-piece transfers.

    The determinant drift must stay within 100*tol*max(1, |W|^2), and a
    partial product with |W| > _MAX_TRANSFER_NORM is rejected at once."""
    W = np.array(I2, dtype=complex)
    for piece in pieces:
        W = _capped(_piece_transfer(s, piece, tol) @ W, piece)
    drift = abs(det2(W) - 1.0)
    if drift > 100.0 * tol * max(1.0, mat_norm(W) ** 2):
        raise ConsistencyError(f"transfer determinant drifted by {drift:.3e}")
    return W


def _loop_transfer(s: FlowState, loop: Loop, tol: float) -> np.ndarray:
    """P^-1 C P, with P the transfer down the loop's descent and C the
    transfer once around its circle."""
    P = _transfer(s, loop.descent, tol)
    C = _transfer(s, [loop.circle], tol)
    return mat_inv(P) @ C @ P


def continue_along(s: FlowState, Y0: np.ndarray, loop: Loop, tol: float = 1e-12) -> np.ndarray:
    """Analytic continuation around ``loop`` of the solution with value
    ``Y0`` at the loop's base point, by direct ODE transport.

    The loop must stay at distance >= 0.5 from both finite singular
    points.  A piece that swings deep into Re lambda << 0 or >> 0 grows
    its transfer past 1e3 and is rejected with ConsistencyError rather
    than silently returning garbage.
    """
    c, r = loop.circle.center, loop.circle.radius
    for pt in (0.0 + 0.0j, s.x):
        near = abs(abs(pt - c) - r)
        for line in loop.descent:
            near = min(near, _segment_distance(line.start, line.end, pt))
        if near < 0.5:
            raise PathError(f"loop passes within 0.5 of singular point {pt}")
    return _loop_transfer(s, loop, tol) @ np.array(Y0, dtype=complex)


def monodromy(s: FlowState, tol: float = 1e-12, *, R: float | None = None) -> MonodromyData:
    """Monodromy data of the state by continuation around the two loops,
    with the frames at radius R.

    R defaults to 4(|x|+10).  A state with |x| <= 1, where the unit
    circles about 0 and x overlap, raises PathError.

    Diagnostics: ``consistency_defect`` is the diagonal defect of
    Nx S2 N0, and ``frame_truncation`` the first omitted frame term
    |G_(FRAME_ORDERS+1)| / R^(FRAME_ORDERS+1).
    """
    R = float(R) if R is not None else 4.0 * (abs(s.x) + 10.0)
    x, ti = s.x, s.params.thetainf
    half = math.pi / 2.0
    *frame, omitted = frame_coefficients(s, FRAME_ORDERS + 1)

    loop_x, loop_0 = loop_around_x(x, R), loop_around_origin(x, R)
    frame_top = normalized_frame(s, R, arg_lambda=half, coefficients=frame)
    frame_bot = normalized_frame(s, R, arg_lambda=3.0 * half, coefficients=frame)
    Nx = mat_inv(frame_top) @ _loop_transfer(s, loop_x, tol) @ frame_top
    N0 = mat_inv(frame_bot) @ _loop_transfer(s, loop_0, tol) @ frame_bot

    denom = Nx[0, 0] * N0[1, 1]
    if abs(denom) < 1e-12:
        raise ConsistencyError("degenerate Stokes solve: (Nx)_11 (N0)_22 ~ 0")
    s2 = -(Nx @ N0)[0, 1] / denom
    S2 = I2 + s2 * DELTA_PLUS
    M0 = S2 @ N0 @ mat_inv(S2)
    Mx = Nx

    # product structure: Nx S2 N0 = S1^-1 e^(-pi i thetainf J); its diagonal
    # is a parameter-free check of the whole continuation
    L = Nx @ S2 @ N0
    phase = cmath.exp(1j * math.pi * ti)
    defect = max(abs(L[0, 0] * phase - 1.0), abs(L[1, 1] / phase - 1.0))
    if defect > CONSISTENCY_TOL:
        raise ConsistencyError(
            f"monodromy internal consistency failed: diagonal defect {defect:.3e}"
        )
    md = MonodromyData.from_pair(M0, Mx, ti)
    md.diagnostics.update(
        {
            "R": R,
            "consistency_defect": float(defect),
            "frame_truncation": mat_norm(omitted) / R ** (FRAME_ORDERS + 1),
        }
    )
    # trace identity on the recomposed data
    prod = md.Mx @ md.M0
    lhs = prod[0, 0] + prod[1, 1]
    rhs = 2.0 * cmath.cos(math.pi * ti) + md.s1 * md.s2 / phase
    if abs(lhs - rhs) > CONSISTENCY_TOL:
        raise ConsistencyError(f"Stokes trace identity defect {abs(lhs - rhs):.3e}")
    return md
