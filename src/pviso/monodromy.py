"""Numeric monodromy of the deformed linear system

    dY/dlambda = (A0/lambda + Ax/(lambda - x) + J/2) Y

computed with respect to the solution normalized as
Y = (I + O(1/lambda)) e^(lambda/2 J) lambda^(-thetainf/2 J) on the branch
arg lambda in (-pi/2, 3pi/2).

Loops (base point i*R, R >= 4(|x|+10)):
  around 0:  left semicircular arc of radius R down to -iR, the segment
             of the negative imaginary axis to -i, the positively
             oriented unit circle about 0, and back by the same route;
  around x:  vertical descent from iR to x + i, the positively oriented
             unit circle about x, and back.

The ODE transport runs only on the pieces that hug the imaginary axis
or the unit circles, where the two exponential modes e^(+-lambda/2) have
equal modulus and the transfer matrices stay well conditioned.  The deep
arc (Re lambda down to -R) is never stepped through: there the dominant
mode would amplify local errors by e^R.  Instead the continued germ at
-iR is expressed through the truncated asymptotic frame on the continued
branch (arg = 3pi/2), where the frame represents the second canonical
solution so that the value of the continued Y is frame * S2^-1 with
S2 = I + s2 Delta+ the (a priori unknown) Stokes factor.  The unknown
drops out algebraically: with

    N0 := F(-iR)^-1 T0 F(-iR),   Nx := F(iR)^-1 Tx F(iR)

(T0, Tx the tame loop transfers), the monodromy data satisfies
Mx = Nx, M0 = S2 N0 S2^-1, and the product identity
Mx M0 = S1^-1 e^(-pi i thetainf J) S2^-1 forces

    (Nx S2 N0)_12 = 0  =>  s2 = -(Nx N0)_12 / ((Nx)_11 (N0)_22),

a linear solve; s1 then reads off the (2,1) entry and the diagonal
entries provide a two-sided internal consistency check.  The remaining
frame truncation error scales like R^-(orders+1) and is reduced further
by Richardson extrapolation over R and 2R.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
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
    "LoopSpec",
    "loop_around_origin",
    "loop_around_x",
    "normalized_frame",
    "frame_coefficients",
    "continue_along",
    "monodromy",
    "braid_shift",
    "MonodromyData",
]

DEFAULT_FRAME_ORDERS = 8


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

    def point(self, t: float) -> complex:
        return self.start + t * self.direction

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

    def point(self, t: float) -> complex:
        return self.locate(t)[0]

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


@dataclass
class LoopSpec:
    """A closed loop given by line/arc pieces, encircling one point."""

    base_point: complex
    segments: list[Piece]
    encircled_point: complex
    orientation: int = 1
    avoid: tuple[complex, ...] = field(default_factory=tuple)

    def validate(self, other_points: Sequence[complex] = ()) -> None:
        if self.segments:
            if abs(self.segments[0].start - self.base_point) > 1e-9:
                raise PathError("loop does not start at its base point")
            for a, b in zip(self.segments, self.segments[1:]):
                if abs(a.end - b.start) > 1e-9:
                    raise PathError("loop pieces are not contiguous")
            if abs(self.segments[-1].end - self.base_point) > 1e-9:
                raise PathError("loop does not close at its base point")
        w = self.winding_number(self.encircled_point)
        if w != self.orientation:
            raise PathError(
                f"winding about encircled point is {w}, expected {self.orientation}"
            )
        for pt in other_points:
            if self.winding_number(pt) != 0:
                raise PathError(f"loop also winds about {pt}")

    def winding_number(self, point: complex, samples_per_piece: int = 256) -> int:
        total = 0.0
        for piece in self.segments:
            ts = np.linspace(0.0, piece.length, samples_per_piece)
            zs = np.array([piece.point(t) - point for t in ts])
            total += float(np.sum(np.angle(zs[1:] / zs[:-1])))
        return round(total / (2.0 * math.pi))


def loop_around_origin(x: complex, R: float) -> LoopSpec:
    """Base iR, left semicircular arc to -iR, axis segment to -i, unit
    circle about 0 (positive), return by the same route."""
    half = math.pi / 2.0
    seg_down = Line(-1j * R, -1j)
    seg_up = Line(-1j, -1j * R)
    return LoopSpec(
        base_point=1j * R,
        segments=[
            Arc(0.0, R, half, 3.0 * half),
            seg_down,
            Arc(0.0, 1.0, -half, 3.0 * half),
            seg_up,
            Arc(0.0, R, 3.0 * half, half),
        ],
        encircled_point=0.0,
        orientation=1,
        avoid=(x,),
    )


def loop_around_x(x: complex, R: float) -> LoopSpec:
    """Base iR, vertical descent to x + i, unit circle about x
    (positive), return by the same route."""
    half = math.pi / 2.0
    return LoopSpec(
        base_point=1j * R,
        segments=[
            Line(1j * R, x + 1j),
            Arc(x, 1.0, half, half + 2.0 * math.pi),
            Line(x + 1j, 1j * R),
        ],
        encircled_point=x,
        orientation=1,
        avoid=(0.0,),
    )


def _min_distance(piece: Piece, point: complex, samples: int = 129) -> float:
    if isinstance(piece, Line):
        return _segment_distance(piece.start, piece.end, point)
    ts = np.linspace(0.0, piece.length, samples)
    return min(abs(piece.point(t) - point) for t in ts)


# ---------------------------------------------------------------------------
# asymptotic frame


def frame_coefficients(s: FlowState, orders: int, diag_correction: bool = True):
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
        if diag_correction:
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
    diag_correction: bool = False,
) -> np.ndarray:
    """Value of the normalized solution at lambda = R e^(i arg_lambda)
    from its truncated asymptotic expansion.

    Defaults reproduce the minimal contract (first correction, zero
    diagonal); monodromy() uses more orders with the diagonal included.
    """
    if R < 4.0 * (abs(s.x) + 10.0):
        raise RadiusError(f"normalization radius {R} < 4(|x|+10)")
    lam = BranchedLog(math.log(R), arg_lambda)
    z = lam.point
    series = np.array(I2, dtype=complex)
    for k, gk in enumerate(frame_coefficients(s, orders, diag_correction), start=1):
        series = series + gk / z**k
    return series @ exp_J(z / 2.0) @ power_J(lam, -s.params.thetainf / 2.0)


# ---------------------------------------------------------------------------
# transport


def _linear_field(s: FlowState, piece: Piece):
    """The linear system's vector field along ``piece``, as scalar
    arithmetic on Y row by row: dY/dt = (C v) Y with
    C v = A0 v/lambda + Ax v/(lambda - x) + (v/2) J, v the velocity."""
    a, b, c, d = s.A0.ravel().tolist()
    e, g, k, m = s.Ax.ravel().tolist()
    x = s.x
    locate = piece.locate

    def f(t, y):
        lam, v = locate(t)
        p = v / lam
        q = v / (lam - x)
        h = 0.5 * v
        c00 = a * p + e * q + h
        c01 = b * p + g * q
        c10 = c * p + k * q
        c11 = d * p + m * q - h
        y0, y1, y2, y3 = y
        return (
            c00 * y0 + c01 * y2,
            c00 * y1 + c01 * y3,
            c10 * y0 + c11 * y2,
            c10 * y1 + c11 * y3,
        )

    return f


def _transfer(s: FlowState, pieces: Sequence[Piece], tol: float) -> np.ndarray:
    """Transfer matrix of the linear system along the concatenated pieces.

    The integrator tolerance is tightened with the total arclength so the
    accumulated error (and the determinant drift) stays within 100*tol.
    """
    total = sum(piece.length for piece in pieces)
    tol_local = tol * min(1.0, 10.0 / max(total, 1.0))
    W = np.array(I2, dtype=complex)
    for piece in pieces:
        f = _linear_field(s, piece)
        W = integrate_rk54(f, 0.0, piece.length, W.reshape(4), tol_local).reshape(2, 2)
    drift = abs(det2(W) - 1.0)
    if drift > 100.0 * tol * max(1.0, mat_norm(W) ** 2):
        raise ConsistencyError(f"transfer determinant drifted by {drift:.3e}")
    return W


def continue_along(
    s: FlowState, Y0: np.ndarray, path: LoopSpec, tol: float = 1e-12
) -> np.ndarray:
    """Analytic continuation of the solution with value ``Y0`` at the
    path's base point, by direct ODE transport along the loop pieces.

    The path must stay at distance >= 0.5 from both finite singular
    points.  Deep excursions into Re lambda << 0 or >> 0 lose the
    recessive solution direction and are rejected by the determinant
    check rather than silently returning garbage.
    """
    for piece in path.segments:
        for pt in (0.0 + 0.0j, s.x):
            if _min_distance(piece, pt) < 0.5:
                raise PathError(f"path passes within 0.5 of singular point {pt}")
    if not path.segments:
        return np.array(Y0, dtype=complex)
    return _transfer(s, path.segments, tol) @ np.array(Y0, dtype=complex)


def _loop_transfer_conjugated(
    s: FlowState,
    descent: Line,
    circle: Arc,
    frame: np.ndarray,
    tol: float,
) -> np.ndarray:
    """frame^-1 (P^-1 C P) frame for a descend-circle-return loop."""
    P = _transfer(s, [descent], tol)
    C = _transfer(s, [circle], tol)
    T = mat_inv(P) @ C @ P
    return mat_inv(frame) @ T @ frame


def _monodromy_single_radius(
    s: FlowState, R: float, tol: float, orders: int, consistency_tol: float
):
    x, ti = s.x, s.params.thetainf
    half = math.pi / 2.0

    frame_top = normalized_frame(s, R, arg_lambda=half, orders=orders, diag_correction=True)
    frame_bot = normalized_frame(s, R, arg_lambda=3.0 * half, orders=orders, diag_correction=True)

    # loop about x: descent along the imaginary axis, unit circle at x
    Nx = _loop_transfer_conjugated(
        s,
        Line(1j * R, x + 1j),
        Arc(x, 1.0, half, half + 2.0 * math.pi),
        frame_top,
        tol,
    )
    # loop about 0 rebased at -iR on the continued branch
    N0 = _loop_transfer_conjugated(
        s,
        Line(-1j * R, -1j),
        Arc(0.0, 1.0, -half, 3.0 * half),
        frame_bot,
        tol,
    )

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
    if defect > consistency_tol:
        raise ConsistencyError(
            f"monodromy internal consistency failed: diagonal defect {defect:.3e}"
        )
    s1 = -phase * L[1, 0]
    return M0, Mx, s1, s2, defect


def monodromy(
    s: FlowState,
    tol: float = 1e-12,
    *,
    R: float | None = None,
    orders: int = DEFAULT_FRAME_ORDERS,
    richardson: bool = True,
    consistency_tol: float = 1e-6,
) -> MonodromyData:
    """Monodromy data of the state by continuation around the two loops.

    R defaults to 4(|x|+10); with ``richardson`` the computation runs at
    R and 2R and extrapolates the matrices entrywise.
    """
    R0 = float(R) if R is not None else 4.0 * (abs(s.x) + 10.0)
    M0a, Mxa, s1a, s2a, defa = _monodromy_single_radius(
        s, R0, tol, orders, consistency_tol
    )
    if not richardson:
        md = MonodromyData.from_pair(M0a, Mxa, s.params.thetainf)
        md.diagnostics.update(
            {"R": R0, "consistency_defect": defa, "richardson": False}
        )
        return md
    M0b, Mxb, s1b, s2b, defb = _monodromy_single_radius(
        s, 2.0 * R0, tol, orders, consistency_tol
    )
    M0 = (4.0 * M0b - M0a) / 3.0
    Mx = (4.0 * Mxb - Mxa) / 3.0
    md = MonodromyData.from_pair(M0, Mx, s.params.thetainf)
    md.diagnostics.update(
        {
            "R": R0,
            "consistency_defect": max(defa, defb),
            "richardson": True,
            "radius_doubling_change": float(
                max(mat_norm(M0b - M0a), mat_norm(Mxb - Mxa))
            ),
        }
    )
    # trace identity on the extrapolated product
    prod = md.Mx @ md.M0
    phase = cmath.exp(-1j * math.pi * s.params.thetainf)
    lhs = prod[0, 0] + prod[1, 1]
    rhs = 2.0 * cmath.cos(math.pi * s.params.thetainf) + phase * md.s1 * md.s2
    if abs(lhs - rhs) > consistency_tol:
        raise ConsistencyError(
            f"Stokes trace identity defect {abs(lhs - rhs):.3e} after extrapolation"
        )
    return md
