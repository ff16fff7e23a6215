"""Numeric monodromy of the deformed linear system

    dY/dlambda = (A0/lambda + Ax/(lambda - x) + J/2) Y

computed with respect to the solution normalized as
Y = (I + O(1/lambda)) e^(lambda/2 J) lambda^(-thetainf/2 J) on the branch
arg lambda in (-pi/2, 3pi/2).

monodromy() continues around two loops, each a line down the imaginary
axis, once around a unit circle (positively) and back up the same line
(R >= 4(|x|+10)):
  around x:  the line from iR to x + i, then the circle about x from x + i;
  around 0:  the line from -iR to -i, based at -iR on the continued branch
             (arg = 3pi/2), then the circle about 0 from -i.
Each loop is a polyline: its line is cut into ceil(length / SUB_SEGMENT)
equal chords (SUB_SEGMENT = 2), and its circle is the regular 24-gon
(CIRCLE_SIDES) starting at the line's end.
The circles overlap at |x| <= 1, which monodromy() rejects with PathError.

The ODE transport runs only on the chords that hug the imaginary axis
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

Every transfer steps Y itself by the Taylor recurrence of the linear
system (``ode.integrate_rk54``).  The J/2 term is entire, so only the
poles at 0 and x limit a step; along a chord A0/lambda and
Ax/(lambda - x) are two simple poles, whose geometric coefficients
the kernel sums in O(1) work per order.

The system is linear, so a loop's transfer is the ordered product of
the transfers over its chords, and each of those starts from the
identity whatever came before it.  All chords of a loop, the line's and
the circle's, are therefore stepped as one lockstep batch through the
one kernel, with lambda = start + t (end - start), t in [0, 1] (the
parallel-in-time property of linear propagators; Gander, "50 years of
time parallel time integration", 2015), at the tolerance tightened by
the loop's length.  The kernel's Python bookkeeping is then paid once
per batched step rather than once per member: at R = 200 the two loops
take 9 Taylor steps (5 and 4), each one field call.

A loop's transfer is P^-1 C P, with P the product over its line's
chords and C the product over its circle's.  Every partial product, in
order, is held to a norm cap, and each of P and C to a determinant
drift check.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, PathError, RadiusError
from .flow import FlowState
from .linalg import (
    DELTA_PLUS,
    I2,
    J,
    det2,
    exp_J,
    mat,
    mat_inv,
    mat_norm,
    power_J,
)
from .monodata import MonodromyData
from .ode import integrate_rk54

__all__ = ["normalized_frame", "frame_coefficients", "monodromy"]

# asymptotic frame orders of monodromy(); the first omitted one is its
# frame_truncation diagnostic
FRAME_ORDERS = 16
# bound on the diagonal defect of Nx S2 N0 and on the Stokes trace identity
CONSISTENCY_TOL = 1e-6


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
    coefficients: Sequence[np.ndarray],
    *,
    arg_lambda: float = math.pi / 2.0,
) -> np.ndarray:
    """Value of the normalized solution at lambda = R e^(i arg_lambda)
    from its asymptotic expansion truncated after the given
    ``coefficients``, ``frame_coefficients(s, k)`` for k terms.

    monodromy() takes FRAME_ORDERS terms at arg pi/2 (base iR) and 3pi/2
    (base -iR), computed once together with the first omitted one.
    """
    if R < 4.0 * (abs(s.x) + 10.0):
        raise RadiusError(f"normalization radius {R} < 4(|x|+10)")
    log_lam = complex(math.log(R), arg_lambda)
    z = cmath.exp(log_lam)
    series = np.array(I2, dtype=complex)
    for k, gk in enumerate(coefficients, start=1):
        series = series + gk / z**k
    return series @ exp_J(z / 2.0) @ power_J(log_lam, -s.params.thetainf / 2.0)


# ---------------------------------------------------------------------------
# transport


def _linear_field(s: FlowState, starts: np.ndarray, chords: np.ndarray):
    """The linear system's matrix along a batch of chords, one member per
    chord on lambda = starts + t chords, t in [0, 1]: dY/dt = C Y with
    C = (A0/lambda + Ax/(lambda - x) + J/2) v and v the chord.  About
    lambda0 = starts + t v, C(t + s) = J v/2 + A0 u/(1 + u s) +
    Ax w/(1 + w s), with u = v/lambda0 and w = v/(lambda0 - x): a
    constant and the simple poles at 0 and x.  ``f(t)`` returns them as
    the kernel takes them: D = J v/2 as a (1, 2, 2, B) array, the
    residues (A0, Ax) as (2, 2, 2, B) and the ratios (u, w) as (2, B)."""
    D = (0.5 * J[:, :, None] * chords)[None]
    M = np.broadcast_to(np.stack([s.A0, s.Ax])[..., None], (2, 2, 2, starts.size))

    def f(t):
        lam = starts + t * chords
        return D, M, np.array([chords / lam, chords / (lam - s.x)])

    return f


# length the line of a loop is cut into chords of, and the sides of the
# polygon that stands for its circle
SUB_SEGMENT = 2.0
CIRCLE_SIDES = 24

# past this norm the determinant check's bound 100*tol*|W|^2 means
# nothing; the products monodromy() forms stay below 1.5
_MAX_TRANSFER_NORM = 1e3


def _line(start: complex, end: complex) -> np.ndarray:
    """Vertices of the line from start to end, cut into
    ceil(length / SUB_SEGMENT) equal chords (at least one)."""
    m = max(1, math.ceil(abs(end - start) / SUB_SEGMENT))
    return np.linspace(start, end, m + 1)


def _polygon(center: complex, entry: complex) -> np.ndarray:
    """Vertices of the regular CIRCLE_SIDES-gon about center that runs
    once around positively from entry back to entry."""
    turns = np.exp(2j * np.pi * np.arange(CIRCLE_SIDES) / CIRCLE_SIDES)
    return np.append(center + (entry - center) * turns, entry)


def _chord_transfers(s: FlowState, starts: np.ndarray, ends: np.ndarray, tol: float):
    """(B, 2, 2) stack of the transfers along the chords from starts to
    ends, stepped as one batch from the identity at kernel tolerance tol."""
    y0 = np.broadcast_to(I2[:, :, None], (2, 2, starts.size))
    Y = integrate_rk54(_linear_field(s, starts, ends - starts), 0.0, 1.0, y0, tol)
    return np.moveaxis(Y, -1, 0)


def _product(Ws: np.ndarray, piece: str, tol: float) -> np.ndarray:
    """Ordered product W_(m-1) ... W_0 of a piece's chord transfers.

    Every partial product, in order, is held to _MAX_TRANSFER_NORM, and
    the product's determinant drift to 100*tol*max(1, |W|^2)."""
    partial = np.empty_like(Ws)
    W = np.array(I2, dtype=complex)
    for j, Wj in enumerate(Ws):
        W = partial[j] = Wj @ W
    over = np.flatnonzero(np.abs(partial).max(axis=(1, 2)) > _MAX_TRANSFER_NORM)
    if over.size:
        j = int(over[0])
        raise ConsistencyError(
            f"transfer norm {mat_norm(partial[j]):.3e} after chord {j} of {piece}"
        )
    drift = abs(det2(W) - 1.0)
    if drift > 100.0 * tol * max(1.0, mat_norm(W) ** 2):
        raise ConsistencyError(f"transfer determinant drifted by {drift:.3e}")
    return W


def _loop_transfer(s: FlowState, line: np.ndarray, center: complex, tol: float) -> np.ndarray:
    """P^-1 C P, with P the transfer along the polyline of vertices
    ``line`` and C the transfer once around the polygon about ``center``
    that starts at the line's end.

    The chords of both are stepped as one batch at tol tightened by the
    loop's length, so that the accumulated error stays within ~100*tol."""
    circle = _polygon(center, line[-1])
    starts = np.concatenate([line[:-1], circle[:-1]])
    ends = np.concatenate([line[1:], circle[1:]])
    length = float(np.abs(ends - starts).sum())
    Ws = _chord_transfers(s, starts, ends, tol * min(1.0, 10.0 / max(length, 1.0)))
    m = line.size - 1
    P = _product(Ws[:m], f"the line from {line[0]} to {line[-1]}", tol)
    C = _product(Ws[m:], f"the circle about {center}", tol)
    return mat_inv(P) @ C @ P


def monodromy(s: FlowState, tol: float = 1e-12, *, R: float | None = None) -> MonodromyData:
    """Monodromy data of the state by continuation around the two loops,
    with the frames at radius R.

    R defaults to 4(|x|+10).  A state with |x| <= 1, where the unit
    circles about 0 and x overlap, raises PathError.

    Diagnostics: ``consistency_defect`` is the diagonal defect of
    Nx S2 N0, and ``frame_truncation`` the first omitted frame term
    |G_(FRAME_ORDERS+1)| / R^(FRAME_ORDERS+1).
    """
    x, ti = s.x, s.params.thetainf
    if abs(x) <= 1.0:
        raise PathError(f"the unit circles about 0 and x = {x} overlap")
    R = float(R) if R is not None else 4.0 * (abs(x) + 10.0)
    half = math.pi / 2.0
    *frame, omitted = frame_coefficients(s, FRAME_ORDERS + 1)

    frame_top = normalized_frame(s, R, frame, arg_lambda=half)
    frame_bot = normalized_frame(s, R, frame, arg_lambda=3.0 * half)
    loop_x = _loop_transfer(s, _line(1j * R, x + 1j), x, tol)
    loop_0 = _loop_transfer(s, _line(-1j * R, -1j), 0.0, tol)
    Nx = mat_inv(frame_top) @ loop_x @ frame_top
    N0 = mat_inv(frame_bot) @ loop_0 @ frame_bot

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
