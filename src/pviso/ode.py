"""Adaptive embedded Runge-Kutta 5(4) pair for complex vector fields.

Dormand-Prince coefficients (Dormand & Prince, 1980) with the
first-same-as-last optimisation.  The state is held as a short list of
Python complex numbers and every stage sum is written out as scalar
arithmetic, so a step costs a few list comprehensions rather than dozens
of small numpy calls.  The vector field ``f(t, y)`` receives that list
and returns a sequence of the same length; it is called once per stage.
The independent variable is a real path parameter (arc length along the
segments used by the callers).  Deterministic: no randomness, fixed
evaluation order.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import StepUnderflowError

__all__ = ["integrate_rk54"]

# Dormand-Prince tableau: stage nodes C*, couplings A*, 5th-order weights
# B* (also the 7th stage's couplings, which makes it FSAL) and the error
# weights E* = B5 - B4.  Zero entries are left out of the sums below.
C2, C3, C4, C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
A21 = 1.0 / 5.0
A31, A32 = 3.0 / 40.0, 9.0 / 40.0
A41, A42, A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
A51, A52, A53, A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
A61, A62, A63, A64, A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0
)
B1, B3, B4, B5, B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
E1 = B1 - 5179.0 / 57600.0
E3 = B3 - 7571.0 / 16695.0
E4 = B4 - 393.0 / 640.0
E5 = B5 + 92097.0 / 339200.0
E6 = B6 - 187.0 / 2100.0
E7 = -1.0 / 40.0


def integrate_rk54(
    f: Callable[[float, list[complex]], Sequence[complex]],
    t0: float,
    t1: float,
    y0: Sequence[complex],
    tol: float,
    *,
    max_step: float = 0.5,
) -> np.ndarray:
    """Integrate y' = f(t, y) from t0 to t1 (t1 >= t0) with local error
    per step controlled at ``tol`` (mixed absolute/relative RMS norm).

    Returns the state at t1 as a 1-D complex array.
    """
    span = t1 - t0
    if span < 0:
        raise ValueError("integrate_rk54 expects t1 >= t0")
    y = np.asarray(y0, dtype=complex).ravel().tolist()
    if span == 0.0:
        return np.array(y, dtype=complex)
    n = len(y)
    t = t0
    h = min(max_step, span, 0.1)
    h_floor = 1e-13 * max(1.0, span)
    k1 = f(t, y)
    nfail = 0
    while t < t1:
        h = min(h, t1 - t, max_step)
        if h < h_floor:
            raise StepUnderflowError(f"step size underflow at t = {t} (h = {h})")
        a21 = h * A21
        k2 = f(t + C2 * h, [y_ + a21 * p for y_, p in zip(y, k1)])
        a31, a32 = h * A31, h * A32
        k3 = f(t + C3 * h, [y_ + a31 * p + a32 * q for y_, p, q in zip(y, k1, k2)])
        a41, a42, a43 = h * A41, h * A42, h * A43
        k4 = f(
            t + C4 * h,
            [y_ + a41 * p + a42 * q + a43 * r for y_, p, q, r in zip(y, k1, k2, k3)],
        )
        a51, a52, a53, a54 = h * A51, h * A52, h * A53, h * A54
        k5 = f(
            t + C5 * h,
            [
                y_ + a51 * p + a52 * q + a53 * r + a54 * s
                for y_, p, q, r, s in zip(y, k1, k2, k3, k4)
            ],
        )
        a61, a62, a63, a64, a65 = h * A61, h * A62, h * A63, h * A64, h * A65
        k6 = f(
            t + h,
            [
                y_ + a61 * p + a62 * q + a63 * r + a64 * s + a65 * v
                for y_, p, q, r, s, v in zip(y, k1, k2, k3, k4, k5)
            ],
        )
        b1, b3, b4, b5, b6 = h * B1, h * B3, h * B4, h * B5, h * B6
        y_new = [
            y_ + b1 * p + b3 * r + b4 * s + b5 * v + b6 * w
            for y_, p, r, s, v, w in zip(y, k1, k3, k4, k5, k6)
        ]
        k7 = f(t + h, y_new)
        e1, e3, e4, e5, e6, e7 = h * E1, h * E3, h * E4, h * E5, h * E6, h * E7
        acc = 0.0
        for y_, z, p, r, s, v, w, g in zip(y, y_new, k1, k3, k4, k5, k6, k7):
            e = e1 * p + e3 * r + e4 * s + e5 * v + e6 * w + e7 * g
            sc = tol + tol * max(abs(y_), abs(z))
            acc += abs(e / sc) ** 2
        err = (acc / n) ** 0.5
        if err <= 1.0:
            t += h
            y = y_new
            k1 = k7  # first-same-as-last
            nfail = 0
        else:
            nfail += 1
            if nfail > 60:
                raise StepUnderflowError(f"persistent step rejection at t = {t}")
        factor = 0.9 * err ** -0.2 if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return np.array(y, dtype=complex)
