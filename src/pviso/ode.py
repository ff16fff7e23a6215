"""Batched Taylor transport kernel for linear systems y' = C(t) y.

Its only caller is ``monodromy``, which steps the chords of each loop
as one batch with it; the flow of (A0, Ax) steps its own Taylor
recurrence in ``flow`` by the same step rule, with the ``horner`` and
``radius`` helpers below.

The state is an (m, m, B) stack: B independent systems stepped in
lockstep with one shared step.  The field ``f(t)`` describes the
system's matrix about t as a regular part and simple poles,

    C(t + s) = sum_i D_i s^i + sum_p M_p r_p / (1 + r_p s),

and returns (D, M, r): D the (d, m, m, B) Taylor coefficients of the
regular part (a constant one has d = 1), M the (P, m, m, B) residues and
r the (P, B) ratios, r_p = 1/(t - t_p) for a pole at t_p.  The pole
part's coefficients are M_p r_p (-r_p)^n, so its Cauchy sums follow
from one running sum per pole, U_(p,k) = r_p (Y_k - U_(p,k-1)), and the
state's coefficients from the recurrence

    y_(k+1) = (1/(k+1)) (sum_(i<=min(k, d-1)) D_i y_(k-i) + sum_p M_p U_(p,k))

up to ``ORDER`` (Jorba & Zou, *Exp. Math.* 14, 2005): the same work at
every order when d is small, where the Cauchy sum of a general series
grows with k.  The step is h = 0.9 min(r_(ORDER-1), r_ORDER), with
r_k = (eps/|y_k|)^(1/k), max-abs norms over the whole batch and
eps = tol (1 + max|y|), capped by what is left of the span, and the
state is the polynomial at h.  Deterministic: ``einsum`` sums in a fixed
order, without BLAS.

The name ``integrate_rk54`` is kept from the Runge-Kutta pairs this
kernel replaced: the benchmark's tracer wraps the kernel by that name.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import StepUnderflowError

__all__ = ["integrate_rk54", "horner", "radius"]

# highest order of a step
ORDER = 20
# steps a call may take; a monodromy loop takes about 5
STEP_BUDGET = 1_000


def horner(coefficients, t):
    """The polynomial with these coefficients (lowest order first) at t;
    the coefficients are numbers or arrays of one shape."""
    z = 0j
    for coef in reversed(coefficients):
        z = z * t + coef
    return z


def radius(eps: float, size: float, k: int) -> float:
    """The step at which a Taylor term of order k and size ``size``
    falls to eps, (eps / size)^(1/k); inf for a zero term."""
    return (eps / size) ** (1.0 / k) if size > 0.0 else math.inf


def integrate_rk54(
    f: Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray]],
    t0: float,
    t1: float,
    y0: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Integrate y' = C(t) y from t0 to t1, ``f(t)`` giving C about t as
    (D, M, r) (see above), with the step rule above at ``tol``.

    Returns the (m, m, B) state at t1.  A coefficient that is not
    finite, a step below 1e-13 of the span or a spent ``STEP_BUDGET``
    raises StepUnderflowError.
    """
    y = np.array(y0, dtype=complex)
    floor = 1e-13 * max(1.0, t1 - t0)
    t = t0
    Y = np.empty((ORDER + 1, *y.shape), dtype=complex)
    for _ in range(STEP_BUDGET):
        if t >= t1:
            return y
        D, M, r = f(t)
        r = r[:, None, None]
        U = np.zeros((len(M), *y.shape), dtype=complex)
        Y[0] = y
        for k in range(ORDER):
            U = r * (Y[k] - U)
            i = min(k + 1, len(D))
            regular = np.einsum("iabn,ibcn->acn", D[:i], Y[k::-1][:i])
            Y[k + 1] = (regular + np.einsum("pabn,pbcn->acn", M, U)) / (k + 1)
        if not np.isfinite(Y).all():
            raise StepUnderflowError(f"non-finite Taylor coefficient at t = {t}")
        eps = tol * (1.0 + float(np.abs(y).max()))
        h = 0.9 * min(radius(eps, float(np.abs(Y[k]).max()), k) for k in (ORDER - 1, ORDER))
        if h >= t1 - t:
            return horner(Y, t1 - t)
        if h < floor:
            raise StepUnderflowError(f"step size underflow at t = {t} (h = {h})")
        y = horner(Y, h)
        t += h
    raise StepUnderflowError(f"step budget of {STEP_BUDGET} spent at t = {t}")
