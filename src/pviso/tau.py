"""Tau-function log-derivative from matrix data, its truncated expansion,
and the fourth-order bilinear residual.

tau itself is never materialized (it is defined up to a constant); the
bilinear form is homogeneous, so it is divided by tau^2 and checked on
H = (log tau)' and its centred derivatives (``flow.ray_derivatives``).
"""

from __future__ import annotations

import cmath

from .errors import ConsistencyError, PvisoValueError
from .flow import FlowState, ray_derivatives
from .series import Parameters, _in_strip, gamma_quad

__all__ = ["dlog_tau", "dlog_tau_series", "bilinear_residual"]


def dlog_tau(s: FlowState) -> complex:
    """(log tau)' from the pair: tr(A0 Ax)/x - tr(A0 J/2) - thetainf/2.

    The equivalent entry form (Ax)_11 + (2 (A0)_11 (Ax)_11 +
    (A0)_12 (Ax)_21 + (A0)_21 (Ax)_12)/x is evaluated as well; the two
    are algebraically identical for traceless pairs and must agree.
    """
    if s.x == 0:
        raise PvisoValueError("x = 0")
    a0, ax = s.A0, s.Ax
    tr_prod = (
        a0[0, 0] * ax[0, 0]
        + a0[0, 1] * ax[1, 0]
        + a0[1, 0] * ax[0, 1]
        + a0[1, 1] * ax[1, 1]
    )
    form_a = tr_prod / s.x - (a0[0, 0] - a0[1, 1]) / 2.0 - s.params.thetainf / 2.0
    # the two forms coincide exactly when the diagonal normalization
    # (A0+Ax)_11 = -thetainf/2 holds; enforce agreement only then
    b_defect = abs(a0[0, 0] + ax[0, 0] + s.params.thetainf / 2.0)
    if b_defect < 1e-9 * (1.0 + abs(a0[0, 0]) + abs(ax[0, 0])):
        form_b = ax[0, 0] + (
            2.0 * a0[0, 0] * ax[0, 0] + a0[0, 1] * ax[1, 0] + a0[1, 0] * ax[0, 1]
        ) / s.x
        if abs(form_a - form_b) > 1e-12 * (1.0 + abs(form_a)):
            raise ConsistencyError(
                f"tau log-derivative forms disagree: {form_a} vs {form_b}"
            )
    return form_a


def dlog_tau_series(p: Parameters, x: complex) -> complex:
    """Printed terms of the expansion:

        -(sigma+thetainf)/4 - (sigma^2-thetainf^2)/(8x)
        - g0m gxp e^x x^(sigma-2) + g0p gxm e^-x x^(-sigma-2).

    The x^-2 constant term and all later brackets are intentionally not
    included; the leading omitted term is O(x^-2).  Raises DomainError
    outside the admissible strip, as ``series.series_seed`` does."""
    x = _in_strip(p, x)
    g = gamma_quad(p)
    s, ti = p.sigma, p.thetainf
    xs = cmath.exp(s * cmath.log(x))
    ep2 = cmath.exp(x) * xs / (x * x)  # e^x x^(sigma-2)
    em2 = 1.0 / (cmath.exp(x) * xs * x * x)  # e^-x x^(-sigma-2)
    return (
        -(s + ti) / 4.0
        - (s * s - ti * ti) / (8.0 * x)
        - g.g0m * g.gxp * ep2
        + g.g0p * g.gxm * em2
    )


def bilinear_residual(
    p: Parameters,
    x: complex,
    h: float = 1e-2,
    *,
    state: FlowState,
    tol: float = 1e-12,
) -> complex:
    """Residual of the fourth-order bilinear equation divided by tau^2.

    With H = (log tau)' and r1 = H, r2 = H' + H^2,
    r3 = H'' + 3 H H' + H^3, r4 = H''' + 4 H H'' + 3 H'^2 + 6 H^2 H' + H^4:

        x^3 (r4 - 4 r1 r3 + 3 r2^2) + 4 x^2 (r3 - r1 r2)
        - (x^2 - 2 thetainf x + theta0^2 + thetax^2) x (r2 - r1^2)
        + 2 x r2 + (thetainf x - theta0^2 - thetax^2) r1
        - thetax^2 thetainf / 2.

    H at x and its derivatives d1, d2, d3 come from
    ``flow.ray_derivatives``: second-order centred differences on a
    5-point stencil along the ray, walked from ``state``, a state near x.
    """
    x = complex(x)
    r1, d1, d2, d3 = ray_derivatives(state, x, h, dlog_tau, 3, tol)
    r2 = d1 + r1 * r1
    r3 = d2 + 3.0 * r1 * d1 + r1**3
    r4 = d3 + 4.0 * r1 * d2 + 3.0 * d1 * d1 + 6.0 * r1 * r1 * d1 + r1**4
    t0, tx, ti = p.theta0, p.thetax, p.thetainf
    return (
        x**3 * (r4 - 4.0 * r1 * r3 + 3.0 * r2 * r2)
        + 4.0 * x * x * (r3 - r1 * r2)
        - (x * x - 2.0 * ti * x + t0 * t0 + tx * tx) * x * (r2 - r1 * r1)
        + 2.0 * x * r2
        + (ti * x - t0 * t0 - tx * tx) * r1
        - tx * tx * ti / 2.0
    )
