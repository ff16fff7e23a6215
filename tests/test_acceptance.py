"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured value next to its stated tolerance.

Shared pipeline state is computed once in module fixtures; criterion 1
re-runs its own pipeline because it is also a wall-clock budget check.

Criteria 1 and 5 hinge on the series seed.  With only the coefficients
the paper prints they read 1.835e-6 against 1e-6 and residual factors
1.78/1.77 against 3: the dominant dropped term is the E+ x^-1 bracket of
x^((sigma+thetainf)/2) f+, of size |x|^-(2 - Re sigma).  The series
(``series_A_pair``) derives every coefficient up to total degree 3 from
the Schlesinger system, and both criteria pass at their stated
tolerances.
"""

import cmath
import math
import time

import numpy as np
import pytest

from pviso.closedform import closed_form_monodromy
from pviso.flow import integrate, refine_from_series
from pviso.linalg import I2, J, commutator, det2, mat_norm, tr2
from pviso.monodata import braid_shift
from pviso.monodromy import monodromy
from pviso.series import Parameters, series_A_pair
from pviso.special import EULER_GAMMA, digamma, gamma, rgamma
from pviso.tau import bilinear_residual, dlog_tau, dlog_tau_series
from pviso.transcendents import (
    LatticeKind,
    pv_residual,
    refine_lattice,
    yzu_from_matrices,
)

P1 = Parameters(
    theta0=0.21, thetax=0.16, thetainf=0.11, c0=1.0, cx=0.7 + 0.2j, sigma=0.24 + 0.05j
)
# zero/pole lattice parameter sets with well-separated companion root
# families; they fail the smallness heuristic (score * strip level 2.16 for
# P8Z and 5.85 for P8P, against 0.5), yet their refined roots stay within
# scaled error 0.42 resp. 0.07 of the seeds
P8Z = Parameters(theta0=0.45, thetax=0.05, thetainf=0.1, c0=1.0, cx=0.05, sigma=0.1)
P8P = Parameters(theta0=0.05, thetax=0.45, thetainf=0.1, c0=1.0, cx=25.0, sigma=0.3)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def state40():
    return refine_from_series(P1, 400.0, 40j, 1e-12).state


@pytest.fixture(scope="module")
def md40(state40):
    return monodromy(state40, 1e-12, R=200.0)


@pytest.fixture(scope="module")
def state55(state40):
    return integrate(state40, 55j, 1e-12)


@pytest.fixture(scope="module")
def md55(state55):
    return monodromy(state55, 1e-12)


@pytest.fixture(scope="module")
def mdcf():
    return closed_form_monodromy(P1)


def test_criterion_01_monodromy_cross_validation(mdcf):
    """Seed at 400i, flow to 40i (tol 1e-12), monodromy in one pass at
    R = 200; every entry within 1e-6 of the closed form,
    under 60 s single-threaded.  With the degree-3 seed it reads about
    5e-11, the error of the 40i state; a seed from only the printed
    coefficients gives 1.835e-6."""
    t0 = time.monotonic()
    state = refine_from_series(P1, 400.0, 40j, 1e-12).state
    md = monodromy(state, 1e-12, R=200.0)
    elapsed = time.monotonic() - t0
    diff = max(mat_norm(md.M0 - mdcf.M0), mat_norm(md.Mx - mdcf.Mx))
    ok = diff <= 1e-6 and elapsed <= 60.0
    _report("1", ok, f"max entry diff {diff:.3e} (tol 1e-6), runtime {elapsed:.1f}s (cap 60s)")
    assert elapsed <= 60.0
    assert diff <= 1e-6


def test_criterion_02_isomonodromy_invariance(md40, md55):
    diff = max(mat_norm(md40.M0 - md55.M0), mat_norm(md40.Mx - md55.Mx))
    ok = diff <= 1e-6
    _report("2", ok, f"entrywise diff at x = 40i vs 55i: {diff:.3e} (tol 1e-6)")
    assert ok


def test_criterion_03_structural_identities(md40, md55, mdcf):
    worst = {"det": 0.0, "trace": 0.0, "triple": 0.0, "stokes": 0.0}
    data = [md40, md55, mdcf, braid_shift(mdcf, 2, P1.thetainf)]
    for md in data:
        worst["det"] = max(
            worst["det"], abs(det2(md.M0) - 1.0), abs(det2(md.Mx) - 1.0)
        )
        worst["trace"] = max(
            worst["trace"],
            abs(tr2(md.M0) - 2.0 * cmath.cos(math.pi * P1.theta0)),
            abs(tr2(md.Mx) - 2.0 * cmath.cos(math.pi * P1.thetax)),
        )
        worst["triple"] = max(worst["triple"], mat_norm(md.Minf @ md.Mx @ md.M0 - I2))
        prod = md.Mx @ md.M0
        rhs = 2.0 * cmath.cos(math.pi * P1.thetainf) + cmath.exp(
            -1j * math.pi * P1.thetainf
        ) * md.s1 * md.s2
        worst["stokes"] = max(worst["stokes"], abs(tr2(prod) - rhs))
    ok = (
        worst["det"] <= 1e-10
        and worst["trace"] <= 1e-8
        and worst["triple"] <= 1e-8
        and worst["stokes"] <= 1e-8
    )
    _report(
        "3",
        ok,
        "worst over numeric(40i), numeric(55i), closed form, braid-shifted: "
        f"det {worst['det']:.1e} (1e-10), trace {worst['trace']:.1e} (1e-8), "
        f"triple {worst['triple']:.1e} (1e-8), stokes-trace {worst['stokes']:.1e} (1e-8)",
    )
    assert worst["det"] <= 1e-10
    assert worst["trace"] <= 1e-8
    assert worst["triple"] <= 1e-8
    assert worst["stokes"] <= 1e-8


def test_criterion_04_closed_form_consistency():
    rng = np.random.RandomState(7)
    worst = 0.0
    for _ in range(50):
        p = Parameters(
            theta0=rng.uniform(0.06, 0.44),
            thetax=rng.uniform(0.06, 0.44),
            thetainf=rng.uniform(0.06, 0.44),
            c0=complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)),
            cx=complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)),
            sigma=complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)),
        )
        md = closed_form_monodromy(p)
        assert md.diagnostics["structural_checked"]
        worst = max(worst, md.diagnostics["structural_max_diff"])
    cont_worst = 0.0
    for field, n in (("theta0", 1), ("thetax", 1), ("theta0", -2)):
        md_int = closed_form_monodromy(P1.replace(**{field: float(n)}))
        for d in (1e-3, 1e-4):
            md = closed_form_monodromy(P1.replace(**{field: n - d}))
            diff = max(mat_norm(md.M0 - md_int.M0), mat_norm(md.Mx - md_int.Mx))
            cont_worst = max(cont_worst, diff / (10.0 * d))
    ok = worst <= 1e-10 and cont_worst <= 1.0
    _report(
        "4",
        ok,
        f"50-point grid entrywise-vs-conjugation worst {worst:.2e} (1e-10); "
        f"integer-limit continuity ratio {cont_worst:.2f} (<= 1)",
    )
    assert ok


# A dyadic step keeps the stencil points 1j*(r + k*h) exact.  The 5-point
# stencil's own error is about |x| h^4 |g+-| / 30 (g+- carry e^(+-x)); at
# h = 0.02 that is 3.5e-7 at 400i, above the residual of a degree-3 series.
RESIDUAL_STEP = 2.0**-9


def _schlesinger_residual(p, x, h=RESIDUAL_STEP):
    e = x / abs(x)
    ser = [series_A_pair(p, x + k * h * e) for k in (-2, -1, 0, 1, 2)]
    dA0 = (-ser[4].A0 + 8 * ser[3].A0 - 8 * ser[1].A0 + ser[0].A0) / (12 * h * e)
    dAx = (-ser[4].Ax + 8 * ser[3].Ax - 8 * ser[1].Ax + ser[0].Ax) / (12 * h * e)
    r0 = x * dA0 - commutator(ser[2].Ax, ser[2].A0)
    rx = x * dAx - commutator(ser[2].A0, ser[2].Ax) - (x / 2.0) * commutator(J, ser[2].Ax)
    return max(mat_norm(r0), mat_norm(rx))


def test_criterion_05_series_validity():
    """Det defect must fall >= 3x per doubling on |x| in {100, 200, 400};
    the same is asserted for the finite-difference deformation-equation
    residual per the stated criterion.  The residual is measured at steps
    h and h/2, which must agree within 10% at every radius: otherwise the
    stencil error, not the series, sets the reading.  With only the
    printed coefficients the residual factor is pinned at
    2^(1 - Re sigma) ~ 1.7 by the dropped E+ x^-1 bracket; the degree-3
    series gives ~8.5 and ~13.4."""
    radii = (100.0, 200.0, 400.0)
    defects = []
    residuals = []
    guard = []
    for r in radii:
        ab = series_A_pair(P1, 1j * r)
        defects.append(
            abs(ab.A0[0, 0] ** 2 + ab.A0[0, 1] * ab.A0[1, 0] - P1.theta0**2 / 4.0)
            + abs(ab.Ax[0, 0] ** 2 + ab.Ax[0, 1] * ab.Ax[1, 0] - P1.thetax**2 / 4.0)
        )
        res = _schlesinger_residual(P1, 1j * r)
        res_half = _schlesinger_residual(P1, 1j * r, RESIDUAL_STEP / 2.0)
        residuals.append(res)
        guard.append(abs(res - res_half) / res)
    det_factors = [a / b for a, b in zip(defects, defects[1:])]
    res_factors = [a / b for a, b in zip(residuals, residuals[1:])]
    det_ok = all(f >= 3.0 for f in det_factors)
    res_ok = all(f >= 3.0 for f in res_factors)
    guard_ok = all(g <= 0.1 for g in guard)
    _report(
        "5",
        det_ok and res_ok and guard_ok,
        f"det-defect factors per doubling {[f'{f:.2f}' for f in det_factors]} (>= 3); "
        f"residual factors {[f'{f:.2f}' for f in res_factors]} (>= 3); "
        f"h vs h/2 residual disagreement {max(guard):.1%} (<= 10%)",
    )
    assert det_ok
    assert guard_ok
    assert res_ok


def test_criterion_06_pv_residual(state40):
    """Residual <= 1e-5 at h = 1e-3; halving order >= 1.8 measured in the
    regime where the h^2 stencil term dominates (the documented floor,
    rounding noise amplified by 1/h^2, sits near 2e-7, thirty-fold below
    the tolerance)."""
    r_main = pv_residual(P1, 40j, 1e-3, state=state40)
    r_a = pv_residual(P1, 40j, 4e-3, state=state40)
    r_b = pv_residual(P1, 40j, 2e-3, state=state40)
    order = math.log2(r_a / r_b)
    ok = r_main <= 1e-5 and order >= 1.8
    _report(
        "6",
        ok,
        f"residual(h=1e-3) {r_main:.2e} (tol 1e-5); halving order {order:.2f} (>= 1.8)",
    )
    assert r_main <= 1e-5
    assert order >= 1.8


def test_criterion_07_series_coefficients_of_y():
    c, s = P1.c, P1.sigma
    a1 = c * (-s + P1.theta0 + P1.thetax) / 2.0
    b1 = (s + P1.theta0 + P1.thetax) / (2.0 * c)
    ts = [300.0 + 0.5 * k for k in range(28)]
    state = refine_from_series(P1, 700.0, 1j * ts[-1], 1e-12).state
    rows, vals = [], []
    for t in reversed(ts):
        x = 1j * t
        state = integrate(state, x, 1e-12)
        y = yzu_from_matrices(state).y
        xs = cmath.exp(s * cmath.log(x))
        r = y / (c * cmath.exp(x) * xs) - 1.0
        ep = cmath.exp(x) * xs / x
        em = 1.0 / (cmath.exp(x) * xs * x)
        rows.append([1.0, 1.0 / x, ep, em, ep / x, em / x, ep * ep, em * em])
        vals.append(r)
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(vals), rcond=None)
    rel_a = abs(coef[2] - a1) / abs(a1)
    rel_b = abs(coef[3] - b1) / abs(b1)
    ok = rel_a <= 1e-2 and rel_b <= 1e-2
    _report("7", ok, f"fitted a1 rel err {rel_a:.2e}, b1 rel err {rel_b:.2e} (tol 1e-2)")
    assert ok


def _lattice_run(p, kind, m_from, m_to, residual_tol):
    lattice = refine_lattice(p, kind, m_from, m_to, root_tol=1e-9, flow_tol=1e-12)
    # re-check every root with a transport of our own: from a series seed
    # on the axis, along the axis and out to the root
    top = 1j * lattice.seeds[-1][1].imag
    anchor = refine_from_series(p, max(300.0, 2.0 * abs(top)), top, 1e-12).state
    scaled = []
    for (m, seed), root_state in reversed(list(zip(lattice.seeds, lattice.roots))):
        root = root_state.x
        anchor = integrate(anchor, 1j * root.imag, 1e-12)
        st = integrate(anchor, root, 1e-12)
        pt = yzu_from_matrices(st)
        fval = abs(pt.y) if kind is LatticeKind.ZERO else (0.0 if pt.pole else 1.0 / abs(pt.y))
        assert fval <= residual_tol
        scaled.append((m, abs(root - seed) * m / math.log(m)))
    scaled.sort()
    return scaled


def _stability(scaled):
    mid = len(scaled) // 2
    first = max(v for _, v in scaled[:mid])
    second = max(v for _, v in scaled[mid:])
    return first, second


def test_criterion_08_zero_and_pole_lattices():
    zeros = _lattice_run(P8Z, LatticeKind.ZERO, 10, 40, 1e-8)
    zf, zs = _stability(zeros)
    poles = _lattice_run(P8P, LatticeKind.POLE, 10, 40, 1e-8)
    pf, ps = _stability(poles)
    ok = (
        max(zf, zs) < math.inf
        and 0.5 <= zs / zf <= 1.5
        and 0.5 <= ps / pf <= 1.5
    )
    _report(
        "8",
        ok,
        f"zeros: scaled error C {zf:.3f}/{zs:.3f} (halves, ratio {zs/zf:.2f}); "
        f"poles: {pf:.3f}/{ps:.3f} (ratio {ps/pf:.2f}); all |y| resp |1/y| <= 1e-8",
    )
    assert 0.5 <= zs / zf <= 1.5
    assert 0.5 <= ps / pf <= 1.5


def test_criterion_09_tau(state40):
    st = state40
    diffs = []
    for X in (50j, 100j, 200j):
        st = integrate(st, X, 1e-12)
        diffs.append(abs(dlog_tau(st) - dlog_tau_series(P1, X)))
    slope = -np.polyfit(np.log([50.0, 100.0, 200.0]), np.log(diffs), 1)[0]
    r1 = abs(bilinear_residual(P1, 40j, 4e-2, state=state40))
    r2 = abs(bilinear_residual(P1, 40j, 2e-2, state=state40))
    r3 = abs(bilinear_residual(P1, 40j, 1e-2, state=state40))
    # normalization scale: largest single term of the bilinear combination
    h0 = dlog_tau(state40)
    scale = max(abs(40j) ** 3 * abs(h0) ** 4, abs(40j) * abs(h0), 1.0)
    ok = abs(slope - 2.0) <= 0.3 and r3 / scale <= 1e-3 and r1 > r2 > r3
    _report(
        "9",
        ok,
        f"series-vs-flow exponent {slope:.2f} (2.0 +- 0.3); bilinear residual "
        f"{r3:.2e} normalized {r3/scale:.2e} (tol 1e-3), h-sweep {r1:.1e} > {r2:.1e} > {r3:.1e}",
    )
    assert abs(slope - 2.0) <= 0.3
    assert r3 / scale <= 1e-3
    assert r1 > r2 > r3


def test_criterion_10_special_functions():
    worst_gamma = 0.0
    rng = np.random.RandomState(5)
    for _ in range(100):
        z = complex(rng.uniform(-6, 7), rng.uniform(-8, 8))
        if z.real <= 0.5 and abs(z - round(z.real)) < 0.05:
            continue
        worst_gamma = max(
            worst_gamma,
            abs(gamma(z) * gamma(1.0 - z) * cmath.sin(math.pi * z) / math.pi - 1.0),
            abs(gamma(z + 1.0) / gamma(z) - z) / max(1.0, abs(z)),
        )
    worst_digamma = max(
        abs(digamma(1.0) + EULER_GAMMA),
        abs(digamma(2.0) - (1.0 - EULER_GAMMA)),
        abs(digamma(0.5) + EULER_GAMMA + 2.0 * math.log(2.0)),
        abs(rgamma(0.0)),
        abs(rgamma(-3.0)),
    )
    ok = worst_gamma <= 1e-10 and worst_digamma <= 1e-10
    _report(
        "10",
        ok,
        f"gamma reflection/recurrence worst {worst_gamma:.2e} (1e-10); "
        f"digamma identities worst {worst_digamma:.2e} (1e-10)",
    )
    assert ok
