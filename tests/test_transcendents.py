import cmath
import math
import re

import numpy as np
import pytest

from pviso.errors import (
    ConvergenceError,
    OriginError,
    PvisoValueError,
    ResonanceError,
    StencilError,
)
from pviso.flow import (
    SEED_DEGREE,
    FlowState,
    _drift_budget,
    integrate,
    refine_from_series,
    seed_at,
    seed_state,
)
from pviso.linalg import mat_norm
from pviso.series import Parameters, _basis, _expansion, series_seed, smallness_score
from pviso.transcendents import (
    ROOT_SERIES_DEGREE,
    ROOT_STEP,
    _newton,
    _series_roots,
    LatticeKind,
    backlund_pi,
    pv_residual,
    refine_lattice,
    refine_root,
    yzu_from_matrices,
    zero_pole_seeds,
)

P1 = Parameters(
    theta0=0.21, thetax=0.16, thetainf=0.11, c0=1.0, cx=0.7 + 0.2j, sigma=0.24 + 0.05j
)

PZ = Parameters(theta0=0.45, thetax=0.05, thetainf=0.1, c0=1.0, cx=0.05, sigma=0.1)
P8P = Parameters(theta0=0.05, thetax=0.45, thetainf=0.1, c0=1.0, cx=25.0, sigma=0.3)


@pytest.fixture(scope="module")
def state40():
    return refine_from_series(P1, 400.0, 40j, 1e-12).state


def test_yzu_formulas():
    a0 = np.array([[0.4, -0.3], [0.2, -0.4]], dtype=complex)
    ax = np.array([[-0.5, 0.6], [0.1, 0.5]], dtype=complex)
    p = P1.replace(thetainf=0.2)  # (a0+ax)_11 = -0.1 = -thetainf/2
    s = FlowState(x=30j, A0=a0, Ax=ax, params=p)
    pt = yzu_from_matrices(s)
    assert pt.z == a0[0, 0] - p.theta0 / 2.0
    assert pt.u == -a0[0, 1] / (a0[0, 0] + p.theta0 / 2.0)
    expected_y = ax[0, 1] * (a0[0, 0] + p.theta0 / 2.0) / (
        a0[0, 1] * (ax[0, 0] + p.thetax / 2.0)
    )
    assert abs(pt.y - expected_y) < 1e-15


def test_y_equals_one_when_products_match():
    # (Ax)_12 (A0_11 + t0/2) = A0_12 ((Ax)_11 + tx/2)  =>  y = 1
    t0, tx = 0.2, 0.3
    a011 = 0.25
    ax11 = -0.35
    a012 = 1.7
    ax12 = a012 * (ax11 + tx / 2.0) / (a011 + t0 / 2.0)
    a0 = np.array([[a011, a012], [0.05, -a011]], dtype=complex)
    ax = np.array([[ax11, ax12], [0.07, -ax11]], dtype=complex)
    p = P1.replace(theta0=t0, thetax=tx, thetainf=-2.0 * (a011 + ax11))
    pt = yzu_from_matrices(FlowState(x=30j, A0=a0, Ax=ax, params=p))
    assert abs(pt.y - 1.0) < 1e-14


def test_pole_sample_flagged():
    a0 = np.array([[0.4, 0.0], [0.2, -0.4]], dtype=complex)
    ax = np.array([[-0.5, 0.6], [0.1, 0.5]], dtype=complex)
    p = P1.replace(thetainf=0.2)
    pt = yzu_from_matrices(FlowState(x=30j, A0=a0, Ax=ax, params=p))
    assert pt.pole


def test_y_leading_ratio_tends_to_one(state40):
    state = state40
    prev = None
    for X in (80j, 160j, 320j):
        state = integrate(state, X, 1e-12)
        y = yzu_from_matrices(state).y
        base = P1.c * cmath.exp(X) * cmath.exp(P1.sigma * cmath.log(X))
        err = abs(y / base - 1.0)
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 0.02


def _series_y(p, x):
    """y from the degree-12 series pair at x."""
    A0, Ax, _ = series_seed(p, x, 12)
    return yzu_from_matrices(FlowState(x=x, A0=A0, Ax=Ax, params=p)).y


def test_y_flow_vs_series(state40):
    # 7.0e-11; the printed leading series y = c e^x x^sigma (1 + a1 E+ + b1 E-)
    # read 2.4e-4 here
    ym = yzu_from_matrices(integrate(state40, 80j, 1e-12)).y
    assert abs(_series_y(P1, 80j) - ym) / abs(ym) <= 1e-9


def _closes_like_x_squared(gaps):
    """The first gap is below 1e-5, and each doubling of x cuts it at
    least 3.5-fold (4 for a 1/x^2 remainder)."""
    return gaps[0] <= 1e-5 and all(b <= a / 3.5 for a, b in zip(gaps, gaps[1:]))


def test_y_degenerate_plus_asymptotic():
    # the one-parameter family at sigma_deg_plus is y ~ (theta0 - thetax -
    # thetainf)/(2x), the limit cx -> 0 of the generic series (1.7e-6 off
    # at 100i, factors 4.0 per doubling)
    p = P1.replace(sigma=P1.sigma_deg_plus, cx=1e-10)
    lead = (p.theta0 - p.thetax - p.thetainf) / 2.0
    gaps = [abs(_series_y(p, x) - lead / x) for x in (100j, 200j, 400j)]
    assert _closes_like_x_squared(gaps), gaps


def test_y_degenerate_minus_reciprocal():
    # at sigma_deg_minus, 1/y ~ (theta0 - thetax + thetainf)/(2x) as
    # c0 -> 0 (9.4e-7 off at 200i, where the strip has begun)
    p = P1.replace(sigma=P1.sigma_deg_minus, c0=1e-10)
    lead = (p.theta0 - p.thetax + p.thetainf) / 2.0
    gaps = [abs(1.0 / _series_y(p, x) - lead / x) for x in (200j, 400j, 800j)]
    assert _closes_like_x_squared(gaps), gaps


def test_pv_residual(state40):
    r = pv_residual(P1, 40j, 1e-3, state=state40)
    assert r <= 1e-5
    # halving-order check in the regime where the h^2 term dominates
    r1 = pv_residual(P1, 40j, 4e-3, state=state40)
    r2 = pv_residual(P1, 40j, 2e-3, state=state40)
    assert math.log2(r1 / r2) >= 1.8


def test_pv_residual_negative_control():
    # a constant does not solve the equation for generic thetas: evaluate
    # the right-hand side at y' = y'' = 0 and a constant y
    y0 = 1.7 + 0.0j
    x = 40j
    t0, tx, ti = P1.theta0, P1.thetax, P1.thetainf
    rhs = (
        (y0 - 1.0) ** 2 / (8.0 * x * x) * ((t0 - tx + ti) ** 2 * y0 - (t0 - tx - ti) ** 2 / y0)
        + (1.0 - t0 - tx) * y0 / x
        - y0 * (y0 + 1.0) / (2.0 * (y0 - 1.0))
    )
    assert abs(rhs) > 1e-2


def test_pv_residual_stencil_at_pole_raises():
    # a stencil sample at a refined pole of y: the centre, and the outer
    # sample of the stencil one step h inside the pole along its ray
    root = refine_lattice(P8P, LatticeKind.POLE, 10, 10).roots[0]
    h = 1e-3
    for x in (root.x, root.x * (1.0 - h / abs(root.x))):
        message = f"the stencil about {x} is at or near a pole of y"
        with pytest.raises(StencilError, match=re.escape(message)):
            pv_residual(P8P, x, h, state=root)


def test_pv_residual_centre_at_zero_or_one_raises():
    # y at the stencil centre within 1e-10 of 0 (a refined zero of y) or
    # of 1 (a pair whose products match, walked back to its own point)
    root = refine_lattice(PZ, LatticeKind.ZERO, 10, 10).roots[0]
    a, b, e = 0.1, 0.3 + 0.1j, -P1.thetainf / 2.0 - 0.1
    g = b * (e + P1.thetax / 2.0) / (a + P1.theta0 / 2.0)
    one = FlowState(x=40j, A0=[[a, b], [0.2, -a]], Ax=[[e, g], [0.4, -e]], params=P1)
    assert abs(yzu_from_matrices(one).y - 1.0) < 1e-15
    for p, state in ((PZ, root), (P1, one)):
        with pytest.raises(StencilError, match="y at the stencil center is too close to 0 or 1"):
            pv_residual(p, state.x, 1e-3, state=state)


def test_zero_pole_seed_values():
    # sigma = 0 and rho0 c = 1: x_10 = 20 pi i - log(20 pi i)
    p = Parameters(theta0=0.21, thetax=0.16, thetainf=0.11, c0=1.0, cx=-0.31 / 4.0, sigma=0.0)
    lat = zero_pole_seeds(p, LatticeKind.ZERO, 10, 10)
    assert abs(lat.rho * p.c - 1.0) < 1e-12
    m, seed = lat.seeds[0]
    expected = complex(-math.log(20.0 * math.pi), 20.0 * math.pi - math.pi / 2.0)
    assert m == 10
    assert abs(seed - expected) < 1e-12
    # -log(20 pi) = -4.14046..., imag 20 pi - pi/2 = 61.26106...
    assert abs(seed.real + 4.1404621594) < 1e-9
    assert abs(seed.imag - 61.2610567450) < 1e-9


def test_pole_seed_values():
    # pole variant with rhoinf c = 1: x_10 = 20 pi i + log(20 pi i)
    cx = -4.0 / (0.3 - 2.0 * 0.45 + 0.1)  # makes rhoinf*c = 1
    p = Parameters(theta0=0.05, thetax=0.45, thetainf=0.1, c0=1.0, cx=cx, sigma=0.3)
    lat = zero_pole_seeds(p, LatticeKind.POLE, 10, 10)
    assert abs(lat.rho * p.c - 1.0) < 1e-12
    _, seed = lat.seeds[0]
    expected = complex(math.log(20.0 * math.pi), 20.0 * math.pi + math.pi / 2.0)
    # drift term -(sigma-1) log(2 m pi i) with sigma = 0.3
    expected = 20j * math.pi - (0.3 - 1.0) * complex(math.log(20.0 * math.pi), math.pi / 2.0)
    assert abs(seed - expected) < 1e-12


def test_seed_spacing_invariant():
    lat = zero_pole_seeds(PZ, LatticeKind.ZERO, 10, 30)
    for (m1, x1), (m2, x2) in zip(lat.seeds, lat.seeds[1:]):
        gap = x2 - x1 - 2j * math.pi
        assert abs(gap) <= 4.0 * (abs(PZ.sigma) + 1.0) * math.log(m1 + 1) / m1


def test_seed_m_range_guard():
    with pytest.raises(PvisoValueError):
        zero_pole_seeds(PZ, LatticeKind.ZERO, 0, 5)


def test_resonant_lattice_rejected():
    # rho0 = -4/(sigma + 2 theta0 - thetainf) is infinite, rhoinf is 0
    zeros = Parameters(theta0=0.25, thetax=0.16, thetainf=0.5, c0=1.0, cx=0.7, sigma=0.0)
    with pytest.raises(ResonanceError):
        zero_pole_seeds(zeros, LatticeKind.ZERO, 10, 12)
    poles = Parameters(theta0=0.3, thetax=0.25, thetainf=0.0, c0=1.0, cx=0.7, sigma=0.5)
    with pytest.raises(ResonanceError):
        zero_pole_seeds(poles, LatticeKind.POLE, 10, 12)


def _anchor_error(p, kind, m_to):
    """The anchor of the lattice m = 10..m_to, and its distance from a
    degree-10 series at the top point."""
    top = 1j * zero_pole_seeds(p, kind, 10, m_to).seeds[-1][1].imag
    anchor = seed_state(p, top)
    A0, Ax, _ = series_seed(p, top, 10)
    return top, anchor, max(mat_norm(anchor.state.A0 - A0), mat_norm(anchor.state.Ax - Ax))


@pytest.mark.parametrize("p, kind", [(PZ, LatticeKind.ZERO), (P8P, LatticeKind.POLE)])
def test_anchor_seeded_at_top(p, kind):
    # criterion 8's lattices: the degree-5 series is accurate enough at the
    # top point itself, so the anchor needs no transport
    top, anchor, err = _anchor_error(p, kind, 40)
    assert anchor.seed_radius == abs(top) and anchor.state.x == top
    assert anchor.degree == SEED_DEGREE
    assert err <= 1e-11
    assert anchor.seed_truncation >= err


def test_anchor_falls_back_above_top():
    # P8P's top pole at m = 12 sits near 76i, where the degree-5 terms
    # exceed the drift budget: the seed moves up and is transported down
    top, anchor, err = _anchor_error(P8P, LatticeKind.POLE, 12)
    assert abs(top) < anchor.seed_radius <= max(300.0, 2.0 * abs(top))
    assert err <= 1e-10
    assert anchor.seed_truncation >= err
    # the degree-3 route from 300i is itself 2.6e-9 off the degree-10
    # series here, so it is compared seeded four times as high (5.7e-11)
    today = refine_from_series(P8P, 1200.0, top, 1e-12).state
    assert max(mat_norm(anchor.state.A0 - today.A0), mat_norm(anchor.state.Ax - today.Ax)) <= 1e-9


def test_smallness_heuristic_recorded():
    # the lattice records score and strip level; the heuristic passes when
    # their product is <= 0.5, which takes a small |c| and large |c0|
    small = Parameters(theta0=0.4, thetax=0.01, thetainf=0.02, c0=16.0, cx=0.025, sigma=0.0)
    lat = zero_pole_seeds(small, LatticeKind.ZERO, 10, 11)
    assert lat.score == smallness_score(small)
    assert abs(lat.strip_level - abs(lat.rho * small.c)) <= 1e-15 * lat.strip_level
    assert lat.score * lat.strip_level <= 0.5 and lat.smallness_pass
    # README's example config fails it for zeros and for poles
    zeros = zero_pole_seeds(P1, LatticeKind.ZERO, 10, 12)
    poles = zero_pole_seeds(P1, LatticeKind.POLE, 10, 12)
    assert round(zeros.score, 2) == 2.16 and zeros.score == poles.score
    assert round(zeros.strip_level, 3) == 5.273 and round(poles.strip_level, 3) == 94.229
    assert not zeros.smallness_pass and not poles.smallness_pass


@pytest.fixture(scope="module")
def zero_lattice_state():
    lat = zero_pole_seeds(PZ, LatticeKind.ZERO, 10, 13)
    top = 1j * lat.seeds[-1][1].imag
    state = refine_from_series(PZ, 400.0, top, 1e-12).state
    return lat, state


def test_refine_root_zeros(zero_lattice_state):
    lat, state = zero_lattice_state
    refined = refine_lattice(PZ, LatticeKind.ZERO, 10, 13, root_tol=1e-9)
    assert refined.seeds == lat.seeds
    # re-check every root with a transport of our own from the fixture
    anchor = state
    for (m, seed), root_state in reversed(list(zip(refined.seeds, refined.roots))):
        root = root_state.x
        anchor = integrate(anchor, 1j * root.imag, 1e-12)
        st = integrate(anchor, root, 1e-12)
        assert abs(yzu_from_matrices(st).y) <= 1e-9
        e = abs(root - seed)
        assert e * m / math.log(m) < 1.0


def test_root_error_is_distance_to_polished_root():
    # a root's error bar is the Newton step at its state; two more steps
    # from there move the root by that much.  At a returned root the bar
    # is at most ROOT_STEP, often near the spacing of doubles at |x| ~ 60
    # (7e-15), so it is checked 1e-6 off each root, where the move is
    # resolved, and the polished root must lie within ROOT_STEP.  The
    # lattice's (|F|, |step|), kept from the Newton evaluation that
    # accepted each root, match a recompute at the root's state
    lat = refine_lattice(PZ, LatticeKind.ZERO, 10, 11, root_tol=1e-9)
    for st, (residual, err) in zip(lat.roots, lat.newton):
        f, step = _newton(st, LatticeKind.ZERO)
        assert residual <= 1e-9 and err <= ROOT_STEP
        assert abs(residual - abs(f)) <= 1e-20 and abs(err - abs(step)) <= 1e-20
        off = integrate(st, st.x + 1e-6)
        err = abs(_newton(off, LatticeKind.ZERO)[1])
        polished = off
        for _ in range(2):
            polished = integrate(polished, polished.x + _newton(polished, LatticeKind.ZERO)[1])
        assert abs(abs(polished.x - off.x) - err) <= 0.01 * err
        assert abs(polished.x - st.x) <= ROOT_STEP


@pytest.mark.parametrize("p, kind", [(PZ, LatticeKind.ZERO), (P8P, LatticeKind.POLE)])
def test_series_roots_match_transported_roots(p, kind):
    # criterion 8's lattices at m = 10..14 come from the degree-12 series
    # alone; the oracle is the transport path: Newton on states carried
    # down from an anchor seeded on the axis at the top seed.  They agree
    # within 1.9e-11 (zeros) and 4.7e-12 (poles); 2.7e-11 and 1.6e-10 at
    # m = 10..40
    lat = refine_lattice(p, kind, 10, 14)
    assert lat.sources == ["series"] * 5 and lat.anchor is None
    state = seed_at(p, 1j * lat.seeds[-1][1].imag).state
    rows = list(zip(lat.seeds, lat.roots, lat.seed_truncations))
    for (_, seed), root, truncation in reversed(rows):
        assert 0.0 < truncation <= _drift_budget(root.A0, root.Ax, 1e-12)
        state, _ = refine_root(seed, kind, state=state)
        assert abs(state.x - root.x) <= 1e-9


def test_series_batch_keeps_rows_beside_an_overflowing_one():
    # at 70 + 100i, inside the sector, |E+| ~ 3e28, so the degree-12 terms
    # overflow; under numpy's raising error state that row fails alone
    # and the others reach their roots, as they do in a batch of their own
    bad = 70 + 100j
    with np.errstate(all="ignore"):
        ep, em, ix, *_ = _expansion(PZ, np.array([bad]))
        assert not np.all(np.isfinite(_basis(ep, em, ix, ROOT_SERIES_DEGREE)))
    seeds = [seed for _, seed in zero_pole_seeds(PZ, LatticeKind.ZERO, 10, 14).seeds]
    alone = _series_roots(PZ, seeds, LatticeKind.ZERO, 1e-9, 1e-12)
    with np.errstate(all="raise"):
        mixed = _series_roots(PZ, [seeds[0], bad, *seeds[1:]], LatticeKind.ZERO, 1e-9, 1e-12)
    assert mixed[1] is None
    del mixed[1]
    assert all(hit is not None for hit in alone)
    for (state, truncation, _), (other, other_truncation, _) in zip(alone, mixed):
        assert abs(state.x - other.x) <= 1e-12
        assert abs(truncation - other_truncation) <= 1e-12 * truncation


def test_stencil_at_origin_raises_origin_error():
    # the ray through x = 0 has no direction, as the field has no value there
    with pytest.raises(OriginError):
        pv_residual(P1, 0, state=seed_state(P1, 40j).state)


@pytest.mark.parametrize("p, kind", [(PZ, LatticeKind.ZERO), (P8P, LatticeKind.POLE)])
def test_newton_derivative_matches_centred_difference(p, kind):
    # Newton's F' from the vector field against a centred difference of
    # F = y (zeros) or 1/y (poles) transported to x -+ h, at a lattice seed
    _, seed = zero_pole_seeds(p, kind, 10, 10).seeds[0]
    state = refine_from_series(p, 300.0, 1j * seed.imag, 1e-12).state
    state = integrate(state, seed, 1e-12)

    def F(x):
        y = yzu_from_matrices(integrate(state, x, 1e-12)).y
        return y if kind is LatticeKind.ZERO else 1.0 / y

    h = 1e-4
    centred = (F(seed + h) - F(seed - h)) / (2.0 * h)
    f, step = _newton(state, kind)
    exact = -f / step
    assert abs(f - F(seed)) <= 1e-14 * abs(f)
    assert abs(exact - centred) <= 1e-6 * abs(exact)


def test_refine_root_negative_control(zero_lattice_state):
    # displacing a seed by half the lattice spacing must never produce a
    # spurious mid-lattice root
    lat, state = zero_lattice_state
    m, seed = lat.seeds[1]
    shifted = seed + 1j * math.pi
    try:
        root = refine_root(shifted, LatticeKind.ZERO, tol=1e-9, state=state)[0].x
    except ConvergenceError:
        return
    dists = [abs(root - s) for _, s in lat.seeds]
    assert min(dists) < 1.0  # landed on a genuine lattice member


def test_backlund_fixed_point_at_one():
    y_new, (t0, tx, ti) = backlund_pi(P1, 40j, 1.0, 0.3 + 0.1j)
    assert y_new == 0.0
    # substituted constants
    assert abs((t0 - tx) - (1.0 - P1.theta0 + P1.thetax)) < 1e-15
    assert abs((t0 + tx) - (1.0 + P1.thetainf)) < 1e-15
    assert abs(ti - (1.0 - P1.theta0 - P1.thetax)) < 1e-15


def test_backlund_expanded_form_consistency():
    # the quotient and expanded forms agree, including Ax11 = thetax/2
    x, y = 35j, 1e9 + 0.0j
    ax11 = P1.thetax / 2.0
    val, _ = backlund_pi(P1, x, y, ax11)
    Y = -2.0 * ax11 / x + (ax11 + P1.thetax / 2.0) * y / x + (ax11 - P1.thetax / 2.0) / (y * x)
    assert abs(val - Y / (1.0 + Y)) < 1e-12


def test_backlund_exponential_coefficients():
    # the oscillatory part of the transform carries the coefficients
    # -(sigma - 2 thetax + thetainf)/4 * c   on e^x x^(sigma-1) and
    # -(sigma + 2 thetax + thetainf)/4 / c   on e^-x x^(-sigma-1);
    # half-period differencing cancels the smooth 1/x background
    s, t0, tx, ti, c = P1.sigma, P1.theta0, P1.thetax, P1.thetainf, P1.c
    x1 = 200j
    x2 = x1 + 1j * math.pi
    state = refine_from_series(P1, 600.0, x1, 1e-12).state
    pt1 = yzu_from_matrices(state)
    v1, _ = backlund_pi(P1, x1, pt1.y, state.Ax[0, 0])
    state2 = integrate(state, x2, 1e-12)
    pt2 = yzu_from_matrices(state2)
    v2, _ = backlund_pi(P1, x2, pt2.y, state2.Ax[0, 0])

    def model(x):
        ep = cmath.exp(x) * cmath.exp((s - 1.0) * cmath.log(x))
        em = 1.0 / (cmath.exp(x) * cmath.exp((s + 1.0) * cmath.log(x)))
        return -(s - 2.0 * tx + ti) / 4.0 * c * ep - (s + 2.0 * tx + ti) / 4.0 / c * em

    delta = (v1 - v2) / 2.0
    pred = (model(x1) - model(x2)) / 2.0
    assert abs(delta - pred) <= 0.05 * abs(pred)


def test_backlund_output_solves_substituted_equation():
    # finite-difference residual of the transformed function against the
    # equation with the substituted constants
    x0 = 40j
    state = refine_from_series(P1, 400.0, x0, 1e-12).state
    h = 1e-3
    vals = []
    anchor = state
    thetas = None
    for k in (-1, 0, 1):
        xt = x0 + k * h * 1j
        anchor = integrate(anchor, xt, 1e-12) if anchor.x != xt else anchor
        pt = yzu_from_matrices(anchor)
        v, thetas = backlund_pi(P1, xt, pt.y, anchor.Ax[0, 0])
        vals.append(v)
    ym1, y0, yp1 = vals
    step = h * 1j
    d1 = (yp1 - ym1) / (2.0 * step)
    d2 = (yp1 - 2.0 * y0 + ym1) / (step * step)
    t0, tx, ti = thetas
    rhs = (
        (0.5 / y0 + 1.0 / (y0 - 1.0)) * d1 * d1
        - d1 / x0
        + (y0 - 1.0) ** 2 / (8.0 * x0 * x0) * ((t0 - tx + ti) ** 2 * y0 - (t0 - tx - ti) ** 2 / y0)
        + (1.0 - t0 - tx) * y0 / x0
        - y0 * (y0 + 1.0) / (2.0 * (y0 - 1.0))
    )
    assert abs(d2 - rhs) <= 1e-5
