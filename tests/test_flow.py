import math

import numpy as np
import pytest

from pviso.errors import DomainError, OriginError, PathError, PvisoValueError, StepUnderflowError
from pviso.flow import (
    MAX_ORDER,
    FlowState,
    _taylor_step,
    integrate,
    refine_from_series,
    rhs,
    seed_at,
    seed_state,
)
from pviso.linalg import DELTA_MINUS, DELTA_PLUS, J, det2, mat, mat_norm, tr2
from pviso.series import Parameters, axis_radii, domain_check, series_A_pair, series_seed

P1 = Parameters(
    theta0=0.21, thetax=0.16, thetainf=0.11, c0=1.0, cx=0.7 + 0.2j, sigma=0.24 + 0.05j
)
P8Z = Parameters(theta0=0.45, thetax=0.05, thetainf=0.1, c0=1.0, cx=0.05, sigma=0.1)
P8P = Parameters(theta0=0.05, thetax=0.45, thetainf=0.1, c0=1.0, cx=25.0, sigma=0.3)


def _series_state(p, x):
    ab = series_A_pair(p, x)
    return FlowState(x=x, A0=ab.A0, Ax=ab.Ax, params=p)


def test_rhs_diagonal_pair_is_stationary():
    p = P1.replace(thetainf=-(P1.theta0 + P1.thetax))
    s = FlowState(
        x=3j,
        A0=np.diag([P1.theta0 / 2, -P1.theta0 / 2]),
        Ax=np.diag([P1.thetax / 2, -P1.thetax / 2]),
        params=p,
    )
    d0, dx = rhs(s)
    assert mat_norm(d0) == 0.0
    assert mat_norm(dx) == 0.0


def test_rhs_nilpotent_example():
    p = P1.replace(thetainf=0.0)
    s = FlowState(x=1.0, A0=np.array(DELTA_PLUS), Ax=np.array(DELTA_MINUS), params=p)
    d0, dx = rhs(s)
    assert np.allclose(d0, -J)
    assert np.allclose(dx, J - DELTA_MINUS)


def test_rhs_traceless():
    s = _series_state(P1, 200j)
    d0, dx = rhs(s)
    assert abs(tr2(d0)) < 1e-15
    assert abs(tr2(dx)) < 1e-15


def test_rhs_origin_error():
    s = _series_state(P1, 200j)
    s.x = 0.0
    with pytest.raises(OriginError):
        rhs(s)


def test_flow_field_matches_matrix_formula():
    # rhs in scalar arithmetic against x dA0/dx = [Ax, A0],
    # x dAx/dx = [A0, Ax] + (x/2)[J, Ax] in 2x2 matrix arithmetic, on the
    # axis and off it
    for xs in (200j, 60j):
        ab = series_A_pair(P1, xs)
        for x in (xs, 5.0 + 30j):
            d0, dx = rhs(FlowState(x=x, A0=ab.A0, Ax=ab.Ax, params=P1))
            a0, ax = ab.A0, ab.Ax
            ref0 = (ax @ a0 - a0 @ ax) / x
            refx = (a0 @ ax - ax @ a0 + (x / 2.0) * (J @ ax - ax @ J)) / x
            ref = np.concatenate([ref0.ravel(), refx.ravel()])
            got = np.concatenate([d0.ravel(), dx.ravel()])
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_taylor_recurrence():
    # the order-1 coefficient is the field at the expansion point, and the
    # coefficients of the conserved (A0 + Ax)_11 cancel exactly past order 0
    x0, x1 = 200j, 5.0 + 30j
    u = (x1 - x0) / abs(x1 - x0)
    for xs in (200j, 60j):
        ab = series_A_pair(P1, xs)
        full = [*ab.A0.ravel().tolist(), *ab.Ax.ravel().tolist()]
        y = tuple(full[i] for i in (0, 1, 2, 4, 5, 6))
        h, cols = _taylor_step(xs, u, y, 1e-12, 1e6)
        assert 0.0 < h < 1e6 and all(len(col) == MAX_ORDER + 1 for col in cols)
        assert [col[0] for col in cols] == list(y)
        d0, dx = rhs(FlowState(x=xs, A0=ab.A0, Ax=ab.Ax, params=P1))
        ref = u * np.array([*d0.ravel()[:3], *dx.ravel()[:3]])
        got = np.array([col[1] for col in cols])
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert all(a + e == 0.0 for a, e in zip(cols[0][1:], cols[3][1:]))


def test_taylor_step_reaches_span():
    # orders are added up to the first k >= 2 whose step
    # h_k = 0.9 min(r_{k-1}, r_k), r_n = (eps / |y_n|)^(1/n), reaches the
    # span; a zero state allows any step at order 2
    ab = series_A_pair(P1, 100j)
    y = (*ab.A0.ravel()[:3].tolist(), *ab.Ax.ravel()[:3].tolist())
    span = 0.05
    h, cols = _taylor_step(100j, -1j, y, 1e-12, span)
    eps = 1e-12 * (1.0 + max(map(abs, y)))
    order = len(cols[0]) - 1
    r = [(eps / max(abs(col[n]) for col in cols)) ** (1.0 / n) for n in range(1, order + 1)]
    steps = [0.9 * min(r[n - 2], r[n - 1]) for n in range(2, order + 1)]
    assert 2 < order < MAX_ORDER and h == steps[-1] >= span > max(steps[:-1])
    h, cols = _taylor_step(100j, -1j, (0j,) * 6, 1e-12, 1e6)
    assert h == math.inf and len(cols[0]) == 3


def test_taylor_transport_raises_instead_of_looping(deadline):
    # a NaN state, coefficients that overflow (entries 1e200), a transport
    # into a pole of the solution on the real axis (steps that shrink
    # towards it until the coefficients overflow), and entries 1e15, whose
    # steps of ~1e-9 sit above the floor but spend the segment's step
    # budget, all raise StepUnderflowError; the kernel never steps on with
    # a NaN h
    deadline(10)
    half = P1.thetainf / 2.0
    nan = complex("nan")
    p = P1.replace(thetainf=0.0)
    for s, target in (
        (FlowState(x=200j, A0=mat(nan, 0, 0, nan), Ax=mat(-half, 0, 0, half), params=P1), 60j),
        (FlowState(x=200j, A0=mat(0, 1e200, 1e200, 0), Ax=mat(-half, 1e200, -1e200, half), params=P1), 60j),
        (FlowState(x=200j, A0=mat(0, 1e15, 1e15, 0), Ax=mat(-half, 1e15, -1e15, half), params=P1), 60j),
        (FlowState(x=2.0, A0=np.array(DELTA_PLUS), Ax=np.array(DELTA_MINUS), params=p), 40.0),
    ):
        with pytest.raises(StepUnderflowError):
            integrate(s, target, 1e-12)


def test_flow_state_validation_raises_value_error():
    ab = series_A_pair(P1, 200j)
    with pytest.raises(PvisoValueError):
        FlowState(x=200j, A0=ab.A0 + np.eye(2), Ax=ab.Ax, params=P1)
    with pytest.raises(PvisoValueError):
        FlowState(x=200j, A0=ab.A0 + 0.1 * J, Ax=ab.Ax, params=P1)


def test_integrate_noop():
    s = _series_state(P1, 200j)
    out = integrate(s, 200j, 1e-12)
    assert out is not s
    assert mat_norm(out.A0 - s.A0) == 0.0


def test_integrate_path_through_origin_rejected():
    s = _series_state(P1, 200j)
    with pytest.raises(PathError):
        integrate(s, -200j, 1e-12)


def test_flow_matches_series_within_truncation():
    # the series evaluated at the target is an oracle for the transport:
    # the degree-5 state at 200i carried to 60i lies within the degree-5
    # series' own truncation there (gap 5.7e-11, truncation 6.6e-10)
    A0, Ax, _ = series_seed(P1, 200j, 5)
    out = integrate(FlowState(x=200j, A0=A0, Ax=Ax, params=P1), 60j, 1e-12)
    A0, Ax, truncation = series_seed(P1, 60j, 5)
    assert max(mat_norm(out.A0 - A0), mat_norm(out.Ax - Ax)) <= truncation


def test_transport_matches_degree_20_series():
    # the degree-20 series is an oracle far sharper than the transport:
    # its truncation at 40i is 3.9e-17.  Carried from 400i to 40i, the
    # degree-20 seed lands 2.4e-14 from it (DOP853 landed 2.3e-12)
    A0, Ax, _ = series_seed(P1, 400j, 20)
    out = integrate(FlowState(x=400j, A0=A0, Ax=Ax, params=P1), 40j, 1e-12)
    A0, Ax, truncation = series_seed(P1, 40j, 20)
    assert truncation <= 1e-16
    assert max(mat_norm(out.A0 - A0), mat_norm(out.Ax - Ax)) <= 1e-13


def test_seed_state_matches_series_at_x():
    # seed_state at 40i seeds at 160i; the degree-8 series at 40i itself
    # bounds the seed and transport error together (gap 4.9e-12,
    # truncation 2.0e-11)
    state = seed_state(P1, 40j).state
    A0, Ax, truncation = series_seed(P1, 40j, 8)
    assert max(mat_norm(state.A0 - A0), mat_norm(state.Ax - Ax)) <= truncation


def test_flow_conserves_determinants():
    s = _series_state(P1, 200j)
    out = integrate(s, 60j, 1e-12)
    assert abs(det2(out.A0) - det2(s.A0)) <= 1e-10
    assert abs(det2(out.Ax) - det2(s.Ax)) <= 1e-10


def test_flow_invariants_within_budget():
    s = _series_state(P1, 300j)
    tol = 1e-12
    out = integrate(s, 45j, tol)
    before, after = s.invariants(), out.invariants()
    scale = 1.0 + mat_norm(s.A0) + mat_norm(s.Ax)
    for key in before:
        assert abs(after[key] - before[key]) <= 100.0 * tol * scale


def test_flow_roundtrip():
    tol = 1e-12
    s = _series_state(P1, 200j)
    there = integrate(s, 60j, tol)
    back = integrate(there, 200j, tol)
    assert mat_norm(back.A0 - s.A0) <= 1000.0 * tol
    assert mat_norm(back.Ax - s.Ax) <= 1000.0 * tol


def test_flow_stays_bounded_on_axis():
    s = _series_state(P1, 400j)
    out = integrate(s, 40j, 1e-12)
    assert mat_norm(out.A0) < 5.0
    assert mat_norm(out.Ax) < 5.0


def test_refine_noop_at_seed():
    # at the seed point the state is the degree-3 series pair itself
    seed = refine_from_series(P1, 200.0, 200j, 1e-12)
    A0, Ax, truncation = series_seed(P1, 200j, 3)
    assert seed.state.A0.tobytes() == A0.tobytes() and seed.state.Ax.tobytes() == Ax.tobytes()
    assert seed[1:] == (200.0, 3, truncation)


@pytest.mark.parametrize("degree", [3, 5])
@pytest.mark.parametrize("p", [P1, P8Z, P8P], ids=["P1", "P8Z", "P8P"])
def test_seed_det_defect_within_truncation(p, degree):
    # the seed is not nudged onto det A0 = -theta0^2/4, det Ax = -thetax^2/4;
    # its defect is a small part of the seed truncation (at most 3.7e-3 of
    # it on these sets, P8Z at 40i, degree 3)
    for r in (40.0, 80.0, 160.0, 250.0, 400.0):
        A0, Ax, truncation = series_seed(p, 1j * r, degree)
        for A, theta in ((A0, p.theta0), (Ax, p.thetax)):
            assert abs(det2(A) + theta**2 / 4.0) <= 1e-2 * truncation, (r, theta)


def test_refine_zero_solution():
    p = Parameters(theta0=0, thetax=0, thetainf=0, c0=1.0, cx=1.0, sigma=0)
    res = refine_from_series(p, 400.0, 40j, 1e-12)
    assert mat_norm(res.state.A0) < 1e-13
    assert mat_norm(res.state.Ax) < 1e-13
    assert res.seed_truncation < 1e-13


def test_refine_convergence_diagnostic():
    # the reported truncation is the degree-3 one at the seed point
    res = refine_from_series(P1, 400.0, 40j, 1e-12)
    assert res.seed_truncation == series_seed(P1, 400j, 3)[2]
    assert res.seed_truncation <= 1e-6


def test_refine_waypoint_polyline():
    # the detour through 45i agrees with the straight path to -2 + 45i
    target = -2.0 + 45j
    res = integrate(refine_from_series(P1, 300.0, 45j, 1e-12).state, target)
    direct = refine_from_series(P1, 300.0, target, 1e-12)
    assert mat_norm(res.A0 - direct.state.A0) < 1e-9


def test_seed_state_off_axis():
    # seeded on the axis at i|x| or a doubling of it and transported to x,
    # against a degree-3 seed at 1200i (which agrees with one at 2400i to
    # 1.1e-12 at -2 + 45i); the reference for 3 + 41i is carried on from
    # -2 + 45i
    reference = refine_from_series(P1, 1200.0, -2.0 + 45j, 1e-13).state
    for x in (-2.0 + 45j, 3.0 + 41j):
        reference = integrate(reference, x, 1e-13)
        seed = seed_state(P1, x)
        assert seed.state.x == x and seed.seed_radius >= abs(x)
        assert mat_norm(seed.state.A0 - reference.A0) <= 5e-10
        assert mat_norm(seed.state.Ax - reference.Ax) <= 5e-10


def test_seed_outside_strip_states_axis_radii():
    # sigma = 1.5 + 4i: the strip holds i r for 31.0 < r < 2867.5; a seed
    # asked for beyond it fails with that interval, whose finite ends are
    # where domain_check flips
    p = P1.replace(sigma=1.5 + 4j)
    lo, hi = axis_radii(p)
    with pytest.raises(DomainError) as info:
        seed_at(p, 4000j)
    assert f"r in ({lo:.6g}, {hi:.6g})" in str(info.value) and "sigma" in str(info.value)
    for end in (lo, hi):
        below, above = domain_check(p, 1j * end * (1 - 1e-9)), domain_check(p, 1j * end * (1 + 1e-9))
        assert (below, above) == ((False, True) if end == lo else (True, False))
    # P1: only r > 20 bounds it; sigma = 3: no radius at all
    assert axis_radii(P1) == (20.0, math.inf)
    assert not domain_check(P1, 20j) and domain_check(P1, 20.001j) and domain_check(P1, 1e8j)
    p3 = P1.replace(sigma=3.0)
    assert axis_radii(p3) is None and not any(domain_check(p3, 1j * r) for r in (25.0, 1e3, 1e10))


def test_seed_state_rejects_small_x():
    with pytest.raises(PathError):
        seed_state(P1, 5j)


def test_integrate_rejects_non_finite_target(deadline):
    # a NaN target raises instead of giving a state at x = nan, unchanged
    deadline(10)
    s = _series_state(P1, 200j)
    for x in (complex("nan"), complex(0, math.inf)):
        with pytest.raises(DomainError, match="not finite"):
            integrate(s, x, 1e-12)


def test_seed_at_rejects_non_finite_x(deadline):
    # |nan| would keep the radius doubling loop from ever reaching its
    # ceiling, and radius 0 would double to 0 forever
    deadline(10)
    for x in (complex("nan"), complex("nan+nanj"), complex(0, math.inf), 0j):
        with pytest.raises(DomainError, match="not finite"):
            seed_at(P1, x)
