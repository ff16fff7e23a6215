import cmath
import math

import numpy as np
import pytest

from pviso.errors import ConsistencyError, OddStepsError, PathError, RadiusError
from pviso.flow import FlowState, integrate, refine_from_series, seed_state
from pviso.linalg import I2, J, det2, exp_J, mat_inv, mat_norm, tr2
from pviso.monodata import MonodromyData, braid_shift
from pviso import monodromy as monodromy_module
from pviso.monodromy import (
    SUB_SEGMENT,
    frame_coefficients,
    monodromy,
    normalized_frame,
    _chord_transfers,
    _line,
    _linear_field,
    _loop_transfer,
    _polygon,
)
from pviso.ode import ORDER, integrate_rk54
from pviso.series import Parameters, series_seed

P1 = Parameters(
    theta0=0.21, thetax=0.16, thetainf=0.11, c0=1.0, cx=0.7 + 0.2j, sigma=0.24 + 0.05j
)
PZERO = Parameters(theta0=0, thetax=0, thetainf=0, c0=1.0, cx=1.0, sigma=0)


@pytest.fixture(scope="module")
def state40():
    return refine_from_series(P1, 400.0, 40j, 1e-12).state


def _zero_state(x=40j):
    return FlowState(x=x, A0=np.zeros((2, 2), complex), Ax=np.zeros((2, 2), complex), params=PZERO)


def test_monodromy_rejects_overlapping_circles():
    with pytest.raises(PathError):
        monodromy(_zero_state(0.5j), 1e-12)


def test_normalized_frame_zero_state():
    s = _zero_state()
    y = normalized_frame(s, 200.0, frame_coefficients(s, 1))
    assert np.allclose(y, exp_J(200j / 2.0))


def test_normalized_frame_radius_error():
    with pytest.raises(RadiusError):
        s = _zero_state()
        normalized_frame(s, 100.0, frame_coefficients(s, 1))


def test_normalized_frame_residual_decays(state40):
    # ODE residual of the frame at the base point is O(R^-2): the defect
    # must fall at least ~4x when R doubles
    first = frame_coefficients(state40, 1)

    def residual(R):
        h = 1e-4
        lamc = 1j * R
        ys = [
            normalized_frame(state40, abs(lamc + k * h * 1j), first)
            for k in (-1, 0, 1)
        ]
        dy = (ys[2] - ys[0]) / (2.0 * h * 1j)
        C = state40.A0 / lamc + state40.Ax / (lamc - state40.x) + 0.5 * J
        res = dy - C @ ys[1]
        return mat_norm(res @ mat_inv(ys[1]))

    r1, r2 = residual(250.0), residual(500.0)
    assert r2 <= r1 / 3.0


def _chords(*polylines):
    """Start and end points of the chords of the given vertex arrays."""
    return (
        np.concatenate([v[:-1] for v in polylines]),
        np.concatenate([v[1:] for v in polylines]),
    )


def _left_half_circle(radius):
    """Polyline from i radius through -radius to -i radius, in chords of
    about SUB_SEGMENT."""
    n = math.ceil(math.pi * radius / SUB_SEGMENT)
    return 1j * radius * np.exp(1j * np.linspace(0.0, math.pi, n + 1))


def test_linear_field_matches_matrix_formula(state40):
    # the batched field's constant coefficient, against
    # (A0/lambda + Ax/(lambda - x) + J/2) times the chord, member by
    # member: chords down the axis, off-axis ones around x and across it,
    # and ones along the deep left arc
    starts, ends = _chords(
        _line(200j, 41j),
        _polygon(40j, 41j),
        np.array([45j + 2.0, 41j - 1.0]),
        _left_half_circle(200.0)[::20],
    )
    chords = ends - starts
    f = _linear_field(state40, starts, chords)
    for t in (0.0, 0.3, 1.0):
        got = f(t, 3)
        assert got.shape == (3, 2, 2, starts.size)
        for b, (start, v) in enumerate(zip(starts, chords)):
            lam = start + t * v
            ref = (state40.A0 / lam + state40.Ax / (lam - state40.x) + 0.5 * J) * v
            assert np.max(np.abs(got[0, :, :, b] - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_linear_field_higher_orders_match_mpmath_taylor(state40):
    # every order the kernel takes, against mpmath's Taylor expansion of
    # each entry of C(lambda0 + v s) v at 30 digits, on an axis chord, a
    # 24-gon chord about x and an off-axis chord near x
    mpmath = pytest.importorskip("mpmath")
    circle = _polygon(40j, 41j)
    starts = np.array([60j, circle[0], 42j + 1.0])
    chords = np.array([-2j, circle[1] - circle[0], -1.0 - 1j])
    n = ORDER
    got = _linear_field(state40, starts, chords)(0.25, n)
    x = mpmath.mpc(state40.x)
    with mpmath.workdps(30):
        for b, (start, v) in enumerate(zip(starts, chords)):
            lam0, v = mpmath.mpc(start + 0.25 * chords[b]), mpmath.mpc(v)
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                a0, ax = mpmath.mpc(state40.A0[i, j]), mpmath.mpc(state40.Ax[i, j])
                half = 0.5 * J[i, j].real

                def entry(s):
                    lam = lam0 + v * s
                    return (a0 / lam + ax / (lam - x) + half) * v

                ref = [complex(c) for c in mpmath.taylor(entry, 0, n - 1)]
                for k, c in enumerate(ref):
                    assert abs(got[k, i, j, b] - c) <= 1e-14 * max(1.0, abs(c)), (b, i, j, k)


def test_chord_transfers_match_mpmath_odefun(state40):
    # reference: mpmath's own Taylor ODE solver at 25 digits on the plain
    # system (A0/lambda + Ax/(lambda - x) + J/2) Y along an axis chord,
    # a 24-gon chord about 40i and an off-axis chord
    mpmath = pytest.importorskip("mpmath")
    circle = _polygon(40j, 41j)
    starts = np.array([200j, circle[5], 45j + 2.0])
    ends = np.array([198j, circle[6], 43j + 1.0])
    got = _chord_transfers(state40, starts, ends, 1e-12)
    assert got.shape == (3, 2, 2)
    with mpmath.workdps(25):
        A0, Ax = mpmath.matrix(state40.A0.tolist()), mpmath.matrix(state40.Ax.tolist())
        half_J = mpmath.matrix([[0.5, 0], [0, -0.5]])
        x = mpmath.mpc(state40.x)
        for b, (start, end) in enumerate(zip(starts, ends)):
            lam0, v = mpmath.mpc(start), mpmath.mpc(end - start)

            def F(t, y):
                lam = lam0 + v * t
                Y = mpmath.matrix([[y[0], y[1]], [y[2], y[3]]])
                dY = (A0 / lam + Ax / (lam - x) + half_J) * Y * v
                return [dY[0, 0], dY[0, 1], dY[1, 0], dY[1, 1]]

            ref = mpmath.odefun(F, 0, [1, 0, 0, 1])(1)
            ref = np.array([complex(z) for z in ref]).reshape(2, 2)
            assert np.max(np.abs(got[b] - ref)) <= 1e-12, b


def test_zero_length_line_is_identity(state40):
    line = _line(50j, 50j)
    assert line.size == 2
    assert np.array_equal(_chord_transfers(state40, line[:-1], line[1:], 1e-12), [I2])


def test_monodromy_feval_budget(state40, monkeypatch):
    # one pass: two loops, one batch each; a batch holds every chord of
    # the loop's line and of its circle's 24-gon, and each Taylor step
    # makes one field call (9 in all)
    calls = {"transfers": 0, "nfev": 0}

    def counting(f, *args, **kwargs):
        calls["transfers"] += 1

        def g(t, n):
            calls["nfev"] += 1
            return f(t, n)

        return integrate_rk54(g, *args, **kwargs)

    monkeypatch.setattr(monodromy_module, "integrate_rk54", counting)
    monodromy(state40, 1e-12, R=200.0)
    assert calls["transfers"] == 2
    assert calls["nfev"] <= 12


def test_transfer_rejects_deep_arc(state40):
    # a line along the left half-circle from 200i to -200i (then the
    # unit circle about -199i) reaches Re lambda = -200, where the
    # transfer grows to ~1e71 and the determinant check could pass
    # anything; the norm cap stops it
    with pytest.raises(ConsistencyError, match="transfer norm .* of the line"):
        _loop_transfer(state40, _left_half_circle(200.0), -199j, 1e-12)


def test_monodromy_degree_20_series_oracle():
    # the degree-20 series at 40i (truncation 3.9e-17) carries no seed or
    # flow error, so the distance of its monodromy from the closed form is
    # the loop transport's own error, which criterion 1's seed error hides
    from pviso.closedform import closed_form_monodromy

    A0, Ax, truncation = series_seed(P1, 40j, 20)
    assert truncation <= 1e-16
    md = monodromy(FlowState(x=40j, A0=A0, Ax=Ax, params=P1), R=200.0)
    cf = closed_form_monodromy(P1)
    assert max(mat_norm(md.M0 - cf.M0), mat_norm(md.Mx - cf.Mx)) <= 3e-13
    assert md.diagnostics["consistency_defect"] <= 3e-14


def test_monodromy_zero_state_is_identity():
    md = monodromy(_zero_state(), 1e-12)
    assert mat_norm(md.M0 - I2) < 1e-9
    assert mat_norm(md.Mx - I2) < 1e-9
    assert abs(md.s1) < 1e-9 and abs(md.s2) < 1e-9


def test_monodromy_structural_identities(state40):
    md = monodromy(state40, 1e-12)
    assert abs(det2(md.M0) - 1.0) <= 1e-10
    assert abs(det2(md.Mx) - 1.0) <= 1e-10
    assert abs(tr2(md.M0) - 2.0 * cmath.cos(math.pi * P1.theta0)) <= 1e-8
    assert abs(tr2(md.Mx) - 2.0 * cmath.cos(math.pi * P1.thetax)) <= 1e-8
    assert mat_norm(md.Minf @ md.Mx @ md.M0 - I2) <= 1e-8
    prod = md.Mx @ md.M0
    rhs = 2.0 * cmath.cos(math.pi * P1.thetainf) + cmath.exp(
        -1j * math.pi * P1.thetainf
    ) * md.s1 * md.s2
    assert abs(tr2(prod) - rhs) <= 1e-8


def test_monodromy_matches_closed_form_smoke(state40):
    from pviso.closedform import closed_form_monodromy

    md = monodromy(state40, 1e-12)
    cf = closed_form_monodromy(P1)
    diff = max(mat_norm(md.M0 - cf.M0), mat_norm(md.Mx - cf.Mx))
    assert diff <= 5e-6


@pytest.mark.parametrize("branch", ["sigma_deg_plus", "sigma_deg_minus"])
def test_two_parameter_family_monodromy_matches_closed_form(branch):
    # the two-parameter families are the generic series at these sigma, so
    # verify's check holds there as on P1 (2.24e-12 plus, 2.75e-12 minus;
    # 2.21e-12 on P1)
    from pviso.closedform import closed_form_monodromy

    p = P1.replace(sigma=getattr(P1, branch))
    md = monodromy(seed_state(p, 40j).state)
    cf = closed_form_monodromy(p)
    assert max(mat_norm(md.M0 - cf.M0), mat_norm(md.Mx - cf.Mx)) <= 1e-11


def test_frame_truncation_and_radius_doubling(state40):
    # the first omitted frame term is below the transport error, and
    # doubling R, an independent check of the frame, changes nothing
    # beyond it
    md = monodromy(state40, 1e-12, R=200.0)
    truncation = md.diagnostics["frame_truncation"]
    assert type(truncation) is float
    assert truncation <= 1e-13
    md2 = monodromy(state40, 1e-12, R=400.0)
    change = max(
        np.max(np.abs(md2.M0 - md.M0)),
        np.max(np.abs(md2.Mx - md.Mx)),
        abs(md2.s1 - md.s1),
        abs(md2.s2 - md.s2),
    )
    assert change <= 1e-12


def test_homotopy_invariance_of_pieces(state40):
    # replacing the unit 24-gon by one of radius 1.4 and entering it 0.4
    # higher must not change Mx beyond the transport tolerance scale
    tol = 1e-10
    R = 200.0
    frame = normalized_frame(state40, R, frame_coefficients(state40, 6))

    def conjugated(entry):
        loop = _loop_transfer(state40, _line(1j * R, entry), 40j, tol)
        return mat_inv(frame) @ loop @ frame

    a = conjugated(40j + 1j)
    b = conjugated(40j + 1.4j)
    assert mat_norm(a - b) <= 10.0 * tol * 100.0


def test_isomonodromy_invariance(state40):
    md40 = monodromy(state40, 1e-12)
    state55 = integrate(state40, 55j, 1e-12)
    md55 = monodromy(state55, 1e-12)
    diff = max(mat_norm(md40.M0 - md55.M0), mat_norm(md40.Mx - md55.Mx))
    assert diff <= 1e-6


def _random_sl2(rng):
    while True:
        m = rng.randn(2, 2) + 1j * rng.randn(2, 2)
        d = det2(m)
        if abs(d) > 0.1:
            return m / cmath.sqrt(d)


def test_braid_roundtrip_and_invariants():
    rng = np.random.RandomState(11)
    for _ in range(10):
        m0, mx = _random_sl2(rng), _random_sl2(rng)
        md = MonodromyData.from_pair(m0, mx, 0.3)
        up = braid_shift(md, 2, 0.3)
        back = braid_shift(up, -2, 0.3)
        assert mat_norm(back.M0 - md.M0) <= 1e-12 * 10
        assert mat_norm(back.Mx - md.Mx) <= 1e-12 * 10
        # traces preserved
        assert abs(tr2(up.M0) - tr2(md.M0)) < 1e-12
        assert abs(tr2(up.Mx) - tr2(md.Mx)) < 1e-12
        # triple product identity preserved
        assert mat_norm(up.Minf @ up.Mx @ up.M0 - I2) < 1e-11


def test_braid_odd_steps_rejected():
    md = MonodromyData.from_pair(np.array(I2), np.array(I2), 0.0)
    with pytest.raises(OddStepsError):
        braid_shift(md, 3)
