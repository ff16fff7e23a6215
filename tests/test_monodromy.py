import cmath
import math

import numpy as np
import pytest

from pviso.errors import ConsistencyError, OddStepsError, PathError, RadiusError
from pviso.flow import FlowState, integrate, refine_from_series
from pviso.linalg import I2, J, det2, exp_J, mat_inv, mat_norm, tr2
from pviso.monodata import MonodromyData, braid_shift
from pviso import monodromy as monodromy_module
from pviso.monodromy import (
    Arc,
    Line,
    Loop,
    continue_along,
    loop_around_origin,
    loop_around_x,
    monodromy,
    normalized_frame,
    _linear_field,
    _loop_transfer,
    _transfer,
)
from pviso.ode import integrate_rk54
from pviso.series import Parameters

P1 = Parameters(
    theta0=0.21, thetax=0.16, thetainf=0.11, c0=1.0, cx=0.7 + 0.2j, sigma=0.24 + 0.05j
)
PZERO = Parameters(theta0=0, thetax=0, thetainf=0, c0=1.0, cx=1.0, sigma=0)


@pytest.fixture(scope="module")
def state40():
    return refine_from_series(P1, 400.0, 40j, 1e-12, diagnostics=False).state


def _zero_state(x=40j):
    return FlowState(x=x, A0=np.zeros((2, 2), complex), Ax=np.zeros((2, 2), complex), params=PZERO)


def test_loop_validation():
    # the builders' pieces join up: descent, circle, and the circle closes
    for build, base in ((loop_around_x, 1j), (loop_around_origin, -1j)):
        for R in (200.0, 400.0):
            loop = build(40j, R)
            pieces = [*loop.descent, loop.circle]
            assert len(loop.descent) == 1
            assert abs(pieces[0].start - base * R) <= 1e-9
            for a, b in zip(pieces, pieces[1:]):
                assert abs(a.end - b.start) <= 1e-9
            assert abs(loop.circle.end - loop.circle.start) <= 1e-9
    # at |x| < 1 each circle also encloses the other singular point
    with pytest.raises(PathError):
        loop_around_x(0.5j, 200.0)
    with pytest.raises(PathError):
        loop_around_origin(0.5j, 200.0)


def test_monodromy_rejects_overlapping_circles():
    with pytest.raises(PathError):
        monodromy(_zero_state(0.5j), 1e-12)


def test_normalized_frame_zero_state():
    s = _zero_state()
    y = normalized_frame(s, 200.0)
    assert np.allclose(y, exp_J(200j / 2.0))


def test_normalized_frame_radius_error():
    with pytest.raises(RadiusError):
        normalized_frame(_zero_state(), 100.0)


def test_normalized_frame_residual_decays(state40):
    # ODE residual of the frame at the base point is O(R^-2): the defect
    # must fall at least ~4x when R doubles
    def residual(R):
        h = 1e-4
        lamc = 1j * R
        ys = [
            normalized_frame(state40, abs(lamc + k * h * 1j), orders=1)
            for k in (-1, 0, 1)
        ]
        dy = (ys[2] - ys[0]) / (2.0 * h * 1j)
        C = state40.A0 / lamc + state40.Ax / (lamc - state40.x) + 0.5 * J
        res = dy - C @ ys[1]
        return mat_norm(res @ mat_inv(ys[1]))

    r1, r2 = residual(250.0), residual(500.0)
    assert r2 <= r1 / 3.0


def test_linear_field_matches_matrix_formula(state40):
    # the scalar interaction-picture field the transfers step, against
    # e^(-lambda J/2) (A0/lambda + Ax/(lambda - x)) e^(lambda J/2) @ Z
    # times the piece velocity
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    half = math.pi / 2.0
    pieces = (
        Line(200j, 41j),
        Arc(40j, 1.0, half, half + 2.0 * math.pi),
        Arc(0.0, 200.0, 3.0 * half, half),
    )
    for piece in pieces:
        f = _linear_field(state40, piece)
        for t in (0.0, 0.3 * piece.length, piece.length):
            lam, v = piece.locate(t)
            B = state40.A0 / lam + state40.Ax / (lam - state40.x)
            C = exp_J(-lam / 2.0) @ B @ exp_J(lam / 2.0)
            ref = ((C @ Z) * v).ravel()
            got = np.array(f(t, Z.ravel().tolist()))
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    # the batched field of a line's sub-segments, one member per start
    line = pieces[0]
    starts = line.start + line.direction * np.array([0.0, 2.0, 57.5, 157.0])
    f = _linear_field(state40, line, starts)
    for t in (0.0, 0.7, 2.0):
        got = np.array(f(t, [np.full(starts.size, zij) for zij in Z.ravel()]))
        assert got.shape == (4, starts.size)
        for b, start in enumerate(starts):
            lam, v = start + t * line.direction, line.direction
            B = state40.A0 / lam + state40.Ax / (lam - state40.x)
            C = exp_J(-lam / 2.0) @ B @ exp_J(lam / 2.0)
            ref = ((C @ Z) * v).ravel()
            assert np.max(np.abs(got[:, b] - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_interaction_picture_transfer_matches_plain_field(state40):
    # reference: the plain field (A0/lambda + Ax/(lambda - x) + J/2) Y
    # stepped by the same kernel at a tighter tolerance
    def plain_transfer(piece, tol):
        def f(t, y):
            lam, v = piece.locate(t)
            C = state40.A0 / lam + state40.Ax / (lam - state40.x) + 0.5 * J
            return ((C @ np.reshape(y, (2, 2))) * v).ravel()

        tol_local = tol * min(1.0, 10.0 / max(piece.length, 1.0))
        return integrate_rk54(f, 0.0, piece.length, np.ravel(I2), tol_local).reshape(2, 2)

    half = math.pi / 2.0
    pieces = (
        Line(200j, 41j),
        Line(45j + 2.0, 41j - 1.0),
        Arc(40j, 1.0, half, half + 2.0 * math.pi),
        Arc(0.0, 1.0, -half, 3.0 * half),
    )
    for piece in pieces:
        got = _transfer(state40, [piece], 1e-12)
        ref = plain_transfer(piece, 1e-14)
        assert mat_norm(got - ref) <= 1e-11


def test_zero_length_line_is_identity(state40):
    assert np.array_equal(_transfer(state40, [Line(50j, 50j)], 1e-12), I2)


def test_monodromy_feval_budget(state40, monkeypatch):
    # one pass: each loop integrates its descent and its circle, four
    # pieces; each line's sub-segments are one batch, so a field call
    # evaluates many members
    calls = {"transfers": 0, "nfev": 0, "members": 0}

    def counting(f, *args, **kwargs):
        calls["transfers"] += 1

        def g(t, z):
            calls["nfev"] += 1
            calls["members"] += np.size(z[0])
            return f(t, z)

        return integrate_rk54(g, *args, **kwargs)

    monkeypatch.setattr(monodromy_module, "integrate_rk54", counting)
    monodromy(state40, 1e-12, R=200.0)
    assert calls["transfers"] == 4
    assert calls["nfev"] <= 1_500
    assert calls["members"] <= 40_000


def test_continue_along_zero_state_loop_closes():
    s = _zero_state()
    y0 = exp_J(100j)
    loop = loop_around_x(40j, 200.0)
    out = continue_along(s, y0, loop, 1e-12)
    assert mat_norm(out - y0) < 1e-9


def test_continue_along_det_preserved(state40):
    loop = loop_around_x(40j, 200.0)
    y0 = normalized_frame(state40, 200.0)
    out = continue_along(state40, y0, loop, 1e-12)
    assert abs(det2(out) - det2(y0)) <= 1e-10 * max(1.0, abs(det2(y0)))


def test_continue_along_rejects_deep_arc(state40):
    # the left arc from 200i to -200i reaches Re lambda = -200, where the
    # transfer grows to ~1e71 and the determinant check could pass anything
    with pytest.raises(ConsistencyError):
        _transfer(state40, [Arc(0.0, 200.0, math.pi / 2.0, 1.5 * math.pi)], 1e-12)


def test_continue_along_rejects_close_path(state40):
    bad = Loop(descent=(), circle=Arc(40j, 0.3, math.pi / 2.0, math.pi / 2.0 + 2.0 * math.pi))
    with pytest.raises(PathError):
        continue_along(state40, np.array(I2), bad, 1e-12)


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
    # replacing the unit circle by radius 1.4 and entering one unit higher
    # must not change Mx beyond the transport tolerance scale
    tol = 1e-10
    R = 200.0
    frame = normalized_frame(state40, R, orders=6)
    half = math.pi / 2.0

    def conjugated(loop):
        return mat_inv(frame) @ _loop_transfer(state40, loop, tol) @ frame

    a = conjugated(Loop((Line(1j * R, 40j + 1j),), Arc(40j, 1.0, half, half + 2 * math.pi)))
    b = conjugated(Loop((Line(1j * R, 40j + 1.4j),), Arc(40j, 1.4, half, half + 2 * math.pi)))
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
