import cmath
import math

import numpy as np
import pytest

from pviso.errors import DomainError, ZeroConstantError
from pviso.linalg import det2, mat_norm
from pviso.series import Parameters, domain_check, gamma_quad, series_A_pair
from pviso.series import _basis, _l2_coefficients, _l2_solve, _terms, series_seed
from pviso.tau import dlog_tau_series

P1 = Parameters(
    theta0=0.21, thetax=0.16, thetainf=0.11, c0=1.0, cx=0.7 + 0.2j, sigma=0.24 + 0.05j
)


def test_gamma_quad_direct_substitution():
    p = Parameters(theta0=0, thetax=0, thetainf=0, c0=1.0, cx=1.0, sigma=0.4)
    g = gamma_quad(p)
    assert (g.g0p, g.g0m, g.gxp, g.gxm) == (0.1, -0.1, -0.1, 0.1)


def test_gamma_quad_degenerate_sigma_kills_gxm():
    # the two-parameter families: gxm = 0 at sigma_deg_plus, g0m = 0 at
    # sigma_deg_minus (4.6e-18 and 1.0e-17 from rounding)
    assert abs(gamma_quad(P1.replace(sigma=P1.sigma_deg_plus)).gxm) <= 1e-15
    assert abs(gamma_quad(P1.replace(sigma=P1.sigma_deg_minus)).g0m) <= 1e-15


def test_gamma_quad_product_identities():
    rng = np.random.RandomState(4)
    for _ in range(20):
        p = Parameters(
            theta0=complex(rng.randn(), rng.randn()) / 3,
            thetax=complex(rng.randn(), rng.randn()) / 3,
            thetainf=complex(rng.randn(), rng.randn()) / 3,
            c0=complex(rng.randn(), rng.randn()) or 1.0,
            cx=complex(rng.randn(), rng.randn()) or 1.0,
            sigma=complex(rng.randn(), rng.randn()) / 2,
        )
        g = gamma_quad(p)
        id0 = g.g0p * g.g0m - (4.0 * p.theta0**2 - (p.sigma - p.thetainf) ** 2) / 16.0
        idx = g.gxp * g.gxm - (4.0 * p.thetax**2 - (p.sigma + p.thetainf) ** 2) / 16.0
        assert abs(id0) <= 1e-14
        assert abs(idx) <= 1e-14


def test_gamma_quad_zero_constant_error():
    with pytest.raises(ZeroConstantError):
        gamma_quad(P1.replace(c0=0.0))
    with pytest.raises(ZeroConstantError):
        gamma_quad(P1.replace(cx=0.0))


def test_series_leading_value_and_diagonal_relation():
    p = P1.replace(sigma=0.2, thetainf=0.1)
    ab = series_A_pair(p, 1e4j)
    assert abs(ab.A0[0, 0] - 0.025) <= 1e-4 * 10.0
    assert abs(ab.Ax[0, 0] + ab.A0[0, 0] + p.thetainf / 2.0) < 1e-15
    ab1 = series_A_pair(P1, 250j)
    assert abs(ab1.Ax[0, 0] + ab1.A0[0, 0] + P1.thetainf / 2.0) < 1e-15


def _printed_coefficients(p):
    """Every coefficient the paper prints, as {component: {(n, k):
    value}} for the term E^n x^-k, E = E+ (E- = E^-1 x^-2), of f0 and of
    the normalized Fp, Gp, Fm, Gm (see pviso.series)."""
    g = gamma_quad(p)
    s, ti = p.sigma, p.thetainf
    P, Q, S2 = g.g0p * g.g0m, g.gxp * g.gxm, s * s - ti * ti
    return {
        "f0": {
            (0, 0): (s - ti) / 4.0,
            (0, 2): -((s + ti) * P + (s - ti) * Q) / 2.0,
            (1, 0): g.g0m * g.gxp,
            (1, 1): -g.g0m * g.gxp * (s - 1.0 + 2.0 * (P + Q) - S2 / 2.0),
            (-1, 2): g.g0p * g.gxm,
            (-1, 3): -g.g0p * g.gxm * (s + 1.0 - 2.0 * (P + Q) + S2 / 2.0),
        },
        "Fp": {
            (0, 0): g.g0p,
            (0, 1): g.g0p * (2.0 * Q - S2 / 4.0),
            (1, 0): -g.gxp * (s - ti) / 2.0,
            (2, 0): -g.g0m * g.gxp**2,
            (-1, 3): 2.0 * g.g0p**2 * g.gxm,
        },
        "Gp": {
            (0, 0): g.gxp,
            (0, 1): -g.gxp * (2.0 * P - S2 / 4.0),
            (1, 1): 2.0 * g.g0m * g.gxp**2,
            (-1, 2): -g.g0p * (s + ti) / 2.0,
            (-2, 4): -g.g0p**2 * g.gxm,
        },
        "Fm": {
            (0, 0): g.g0m,
            (0, 1): -g.g0m * (2.0 * Q - S2 / 4.0),
            (1, 1): 2.0 * g.g0m**2 * g.gxp,
            (-1, 2): -g.gxm * (s - ti) / 2.0,
            (-2, 4): -g.g0p * g.gxm**2,
        },
        "Gm": {
            (0, 0): g.gxm,
            (0, 1): g.gxm * (2.0 * P - S2 / 4.0),
            (1, 0): -g.g0m * (s + ti) / 2.0,
            (2, 0): -g.g0m**2 * g.gxp,
            (-1, 3): 2.0 * g.g0p * g.gxm**2,
        },
    }


def test_derived_coefficients_reproduce_printed():
    # the only check of the derived coefficients independent of criteria 1
    # and 5: P1, its two-parameter families (the printed two-parameter
    # terms are these entries with gxm, resp. g0m, = 0) and draws from
    # criterion 4's box
    rng = np.random.RandomState(7)
    deg = [P1.replace(sigma=P1.sigma_deg_plus), P1.replace(sigma=P1.sigma_deg_minus)]
    params = [P1, *deg] + [
        Parameters(
            theta0=rng.uniform(0.06, 0.44),
            thetax=rng.uniform(0.06, 0.44),
            thetainf=rng.uniform(0.06, 0.44),
            c0=complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)),
            cx=complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)),
            sigma=complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)),
        )
        for _ in range(5)
    ]
    col = {t: i for i, t in enumerate(_terms(3))}
    for p in params:
        derived = _l2_coefficients(p)
        printed = _printed_coefficients(p)
        assert len(derived) == len(printed) == 5
        for row, (name, coefs) in zip(derived, printed.items()):
            for term, value in coefs.items():
                got = row[col[term]]
                if name == "f0" and term == (0, 0):
                    got += (p.sigma - p.thetainf) / 4.0  # row 0 holds f0 - (s-ti)/4
                assert abs(got - value) <= 1e-12 * abs(value), (name, term)


def test_solve_matches_30_digit_solve():
    # the same plan stepped in 30-digit arithmetic from the same inputs:
    # every double coefficient lies within a few ulps of the largest one
    # of its total degree (a plain relative bound fails where a
    # coefficient cancels to zero, e.g. flat index 2 reads 5.4e-20)
    mpmath = pytest.importorskip("mpmath")
    fields = ("theta0", "thetax", "thetainf", "c0", "cx", "sigma")
    for p in (P1, P1.replace(sigma=-0.3 + 0.2j, cx=1.3 - 0.4j)):
        for degree in (5, 10):
            with mpmath.workdps(30):
                wide = Parameters(*(mpmath.mpc(getattr(p, f)) for f in fields))
                exact = np.array([complex(c) for c in _l2_solve(wide, degree)]).reshape(5, -1)
            got = _l2_coefficients(p, degree)
            total = np.array([n + k for n, k in _terms(degree)])
            for d in range(degree + 1):
                cols = total == d
                scale = np.max(np.abs(exact[:, cols]))
                err = np.max(np.abs(got[:, cols] - exact[:, cols]))
                assert err <= 50.0 * np.finfo(float).eps * scale, (degree, d)


def test_degree5_solve_extends_degree3_bit_for_bit():
    # the degree-5 solve repeats the degree-3 arithmetic for the first 16
    # terms, in the same order, before it adds degrees 4 and 5
    for p in (P1, P1.replace(sigma=-0.3 + 0.2j, cx=1.3 - 0.4j)):
        five = _l2_coefficients(p, 5)
        assert five.shape == (5, 36)
        assert np.array_equal(five[:, :16], _l2_coefficients(p))
        assert np.count_nonzero(five[:, 16:]) > 0


def test_generated_basis_matches_written_out_degree3():
    ep, em, ix = 0.03 - 0.04j, 0.02 + 0.01j, -0.004j
    ix2, ep2, em2 = ix * ix, ep * ep, em * em
    written_out = np.array(
        [
            1.0,
            em, ix, ep,
            em2, em * ix, ix2, ep * ix, ep2,
            em2 * em, em2 * ix, em * ix2, ix2 * ix, ep * ix2, ep2 * ix, ep2 * ep,
        ]
    )
    assert np.array_equal(_basis(ep, em, ix, 3), written_out)
    # any degree: E+^n x^-k for n >= 0, E-^-n x^-(k+2n) for n < 0
    powers = [(em if n < 0 else ep) ** abs(n) * ix ** (n + k - abs(n)) for n, k in _terms(6)]
    assert np.allclose(_basis(ep, em, ix, 6), powers, rtol=1e-13, atol=0.0)


def test_basis_on_points_matches_definition():
    # _basis on 30 points, one column each, against the definition
    # E+^n x^-k (n >= 0), E-^-n x^-(k+2n) (n < 0) in plain complex powers
    rng = np.random.default_rng(3)
    ep, em = (0.3 * (rng.normal(size=30) + 1j * rng.normal(size=30)) for _ in range(2))
    ix = 1.0 / (rng.uniform(20.0, 260.0, 30) * np.exp(1j * rng.uniform(0.2, 2.9, 30)))
    points = list(zip(ep.tolist(), em.tolist(), ix.tolist()))
    for degree in (3, 6, 12):
        got = _basis(ep, em, ix, degree)
        assert got.shape == ((degree + 1) ** 2, 30)
        for row, (n, k) in zip(got, _terms(degree)):
            want = np.array([(m if n < 0 else e) ** abs(n) * i ** (n + k - abs(n)) for e, m, i in points])
            assert np.max(np.abs(row - want) / np.abs(want)) <= 1e-14, (degree, n, k)


def test_series_seed_truncation_is_last_degree():
    # degree 3: series_seed is series_A_pair, and its truncation estimate is
    # the gap to the same sum without the degree-3 terms
    A0, Ax, trunc = series_seed(P1, 250j, 3)
    ab = series_A_pair(P1, 250j)
    assert np.array_equal(A0, ab.A0) and np.array_equal(Ax, ab.Ax)
    B0, Bx, _ = series_seed(P1, 250j, 2)
    assert abs(trunc - max(mat_norm(A0 - B0), mat_norm(Ax - Bx))) <= 1e-6 * trunc
    # the estimate falls with the degree at a fixed point
    assert series_seed(P1, 250j, 5)[2] < trunc / 100.0


def test_series_det_defect_decreases_along_ray():
    vals = []
    for r in (100.0, 200.0, 400.0, 800.0):
        ab = series_A_pair(P1, 1j * r)
        vals.append(abs(ab.A0[0, 0] ** 2 + ab.A0[0, 1] * ab.A0[1, 0] - P1.theta0**2 / 4.0))
    for a, b in zip(vals, vals[1:]):
        assert b <= a / 2.0  # monotone up to factor-2 noise; here strictly better


def test_series_schlesinger_residual_scale():
    # finite-difference deformation-equation residual stays within the
    # truncation scale (the det defect times the x-pumping factor)
    x = 200j
    h = 0.02
    e = x / abs(x)
    ser = [series_A_pair(P1, x + k * h * e) for k in (-2, -1, 0, 1, 2)]
    dA0 = (-ser[4].A0 + 8 * ser[3].A0 - 8 * ser[1].A0 + ser[0].A0) / (12 * h * e)
    a0, ax = ser[2].A0, ser[2].Ax
    r0 = mat_norm(x * dA0 - (ax @ a0 - a0 @ ax))
    defect = abs(det2(ser[2].A0) + P1.theta0**2 / 4.0)
    assert r0 <= 100.0 * abs(x) * defect + 1e-8


def test_cx_to_zero_limit_matches_one_param():
    # as cx -> 0 at sigma_deg_plus the generic series tends to the
    # one-parameter family, whose printed leading A0 is written out here
    p = P1.replace(sigma=P1.sigma_deg_plus, cx=1e-10)
    t0, tx, ti, x = p.theta0, p.thetax, p.thetainf, 400j
    x_tx = cmath.exp(tx * cmath.log(x))
    one = {
        (0, 0): -(tx + ti) / 2.0 + tx * (t0 * t0 - (tx + ti) ** 2) / (4.0 * x * x),
        (0, 1): p.c0 * (t0 - tx - ti) / 2.0 * x_tx,
        (1, 0): (t0 + tx + ti) / (2.0 * p.c0) / x_tx,
    }
    generic = series_A_pair(p, x)
    assert abs(generic.A0[0, 0] - one[0, 0]) < 1e-4
    for i, j in ((0, 1), (1, 0)):
        assert abs(generic.A0[i, j] - one[i, j]) <= 1e-2 * max(1.0, abs(one[i, j]))


def test_domain_check_examples():
    p0 = P1.replace(sigma=0.2)
    assert domain_check(p0, 100j) is True
    assert domain_check(p0, 100.0) is False
    assert domain_check(p0, 0.0) is False
    # direct inequality oracle for sigma = 3: the admissible band demands
    # Re x < (1 - 3) log|x| - log(1/eps) < 0, so the imaginary axis fails
    p3 = P1.replace(sigma=3.0)
    hi = (1.0 - 3.0) * math.log(100.0) + math.log(0.1)
    assert 0.0 > hi or not domain_check(p3, 100j)
    assert domain_check(p3, 100j) is False


def test_series_domain_gate_agrees_with_domain_check():
    for x in (0j, 5j, 30j, 100j, 400j, -20.0 + 100j, 25.0 + 100j, 100.0 + 1j, -100j):
        inside = domain_check(P1, x)
        try:
            series_A_pair(P1, x)
            raised = False
        except DomainError:
            raised = True
        assert raised is not inside


def test_series_outside_domain_raises():
    for evaluate in (series_A_pair, lambda p, x: series_seed(p, x, 5), dlog_tau_series):
        with pytest.raises(DomainError):
            evaluate(P1, 5j)

