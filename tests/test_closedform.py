import cmath
import math

import numpy as np
import pytest

from pviso.closedform import closed_form_factors, closed_form_monodromy
from pviso.errors import PvisoNumericalError, ResonanceError
from pviso.linalg import DELTA_MINUS, DELTA_PLUS, I2, det2, mat_inv, mat_norm, tr2
from pviso.series import Parameters
from pviso.special import gamma

P1 = Parameters(
    theta0=0.21, thetax=0.16, thetainf=0.11, c0=1.0, cx=0.7 + 0.2j, sigma=0.24 + 0.05j
)


def _exp_piJ(w):
    e = cmath.exp(1j * math.pi * w)
    return np.array([[e, 0.0], [0.0, 1.0 / e]], dtype=complex)


def test_star_factors_unit_triangular():
    cf = closed_form_factors(P1)
    assert det2(cf.Sstar) == 1.0
    assert det2(cf.Sstarstar) == 1.0
    assert cf.Sstar[0, 1] == 0.0
    assert cf.Sstarstar[1, 0] == 0.0


def test_star_factor_vanishes_at_reciprocal_gamma_zero():
    # sigma - 2 theta0 - thetainf = 0 puts a reciprocal-Gamma zero in the
    # lower-left entry
    p = P1.replace(sigma=2.0 * P1.theta0 + P1.thetainf)
    cf = closed_form_factors(p)
    assert abs(cf.Sstar[1, 0]) < 1e-14


@pytest.mark.parametrize("sigma", [400.0, -400.0, 400j])
def test_non_finite_closed_form_raises(sigma):
    # at large |sigma| the entrywise products overflow to inf and nan
    # without raising; the closed form must say so, naming sigma
    with pytest.raises(PvisoNumericalError, match=r"not finite at sigma = "):
        closed_form_monodromy(P1.replace(sigma=sigma))


def test_v0_entry_direct_substitution():
    p = Parameters(theta0=1.0 / 3.0, thetax=0.16, thetainf=0.0, c0=1.0, cx=1.0, sigma=0.0)
    cf = closed_form_factors(p)
    expected = cmath.exp(-1j * math.pi / 6.0) * gamma(-1.0 / 3.0) / gamma(1.0 - 1.0 / 6.0)
    assert abs(cf.V0[0, 0] - expected) < 1e-13


def test_v_determinant_is_reciprocal_theta():
    # det V0 = 1/theta0 and det Vx = 1/thetax identically in sigma
    for sg in (0.3 + 0.1j, -0.2 + 0.4j, 0.7):
        cf = closed_form_factors(P1.replace(sigma=sg))
        assert abs(det2(cf.V0) - 1.0 / P1.theta0) < 1e-12
        assert abs(det2(cf.Vx) - 1.0 / P1.thetax) < 1e-12


def test_resonance_error_near_integer_theta():
    # just off an integer the conjugation matrices are genuinely
    # ill-conditioned (entries ~ 1/eps with fixed determinant)
    with pytest.raises(ResonanceError):
        closed_form_factors(P1.replace(theta0=1.0 - 1e-11))


def test_mx11_example():
    p = Parameters(theta0=0.21, thetax=0.16, thetainf=1.0 / 3.0, c0=1.0, cx=0.7, sigma=0.2)
    md = closed_form_monodromy(p)
    assert abs(md.Mx[0, 0] - cmath.exp(-4j * math.pi / 15.0)) < 1e-13


def test_trace_and_det():
    md = closed_form_monodromy(P1)
    assert abs(tr2(md.Mx) - 2.0 * cmath.cos(math.pi * P1.thetax)) <= 1e-12
    assert abs(tr2(md.M0) - 2.0 * cmath.cos(math.pi * P1.theta0)) <= 1e-12
    assert abs(det2(md.M0) - 1.0) <= 1e-12
    assert abs(det2(md.Mx) - 1.0) <= 1e-12


def test_first_connection_relation():
    # S1 Mx M0 Mx^-1 S1^-1 = (C0^1)^-1 e^(pi i theta0 J) C0^1
    md = closed_form_monodromy(P1)
    cf = closed_form_factors(P1)
    S1 = I2 + md.s1 * DELTA_MINUS
    lhs = S1 @ md.Mx @ md.M0 @ mat_inv(md.Mx) @ mat_inv(S1)
    rhs = mat_inv(cf.C01) @ _exp_piJ(P1.theta0) @ cf.C01
    assert mat_norm(lhs - rhs) <= 1e-10


def test_inf_factorization():
    # Minf = M0^-1 Mx^-1 agrees with S2 e^(pi i thetainf J) S1
    md = closed_form_monodromy(P1)
    alt = (I2 + md.s2 * DELTA_PLUS) @ _exp_piJ(P1.thetainf) @ (I2 + md.s1 * DELTA_MINUS)
    assert mat_norm(md.Minf - alt) <= 1e-12


def test_stokes_trace_identity():
    md = closed_form_monodromy(P1)
    prod = md.Mx @ md.M0
    rhs = 2.0 * cmath.cos(math.pi * P1.thetainf) + cmath.exp(
        -1j * math.pi * P1.thetainf
    ) * md.s1 * md.s2
    assert abs(tr2(prod) - rhs) <= 1e-10


def test_entrywise_vs_structural_on_random_grid():
    rng = np.random.RandomState(7)
    count = 0
    while count < 50:
        t0, tx, ti = rng.uniform(0.06, 0.44, 3)
        sg = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        c0 = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        cx = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        p = Parameters(theta0=t0, thetax=tx, thetainf=ti, c0=c0, cx=cx, sigma=sg)
        md = closed_form_monodromy(p)
        assert md.diagnostics["structural_checked"]
        assert md.diagnostics["structural_max_diff"] <= 1e-10
        count += 1


@pytest.mark.parametrize(
    "field,n",
    [("theta0", 1), ("theta0", 0), ("theta0", -2), ("thetax", 1), ("thetax", -1)],
)
def test_integer_branch_continuity(field, n):
    md_int = closed_form_monodromy(P1.replace(**{field: float(n)}))
    assert md_int.diagnostics["structural_checked"]
    for d in (1e-3, 1e-4):
        md = closed_form_monodromy(P1.replace(**{field: n - d}))
        diff = max(mat_norm(md.M0 - md_int.M0), mat_norm(md.Mx - md_int.Mx))
        assert diff <= 10.0 * d


def test_zero_parameters_give_identity():
    p = Parameters(theta0=0, thetax=0, thetainf=0, c0=1.0, cx=1.0, sigma=0)
    md = closed_form_monodromy(p)
    assert mat_norm(md.M0 - I2) < 1e-14
    assert mat_norm(md.Mx - I2) < 1e-14
    assert abs(md.s1) < 1e-14 and abs(md.s2) < 1e-14
