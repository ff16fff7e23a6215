import numpy as np
import pytest

from pviso.errors import PvisoValueError
from pviso.flow import FlowState, integrate, ray_derivatives, refine_from_series
from pviso.series import Parameters
from pviso.tau import bilinear_residual, dlog_tau, dlog_tau_series

P1 = Parameters(
    theta0=0.21, thetax=0.16, thetainf=0.11, c0=1.0, cx=0.7 + 0.2j, sigma=0.24 + 0.05j
)


@pytest.fixture(scope="module")
def state40():
    return refine_from_series(P1, 400.0, 40j, 1e-12).state


def test_dlog_tau_zero_state():
    p = Parameters(theta0=0, thetax=0, thetainf=0, c0=1.0, cx=1.0, sigma=0)
    s = FlowState(x=20j, A0=np.zeros((2, 2), complex), Ax=np.zeros((2, 2), complex), params=p)
    assert dlog_tau(s) == 0.0


def test_dlog_tau_direct_example():
    # A0 = Ax = J at x = 2 with thetainf = -4, so (A0+Ax)_11 = -thetainf/2:
    # tr(A0 Ax)/x - tr(A0 J)/2 - thetainf/2 = 1 - 1 + 2
    p = Parameters(theta0=0, thetax=0, thetainf=-4, c0=1.0, cx=1.0, sigma=0)
    J = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    s = FlowState(x=2.0, A0=J, Ax=J, params=p)
    assert dlog_tau(s) == 2.0


def test_dlog_tau_two_forms_agree(state40):
    # the double evaluation inside dlog_tau raises if the two printed
    # forms split by more than 1e-12
    dlog_tau(state40)


def test_series_leading_constant():
    val = dlog_tau_series(P1, 1e6j)
    assert abs(val + (P1.sigma + P1.thetainf) / 4.0) < 1e-5


def test_series_forced_zeros():
    p = P1.replace(sigma=-P1.thetainf)
    v1 = dlog_tau_series(p, 1e5j)
    v2 = dlog_tau_series(p, 2e5j)
    # constant and 1/x coefficient both vanish; only exponential tails left
    assert abs(v1) < 1e-8 and abs(v2) < 1e-8


def test_flow_vs_series(state40):
    st = integrate(state40, 100j, 1e-12)
    assert abs(dlog_tau(st) - dlog_tau_series(P1, 100j)) <= 1e-3


def test_flow_vs_series_ratio_exponent(state40):
    st = state40
    diffs = []
    for X in (50j, 100j, 200j):
        st = integrate(st, X, 1e-12)
        diffs.append(abs(dlog_tau(st) - dlog_tau_series(P1, X)))
    slope = np.polyfit(np.log([50.0, 100.0, 200.0]), np.log(diffs), 1)[0]
    assert -slope == pytest.approx(2.0, abs=0.3)


def test_bilinear_residual_small_and_h_converging(state40):
    r1 = abs(bilinear_residual(P1, 40j, 4e-2, state=state40))
    r2 = abs(bilinear_residual(P1, 40j, 2e-2, state=state40))
    r3 = abs(bilinear_residual(P1, 40j, 1e-2, state=state40))
    assert r3 <= 1e-3
    assert r1 / r2 >= 2.0
    assert r2 / r3 >= 2.0


def test_bilinear_zero_state():
    p = Parameters(theta0=0, thetax=0, thetainf=0, c0=1.0, cx=1.0, sigma=0)
    s = FlowState(x=40j, A0=np.zeros((2, 2), complex), Ax=np.zeros((2, 2), complex), params=p)
    assert abs(bilinear_residual(p, 40j, 1e-2, state=s)) < 1e-12


def test_tau_sample_stencil_refinement(state40):
    # halving the stencil step shrinks the derivative-estimate error
    # roughly fourfold (second-order stencils)
    coarse, fine, finest = (
        ray_derivatives(state40, 40j, h, dlog_tau, 3, 1e-12) for h in (2e-2, 1e-2, 5e-3)
    )
    err_coarse = abs(coarse[2] - finest[2])
    err_fine = abs(fine[2] - finest[2])
    assert err_fine <= err_coarse / 2.5
    # the stencil has no width for any other order
    for order in (1, 4):
        with pytest.raises(PvisoValueError, match=f"not {order}"):
            ray_derivatives(state40, 40j, 1e-2, dlog_tau, order, 1e-12)
