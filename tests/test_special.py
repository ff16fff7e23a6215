import cmath
import math

import numpy as np
import pytest

from pviso.errors import GammaPoleError
from pviso.special import EULER_GAMMA, digamma, gamma, rgamma


def test_gamma_values():
    assert abs(gamma(1.0) - 1.0) < 1e-14
    assert abs(gamma(5.0) - 24.0) < 1e-13 * 24
    assert abs(gamma(0.5) - 1.7724538509055160) < 1e-14


def test_gamma_recurrence_grid():
    # gamma(z+1)/gamma(z) = z on a 100-point grid
    rng = np.random.RandomState(3)
    for _ in range(100):
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        if abs(z - round(z.real)) < 0.05 and z.real <= 0.5:
            continue
        assert abs(gamma(z + 1.0) / gamma(z) - z) <= 1e-12 * max(1.0, abs(z))


def test_gamma_reflection_grid():
    worst = 0.0
    for re in np.linspace(-4.3, 4.7, 10):
        for im in np.linspace(-6.0, 6.0, 9):
            z = complex(re, im)
            if abs(z.imag) < 1e-2 and abs(z.real - round(z.real)) < 0.1:
                continue
            r = gamma(z) * gamma(1.0 - z) * cmath.sin(math.pi * z) / math.pi
            worst = max(worst, abs(r - 1.0))
    assert worst <= 1e-10


def test_gamma_moderate_box_accuracy():
    # recurrence-based relative check out to |z| ~ 50, |Im z| ~ 50
    for z in (37.5 + 49.5j, 49.0 - 12.0j, 3.0 + 50.0j, 50.0 + 0.3j):
        assert abs(gamma(z + 1.0) / gamma(z) - z) <= 1e-12 * abs(z)


def test_gamma_pole_errors():
    for z in (0.0, -1.0, -5.0, -3.0 + 1e-15j):
        with pytest.raises(GammaPoleError):
            gamma(z)
    with pytest.raises(GammaPoleError):
        digamma(-2.0)


def test_digamma_values():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-13
    assert abs(digamma(2.0) - 0.4227843350984671) < 1e-13
    assert abs(digamma(0.5) - (-EULER_GAMMA - 2.0 * math.log(2.0))) < 1e-13


def test_digamma_matches_log_gamma_derivative():
    # centered finite difference of log gamma, step 1e-5
    h = 1e-5
    for z in (1.3 + 0.2j, 2.0 - 1.5j, 4.5 + 3.0j, 0.8 + 0.9j):
        fd = (cmath.log(gamma(z + h)) - cmath.log(gamma(z - h))) / (2.0 * h)
        assert abs(digamma(z) - fd) <= 1e-6


def test_rgamma_entire():
    assert rgamma(0.0) == 0.0
    assert rgamma(-3.0) == 0.0
    for z in (0.7 + 0.1j, -2.5 + 1.0j, 5.0 - 4.0j):
        assert abs(rgamma(z) * gamma(z) - 1.0) < 1e-12


def test_against_mpmath_oracle():
    # independent reference over criterion 10's box (Re z in [-6, 7],
    # Im z in [-8, 8]) and at distances 1e-3 .. 1e-10 from the poles
    # 0, -1, ..., -6, where sin(pi z) in the reflection formula is small
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.RandomState(17)
    points = [complex(rng.uniform(-6, 7), rng.uniform(-8, 8)) for _ in range(200)]
    for n in range(7):
        for d in (1e-3, 1e-6, 1e-10):
            for u in (1.0, -1.0, 1j, -1j, cmath.exp(0.7j), cmath.exp(-2.3j)):
                points.append(-n + d * u)
    worst = {"gamma": 0.0, "rgamma": 0.0, "digamma": 0.0}
    with mpmath.workdps(30):
        for z in points:
            for name, ours, ref in (
                ("gamma", gamma, mpmath.gamma),
                ("rgamma", rgamma, mpmath.rgamma),
                ("digamma", digamma, mpmath.digamma),
            ):
                exact = complex(ref(mpmath.mpc(z)))
                worst[name] = max(worst[name], abs(ours(z) - exact) / abs(exact))
    assert max(worst.values()) <= 1e-12, worst
