"""Complex Gamma, reciprocal Gamma and digamma.

Gamma uses a 15-term Lanczos rational approximation (g = 607/128) with
the reflection formula for Re z < 1/2; this delivers ~1e-13 relative
accuracy on the moderate box needed here without external dependencies.
The reciprocal is exposed as a first-class entire function so that
connection-factor entries that contain 1/Gamma(nonpositive integer)
evaluate to an exact zero instead of tripping over a pole.
"""

from __future__ import annotations

import cmath
import math

from .errors import GammaPoleError

__all__ = ["gamma", "rgamma", "digamma", "EULER_GAMMA"]

EULER_GAMMA = 0.5772156649015328606065120900824024310421593359

_LANCZOS_G = 607.0 / 128.0

_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _near_nonpositive_integer(z: complex, radius: float) -> bool:
    if z.real > 0.5:
        return False
    n = round(z.real)
    return n <= 0 and abs(z - n) < radius


def _sin_pi(z: complex) -> complex:
    """sin(pi z), with z first reduced by the integer n nearest Re z
    (z - n is exact there), so the result keeps its relative accuracy
    near the integers where sin(pi z) vanishes."""
    n = round(z.real)
    s = cmath.sin(math.pi * (z - n))
    return -s if n % 2 else s


def _lanczos_sum(z: complex) -> complex:
    # valid for Re z >= 0.5, argument shifted so the series sees z-1
    s = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[k] / (z - 1.0 + k)
    return s


def gamma(z: complex) -> complex:
    """Gamma(z) for complex z away from the poles at 0, -1, -2, ..."""
    z = complex(z)
    if _near_nonpositive_integer(z, 1e-14):
        raise GammaPoleError(f"gamma pole at or extremely near {z}")
    if z.real < 0.5:
        # reflection: Gamma(z) = pi / (sin(pi z) Gamma(1 - z))
        return math.pi / (_sin_pi(z) * gamma(1.0 - z))
    t = z - 1.0 + _LANCZOS_G + 0.5
    return (
        math.sqrt(2.0 * math.pi)
        * t ** (z - 0.5)
        * cmath.exp(-t)
        * _lanczos_sum(z)
    )


def rgamma(z: complex) -> complex:
    """1/Gamma(z), entire: exactly 0 at the non-positive integers."""
    z = complex(z)
    if z.real < 0.5:
        if z.real == round(z.real) and z.imag == 0.0 and round(z.real) <= 0:
            return 0.0 + 0.0j
        return _sin_pi(z) * gamma(1.0 - z) / math.pi
    return 1.0 / gamma(z)


_DIGAMMA_ASYMPT = (
    # B_{2n} / (2n) for the asymptotic tail sum over z^{-2n}
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def digamma(z: complex) -> complex:
    """psi(z) = Gamma'(z)/Gamma(z) for complex z away from the poles."""
    z = complex(z)
    if _near_nonpositive_integer(z, 1e-14):
        raise GammaPoleError(f"digamma pole at or extremely near {z}")
    if z.real < 0.5:
        # psi(z) = psi(1 - z) - pi cot(pi z), cot reduced like _sin_pi
        return digamma(1.0 - z) - math.pi / cmath.tan(math.pi * (z - round(z.real)))
    acc = 0.0 + 0.0j
    while abs(z) < 16.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    tail = 0.0 + 0.0j
    p = inv2
    for coef in _DIGAMMA_ASYMPT:
        tail += coef * p
        p *= inv2
    return acc + cmath.log(z) - 0.5 / z - tail
