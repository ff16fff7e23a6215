"""Truncated series solutions of the rank-two isomonodromic system near
x = i*infinity.

The solution pair (A0, Ax) is carried in the zero-trace basis

    A0 = f0*J + f+*Delta+ + f-*Delta-,
    Ax = g0*J + g+*Delta+ + g-*Delta-,

with every component a convergent double series in E+ = e^x x^(sigma-1)
and E- = e^-x x^(-sigma-1) whose coefficients are asymptotic series in
1/x.

``series_A_pair`` keeps every term E+^a E-^b x^-k with a + b + k <= 3,
with all coefficients solved order by order from the Schlesinger system
at the given parameters (the formal-transseries method of Costin,
"Asymptotics and Borel Summability", 2008).  It reproduces every
coefficient the paper prints and adds the ones it leaves out, including
eight at total degree 2.  The solve divides by no parameter, so the
two-parameter families are this same series at sigma =
``sigma_deg_plus`` (where gxm = 0) and ``sigma_deg_minus`` (g0m = 0).

The order-by-order solver is generic in the total degree D: the plan
of the solve is built from the term list once per degree, on first use,
and each parameter set steps through it; the basis of (D+1)^2 terms
E^n x^-k is gathered, by an index cached per degree, from a table of
the powers of E+, E- and 1/x, at one point or at an array of points.
``series_seed`` evaluates the pair at any degree together with its seed
truncation, the largest entry of the degree-D terms' contribution to A0
and Ax; ``series_A_pair`` is its degree 3.  Both evaluate the pair only
in the admissible strip, where |E+| and |E-| stay below ``EPS``.  The
zero/pole lattice roots lie beyond it, where the double series still
converges; ``_series_pair`` evaluates the pair there at every Newton
iterate of a lattice at once, for ``transcendents.refine_lattice``,
which trusts it only as far as the truncation it returns.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ZeroConstantError
from .linalg import branched_power, mat

__all__ = [
    "Parameters",
    "GammaQuad",
    "ABPair",
    "gamma_quad",
    "series_A_pair",
    "series_seed",
    "domain_check",
    "axis_radii",
    "smallness_score",
]

EPS = 0.1  # bound on |E+| and |E-| in the admissible strip


@dataclass(frozen=True)
class Parameters:
    """Constants (theta0, thetax, thetainf) and integration constants
    (c0, cx, sigma) of the solution family."""

    theta0: complex
    thetax: complex
    thetainf: complex
    c0: complex
    cx: complex
    sigma: complex

    @property
    def c(self) -> complex:
        """cx / c0 (the ratio the transcendent depends on)."""
        if self.c0 == 0:
            raise ZeroConstantError("c undefined: c0 = 0")
        return self.cx / self.c0

    @property
    def sigma_deg_plus(self) -> complex:
        """The sigma value -2*thetax - thetainf of the two-parameter branch."""
        return -2.0 * self.thetax - self.thetainf

    @property
    def sigma_deg_minus(self) -> complex:
        """The sigma value 2*theta0 + thetainf of the reciprocal branch."""
        return 2.0 * self.theta0 + self.thetainf

    def replace(self, **kw) -> "Parameters":
        return replace(self, **kw)


@dataclass(frozen=True)
class GammaQuad:
    """The four structure constants built from (c0, cx, sigma, thetas)."""

    g0p: complex
    g0m: complex
    gxp: complex
    gxm: complex


@dataclass
class ABPair:
    """The pair (A0, Ax) at one point: A0 = mat(f0, f+, f-, -f0) and
    Ax = mat(g0, g+, g-, -g0) in the components of the module docstring."""

    A0: np.ndarray
    Ax: np.ndarray


def gamma_quad(p: Parameters) -> GammaQuad:
    if p.c0 == 0 or p.cx == 0:
        raise ZeroConstantError("gamma constants need c0 != 0 and cx != 0")
    s, t0, tx, ti = p.sigma, p.theta0, p.thetax, p.thetainf
    return GammaQuad(
        g0p=p.c0 * (s + 2.0 * t0 - ti) / 4.0,
        g0m=(-s + 2.0 * t0 + ti) / (4.0 * p.c0),
        gxp=p.cx * (-s + 2.0 * tx - ti) / 4.0,
        gxm=(s + 2.0 * tx + ti) / (4.0 * p.cx),
    )


def _in_sector(x: complex) -> bool:
    """The parts of ``domain_check`` that do not depend on the
    parameters: |arg x - pi/2| < pi/2 - 0.1 and |x| > 20."""
    return abs(cmath.phase(x) - math.pi / 2.0) < math.pi / 2.0 - 0.1 and abs(x) > 20.0


def domain_check(p: Parameters, x: complex) -> bool:
    """True iff x lies in the sector-like strip where both expansion
    variables E+ and E- have modulus below EPS.

    Explicitly, with arg x principal: |arg x - pi/2| < pi/2 - 0.1,
    |x| > 20 and

      -(1+Re sigma) log|x| + Im sigma * arg x + log(1/EPS)
          < Re x <
      (1-Re sigma) log|x| + Im sigma * arg x - log(1/EPS).
    """
    x = complex(x)
    if not _in_sector(x):
        return False
    ax = cmath.phase(x)
    lx = math.log(abs(x))
    leps = math.log(1.0 / EPS)
    s = p.sigma
    lo = -(1.0 + s.real) * lx + s.imag * ax + leps
    hi = (1.0 - s.real) * lx + s.imag * ax - leps
    return lo < x.real < hi


def axis_radii(p: Parameters) -> tuple[float, float] | None:
    """The radii r for which x = i r passes ``domain_check``: the open
    interval (lo, hi), or None when it is empty.  On the axis its two
    inequalities read (1 + Re sigma) log r > Im sigma * pi/2 + log(1/EPS)
    and (1 - Re sigma) log r > log(1/EPS) - Im sigma * pi/2, beside
    r > 20; an end beyond the largest float counts as inf."""
    s, leps = complex(p.sigma), math.log(1.0 / EPS)
    lo, hi = -math.inf, math.inf  # bounds on log r
    for slope, bound in (
        (1.0 + s.real, s.imag * math.pi / 2.0 + leps),
        (1.0 - s.real, leps - s.imag * math.pi / 2.0),
    ):
        if slope > 0.0:
            lo = max(lo, bound / slope)
        elif slope < 0.0:
            hi = min(hi, bound / slope)
        elif bound >= 0.0:
            return None
    top = math.log(sys.float_info.max)
    lo, hi = max(math.log(20.0), min(lo, top)), min(hi, top)
    if lo >= hi:
        return None
    return max(20.0, math.exp(lo)), (math.exp(hi) if hi < top else math.inf)


def smallness_score(p: Parameters) -> float:
    """Heuristic admissibility product: the factor multiplying EPS in the
    contraction condition of the convergence proof.  Small score means a
    comfortably convergent family at desk scale."""
    g = gamma_quad(p)
    s = abs(g.g0p) + abs(g.g0m) + abs(g.gxp) + abs(g.gxm)
    return (abs(g.g0m * g.gxp) + abs(g.g0p * g.gxm) + s + 1.0) * (s + 1.0)


# ---------------------------------------------------------------------------
# series_A_pair: every coefficient up to total degree 3, solved order by order
#
# With E = E+ (so E- = E^-1 x^-2), a = (sigma+thetainf)/2, b = (sigma-thetainf)/2
# and the normalized components
#
#   Fp = x^a f+,   Gp = e^-x x^-b g+,   Fm = x^-a f-,   Gm = e^x x^b g-,
#   dl = f0 - b/2  (so g0 = -dl - a/2),
#
# each a sum of c[n, k] E^n x^-k, the Schlesinger system reads
#
#   x dl' = x E Gp Fm - E^-1 x^-1 Fp Gm
#   x Fp' = -2 dl (Fp + x E Gp) - b x E Gp
#   x Gp' =  2 dl (Gp + E^-1 x^-1 Fp) + a E^-1 x^-1 Fp
#   x Fm' =  2 dl (Fm + E^-1 x^-1 Gm) + b E^-1 x^-1 Gm
#   x Gm' = -2 dl (Gm + x E Fm) - a x E Fm
#
# and x d/dx (E^n x^-k) = n E^n x^(1-k) + (n (sigma-1) - k) E^n x^-k.  The term
# E^n x^-k is E+^n x^-k for n >= 0 and E-^-n x^-(k+2n) for n < 0, so it exists
# for k >= max(0, -2n) and has total degree n + k, which adds under products
# (x E and E^-1 x^-1 have degree 0).  Matching E^n x^-j with n != 0 fixes
# c[n, j+1] from terms of lower degree; matching E^0 x^-d then fixes c[0, d]
# of dl, whose right side holds no n = 0 term of degree d, and after it those
# of the other four.  One pass per degree solves everything: no iteration,
# and no division by a parameter.

_L2_DEGREE = 3  # the total degree of series_A_pair


def _terms(degree: int) -> tuple:
    """(n, k) of every term E^n x^-k of total degree <= ``degree``: by
    degree, then n from -degree to degree."""
    return tuple((n, d - n) for d in range(degree + 1) for n in range(-d, d + 1))


_DL, _FP, _GP, _FM, _GM = range(5)
_XE, _EX = (1, -1), (-1, 1)  # multiplication by x E and by E^-1 x^-1
_NOSHIFT = (0, 0)
# right-hand sides: bilinear terms (weight, factor, factor, shift) and
# linear terms (weight, "a" or "b", component, shift)
_L2_RHS = {
    _DL: (((1, _GP, _FM, _XE), (-1, _FP, _GM, _EX)), ()),
    _FP: (((-2, _DL, _FP, _NOSHIFT), (-2, _DL, _GP, _XE)), ((-1, "b", _GP, _XE),)),
    _GP: (((2, _DL, _GP, _NOSHIFT), (2, _DL, _FP, _EX)), ((1, "a", _FP, _EX),)),
    _FM: (((2, _DL, _FM, _NOSHIFT), (2, _DL, _GM, _EX)), ((1, "b", _GM, _EX),)),
    _GM: (((-2, _DL, _GM, _NOSHIFT), (-2, _DL, _FM, _XE)), ((-1, "a", _FM, _XE),)),
}


@functools.lru_cache(maxsize=None)
def _l2_plan(degree: int):
    """The solve to total degree ``degree`` as a list of steps (slot,
    divisor, linear, bilinear), built on first use: about 1 ms at degree
    3, 2.5 ms at 5, 9 ms at 8, 41 ms at 12 and 0.1 s at 16 on a 2-core Xeon.

    A step sets c[slot] = (sum of coef[i] * c[j] over ``linear`` + sum of
    w * (c[j0] * c[k0] + sum of c[j] * c[k] over rest) over each group
    (w, j0, k0, rest) of ``bilinear``) / divisor.  Every coef is
    q*sigma + r + u*a + v*b for one (q, r, u, v) of the returned
    coefficient basis.  Terms that vanish for every parameter set are
    left out.
    """
    terms = _terms(degree)
    nt = len(terms)
    slot = {(y, t): y * nt + i for y in range(5) for i, t in enumerate(terms)}
    # the known terms, and the slots of each component's known terms in order
    known, known_at = set(), [[] for _ in range(5)]
    coefs: dict[tuple, int] = {}
    steps = []

    def learn(targets):
        known.update(targets)
        for y, t in targets:
            bisect.insort(known_at[y], slot[y, t])

    def step(y, n, j, divisor, self_coef):
        linear, bilinear = [], {}
        if self_coef is not None and (y, (n, j)) in known:
            linear.append((coefs.setdefault(self_coef, len(coefs)), slot[y, (n, j)]))
        products, cross = _L2_RHS[y]
        for w, u, v, (sn, sk) in products:
            for su in known_at[u]:
                tu = terms[su - u * nt]
                tv = (n - sn - tu[0], j - sk - tu[1])
                if (v, tv) in known:
                    bilinear.setdefault(w, []).append((su, slot[v, tv]))
        for w, name, z, (sn, sk) in cross:
            tz = (n - sn, j - sk)
            if (z, tz) in known:
                spec = (0, 0, w, 0) if name == "a" else (0, 0, 0, w)
                linear.append((coefs.setdefault(spec, len(coefs)), slot[z, tz]))
        if not (linear or bilinear):
            return []
        target = (y, (n, j + 1)) if n else (y, (0, j))
        groups = tuple((w, *ps[0], tuple(ps[1:])) for w, ps in bilinear.items())
        steps.append((slot[target], divisor, tuple(linear), groups))
        return [target]

    learn([(y, (0, 0)) for y in (_FP, _GP, _FM, _GM)])
    for d in range(1, degree + 1):
        new = []
        for n, k in terms:
            if n != 0 and n + k == d:
                for y in range(5):
                    # n c[n,k] + (n (sigma-1) - (k-1)) c[n,k-1] = rhs[n,k-1]
                    new += step(y, n, k - 1, n, (-n, n + k - 1, 0, 0))
        learn(new)
        for group in ((_DL,), (_FP, _GP, _FM, _GM)):
            # -d c[0,d] = rhs[0,d]
            learn([t for y in group for t in step(y, 0, d, -d, None)])
    return tuple(steps), tuple(sorted(coefs, key=coefs.get))


def _l2_solve(p: Parameters, degree: int) -> list:
    """c[n, k] as one flat list, rows dl, Fp, Gp, Fm, Gm and columns in
    ``_terms(degree)`` order, by stepping through ``_l2_plan(degree)`` in
    plain arithmetic on the parameters' own number type.

    Each sum starts at its first term: a start of 0j would turn an
    imaginary part of -0.0 into +0.0.
    """
    steps, coef_basis = _l2_plan(degree)
    nt = (degree + 1) ** 2
    g = gamma_quad(p)
    s, ti = p.sigma, p.thetainf
    a, b = (s + ti) / 2.0, (s - ti) / 2.0
    coef = [q * s + r + u * a + v * b for q, r, u, v in coef_basis]
    c = [0j] * (5 * nt)
    c[nt], c[2 * nt], c[3 * nt], c[4 * nt] = g.g0p, g.gxp, g.g0m, g.gxm
    for target, divisor, linear, bilinear in steps:
        acc = None
        for i, j in linear:
            term = coef[i] * c[j]
            acc = term if acc is None else acc + term
        for w, j0, k0, rest in bilinear:
            part = c[j0] * c[k0]
            for j, k in rest:
                part += c[j] * c[k]
            acc = w * part if acc is None else acc + w * part
        c[target] = acc / divisor
    return c


@functools.lru_cache(maxsize=16)
def _l2_coefficients(p: Parameters, degree: int = _L2_DEGREE) -> np.ndarray:
    """Read-only (5, (degree+1)^2) array of ``_l2_solve(p, degree)``.
    Cached per parameter set, since callers evaluate one family at
    several points."""
    out = np.array(_l2_solve(p, degree)).reshape(5, (degree + 1) ** 2)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _basis_index(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exponents 0..degree of ``_basis``'s power table, whose row
    3 j + r is the j-th power of E-, E+ or 1/x for r = 0, 1, 2, and the
    rows each term E^n x^-k multiplies: E-^-n (n < 0) or E+^n, and
    x^-(k+2n) (n < 0) or x^-k."""
    terms = _terms(degree)
    e_rows = np.array([3 * abs(n) + (n > 0) for n, _ in terms])
    return np.arange(degree + 1), e_rows, np.array([3 * (n + k - abs(n)) + 2 for n, k in terms])


def _basis(ep, em, ix, degree: int) -> np.ndarray:
    """The terms E^n x^-k in ``_terms(degree)`` order, as E+^n x^-k
    (n >= 0) or E-^-n x^-(k+2n) (n < 0), at one point or at an array of
    points (one column each): the product of two rows of a table of the
    powers 0..degree of E-, E+ and 1/x."""
    powers, e_rows, x_rows = _basis_index(degree)
    base = np.array([em, ep, ix])
    table = (base ** powers.reshape(-1, *[1] * base.ndim)).reshape(-1, *base.shape[1:])
    return table[e_rows] * table[x_rows]


def _expansion(p: Parameters, x: complex) -> tuple:
    """(E+, E-, 1/x, e^x, x^((sigma+thetainf)/2), x^((sigma-thetainf)/2))
    at x, on the principal branch of log x; the last three are the scale
    ``_unnormalize`` takes."""
    lx = complex(math.log(abs(x)), cmath.phase(x))
    ex = cmath.exp(x)
    x_s1 = branched_power(lx, p.sigma - 1.0)  # x^(sigma-1)
    w = branched_power(lx, (p.sigma + p.thetainf) / 2.0)  # x^((sigma+thetainf)/2)
    v = branched_power(lx, (p.sigma - p.thetainf) / 2.0)  # x^((sigma-thetainf)/2)
    # E+ = e^x x^(sigma-1), E- = e^-x x^(-sigma-1)
    return ex * x_s1, 1.0 / ex / (x * x * x_s1), 1.0 / x, ex, w, v


def _unnormalize(scale, fp, gp, fm, gm):
    """(f+, g+, f-, g-) from the normalized (Fp, Gp, Fm, Gm), with scale
    (e^x, x^((sigma+thetainf)/2), x^((sigma-thetainf)/2)) from
    ``_expansion``; scalars or arrays alike."""
    ex, w, v = scale
    return fp / w, gp * ex * v, fm * w, gm * (1.0 / ex) / v


def _pair(p: Parameters, scale, sums) -> tuple[np.ndarray, np.ndarray]:
    """A0 and Ax, of shape (2, 2) or (2, 2, N), from the sums (dl, Fp,
    Gp, Fm, Gm) of a series (see above) at one point or at N points, with
    the scale ``_expansion`` gives there."""
    # one point's sums as plain complex numbers: faster than numpy scalars
    dl, *normalized = sums.tolist() if sums.ndim == 1 else sums
    f0 = (p.sigma - p.thetainf) / 4.0 + dl
    g0 = -p.thetainf / 2.0 - f0
    fplus, gplus, fminus, gminus = _unnormalize(scale, *normalized)
    return mat(f0, fplus, fminus, -f0), mat(g0, gplus, gminus, -g0)


def _series_pair(p: Parameters, expansion, degree: int):
    """``_pair`` from every term of total degree <= ``degree`` at the
    point whose ``_expansion`` is ``expansion``, or at N points at once
    from a (6, N) array of theirs, and the seed truncation: the largest
    entry of the degree-``degree`` terms' contribution to A0 and Ax."""
    ep, em, ix, *scale = expansion
    coefs, basis = _l2_coefficients(p, degree), _basis(ep, em, ix, degree)
    top = degree * degree  # the terms of total degree `degree` come last
    tail_dl, *tail = coefs[:, top:] @ basis[top:]
    truncation = np.max(np.abs([tail_dl, *_unnormalize(scale, *tail)]), axis=0)
    return (*_pair(p, scale, coefs @ basis), truncation)


def _in_strip(p: Parameters, x: complex) -> complex:
    """x as a complex number; DomainError unless it passes ``domain_check``."""
    x = complex(x)
    if not domain_check(p, x):
        raise DomainError(f"x = {x} outside the admissible strip (eps = {EPS})")
    return x


def series_A_pair(p: Parameters, x: complex) -> ABPair:
    """The pair (A0, Ax) of the generic three-parameter series at x from
    every term of total degree <= 3 (see the module docstring)."""
    ep, em, ix, *scale = _expansion(p, _in_strip(p, x))
    return ABPair(*_pair(p, scale, _l2_coefficients(p) @ _basis(ep, em, ix, _L2_DEGREE)))


def series_seed(p: Parameters, x: complex, degree: int) -> tuple[np.ndarray, np.ndarray, float]:
    """A0 and Ax at x from every term of total degree <= ``degree``,
    solved order by order as for ``series_A_pair``, and the seed
    truncation: the largest entry of the degree-``degree`` terms'
    contribution to A0 and Ax.  That last order overestimates the error
    of the sum (at 250i and degree 5, by 30-50x against a degree-12
    series).  Raises DomainError outside the admissible strip."""
    A0, Ax, truncation = _series_pair(p, _expansion(p, _in_strip(p, x)), degree)
    return A0, Ax, float(truncation)
