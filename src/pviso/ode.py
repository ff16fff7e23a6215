"""Adaptive embedded Runge-Kutta transport kernel for complex vector fields.

Its only caller is ``monodromy``, which steps the chords of each loop
as one batch with it; the flow of (A0, Ax) has its own Taylor kernel in
``flow``.

The method is DOP853, the explicit 8th-order pair of Dormand and Prince
with Hairer's combined 5th/3rd-order error estimate (Hairer, Norsett &
Wanner, *Solving Ordinary Differential Equations I*, 2nd ed., §II.10).
Each accepted step costs 12 evaluations of the field: 11 new stages and
the first-same-as-last evaluation at the step's end, which becomes the
next step's first stage.  A rejected step costs 11.

Error control: with the scale sc_i = tol + tol max(|y_i|, |y_new_i|)
and err5^2, err3^2 the sums over the n components of |d_i / sc_i|^2 for
the 5th- and 3rd-order error estimates d (taken without the factor h),
the step's error is h err5^2 / sqrt((err5^2 + 0.01 err3^2) n) and the
step is accepted when it is at most 1.  The next step is
h * clamp(0.9 err^(-1/8), 0.2, 10), never longer than ``MAX_STEP``.

The state is a list of n components, each a 1-D complex array of
length B: B independent systems stepped in lockstep with one shared h
(``y0`` an (n, B) array or a sequence of n such arrays).  Every stage
sum is written out over the components, with the couplings multiplied
by h once per step, so a step costs a few list comprehensions over
array arithmetic rather than dozens of small numpy calls.  The vector
field ``f(t, y)`` receives that list and returns a sequence of n
arrays of length B.  Each member gets its own error norm as above; a
step is accepted only when the largest member norm is at most 1, and
the controller steers on that largest norm, so every member meets at
least the tolerance it would meet alone, at the price of the steps of
the hardest one.  A 1-D ``y0`` is one system, stepped the same way
with n numpy scalars as its components.  The independent variable is
a real path parameter.  Deterministic: no randomness, fixed evaluation
order.

The entry point keeps the name ``integrate_rk54`` from the 5(4) pair it
replaced: the benchmark's tracer wraps the kernel under that name to
count f-evals, so renaming it is a change to the benchmark.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import StepUnderflowError

__all__ = ["integrate_rk54"]

# ceiling on the step length
MAX_STEP = 0.5

# DOP853 tableau (Hairer's dop853.f).  C<i> is the node of stage i; A<i>
# holds stage i's nonzero couplings in stage order: stage 1 only for
# stages 2..3, stages 1 and 3.. for 4..5, stages 1 and 4.. for 6..12.
# B (the 8th-order weights, also the FSAL stage's couplings) and E5 (the
# 5th-order error weights) use stages 1 and 6..12; BHH holds the weights
# of the 3rd-order solution, on stages 1, 9 and 12, whose difference
# from B is the 3rd-order error.
C2 = 0.526001519587677318785587544488e-01
C3 = 0.789002279381515978178381316732e-01
C4 = 0.118350341907227396726757197510
C5 = 0.281649658092772603273242802490
C6 = 0.333333333333333333333333333333
C7 = 0.25
C8 = 0.307692307692307692307692307692
C9 = 0.651282051282051282051282051282
C10 = 0.6
C11 = 0.857142857142857142857142857142
C12 = 1.0

A2 = (5.26001519587677318785587544488e-2,)
A3 = (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2)
A4 = (2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2)
A5 = (
    2.41365134159266685502369798665e-1,
    -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
)
A6 = (
    3.7037037037037037037037037037e-2,
    1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
)
A7 = (
    3.7109375e-2,
    1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2,
    -1.7578125e-2,
)
A8 = (
    3.70920001185047927108779319836e-2,
    1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
)
A9 = (
    6.24110958716075717114429577812e-1,
    -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1,
    -4.34898841810699588477366255144e1,
)
A10 = (
    4.77662536438264365890433908527e-1,
    -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1,
    -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
)
A11 = (
    -9.3714243008598732571704021658e-1,
    5.18637242884406370830023853209,
    1.09143734899672957818500254654,
    -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1,
    2.49360555267965238987089396762,
    -3.0467644718982195003823669022,
)
A12 = (
    2.27331014751653820792359768449,
    -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674,
    -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
)
B = (
    5.42937341165687622380535766363e-2,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
)
E5 = (
    0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
)
BHH = (
    0.244094488188976377952755905512,
    0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
)


def _largest_member_norm(h: float, acc5: np.ndarray, denom: np.ndarray, n: int) -> float:
    """Largest of the batch members' combined norms; a member whose
    error estimates are both zero counts 0."""
    live = denom > 0.0
    if not live.any():
        return 0.0
    return float(np.max(h * acc5[live] / np.sqrt(denom[live] * n)))


def integrate_rk54(
    f: Callable[[float, list], Sequence],
    t0: float,
    t1: float,
    y0: Sequence[complex] | Sequence[np.ndarray],
    tol: float,
) -> np.ndarray:
    """Integrate y' = f(t, y) from t0 to t1 (t1 >= t0) with DOP853, the
    local error per step controlled at ``tol`` (mixed absolute/relative
    scale, Hairer's combined 5th/3rd-order norm).

    Returns the state at t1 as an (n, B) complex array for a batch of B
    members, or (n,) for a 1-D ``y0``.
    """
    span = t1 - t0
    if span < 0:
        raise ValueError("integrate_rk54 expects t1 >= t0")
    y = list(np.asarray(y0, dtype=complex))
    if span == 0.0:
        return np.array(y, dtype=complex)
    n = len(y)
    t = t0
    h = min(MAX_STEP, span, 0.1)
    h_floor = 1e-13 * max(1.0, span)
    k1 = f(t, y)
    nfail = 0
    while t < t1:
        h = min(h, t1 - t, MAX_STEP)
        if h < h_floor:
            raise StepUnderflowError(f"step size underflow at t = {t} (h = {h})")
        a1 = h * A2[0]
        k2 = f(t + C2 * h, [y_ + a1 * p for y_, p in zip(y, k1)])
        a1, a2 = [h * a for a in A3]
        k3 = f(t + C3 * h, [y_ + a1 * p + a2 * q for y_, p, q in zip(y, k1, k2)])
        a1, a3 = [h * a for a in A4]
        k4 = f(t + C4 * h, [y_ + a1 * p + a3 * r for y_, p, r in zip(y, k1, k3)])
        a1, a3, a4 = [h * a for a in A5]
        k5 = f(
            t + C5 * h,
            [y_ + a1 * p + a3 * r + a4 * s for y_, p, r, s in zip(y, k1, k3, k4)],
        )
        a1, a4, a5 = [h * a for a in A6]
        k6 = f(
            t + C6 * h,
            [y_ + a1 * p + a4 * s + a5 * u for y_, p, s, u in zip(y, k1, k4, k5)],
        )
        a1, a4, a5, a6 = [h * a for a in A7]
        k7 = f(
            t + C7 * h,
            [
                y_ + a1 * p + a4 * s + a5 * u + a6 * v
                for y_, p, s, u, v in zip(y, k1, k4, k5, k6)
            ],
        )
        a1, a4, a5, a6, a7 = [h * a for a in A8]
        k8 = f(
            t + C8 * h,
            [
                y_ + a1 * p + a4 * s + a5 * u + a6 * v + a7 * w
                for y_, p, s, u, v, w in zip(y, k1, k4, k5, k6, k7)
            ],
        )
        a1, a4, a5, a6, a7, a8 = [h * a for a in A9]
        k9 = f(
            t + C9 * h,
            [
                y_ + a1 * p + a4 * s + a5 * u + a6 * v + a7 * w + a8 * z
                for y_, p, s, u, v, w, z in zip(y, k1, k4, k5, k6, k7, k8)
            ],
        )
        a1, a4, a5, a6, a7, a8, a9 = [h * a for a in A10]
        k10 = f(
            t + C10 * h,
            [
                y_ + a1 * p + a4 * s + a5 * u + a6 * v + a7 * w + a8 * z + a9 * g
                for y_, p, s, u, v, w, z, g in zip(y, k1, k4, k5, k6, k7, k8, k9)
            ],
        )
        a1, a4, a5, a6, a7, a8, a9, a10 = [h * a for a in A11]
        k11 = f(
            t + C11 * h,
            [
                y_ + a1 * p + a4 * s + a5 * u + a6 * v + a7 * w + a8 * z + a9 * g
                + a10 * m
                for y_, p, s, u, v, w, z, g, m in zip(
                    y, k1, k4, k5, k6, k7, k8, k9, k10
                )
            ],
        )
        a1, a4, a5, a6, a7, a8, a9, a10, a11 = [h * a for a in A12]
        k12 = f(
            t + C12 * h,
            [
                y_ + a1 * p + a4 * s + a5 * u + a6 * v + a7 * w + a8 * z + a9 * g
                + a10 * m + a11 * q
                for y_, p, s, u, v, w, z, g, m, q in zip(
                    y, k1, k4, k5, k6, k7, k8, k9, k10, k11
                )
            ],
        )
        # per component: the 8th-order increment over h, then both error
        # estimates scaled by sc (Hairer's arrangement)
        b1, b6, b7, b8, b9, b10, b11, b12 = B
        e1, e6, e7, e8, e9, e10, e11, e12 = E5
        bh1, bh9, bh12 = BHH
        y_new = []
        acc5 = acc3 = 0.0
        for y_, p, v, w, z, g, m, q, r in zip(y, k1, k6, k7, k8, k9, k10, k11, k12):
            inc = b1 * p + b6 * v + b7 * w + b8 * z + b9 * g + b10 * m + b11 * q + b12 * r
            x_ = y_ + h * inc
            y_new.append(x_)
            sc = tol + tol * np.maximum(abs(y_), abs(x_))
            err5 = abs(
                e1 * p + e6 * v + e7 * w + e8 * z + e9 * g + e10 * m + e11 * q + e12 * r
            ) / sc
            err3 = abs(inc - bh1 * p - bh9 * g - bh12 * r) / sc
            acc5 += err5 * err5
            acc3 += err3 * err3
        err = _largest_member_norm(h, acc5, acc5 + 0.01 * acc3, n)
        if err <= 1.0:
            t += h
            y = y_new
            k1 = f(t, y)  # first-same-as-last
            nfail = 0
        else:
            nfail += 1
            if nfail > 60:
                raise StepUnderflowError(f"persistent step rejection at t = {t}")
        factor = 0.9 * err ** -0.125 if err > 0.0 else 10.0
        h *= min(10.0, max(0.2, factor))
    return np.array(y, dtype=complex)
