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

The state is an (n, B) complex array (``y0``, or the n arrays of
length B it lists): B independent systems stepped in lockstep with one
shared h.  A step is one loop over the dense Butcher table, its stages
one (12, n, B) array K, and every stage input, the increment and the
error estimates weighted sums over K's leading axis.  The field
``f(t, y)`` receives an (n, B) array and returns n arrays of length B.
Each member gets its own error norm as above; a step is accepted only
when the largest member norm is at most 1, and the controller steers on
it, so every member meets at least the tolerance it would meet alone,
at the price of the steps of the hardest one.  A 1-D ``y0`` is one
system, stepped the same way.  The independent variable is a real path
parameter.  Deterministic: no randomness, fixed evaluation and
summation order.

The name ``integrate_rk54`` is kept from the 5(4) pair this kernel
replaced: the benchmark's tracer wraps the kernel by that name.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import StepUnderflowError

__all__ = ["integrate_rk54"]

# ceiling on the step length
MAX_STEP = 0.5

# DOP853 tableau (Hairer's dop853.f).  C<i> is the node of stage i; A<i>
# holds stage i's nonzero couplings in stage order: stages 1.. for
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


# the dense table the step runs on, every row over all 12 stages: _A
# holds the named rows in row-major order at the couplings the comment
# above lists, and _B, _E5 and _BHH are the rows of _WEIGHTS
_COUPLED = np.tri(12, k=-1, dtype=bool)
_COUPLED[3:, 1] = _COUPLED[5:, 2] = False
_A = np.zeros((12, 12))
_A[_COUPLED] = np.concatenate([A2, A3, A4, A5, A6, A7, A8, A9, A10, A11, A12])
_C = np.array([0.0, C2, C3, C4, C5, C6, C7, C8, C9, C10, C11, C12])
_WEIGHTS = np.zeros((3, 12))
_B, _E5, _BHH = _WEIGHTS
_B[[0, *range(5, 12)]] = B
_E5[[0, *range(5, 12)]] = E5
_BHH[[0, 8, 11]] = BHH


def integrate_rk54(
    f: Callable[[float, np.ndarray], Sequence],
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
    y = np.array(y0, dtype=complex)
    if span == 0.0:
        return y
    n = len(y)
    t = t0
    h = min(MAX_STEP, span, 0.1)
    h_floor = 1e-13 * max(1.0, span)
    K = np.empty((12, *y.shape), dtype=complex)
    K[0] = f(t, y)
    nfail = 0
    while t < t1:
        h = min(h, t1 - t, MAX_STEP)
        if h < h_floor:
            raise StepUnderflowError(f"step size underflow at t = {t} (h = {h})")
        # einsum sums in a fixed order (no BLAS): repeated runs are identical
        hA = h * _A
        for i in range(1, 12):
            K[i] = f(t + _C[i] * h, y + np.einsum("i,i...->...", hA[i, :i], K[:i]))
        # the 8th- and 3rd-order increments over h and the 5th-order error
        # estimate; both error estimates are scaled by sc and summed over
        # the components (Hairer's arrangement)
        inc, d5, inc3 = np.einsum("wi,i...->w...", _WEIGHTS, K)
        y_new = y + h * inc
        sc = tol + tol * np.maximum(abs(y), abs(y_new))
        acc5 = np.sum((abs(d5) / sc) ** 2, axis=0)
        acc3 = np.sum((abs(inc - inc3) / sc) ** 2, axis=0)
        # the largest member norm; a member whose estimates are both zero counts 0
        denom = acc5 + 0.01 * acc3
        err = float(np.max(h * acc5 / np.sqrt(np.where(denom > 0.0, denom, 1.0) * n)))
        if err <= 1.0:
            t += h
            y = y_new
            K[0] = f(t, y)  # first-same-as-last
            nfail = 0
        else:
            nfail += 1
            if nfail > 60:
                raise StepUnderflowError(f"persistent step rejection at t = {t}")
        factor = 0.9 * err ** -0.125 if err > 0.0 else 10.0
        h *= min(10.0, max(0.2, factor))
    return y
