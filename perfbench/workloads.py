"""Inputs, operations and output checks of the three benchmark workloads.

Every workload is a closed loop with one client: the runner starts the
next operation when the previous one returns.  An operation is a pair
``(compute, check)``.  Only ``compute`` is timed; ``check`` turns its
result into a list of problems (empty when the output is correct) and a
dict of extra figures.  Checks use numpy directly, not pviso helpers, so
they stay independent of the code under test and out of the traced
counts.

Seed 0 reproduces the acceptance parameter sets (P1 for criterion 1,
P8Z/P8P for criterion 8, the criterion-4 draw stream); other seeds
perturb them inside a small box, or draw another stream.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from pviso import cli, closedform, flow, monodata, monodromy, series, tau, transcendents
from pviso.series import Parameters

P1 = Parameters(
    theta0=0.21, thetax=0.16, thetainf=0.11, c0=1.0, cx=0.7 + 0.2j, sigma=0.24 + 0.05j
)
P8Z = Parameters(theta0=0.45, thetax=0.05, thetainf=0.1, c0=1.0, cx=0.05, sigma=0.1)
P8P = Parameters(theta0=0.05, thetax=0.45, thetainf=0.1, c0=1.0, cx=25.0, sigma=0.3)
PARAM_KEYS = ("theta0", "thetax", "thetainf", "c0", "cx", "sigma")

M_FROM, M_TO = 10, 40  # criterion 8's window
ROOT_TOL = 1e-9
# the admissible strip holds 200i and beyond for every draw of the box; at
# 100i it excludes Re sigma near 0.4 with Im sigma near -0.3, where
# series_A_pair rightly raises DomainError
SCAN_RADII = (200.0, 400.0, 800.0)
SCAN_POOL = 4096  # distinct draws cycled by the scan loop; its p99 has 41 draws beyond it

Op = tuple[Callable[[], Any], Callable[[Any], tuple[list[str], dict]]]


@dataclass
class Workload:
    ops: list[Op]  # cycled by the timed loop
    round_size: int  # a timed run completes at least this many operations
    warm_up: Callable[[], None]


def _maxabs(m) -> float:
    return float(np.max(np.abs(m)))


def _perturb(p: Parameters, rng: np.random.RandomState, width: float) -> Parameters:
    """Scale the real and imaginary part of every parameter by 1 + U(-width, width)."""
    fields = {}
    for key in PARAM_KEYS:
        z = complex(getattr(p, key))
        u = rng.uniform(-width, width, size=2)
        fields[key] = complex(z.real * (1.0 + u[0]), z.imag * (1.0 + u[1]))
    return p.replace(**fields)


# ---------------------------------------------------------------------------
# crossval: the criterion-1 pipeline plus `pviso verify`'s identity checks


def _crossval_op(p: Parameters) -> Op:
    def compute():
        state = flow.refine_from_series(p, 400.0, 40j, 1e-12, diagnostics=False).state
        md = monodromy.monodromy(state, 1e-12, R=200.0)
        cf = closedform.closed_form_monodromy(p)
        bil = tau.bilinear_residual(p, 40j, 1e-2, state=state)
        pv = transcendents.pv_residual(p, 40j, 1e-3, state=state)
        return md, cf, bil, pv

    def check(result):
        md, cf, bil, pv = result
        ti = complex(p.thetainf)
        xval = max(_maxabs(md.M0 - cf.M0), _maxabs(md.Mx - cf.Mx))
        prod = md.Mx @ md.M0
        values = {
            # the bounds `pviso verify` applies; criterion 1's 1e-6 is
            # known red and is reported as xval_err instead of gated
            "monodromy_vs_closed_form": (xval, 1e-4),
            "det_M0": (abs(np.linalg.det(md.M0) - 1.0), 1e-10),
            "det_Mx": (abs(np.linalg.det(md.Mx) - 1.0), 1e-10),
            "trace_M0": (abs(np.trace(md.M0) - 2.0 * cmath.cos(math.pi * p.theta0)), 1e-8),
            "trace_Mx": (abs(np.trace(md.Mx) - 2.0 * cmath.cos(math.pi * p.thetax)), 1e-8),
            "product_identity": (_maxabs(md.Minf @ md.Mx @ md.M0 - np.eye(2)), 1e-8),
            "stokes_trace_identity": (
                abs(
                    np.trace(prod)
                    - 2.0 * cmath.cos(math.pi * ti)
                    - cmath.exp(-1j * math.pi * ti) * md.s1 * md.s2
                ),
                1e-8,
            ),
            "pv_residual": (pv, 1e-5),  # criterion 6's bound at h = 1e-3
        }
        # monodromy() raises past its own limit, so an absent figure is no failure
        defect = md.diagnostics.get("consistency_defect")
        if defect is not None:
            values["consistency_defect"] = (float(defect), 1e-6)
        problems = [
            f"{name} = {v:.3e} > {bound:.0e}"
            for name, (v, bound) in values.items()
            if not v <= bound
        ]
        if not cmath.isfinite(bil):
            problems.append(f"bilinear_residual = {bil}")
        return problems, {"xval_err": xval}

    return compute, check


def _crossval(seed: int) -> Workload:
    p = P1 if seed == 0 else _perturb(P1, np.random.RandomState([1, seed]), 0.02)

    def warm_up():
        closedform.closed_form_monodromy(p)
        flow.refine_from_series(p, 400.0, 399j, 1e-12, diagnostics=False)

    return Workload(ops=[_crossval_op(p)], round_size=1, warm_up=warm_up)


# ---------------------------------------------------------------------------
# lattice: `pviso zeros` and `pviso poles` through cli.main, in-process


def _param_flags(p: Parameters) -> list[str]:
    # repr round-trips exactly; "--key=value" keeps a leading minus off argparse's path
    return [f"--{key}={repr(complex(getattr(p, key))).strip('()')}" for key in PARAM_KEYS]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) with stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
    return code, out.getvalue()


def _lattice_op(command: str, p: Parameters) -> Op:
    argv = [command, *_param_flags(p), "--m-from", str(M_FROM), "--m-to", str(M_TO),
            "--root-tol", repr(ROOT_TOL)]

    def compute():
        return _run_cli(argv)

    def check(result):
        code, text = result
        extra = {
            "command": command,
            "output_bytes": len(text.encode()),
            "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
        if code != 0:
            return [f"{command}: exit code {code}"], extra
        table = json.loads(text)["result"]["table"]
        problems = []
        if [row["m"] for row in table] != list(range(M_FROM, M_TO + 1)):
            problems.append(f"{command}: rows for m = {[row['m'] for row in table]}")
        for row in table:
            moved = abs(complex(*row["refined"]) - complex(*row["seed"]))
            if not row["residual"] <= ROOT_TOL:
                problems.append(f"{command} m={row['m']}: residual {row['residual']:.3e}")
            if not moved < 2.0:
                problems.append(f"{command} m={row['m']}: |refined - seed| = {moved:.3f}")
        return problems, extra

    return compute, check


def _lattice(seed: int) -> Workload:
    rng = np.random.RandomState([8, seed])
    pz = P8Z if seed == 0 else _perturb(P8Z, rng, 0.02)
    pp = P8P if seed == 0 else _perturb(P8P, rng, 0.02)

    def warm_up():
        _run_cli(["zeros", *_param_flags(pz), "--m-from", "10", "--m-to", "12", "--no-refine"])
        flow.refine_from_series(pz, 300.0, 299j, 1e-12, diagnostics=False)

    ops = [_lattice_op("zeros", pz), _lattice_op("poles", pp)]
    return Workload(ops=ops, round_size=2, warm_up=warm_up)


# ---------------------------------------------------------------------------
# scan: closed form, series and braid shift over criterion 4's box; no ODE


# criterion 4's box in the order it draws: theta0, thetax, thetainf, then
# real and imaginary parts of c0, cx and sigma
_SCAN_LOW = np.array([0.06, 0.06, 0.06, 0.5, -0.5, 0.5, -0.5, -0.4, -0.3])
_SCAN_HIGH = np.array([0.44, 0.44, 0.44, 1.5, 0.5, 1.5, 0.5, 0.4, 0.3])


def _scan_draws(rng: np.random.RandomState, n: int) -> list[Parameters]:
    # one stream in criterion 4's order, so seed 0 replays its grid
    u = rng.uniform(_SCAN_LOW, _SCAN_HIGH, size=(n, len(_SCAN_LOW)))
    return [
        Parameters(theta0=r[0], thetax=r[1], thetainf=r[2], c0=complex(r[3], r[4]),
                   cx=complex(r[5], r[6]), sigma=complex(r[7], r[8]))
        for r in u.tolist()
    ]


def _scan_op(p: Parameters) -> Op:
    def compute():
        md = closedform.closed_form_monodromy(p)
        pairs = [series.series_A_pair(p, 1j * r) for r in SCAN_RADII]
        shifted = monodata.braid_shift(md, 2, p.thetainf)
        return md, pairs, shifted

    def check(result):
        md, pairs, shifted = result
        problems = []
        diff = md.diagnostics.get("structural_max_diff", math.nan)
        if not diff <= 1e-10:
            problems.append(f"structural_max_diff = {diff}")
        mats = [m for ab in pairs for m in (ab.A0, ab.Ax)] + [shifted.M0, shifted.Mx]
        if not all(np.all(np.isfinite(m)) for m in mats):
            problems.append("non-finite series or braid-shift entries")
        return problems, {}

    return compute, check


def _scan(seed: int) -> Workload:
    rng = np.random.RandomState(7 if seed == 0 else [7, seed])
    ops = [_scan_op(p) for p in _scan_draws(rng, SCAN_POOL)]
    return Workload(ops=ops, round_size=1, warm_up=ops[0][0])


WORKLOADS = {"crossval": _crossval, "lattice": _lattice, "scan": _scan}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
