"""Batch front end: parse a parameter config, run one computation, emit a
machine-readable JSON document (and optionally CSV rows for plotting).

Exit codes: 0 success, 2 config parse error, 3 numerical failure
(an arithmetic overflow, or a result holding a NaN or infinity, which
strict JSON cannot write, among them), 4 invariant violation.
Identical configs produce identical output bytes: all algorithms are
deterministic with fixed iteration order.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys

import numpy as np

from . import closedform, monodata, monodromy, tau, transcendents
from .errors import PvisoNumericalError, PvisoValueError
from .flow import Seed, seed_state, walk
from .linalg import I2, det2, mat_norm, tr2
from .series import Parameters
from .special import digamma, gamma

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4


# ---------------------------------------------------------------------------
# wire helpers: complex numbers as [re, im]


def _c2w(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _w2c(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, str):
        return complex(v.replace("i", "j").replace(" ", ""))
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ValueError(f"cannot read complex value from {v!r}")


def _m2w(m: np.ndarray) -> list:
    return [[_c2w(m[0, 0]), _c2w(m[0, 1])], [_c2w(m[1, 0]), _c2w(m[1, 1])]]


def _w2m(v) -> np.ndarray:
    return np.array(
        [[_w2c(v[0][0]), _w2c(v[0][1])], [_w2c(v[1][0]), _w2c(v[1][1])]],
        dtype=complex,
    )


def _monodromy_to_wire(md: monodata.MonodromyData) -> dict:
    return {
        "M0": _m2w(md.M0),
        "Mx": _m2w(md.Mx),
        "Minf": _m2w(md.Minf),
        "s1": _c2w(md.s1),
        "s2": _c2w(md.s2),
    }


def _seed_to_wire(seed: Seed) -> dict:
    """How a state was seeded: the series radius, degree and truncation."""
    return {k: getattr(seed, k) for k in ("seed_radius", "degree", "seed_truncation")}


def _diagnostics_to_wire(md: monodata.MonodromyData) -> dict:
    """The plain-number diagnostics of a numeric monodromy."""
    return {k: v for k, v in md.diagnostics.items() if isinstance(v, (int, float, bool))}


_PARAM_KEYS = ("theta0", "thetax", "thetainf", "c0", "cx", "sigma")


def _params_from_config(cfg: dict, flags: dict) -> Parameters:
    raw = dict(cfg.get("parameters", {}))
    raw.update((key, flags[key]) for key in _PARAM_KEYS if key in flags)
    missing = [k for k in _PARAM_KEYS if k not in raw]
    if missing:
        raise PvisoValueError(f"missing parameters: {', '.join(missing)}")
    return Parameters(**{k: _finite(raw[k], f"parameter {k}") for k in _PARAM_KEYS})


def _params_to_wire(p: Parameters) -> dict:
    return {k: _c2w(getattr(p, k)) for k in _PARAM_KEYS}


def _finite(v, name: str) -> complex:
    z = _w2c(v)
    if not cmath.isfinite(z):
        raise PvisoValueError(f"{name} is not finite: {z}")
    return z


def _reject(v, what: str):
    raise PvisoValueError(f"expected {what}, not {v!r}")


def _positive(v) -> float:
    f = float(v)
    ok = not isinstance(v, bool) and math.isfinite(f) and f > 0.0
    return f if ok else _reject(v, "a finite number > 0")


def _integer(v) -> int:
    fraction = isinstance(v, float) and not v.is_integer()
    return _reject(v, "an integer") if isinstance(v, bool) or fraction else int(v)


def _list(each):
    """The coercion of a list option: a JSON list, or text split at ";",
    with ``each`` coercing every entry; an empty list is rejected."""

    def coerce(v):
        items = [each(e) for e in (v.split(";") if isinstance(v, str) else v)]
        return items or _reject(v, "a non-empty list")

    return coerce


# option -> (coercion, default).  A value given by flag or in the config's
# "options" goes through the same coercion before a command runs, so a
# malformed value is a config error; an option not given takes its default
_OPTIONS = {
    "x": (lambda v: _finite(v, "option x"), 40j),
    "x_points": (_list(lambda z: _finite(z, "option x_points")), [40j]),
    "tol": (_positive, 1e-12),
    "radius": (_positive, None),
    "m_from": (_integer, 10),
    "m_to": (_integer, 20),
    "root_tol": (_positive, 1e-9),
    "refine": (lambda v: v if isinstance(v, bool) else _reject(v, "true or false"), True),
    "h_values": (_list(_positive), [4e-2, 2e-2, 1e-2]),
    "steps": (_integer, 2),
    "monodromy_tol": (_positive, 1e-4),
    "monodromy": (lambda v: (_w2m(v["M0"]), _w2m(v["Mx"])), None),
}


def _options(cfg: dict, flags: dict) -> dict:
    given = dict(cfg.get("options", {}))
    given.update((name, flags[name]) for name in _OPTIONS if name in flags)
    return {
        name: conv(given[name]) if name in given else default
        for name, (conv, default) in _OPTIONS.items()
    }


# ---------------------------------------------------------------------------
# commands


def _cmd_monodromy(p: Parameters, opts: dict) -> tuple[dict, None]:
    seed = seed_state(p, opts["x"], opts["tol"])
    md_num = monodromy.monodromy(seed.state, opts["tol"], R=opts["radius"])
    md_cf = closedform.closed_form_monodromy(p)
    diff = max(
        mat_norm(md_num.M0 - md_cf.M0),
        mat_norm(md_num.Mx - md_cf.Mx),
        abs(md_num.s1 - md_cf.s1),
        abs(md_num.s2 - md_cf.s2),
    )
    return {
        "numeric": _monodromy_to_wire(md_num),
        "closed_form": _monodromy_to_wire(md_cf),
        "max_entry_diff": diff,
        "seed": _seed_to_wire(seed),
        "diagnostics": _diagnostics_to_wire(md_num),
    }, None


def _cmd_flow(p: Parameters, opts: dict) -> tuple[dict, list]:
    xs = opts["x_points"]
    seed = seed_state(p, xs[0], opts["tol"])
    samples = []
    rows = []
    for x, state in zip(xs, walk(seed.state, xs, opts["tol"])):
        samples.append(
            {
                "x": _c2w(x),
                "A0": _m2w(state.A0),
                "Ax": _m2w(state.Ax),
                "det_A0": _c2w(det2(state.A0)),
                "det_Ax": _c2w(det2(state.Ax)),
            }
        )
        rows.append([x.real, x.imag, *(_flatten(state.A0) + _flatten(state.Ax))])
    header = "re_x,im_x," + ",".join(
        f"{m}_{i}{j}_{part}"
        for m in ("A0", "Ax")
        for i in (1, 2)
        for j in (1, 2)
        for part in ("re", "im")
    )
    return {"samples": samples, "seed": _seed_to_wire(seed)}, [header, rows]


def _flatten(m: np.ndarray) -> list[float]:
    return [part for row in _m2w(m) for z in row for part in z]


def _cmd_evaluate(p: Parameters, opts: dict) -> tuple[dict, list]:
    xs = opts["x_points"]
    seed = seed_state(p, xs[0], opts["tol"])
    out = []
    rows = []
    for x, state in zip(xs, walk(seed.state, xs, opts["tol"])):
        pt = transcendents.yzu_from_matrices(state)
        h = tau.dlog_tau(state)
        out.append(
            {
                "x": _c2w(x),
                "y": _c2w(pt.y) if not pt.pole else None,
                "z": _c2w(pt.z),
                # u is infinite where A0_11 + theta0/2 vanishes, written as null
                "u": None if cmath.isinf(pt.u) else _c2w(pt.u),
                "dlogtau": _c2w(h),
                "pole": pt.pole,
            }
        )
        rows.append(
            [x.real, x.imag]
            + (_c2w(pt.y) if not pt.pole else [math.nan, math.nan])
            + _c2w(pt.z)
            + _c2w(h)
        )
    header = "re_x,im_x,re_y,im_y,re_z,im_z,re_dlogtau,im_dlogtau"
    return {"points": out, "seed": _seed_to_wire(seed)}, [header, rows]


def _cmd_lattice(p: Parameters, opts: dict, kind: transcendents.LatticeKind):
    m_range = opts["m_from"], opts["m_to"]
    refine = opts["refine"]
    if refine:
        lattice = transcendents.refine_lattice(
            p, kind, *m_range, root_tol=opts["root_tol"], flow_tol=opts["tol"]
        )
    else:
        lattice = transcendents.zero_pole_seeds(p, kind, *m_range)
    entries, rows = [], []
    for i, (m, seed) in enumerate(lattice.seeds):
        rec = {"m": m, "seed": _c2w(seed)}
        row = [m, seed.real, seed.imag]
        if refine:
            st = lattice.roots[i]
            err = abs(st.x - seed)
            # m / log m is undefined at m = 1
            scaled = err * m / math.log(m) if m > 1 else None
            fval, root_error = transcendents.root_check(st, kind)
            rec.update(
                refined=_c2w(st.x),
                abs_error=err,
                scaled_error=scaled,
                residual=fval,
                root_error=root_error,
                source=lattice.sources[i],
                seed_truncation=lattice.seed_truncations[i],
            )
            csv_scaled = math.nan if scaled is None else scaled
            row += [st.x.real, st.x.imag, err, csv_scaled, fval, root_error]
        entries.append(rec)
        rows.append(row)
    header = "m,re_seed,im_seed" + (
        ",re_refined,im_refined,abs_error,scaled_error,residual,root_error" if refine else ""
    )
    smallness = {
        "score": lattice.score,
        "strip_level": lattice.strip_level,
        "pass": lattice.smallness_pass,
    }
    result = {"kind": kind.value, "rho": _c2w(lattice.rho), "smallness": smallness, "table": entries}
    if refine and lattice.anchor is not None:
        result["anchor"] = _seed_to_wire(lattice.anchor)
    return result, [header, rows]


def _cmd_tau(p: Parameters, opts: dict) -> tuple[dict, list]:
    x, tol = opts["x"], opts["tol"]
    seed = seed_state(p, x, tol)
    sweeps = []
    rows = []
    for h in opts["h_values"]:
        r = tau.bilinear_residual(p, x, h, state=seed.state, tol=tol)
        sweeps.append({"h": h, "residual": _c2w(r), "abs_residual": float(abs(r))})
        rows.append([h, float(abs(r))])
    return {"x": _c2w(x), "sweep": sweeps, "seed": _seed_to_wire(seed)}, ["h,abs_residual", rows]


def _cmd_braid(p: Parameters, opts: dict) -> tuple[dict, None]:
    steps = opts["steps"]
    stored = opts["monodromy"]
    if stored is None:
        md = closedform.closed_form_monodromy(p)
    else:
        md = monodata.MonodromyData.from_pair(*stored, p.thetainf)
    shifted = monodata.braid_shift(md, steps, p.thetainf)
    return {"steps": steps, "input": _monodromy_to_wire(md), "shifted": _monodromy_to_wire(shifted)}, None


def _cmd_verify(p: Parameters, opts: dict) -> tuple[dict, None]:
    tol = opts["tol"]
    checks = []

    def check(name: str, value: float, bound: float):
        checks.append(
            {"name": name, "value": value, "bound": bound, "pass": bool(value <= bound)}
        )

    # special functions
    worst = 0.0
    for z in (0.3 + 0.4j, -1.3 + 0.2j, 2.5 - 3.0j, 4.4 + 0.1j):
        worst = max(worst, abs(gamma(z) * gamma(1 - z) * cmath.sin(math.pi * z) / math.pi - 1.0))
    check("gamma_reflection", worst, 1e-10)
    check("digamma_value", abs(digamma(2.0) - (1.0 - 0.5772156649015329)), 1e-10)

    # series / flow consistency
    seed = seed_state(p, opts["x"], tol)
    state = seed.state
    check("seed_truncation", seed.seed_truncation, 1e-5)
    b_defect = abs(state.A0[0, 0] + state.Ax[0, 0] + p.thetainf / 2.0)
    check("diagonal_normalization", b_defect, 1e-10)
    check(
        "det_A0_invariant",
        abs(det2(state.A0) + p.theta0**2 / 4.0),
        1e-5,
    )

    # monodromy: numeric vs closed form and structural identities
    md = monodromy.monodromy(state, tol)
    md_cf = closedform.closed_form_monodromy(p)
    check(
        "monodromy_vs_closed_form",
        max(mat_norm(md.M0 - md_cf.M0), mat_norm(md.Mx - md_cf.Mx)),
        opts["monodromy_tol"],
    )
    for name, m, theta in (("M0", md.M0, p.theta0), ("Mx", md.Mx, p.thetax)):
        check(f"det_{name}", abs(det2(m) - 1.0), 1e-10)
        check(f"trace_{name}", abs(tr2(m) - 2.0 * cmath.cos(math.pi * theta)), 1e-8)
    check("product_identity", mat_norm(md.Minf @ md.Mx @ md.M0 - I2), 1e-8)
    prod = md.Mx @ md.M0
    check(
        "stokes_trace_identity",
        abs(
            tr2(prod)
            - 2.0 * cmath.cos(math.pi * p.thetainf)
            - cmath.exp(-1j * math.pi * p.thetainf) * md.s1 * md.s2
        ),
        1e-8,
    )

    # tau double form consistency is enforced inside dlog_tau
    tau.dlog_tau(state)

    return {
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
        "monodromy": _monodromy_to_wire(md),
        "monodromy_diagnostics": _diagnostics_to_wire(md),
        "seed": _seed_to_wire(seed),
    }, None


_COMMANDS = {
    "monodromy": _cmd_monodromy,
    "flow": _cmd_flow,
    "evaluate": _cmd_evaluate,
    "zeros": lambda p, opts: _cmd_lattice(p, opts, transcendents.LatticeKind.ZERO),
    "poles": lambda p, opts: _cmd_lattice(p, opts, transcendents.LatticeKind.POLE),
    "tau": _cmd_tau,
    "braid": _cmd_braid,
    "verify": _cmd_verify,
}

# command -> the options it takes as flags (--m-from for m_from); a flag's
# text goes through the option's coercion, as a config value does
_FLAGS = {
    "monodromy": ("x", "tol", "radius"),
    "flow": ("tol", "x_points"),
    "evaluate": ("tol", "x_points"),
    "zeros": ("m_from", "m_to", "tol", "root_tol"),
    "poles": ("m_from", "m_to", "tol", "root_tol"),
    "tau": ("x", "tol", "h_values"),
    "braid": ("steps",),
    "verify": ("x", "tol", "monodromy_tol"),
}


# ---------------------------------------------------------------------------
# entry point


# built once per process: its eight subparsers take about 20 parses' time
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="write the JSON result here instead of stdout")
    common.add_argument("--csv", help="write plot-ready CSV rows here")
    for key in _PARAM_KEYS:
        common.add_argument(
            f"--{key}", help=f"override parameter {key} (complex, e.g. 0.24+0.05i)"
        )
    ap = argparse.ArgumentParser(
        prog="pviso",
        description="Isomonodromic matrix families near i*infinity for Painleve V: "
        "series seeds, flows, monodromy data, transcendents, tau checks.",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, options in _FLAGS.items():
        sp = sub.add_parser(name, parents=[common], argument_default=argparse.SUPPRESS)
        for option in options:
            sp.add_argument(f"--{option.replace('_', '-')}", dest=option)
        if name in ("zeros", "poles"):
            sp.add_argument("--no-refine", dest="refine", action="store_false")
    return ap


def main(argv: list[str] | None = None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    command = flags["command"]
    try:
        cfg = {}
        if flags.get("config"):
            with open(flags["config"], "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
            if not isinstance(cfg, dict):
                raise PvisoValueError(
                    f"config must be a JSON object, not {type(cfg).__name__}"
                )
        p = _params_from_config(cfg, flags)
        opts = _options(cfg, flags)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        # a float overflow or an invalid operation in numpy raises
        # FloatingPointError (an ArithmeticError) instead of warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result, csv_payload = _COMMANDS[command](p, opts)
    except PvisoValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PvisoNumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    doc = {
        "command": command,
        "parameters": _params_to_wire(p),
        "result": result,
    }
    try:
        # a NaN or infinity has no strict-JSON token: nothing is written
        payload = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if flags.get("out"):
        with open(flags["out"], "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if flags.get("csv") and csv_payload is not None:
        header, rows = csv_payload
        with open(flags["csv"], "w", encoding="utf-8") as fh:
            fh.write("# " + header + "\n")
            for row in rows:
                fh.write(",".join(repr(v) for v in row) + "\n")

    if command == "verify" and not result["all_pass"]:
        return EXIT_INVARIANT
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
