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
import json
import math
import sys

import numpy as np

from . import closedform, monodata, monodromy, tau, transcendents
from .errors import PvisoNumericalError, PvisoValueError
from .flow import integrate, refine_at
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


def _diagnostics_to_wire(md: monodata.MonodromyData) -> dict:
    """The plain-number diagnostics of a numeric monodromy."""
    return {k: v for k, v in md.diagnostics.items() if isinstance(v, (int, float, bool))}


_PARAM_KEYS = ("theta0", "thetax", "thetainf", "c0", "cx", "sigma")


def _params_from_config(cfg: dict, args) -> Parameters:
    raw = dict(cfg.get("parameters", {}))
    for key in _PARAM_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            raw[key] = flag
    missing = [k for k in _PARAM_KEYS if k not in raw]
    if missing:
        raise PvisoValueError(f"missing parameters: {', '.join(missing)}")
    values = {k: _w2c(raw[k]) for k in _PARAM_KEYS}
    for k, v in values.items():
        if not cmath.isfinite(v):
            raise PvisoValueError(f"parameter {k} is not finite: {v}")
    return Parameters(**values)


def _params_to_wire(p: Parameters) -> dict:
    return {k: _c2w(getattr(p, k)) for k in _PARAM_KEYS}


def _reject(v, what: str):
    raise PvisoValueError(f"expected {what}, not {v!r}")


def _positive(v) -> float:
    f = float(v)
    return f if math.isfinite(f) and f > 0.0 else _reject(v, "a finite number > 0")


# option -> coercion of its value, given by flag or in the config's
# "options"; every given option is coerced before a command runs, so a
# malformed value is a config error
_OPTIONS = {
    "x": _w2c,
    "x_points": lambda v: [_w2c(z) for z in v] or _reject(v, "a non-empty list"),
    "tol": _positive,
    "seed_radius": _positive,
    "radius": _positive,
    "m_from": int,
    "m_to": int,
    "root_tol": _positive,
    "refine": lambda v: v if isinstance(v, bool) else _reject(v, "true or false"),
    "h_values": lambda v: [_positive(h) for h in v],
    "steps": int,
    "monodromy_tol": _positive,
    "monodromy": lambda v: (_w2m(v["M0"]), _w2m(v["Mx"])),
}


def _options(cfg: dict, args) -> dict:
    given = dict(cfg.get("options", {}))
    for name in _OPTIONS:
        flag = getattr(args, name, None)
        if flag is not None:
            given[name] = flag
    return {name: conv(given[name]) for name, conv in _OPTIONS.items() if name in given}


# ---------------------------------------------------------------------------
# commands


def _cmd_monodromy(p: Parameters, opts: dict) -> tuple[dict, None]:
    x = opts.get("x", 40j)
    tol = opts.get("tol", 1e-12)
    refined = refine_at(p, x, tol, seed_radius=opts.get("seed_radius"), diagnostics=True)
    md_num = monodromy.monodromy(refined.state, tol, R=opts.get("radius"))
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
        "seed_doubling_diagnostic": refined.diagnostic,
        "diagnostics": _diagnostics_to_wire(md_num),
    }, None


def _cmd_flow(p: Parameters, opts: dict) -> tuple[dict, list]:
    xs = opts.get("x_points", [40j])
    tol = opts.get("tol", 1e-12)
    refined = refine_at(p, xs[0], tol, seed_radius=opts.get("seed_radius"), diagnostics=True)
    state = refined.state
    samples = []
    rows = []
    for x in xs:
        state = integrate(state, x, tol) if state.x != x else state
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
    return {"samples": samples, "seed_doubling_diagnostic": refined.diagnostic}, [header, rows]


def _flatten(m: np.ndarray) -> list[float]:
    out = []
    for i in range(2):
        for j in range(2):
            out.extend(_c2w(m[i, j]))
    return out


def _cmd_evaluate(p: Parameters, opts: dict) -> tuple[dict, list]:
    xs = opts.get("x_points", [40j])
    tol = opts.get("tol", 1e-12)
    state = refine_at(p, xs[0], tol, seed_radius=opts.get("seed_radius")).state
    out = []
    rows = []
    for x in xs:
        state = integrate(state, x, tol) if state.x != x else state
        pt = transcendents.yzu_from_matrices(state)
        h = tau.dlog_tau(state)
        out.append(
            {
                "x": _c2w(x),
                "y": _c2w(pt.y) if not pt.pole else None,
                "z": _c2w(pt.z),
                "u": _c2w(pt.u),
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
    return {"points": out}, [header, rows]


def _cmd_lattice(p: Parameters, opts: dict, kind: transcendents.LatticeKind):
    m_range = opts.get("m_from", 10), opts.get("m_to", 20)
    refine = opts.get("refine", True)
    if refine:
        lattice = transcendents.refine_lattice(
            p, kind, *m_range, root_tol=opts.get("root_tol", 1e-9), flow_tol=opts.get("tol", 1e-12)
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
            scaled = err * m / math.log(m)
            fval, root_error = transcendents.root_check(st, kind)
            rec.update(
                refined=_c2w(st.x),
                abs_error=err,
                scaled_error=scaled,
                residual=fval,
                root_error=root_error,
            )
            row += [st.x.real, st.x.imag, err, scaled, fval, root_error]
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
    if refine:
        anchor = lattice.anchor
        result["anchor"] = {
            "seed_radius": anchor.seed_radius,
            "degree": anchor.degree,
            "seed_truncation": anchor.seed_truncation,
        }
    return result, [header, rows]


def _cmd_tau(p: Parameters, opts: dict) -> tuple[dict, list]:
    x = opts.get("x", 40j)
    tol = opts.get("tol", 1e-12)
    hs = opts.get("h_values", [4e-2, 2e-2, 1e-2])
    state = refine_at(p, x, tol, seed_radius=opts.get("seed_radius")).state
    sweeps = []
    rows = []
    for h in hs:
        r = tau.bilinear_residual(p, x, h, state=state, tol=tol)
        sweeps.append({"h": h, "residual": _c2w(r), "abs_residual": abs(r)})
        rows.append([h, abs(r)])
    return {"x": _c2w(x), "sweep": sweeps}, ["h,abs_residual", rows]


def _cmd_braid(p: Parameters, opts: dict) -> tuple[dict, None]:
    steps = opts.get("steps", 2)
    stored = opts.get("monodromy")
    if stored is None:
        md = closedform.closed_form_monodromy(p)
    else:
        md = monodata.MonodromyData.from_pair(*stored, p.thetainf)
    shifted = monodata.braid_shift(md, steps, p.thetainf)
    return {"steps": steps, "input": _monodromy_to_wire(md), "shifted": _monodromy_to_wire(shifted)}, None


def _cmd_verify(p: Parameters, opts: dict) -> tuple[dict, None]:
    tol = opts.get("tol", 1e-12)
    x = opts.get("x", 40j)
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
    refined = refine_at(p, x, tol, seed_radius=opts.get("seed_radius"), diagnostics=True)
    state = refined.state
    check("seed_doubling_diagnostic", refined.diagnostic, 1e-5)
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
        opts.get("monodromy_tol", 1e-4),
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


# ---------------------------------------------------------------------------
# entry point


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

    def add(name: str, **flags):
        sp = sub.add_parser(name, parents=[common], argument_default=argparse.SUPPRESS)
        for fname, ftype in flags.items():
            sp.add_argument(f"--{fname.replace('_', '-')}", dest=fname, type=ftype)
        return sp

    add("monodromy", x=str, tol=float, seed_radius=float, radius=float)
    add("flow", tol=float, seed_radius=float, x_points=str)
    add("evaluate", tol=float, seed_radius=float, x_points=str)
    for name in ("zeros", "poles"):
        sp = add(name, m_from=int, m_to=int, tol=float, root_tol=float)
        sp.add_argument("--no-refine", dest="refine", action="store_false")
    add("tau", x=str, tol=float, seed_radius=float, h_values=str)
    add("braid", steps=int)
    add("verify", x=str, tol=float, seed_radius=float, monodromy_tol=float)
    return ap


def _postprocess_args(args) -> None:
    # list options arrive as ";"-separated strings
    for name in ("x_points", "h_values"):
        if getattr(args, name, None) is not None:
            setattr(args, name, getattr(args, name).split(";"))


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    for name in ("config", "out", "csv", "x", "x_points", "h_values"):
        if not hasattr(args, name):
            setattr(args, name, None)
    try:
        cfg = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
            if not isinstance(cfg, dict):
                raise PvisoValueError(
                    f"config must be a JSON object, not {type(cfg).__name__}"
                )
        _postprocess_args(args)
        p = _params_from_config(cfg, args)
        opts = _options(cfg, args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result, csv_payload = _COMMANDS[args.command](p, opts)
    except PvisoValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PvisoNumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    doc = {
        "command": args.command,
        "parameters": _params_to_wire(p),
        "result": result,
    }
    try:
        # a NaN or infinity has no strict-JSON token: nothing is written
        payload = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if args.csv and csv_payload is not None:
        header, rows = csv_payload
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("# " + header + "\n")
            for row in rows:
                fh.write(",".join(repr(v) for v in row) + "\n")

    if args.command == "verify" and not result["all_pass"]:
        return EXIT_INVARIANT
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
