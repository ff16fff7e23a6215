"""Batch front end: parse a parameter config, run one computation, emit a
machine-readable JSON document (and optionally CSV rows for plotting).

Exit codes: 0 success, 2 config parse error, 3 numerical failure,
4 invariant violation.  Identical configs produce identical output
bytes: all algorithms are deterministic with fixed iteration order.
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
from .flow import integrate, refine_from_series
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


# option -> coercion of its value, given by flag or in the config's
# "options"; every given option is coerced before a command runs, so a
# malformed value is a config error
_OPTIONS = {
    "x": _w2c,
    "x_points": lambda v: [_w2c(z) for z in v],
    "tol": float,
    "seed_radius": float,
    "radius": float,
    "m_from": int,
    "m_to": int,
    "root_tol": float,
    "refine": bool,
    "h_values": lambda v: [float(h) for h in v],
    "steps": int,
    "monodromy_tol": float,
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


def _refined_state(p: Parameters, x: complex, tol: float, seed_radius: float | None):
    seed = seed_radius if seed_radius is not None else max(300.0, 3.0 * abs(x))
    return refine_from_series(p, float(seed), x, tol)


def _cmd_monodromy(p: Parameters, opts: dict) -> dict:
    x = opts.get("x", 40j)
    tol = opts.get("tol", 1e-12)
    refined = _refined_state(p, x, tol, opts.get("seed_radius"))
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
        "diagnostics": {
            k: v for k, v in md_num.diagnostics.items() if isinstance(v, (int, float, bool))
        },
    }


def _cmd_flow(p: Parameters, opts: dict) -> tuple[dict, list]:
    xs = opts.get("x_points", [40j])
    tol = opts.get("tol", 1e-12)
    refined = _refined_state(p, xs[0], tol, opts.get("seed_radius"))
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
    refined = _refined_state(p, xs[0], tol, opts.get("seed_radius"))
    state = refined.state
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
    m_from = opts.get("m_from", 10)
    m_to = opts.get("m_to", 20)
    tol = opts.get("tol", 1e-12)
    root_tol = opts.get("root_tol", 1e-9)
    do_refine = opts.get("refine", True)
    lattice = transcendents.zero_pole_seeds(p, kind, m_from, m_to, warn=False)
    entries = []
    rows = []
    anchor = None
    if do_refine:
        top = 1j * lattice.seeds[-1][1].imag
        anchor = refine_from_series(
            p, max(300.0, 2.0 * abs(top)), top, tol, diagnostics=False
        ).state
    for m, seed in reversed(lattice.seeds):
        rec = {"m": m, "seed": _c2w(seed)}
        row = [m, seed.real, seed.imag]
        if do_refine:
            root = transcendents.refine_root(p, seed, kind, root_tol, state=anchor)
            anchor = integrate(anchor, 1j * root.imag, tol)
            st = integrate(anchor, root, tol)
            yv = transcendents.yzu_from_matrices(st)
            fval = abs(yv.y) if kind is transcendents.LatticeKind.ZERO else (
                0.0 if yv.pole else 1.0 / abs(yv.y)
            )
            err = abs(root - seed)
            rec.update(
                {
                    "refined": _c2w(root),
                    "abs_error": err,
                    "scaled_error": err * m / math.log(m),
                    "residual": fval,
                }
            )
            row += [root.real, root.imag, err, err * m / math.log(m), fval]
        entries.append(rec)
        rows.append(row)
    entries.sort(key=lambda r: r["m"])
    rows.sort(key=lambda r: r[0])
    header = "m,re_seed,im_seed" + (
        ",re_refined,im_refined,abs_error,scaled_error,residual" if do_refine else ""
    )
    return {"kind": kind.value, "rho": _c2w(lattice.rho), "table": entries}, [header, rows]


def _cmd_tau(p: Parameters, opts: dict) -> tuple[dict, list]:
    x = opts.get("x", 40j)
    tol = opts.get("tol", 1e-12)
    hs = opts.get("h_values", [4e-2, 2e-2, 1e-2])
    state = _refined_state(p, x, tol, opts.get("seed_radius")).state
    sweeps = []
    rows = []
    for h in hs:
        r = tau.bilinear_residual(p, x, h, state=state, tol=tol)
        sweeps.append({"h": h, "residual": _c2w(r), "abs_residual": abs(r)})
        rows.append([h, abs(r)])
    return {"x": _c2w(x), "sweep": sweeps}, ["h,abs_residual", rows]


def _cmd_braid(p: Parameters, opts: dict) -> dict:
    steps = opts.get("steps", 2)
    stored = opts.get("monodromy")
    if stored is None:
        md = closedform.closed_form_monodromy(p)
    else:
        md = monodata.MonodromyData.from_pair(*stored, p.thetainf)
    shifted = monodata.braid_shift(md, steps, p.thetainf)
    return {"steps": steps, "input": _monodromy_to_wire(md), "shifted": _monodromy_to_wire(shifted)}


def _cmd_verify(p: Parameters, opts: dict) -> dict:
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
    refined = _refined_state(p, x, tol, opts.get("seed_radius"))
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
    zp = add("zeros", m_from=int, m_to=int, tol=float, root_tol=float)
    zp.add_argument("--no-refine", dest="refine", action="store_false")
    pp = add("poles", m_from=int, m_to=int, tol=float, root_tol=float)
    pp.add_argument("--no-refine", dest="refine", action="store_false")
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
        _postprocess_args(args)
        p = _params_from_config(cfg, args)
        opts = _options(cfg, args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    csv_payload = None
    try:
        if args.command == "monodromy":
            result = _cmd_monodromy(p, opts)
        elif args.command == "flow":
            result, csv_payload = _cmd_flow(p, opts)
        elif args.command == "evaluate":
            result, csv_payload = _cmd_evaluate(p, opts)
        elif args.command == "zeros":
            result, csv_payload = _cmd_lattice(p, opts, transcendents.LatticeKind.ZERO)
        elif args.command == "poles":
            result, csv_payload = _cmd_lattice(p, opts, transcendents.LatticeKind.POLE)
        elif args.command == "tau":
            result, csv_payload = _cmd_tau(p, opts)
        elif args.command == "braid":
            result = _cmd_braid(p, opts)
        elif args.command == "verify":
            result = _cmd_verify(p, opts)
        else:  # pragma: no cover
            raise PvisoValueError(f"unknown command {args.command}")
    except PvisoValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PvisoNumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    doc = {
        "command": args.command,
        "parameters": _params_to_wire(p),
        "result": result,
    }
    payload = json.dumps(doc, indent=2, sort_keys=True)
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
