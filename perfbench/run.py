"""pviso benchmark: one closed-loop client on one compute thread.

    python3 perfbench/run.py --workload {crossval,lattice,scan} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the timed loop runs with no instrumentation: always
one round of the workload's operations (one criterion-1 solve for
crossval, one zeros and one poles command for lattice), then further
operations while they are expected to end within S seconds; it reports
the end-to-end metrics.  With ``--trace 1`` a fixed
amount of work runs twice, untraced and then under the wrappers of
``tracing.py``, and the per-layer metrics are reported.  Every line of
stdout names a figure with its unit; the last line is the JSON result.
A fuller record (environment, extra figures, spans) goes to
``perfbench/out/``.
"""

import os
import time

_T_START = time.perf_counter()
# one compute thread: pin the BLAS pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 8  # extra set-ups in fresh processes; setup_s is the median of 1 + SETUP_PROBES
# p99 of scan's sub-millisecond ops moved by 12-47% between runs on a shared
# 2-vCPU machine (preemption bursts), beyond any bound; p90 moves like p50.
# p99 is still printed, as op_s_p99, when it has ten samples beyond it.
PERCENTILES = (50.0, 90.0)
TRACE_OPS = 512  # a traced run does each op once, the first TRACE_OPS of them
WORKLOAD_NAMES = ("crossval", "lattice", "scan")


def set_up(workload: str, seed: int):
    """Import the package from this checkout, build the inputs, warm up."""
    if not (SRC / "pviso" / "__init__.py").is_file():
        sys.exit(f"benchmark: no pviso sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pviso
    import workloads

    if Path(pviso.__file__).resolve().parent != SRC / "pviso":
        sys.exit(f"benchmark: imported pviso from {pviso.__file__}, not from {SRC}")
    wl = workloads.make(workload, seed)
    wl.warm_up()
    return wl


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, as that process measures it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_ops(ops, min_ops: int, seconds: float):
    """Run ops in order, cycling: at least min_ops, then more while the
    mean operation so far still fits in the seconds left, so a run never
    straddles its window by a whole long operation.  Returns per-op
    times, the number of failed ops, failure messages and check extras."""
    times, failures, extras = [], [], []
    failed = 0
    begin = time.perf_counter()
    i = 0
    while i < min_ops or (time.perf_counter() - begin) * (i + 1) / i < seconds:
        compute, check = ops[i % len(ops)]
        i += 1
        t0 = time.perf_counter()
        try:
            result = compute()
        except Exception as exc:  # a failed operation is counted, not fatal
            times.append(time.perf_counter() - t0)
            problems, extra = [f"{type(exc).__name__}: {exc}"], {}
        else:
            times.append(time.perf_counter() - t0)
            try:
                problems, extra = check(result)
            except Exception as exc:  # output too malformed to check
                problems, extra = [f"check raised {type(exc).__name__}: {exc}"], {}
        failures.extend(f"op {i}: {p}" for p in problems)
        failed += bool(problems)
        extras.append(extra)
    return times, failed, failures, extras


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile of PERCENTILES with at least ten samples beyond
    it (nearest rank); the maximum when no percentile has ten.  Returns
    (value, percentile, samples beyond)."""
    xs = sorted(times)
    n = len(xs)
    for q in reversed(PERCENTILES):
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            return xs[rank - 1], q, n - rank
    return xs[-1], 100.0, 0


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "pviso").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "source_sha256": src_hash.hexdigest(),
    }


def end_to_end(args, wl, setup_main: float):
    times, failed, failures, extras = run_ops(wl.ops, wl.round_size, args.seconds)
    setups = [setup_main] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    tail_s, tail_q, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_samples_s": setups,
        "op_s_tail_at": f"p{tail_q:g}, {beyond} of {len(times)} samples beyond",
        "op_times_s": times if len(times) <= 100 else "omitted (more than 100)",
        "fail_frac": failed / len(times),
    }
    if len(times) >= 1000:
        notes["op_s_p99"] = sorted(times)[math.ceil(0.99 * len(times)) - 1]
    xvals = [e["xval_err"] for e in extras if "xval_err" in e]
    if xvals:
        # criterion 1 asks for <= 1e-6; the seed commit measures ~1.8e-6 (known red)
        notes["xval_err"] = max(xvals)
    fingerprints = [e["output_sha256"] for e in extras[: wl.round_size] if "output_sha256" in e]
    if fingerprints:
        notes["output_sha256"] = hashlib.sha256("".join(fingerprints).encode()).hexdigest()
    return metrics, notes, len(times), failed, failures, None


def traced(wl):
    import tracing

    ops = wl.ops[:TRACE_OPS]
    t0 = time.perf_counter()
    _, failed_a, failures, _ = run_ops(ops, len(ops), 0.0)
    untraced_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        _, failed_b, failures_b, extras = run_ops(ops, len(ops), 0.0)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = (sum(e.get("output_bytes", 0) for e in extras), "bytes")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    notes = {"untraced_s": untraced_s, "traced_s": traced_s, "missing_names": tracer.missing,
             "fail_frac": (failed_a + failed_b) / (2 * len(ops))}
    return metrics, notes, 2 * len(ops), failed_a + failed_b, failures + failures_b, tracer.dump()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    wl = set_up(args.workload, args.seed)
    setup_main = time.perf_counter() - _T_START
    if args.setup_probe:
        print(repr(setup_main))
        return 0

    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    if args.trace:
        metrics, notes, attempted, failed, failures, spans = traced(wl)
    else:
        metrics, notes, attempted, failed, failures, spans = end_to_end(args, wl, setup_main)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in notes.items():
        print(f"{name} = {value}")
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "notes": notes, "failures": failures, **result}
    if spans is not None:
        record["trace"] = spans
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
