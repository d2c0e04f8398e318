"""Benchmark for locnorms: one closed-loop caller per workload, in process.

Run from the repository root, against the package in ./src:

    python3 perfbench/run.py --workload scan-small --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and BENCHMARK.json): scan-small, scan-large,
verify, darwinism-table. Each draws its inputs from --seed only.

--trace 0 times distinct operations back to back for --seconds and
reports the end-to-end metrics, with operation times in units of a fixed
reference computation timed after each operation (see run_untraced).
Set-up (a fresh interpreter importing the package and preparing the
inputs) is timed five times in child processes and the median reported.

--trace 1 runs the workload's fixed prefix of operations, each untraced and
then traced, repeating the prefix until --seconds have passed (at least
twice). It reports the per-layer metrics: times are medians over the
repeats, counts must be equal in every repeat. Every traced operation must
reproduce its untraced output byte for byte; for the scans that means the
replay of hiding_ratio gives the same value bits and the same winning
restart index. Spans are written to perfbench/out/ at the end.

Both modes print the machine record and the sha256 of the prefix's primary
output (computed twice in the run, and required to agree); the last stdout
line is the result object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
# Operations on each side whose reference times scale an operation's time.
REFERENCE_WINDOW = 5
REFERENCE_MATRIX = np.diag(np.arange(1.0, 5.0)) + 0.5j * (np.eye(4, k=1) - np.eye(4, k=-1))
WORKLOAD_NAMES = ("scan-small", "scan-large", "verify", "darwinism-table")

# (name, unit); reported with --trace 0
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_ref", "1/ref"),
    ("latency_p50_ref", "ref"),
    ("latency_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
)

# (name, unit, exact); reported with --trace 1. Per-pass values: exact ones
# must repeat in every pass of the prefix, the others are pass medians.
PER_LAYER = (
    ("states.generate_s", "s", False),
    ("states.generate_calls", "count", True),
    ("linalg.trace_norm_s", "s", False),
    ("linalg.trace_norm_calls", "count", True),
    ("norms.starts_s", "s", False),
    ("norms.seesaw_s", "s", False),
    ("norms.seesaw_runs", "count", True),
    ("norms.half_steps", "count", True),
    ("norms.us_per_half_step", "us", False),
    ("norms.iters_p50", "count", True),
    ("norms.iters_p99", "count", True),
    ("norms.iters_max", "count", True),
    ("norms.cap_hits", "count", True),
    ("norms.agreement_mean", "ratio", True),
    ("norms.winner_index_max", "count", True),
    ("norms.certified_fraction_mean", "ratio", True),
    ("verify.escalations", "count", True),
    ("verify.escalation_s", "s", False),
    ("verify.main_bound_scan_s", "s", False),
    ("verify.game_bound_scan_s", "s", False),
    ("verify.field_ratio_scan_s", "s", False),
    ("verify.run_verification_s", "s", False),
    ("darwinism.sweep_s", "s", False),
    ("darwinism.diamond_s", "s", False),
    ("cli.main_s", "s", False),
    ("cli.self_s", "s", False),
    ("cli.output_bytes", "bytes", True),
    ("trace.overhead_ratio", "ratio", False),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import locnorms from ./src of this checkout, and nothing else."""
    init = ROOT / "src" / "locnorms" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from a locnorms checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import locnorms

    if Path(locnorms.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported locnorms from {locnorms.__file__}, not from this checkout")


def machine_record() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    config = blas.get("openblas configuration", "")
    max_threads = next((int(t.split("=")[1]) for t in config.split() if t.startswith("MAX_THREADS=")), None)
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    cores = os.cpu_count()
    default_threads = None
    if env:
        default_threads = int(next(iter(env.values())))
    elif max_threads is not None and cores is not None:
        default_threads = min(cores, max_threads)
    return {
        "cpu_count": cores,
        "affinity_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "config": config},
        "lapack": {"name": deps.get("lapack", {}).get("name"), "version": deps.get("lapack", {}).get("version")},
        "blas_threads_env": env,
        "blas_default_threads": default_threads,
    }


def setup_seconds(args) -> float:
    """Median wall time of fresh interpreters importing the package and
    preparing the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        start = perf_counter()
        # wait() without a timeout blocks in waitpid; with one it polls in
        # steps of up to 50 ms, which would quantise the figure
        code = subprocess.Popen(cmd, stdout=subprocess.DEVNULL).wait()
        times.append(perf_counter() - start)
        if code != 0:
            raise SystemExit(f"error: set-up probe exited {code}")
    return statistics.median(times)


def nearest_rank(values, q: float):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Outcome:
    """Attempts, failures and the first few error messages of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def count(self, k, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {k}: {'; '.join(errors)}")

    def note(self, error: str):
        self.errors.append(error)


def attempt(fn, *args):
    """fn(*args) as (result, errors); an exception is a failed operation."""
    try:
        return fn(*args), []
    except Exception as exc:  # a failing operation is counted, not fatal
        return None, [f"{type(exc).__name__}: {exc}"]


def timed_op(wl, inp, call):
    """Time call(inp) alone, then check it: (seconds, row, errors)."""
    start = perf_counter()
    raw, errors = attempt(call, inp)
    elapsed = perf_counter() - start
    if errors:
        return elapsed, b"", errors
    checked, errors = attempt(wl.check, inp, raw)
    if errors:
        return elapsed, b"", errors
    return (elapsed, *checked)


def prefix_digest(wl, outcome: Outcome, rows=()) -> str:
    """sha256 of the prefix's rows; rows already produced are reused and
    the rest are computed untimed."""
    digest = hashlib.sha256()
    for k in range(wl.prefix):
        if k < len(rows):
            row = rows[k]
        else:
            _, row, errors = timed_op(wl, wl.prepare(k), wl.call)
            if errors:
                outcome.note(f"prefix op {k}: {'; '.join(errors)}")
        digest.update(row)
    return digest.hexdigest()


def reference_kernel() -> float:
    """Fixed work that does not touch locnorms: interpreter arithmetic and
    small eigensolves, the two kinds of work the workloads spend time on."""
    acc = 0
    for i in range(50000):
        acc = (acc * 31 + i) % 1000003
    for _ in range(32):
        acc += float(np.linalg.eigh(REFERENCE_MATRIX)[0][0])
    return acc


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def run_untraced(wl, seconds: float, outcome: Outcome):
    """Distinct operations back to back for `seconds`, each followed by one
    timed reference_kernel call.

    Timings are reported in units of the reference: an operation's time is
    divided by the median reference time of the operations around it. The
    speed of this class of shared machine drifts by up to 1.7x over minutes,
    and the reference drifts with it, so the quotient is what stays
    comparable from run to run; the raw figures are printed as well."""
    timed_op(wl, wl.prepare(0), wl.call)  # warm-up: first-call costs of numpy and LAPACK
    reference_kernel()
    latencies = []
    references = []
    rows = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        k = len(latencies)
        elapsed, row, errors = timed_op(wl, wl.prepare(k), wl.call)
        latencies.append(elapsed)
        start = perf_counter()
        reference_kernel()
        references.append(perf_counter() - start)
        outcome.count(k, errors)
        if k < wl.prefix:
            rows.append(row)
    first = prefix_digest(wl, outcome, rows)
    second = prefix_digest(wl, outcome)
    if first != second:
        outcome.note(f"output digest differs between two invocations: {first} vs {second}")

    n = len(latencies)
    scaled = [
        t / statistics.median(references[max(0, k - REFERENCE_WINDOW) : k + REFERENCE_WINDOW + 1])
        for k, t in enumerate(latencies)
    ]
    scaled_p90 = p90(scaled)
    print(
        f"raw ops={n} ops_per_s={n / sum(latencies)!r} latency_p50_ms={statistics.median(latencies) * 1e3!r} "
        f"latency_p90_ms={p90(latencies) * 1e3!r} reference_ms={statistics.median(references) * 1e3!r} "
        f"beyond_p90={sum(t > scaled_p90 for t in scaled)}"
    )
    return first, {
        "ops_per_ref": n / sum(scaled),
        "latency_p50_ref": statistics.median(scaled),
        "latency_p90_ref": scaled_p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_values(tracer, untraced_s: float, traced_s: float) -> dict:
    iters = tracer.iterations
    seesaw_s = tracer.self_s("norms.seesaw_run")
    return {
        "states.generate_s": tracer.total_s("states.generate"),
        "states.generate_calls": tracer.calls("states.generate"),
        "linalg.trace_norm_s": tracer.total_s("linalg.trace_norm"),
        "linalg.trace_norm_calls": tracer.calls("linalg.trace_norm"),
        "norms.starts_s": tracer.total_s("norms.initial_contractions"),
        "norms.seesaw_s": seesaw_s,
        "norms.seesaw_runs": tracer.calls("norms.seesaw_run"),
        "norms.half_steps": tracer.half_steps,
        "norms.us_per_half_step": seesaw_s / tracer.half_steps * 1e6 if tracer.half_steps else 0.0,
        "norms.iters_p50": nearest_rank(iters, 0.50) if iters else 0,
        "norms.iters_p99": nearest_rank(iters, 0.99) if iters else 0,
        "norms.iters_max": max(iters, default=0),
        "norms.cap_hits": tracer.cap_hits,
        "norms.agreement_mean": statistics.fmean(tracer.agreement) if tracer.agreement else 0.0,
        "norms.winner_index_max": tracer.winner_index_max,
        "norms.certified_fraction_mean": statistics.fmean(tracer.certified) if tracer.certified else 0.0,
        "verify.escalations": tracer.calls("verify.escalation"),
        "verify.escalation_s": tracer.total_s("verify.escalation"),
        "verify.main_bound_scan_s": tracer.total_s("verify.main_bound_scan"),
        "verify.game_bound_scan_s": tracer.total_s("verify.game_bound_scan"),
        "verify.field_ratio_scan_s": tracer.total_s("verify.field_ratio_scan"),
        "verify.run_verification_s": tracer.total_s("verify.run_verification"),
        "darwinism.sweep_s": tracer.total_s("darwinism.sweep"),
        "darwinism.diamond_s": tracer.total_s("darwinism.diamond"),
        "cli.main_s": tracer.total_s("cli.main"),
        "cli.self_s": tracer.self_s("cli.main"),
        "cli.output_bytes": tracer.output_bytes,
        "trace.overhead_ratio": traced_s / untraced_s,
    }


def run_traced(wl, seconds: float, outcome: Outcome, spans_path: Path):
    from tracing import Tracer

    timed_op(wl, wl.prepare(0), wl.call)  # warm-up, as in the untraced run
    passes = []
    digests = []
    deadline = perf_counter() + seconds
    while len(passes) < 2 or perf_counter() < deadline:
        tracer = Tracer()
        traced_call = functools.partial(wl.traced_call, tracer=tracer)
        untraced_s = traced_s = 0.0
        digest = hashlib.sha256()
        for k in range(wl.prefix):
            inp = wl.prepare(k)
            tracer.op = f"{len(passes)}:{k}"
            elapsed, row, errors = timed_op(wl, inp, wl.call)
            untraced_s += elapsed
            elapsed, traced_row, traced_errors = timed_op(wl, inp, traced_call)
            traced_s += elapsed
            errors += traced_errors
            if not errors and traced_row != row:
                errors.append("traced run differs from the untraced run")
            outcome.count(k, errors)
            digest.update(row)
        passes.append((tracer, layer_values(tracer, untraced_s, traced_s)))
        digests.append(digest.hexdigest())
    if len(set(digests)) != 1:
        outcome.note(f"output digest differs between passes: {sorted(set(digests))}")

    metrics = {}
    for name, unit, exact in PER_LAYER:
        per_pass = [values[name] for _, values in passes]
        if exact and len(set(per_pass)) != 1:
            outcome.note(f"{name} differs between passes: {per_pass}")
        metrics[name] = {"value": per_pass[0] if exact else statistics.median(per_pass), "unit": unit}
    metrics["failed_ratio"] = {"value": outcome.failed / outcome.attempted, "unit": "ratio"}

    with open(spans_path, "w") as fh:
        for tracer, _ in passes:
            for span_id, op, name, parent, start, stop in tracer.spans:
                fh.write(json.dumps({"id": span_id, "op": op, "name": name, "parent": parent, "start": start, "end": stop}) + "\n")
    print(f"spans {spans_path.relative_to(ROOT)} passes={len(passes)}")
    return digests[0], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, args.seed, OUT_DIR, args.tiny)
    if args.setup_probe:
        for k in range(wl.prefix):
            wl.prepare(k)
        return 0

    print("machine " + json.dumps(machine_record(), sort_keys=True))
    outcome = Outcome()
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        digest, metrics = run_traced(wl, args.seconds, outcome, spans_path)
    else:
        setup_s = setup_seconds(args)
        digest, values = run_untraced(wl, args.seconds, outcome)
        values["setup_s"] = setup_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(f"digest workload={args.workload} seed={args.seed} prefix_ops={wl.prefix} sha256={digest}")
    for error in outcome.errors:
        print(f"error: {error}", file=sys.stderr)
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
