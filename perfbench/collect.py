"""Run the benchmark over several seeds and summarise it.

Run from the repository root:

    python3 perfbench/collect.py --seeds 1-10 --traced-seeds 1,2 --out perfbench/baseline.json

For every workload it runs perfbench/run.py once per seed with --trace 0,
one run at a time, and reports for each end-to-end metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
beside the metric's bound in BENCHMARK.json; the same for the raw wall-clock
figures the runs print. With --traced-seeds it also
runs --trace 1 per listed seed and reports the per-layer values. It fails
(exit 1) when a run is not correct, fails an operation, or an end-to-end
spread other than setup_s reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.split("sha256=")[1] for line in lines if line.startswith("digest "))
    result["machine"] = json.loads(next(line[len("machine "):] for line in lines if line.startswith("machine ")))
    result["stderr"] = proc.stderr.strip()
    raw = next((line for line in lines if line.startswith("raw ")), None)
    if raw is not None:
        result["raw"] = {k: float(v) for k, v in (item.split("=") for item in raw.split()[1:])}
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--traced-seeds", type=seed_list, default=[])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    ok = True
    summary = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        entry = {"digests": {str(s): r["digest"] for s, r in zip(args.seeds, runs)}}
        entry["attempted"] = [r["attempted"] for r in runs]
        entry["failed"] = [r["failed"] for r in runs]
        entry["end_to_end"] = {}
        summary["machine"] = runs[0]["machine"]
        for r in runs:
            if not r["correct"] or r["failed"]:
                ok = False
                print(f"{workload}: not correct: {r['stderr']}")
        for metric in spec["end_to_end"]:
            stats = summarise([r["metrics"][metric["name"]]["value"] for r in runs])
            stats["bound"] = metric["bound"]
            entry["end_to_end"][metric["name"]] = stats
            steady = metric["name"] == "setup_s" or stats["spread"] < metric["bound"] / 3
            ok = ok and steady
            print(
                f"{workload:16s} {metric['name']:16s} median {stats['median']:10.4f} "
                f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} spread {stats['spread']:.3f} "
                f"(bound {metric['bound']}){'' if steady else '  UNSTEADY'}"
            )
        if all("raw" in r for r in runs):
            entry["raw"] = {name: summarise([r["raw"][name] for r in runs]) for name in runs[0]["raw"]}
            for name, stats in entry["raw"].items():
                print(f"{workload:16s} raw {name:14s} median {stats['median']:10.4f} spread {stats['spread']:.3f}")
        traced = {}
        for seed in args.traced_seeds:
            r = run_once(workload, seed, args.seconds, 1)
            if not r["correct"] or r["failed"]:
                ok = False
                print(f"{workload}: traced run not correct: {r['stderr']}")
            traced[str(seed)] = {name: m["value"] for name, m in r["metrics"].items()}
            traced[str(seed)]["digest"] = r["digest"]
        if traced:
            entry["per_layer"] = traced
            for seed, values in traced.items():
                shown = {k: round(v, 6) if isinstance(v, float) else v for k, v in values.items() if v}
                print(f"{workload:16s} traced seed {seed}: {shown}")
        summary["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
