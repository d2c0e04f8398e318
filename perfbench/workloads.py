"""The four benchmark workloads.

Each workload turns the benchmark seed into a stream of operations. An
operation is prepared outside the timed region, `call` is the timed part,
and `check` turns the raw result into the operation's primary output row
(bytes) plus a list of correctness errors. `traced_call` repeats the same
operation with spans; its row must equal the untraced row byte for byte.

- scan-small / scan-large: one `hiding_ratio` call, escalated to 500
  restarts when the cap check fails, on an instance drawn with the stream
  keys of `verify.main_bound_scan` (GUE and induced alternate by index).
  Small blocks are dispatch-bound, large blocks eigensolve-bound.
- verify: `locnorms verify` through `locnorms.cli.main`, one suite pass at
  a fresh root seed per operation, JSON to a file.
- darwinism-table: `locnorms darwinism` over a (d_a, d_r) grid of about
  14k rows, CSV to a file; no see-saw work at all.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from locnorms import cli
from locnorms.norms import SeeSawConfig, hiding_ratio, witness_value
from locnorms.states import gue_operator, induced_difference, stream

from tracing import ESCALATE_RESTARTS, Tracer, instrumented_cli, replay_hiding_ratio

# Stream keys of verify.main_bound_scan, fixed here so that the inputs stay
# put when the library's own labels are refactored.
SCAN_LABEL = 3
KIND_CODE = {"gue": 1, "induced": 2}
SCAN_RESTARTS = 50
VERIFY_LABEL = 20
DARWINISM_LABEL = 21

VALUE_TOL = 1e-9
# Slack of the library's own ratio-vs-cap comparison.
CAP_TOL = 1e-6
# Criterion 9 of the acceptance gate: Omega(2, 5) = 4, and the diamond bound
# at (d_a, d_r, r, q) = (2, 2, 1, 100) is 6 sqrt(ln 4) / 10.
DIAMOND_2_2_Q100 = 6.0 * math.sqrt(math.log(4.0)) / 10.0
DIAMOND_TOL = 1e-5
DARWINISM_HEADER = "d_a,d_r,omega_new,omega_ranard,improvement_factor,diamond_bound"


@dataclass(frozen=True)
class ScanInstance:
    n_a: int
    n_b: int
    kind: str
    index: int
    z: object
    config: SeeSawConfig


def _generate(seed: int, n_a: int, n_b: int, kind: str, index: int):
    rng = stream(seed, SCAN_LABEL, KIND_CODE[kind], n_a, n_b, index)
    z = gue_operator(n_a, n_b, rng) if kind == "gue" else induced_difference(n_a, n_b, rng)
    return z, int(rng.integers(0, 2**63 - 1))


class ScanWorkload:
    def __init__(self, seed: int, sizes, prefix: int):
        self.seed = seed
        self.pairs = [(n_a, n_b) for n_a in sizes for n_b in sizes]
        self.prefix = prefix

    def prepare(self, k: int) -> ScanInstance:
        n_a, n_b = self.pairs[k % len(self.pairs)]
        index = k // len(self.pairs)
        kind = "gue" if index % 2 == 0 else "induced"
        z, run_seed = _generate(self.seed, n_a, n_b, kind, index)
        return ScanInstance(n_a, n_b, kind, index, z, SeeSawConfig(restarts=SCAN_RESTARTS, seed=run_seed))

    def call(self, inst: ScanInstance):
        report = hiding_ratio(inst.z, inst.config)
        escalated = not report.satisfied
        if escalated:
            report = hiding_ratio(inst.z, replace(inst.config, restarts=ESCALATE_RESTARTS))
        est = report.eps_estimate
        return report.trace_norm, est, est.restart_index, escalated

    def traced_call(self, inst: ScanInstance, tracer: Tracer):
        with tracer.span("states.generate"):
            z, _ = _generate(self.seed, inst.n_a, inst.n_b, inst.kind, inst.index)
        tn, est, winner, escalated = replay_hiding_ratio(z, inst.config, tracer)
        if tn > 0:
            tracer.certified.append(est.value / tn)
        return tn, est, winner, escalated

    def check(self, inst: ScanInstance, raw):
        tn, est, winner, escalated = raw
        errors = []
        gap = abs(witness_value(inst.z, est) - est.value)
        if not gap <= VALUE_TOL:
            errors.append(f"witness reproduces the value only to {gap!r}")
        if not est.value <= tn + VALUE_TOL:
            errors.append(f"value {est.value!r} exceeds the trace norm {tn!r}")
        bound = 2.0 * math.sqrt(2.0) * min(inst.n_a, inst.n_b)
        ratio = tn / est.value if est.value > 0 else math.inf
        if not ratio <= bound + CAP_TOL:
            errors.append(f"ratio {ratio!r} above the cap {bound!r} after escalation")
        row = (
            f"{inst.n_a},{inst.n_b},{inst.kind},{inst.index},{tn!r},{est.value!r},"
            f"{winner},{est.iterations_used},{est.converged},{escalated}\n"
        )
        return row.encode(), errors


class CliWorkload:
    """One `locnorms.cli.main` invocation per operation, output to a file."""

    def __init__(self, seed: int, out: Path, prefix: int):
        self.seed = seed
        self.out = out
        self.prefix = prefix
        self._stderr = io.StringIO()

    def call(self, argv):
        self._stderr.seek(0)
        self._stderr.truncate()
        with contextlib.redirect_stderr(self._stderr):
            return cli.main(argv)

    def traced_call(self, argv, tracer: Tracer):
        with instrumented_cli(tracer), tracer.span("cli.main"):
            code = self.call(argv)
        tracer.output_bytes += self.out.stat().st_size
        return code


class VerifyWorkload(CliWorkload):
    def prepare(self, k: int):
        op_seed = int(stream(self.seed, VERIFY_LABEL, k).integers(0, 2**63 - 1))
        return ["verify", "--samples", "1", "--restarts", "16", "--seed", str(op_seed), "--out", str(self.out)]

    def check(self, argv, code):
        data = self.out.read_bytes()
        errors = []
        if code != 0:
            errors.append(f"verify exited {code}: {self._stderr.getvalue().strip()}")
        elif json.loads(data).get("passed") is not True:
            errors.append("verify summary is not passed: true")
        return data, errors


class DarwinismWorkload(CliWorkload):
    def __init__(self, seed: int, out: Path, prefix: int, grid: tuple[int, int]):
        super().__init__(seed, out, prefix)
        self.grid = grid

    def prepare(self, k: int):
        rng = stream(self.seed, DARWINISM_LABEL, k)
        lo, hi = self.grid
        d_a_max, d_r_max = (int(v) for v in rng.integers(lo, hi + 1, size=2))
        return ["darwinism", "--da", f"2:{d_a_max}", "--dr", f"1:{d_r_max}", "--r", "1", "--q", "100", "--out", str(self.out)]

    def check(self, argv, code):
        data = self.out.read_bytes()
        if code != 0:
            return data, [f"darwinism exited {code}: {self._stderr.getvalue().strip()}"]
        d_a_max = int(argv[2].split(":")[1])
        d_r_max = int(argv[4].split(":")[1])
        lines = data.decode().splitlines()
        errors = []
        if lines[0] != DARWINISM_HEADER:
            errors.append(f"unexpected header {lines[0]!r}")
        if len(lines) - 1 != (d_a_max - 1) * d_r_max:
            errors.append(f"{len(lines) - 1} rows, expected {(d_a_max - 1) * d_r_max}")
        # rows run d_a outer, d_r inner from 1: (2, d_r) is data line d_r
        row_2_2 = lines[2].split(",")
        row_2_5 = lines[5].split(",")
        if row_2_5[:2] != ["2", "5"] or float(row_2_5[2]) != 4.0:
            errors.append(f"omega_new(2, 5) row reads {lines[5]!r}")
        if row_2_2[:2] != ["2", "2"] or not abs(float(row_2_2[5]) - DIAMOND_2_2_Q100) <= DIAMOND_TOL:
            errors.append(f"diamond bound (2, 2, q=100) row reads {lines[2]!r}")
        return data, errors


def make(name: str, seed: int, out_dir: Path, tiny: bool):
    """The workload called name, drawing its inputs from seed."""
    if name == "scan-small":
        return ScanWorkload(seed, (2, 3, 4), prefix=2 if tiny else 27)
    if name == "scan-large":
        return ScanWorkload(seed, (5, 6), prefix=1 if tiny else 8)
    if name == "verify":
        return VerifyWorkload(seed, out_dir / "verify.json", prefix=1 if tiny else 6)
    if name == "darwinism-table":
        grid = (6, 8) if tiny else (118, 122)
        return DarwinismWorkload(seed, out_dir / "darwinism.csv", prefix=2 if tiny else 10, grid=grid)
    raise ValueError(f"unknown workload {name!r}")
