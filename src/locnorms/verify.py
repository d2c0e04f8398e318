"""Randomized invariant suites over the whole pipeline.

Each suite draws reproducible instances from (seed, labeled substream),
checks an exact or proven property, and reports a machine-readable
summary: counts, worst residuals, and one failure string per violation.
The summary contains no volatile data, so identical arguments produce
byte-identical JSON. Every scan and suite draws its instances from the
root seed config.seed and searches at the budget of the same config.

Each instance family is drawn once: one pass over the property
instances feeds the monotonicity and ordering suites, one pass over the
covariance instances (`covariance_gaps`) the swap and local-unitary
suites. Every suite and scan counts its checks, failures and worst
values in one accumulator, `_Tally`.

The operator scan and the game scan, which the test suite also calls,
share one scan-and-escalate loop, `_escalating_scan`: a bound violation at
the working restart budget is retried at a larger budget before it counts,
since a see-saw shortfall on a hard instance is an estimator artifact, not
a counterexample. Every case checked against the cap, a scan row or a row
of the CLI, carries the fields of one record, `case_row`, keyed by
OPERATOR_NAMES or GAME_NAMES.

The one registry of instance generators, for the scans and the CLI alike,
is `make_operator` with its stream codes `GENERATOR_CODE` and `run_seed`.
The codes are fixed: they key every drawn instance, so changing one
changes every output. The registry lives here because the benchmark's
tracing wrappers and the tests patch the generators and evaluators on
this module; the registry and the scans look those names up in this
module's globals at call time, so a patch reaches every caller.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .games import evaluate_game, random_game
from .linalg import BipartiteOperator, block_frame_sums, hermitian_sign, swap_subsystems, trace_norm
from .norms import (
    SeeSawConfig,
    epsilon_norm,
    hiding_ratio,
    initial_contractions,
    seesaw_run,
    witness_value,
)
from .states import (
    game_operator,
    gue_hermitian,
    gue_operator,
    haar_unitary,
    induced_difference,
    stream,
    werner_hiding_pair,
)

MONOTONE_STEP_TOL = 1e-12
ORDERING_TOL = 1e-9
WITNESS_TOL = 1e-9
COVARIANCE_TOL = 1e-9
BLOCK_RESIDUAL_TOL = 1e-10
FIELD_RATIO_SLACK = 0.02

# Stream codes of the instance generators and substream labels of the
# suites and of the CLI's random games and file inputs. The numbers are
# fixed: changing one changes every drawn instance.
GENERATOR_CODE = {"werner": 0, "gue": 1, "induced": 2}
_SCAN_LABEL = 3
_GAME_LABEL = 4
_FIELD_LABEL = 5
_COVARIANCE_LABEL = 6
_PROPERTY_LABEL = 7
_BLOCK_LABEL = 8
XOR_LABEL = 10
INPUT_LABEL = 99

# Restart budget a cap violation is retried at before it counts.
ESCALATE_RESTARTS = 500

DEFAULT_PAIRS = ((2, 2), (2, 3), (3, 3))


def make_operator(kind: str, n_a: int, n_b: int, rng) -> BipartiteOperator:
    """One instance of the generator registered as kind, drawn from rng.

    The werner pair is deterministic and lives on n_a x n_a; it ignores
    n_b and rng.
    """
    if kind == "werner":
        return game_operator(werner_hiding_pair(n_a))
    if kind == "gue":
        return gue_operator(n_a, n_b, rng)
    if kind == "induced":
        return induced_difference(n_a, n_b, rng)
    raise ValueError(f"unknown generator kind {kind!r}")


def run_seed(rng) -> int:
    """The see-saw seed of an instance: the next draw from its stream."""
    return int(rng.integers(0, 2**63 - 1))


def _instances(seed: int, label: int, dims, samples: int):
    """samples instances per (n_a, n_b) in dims, GUE at even and induced
    at odd index, each with the see-saw seed drawn after it."""
    for n_a, n_b in dims:
        for index in range(samples):
            kind = "gue" if index % 2 == 0 else "induced"
            rng = stream(seed, label, GENERATOR_CODE[kind], n_a, n_b, index)
            yield n_a, n_b, kind, index, make_operator(kind, n_a, n_b, rng), run_seed(rng)


class _Tally:
    """One suite's check count, failure strings and named worst values.

    Worst values fold as max(worst, value), so a NaN value leaves a worst
    unchanged; a value of None (a zero game has no ratio) is skipped."""

    def __init__(self, **worst: float):
        self.checks = 0
        self.failures: list[str] = []
        self.worst = worst

    def check(self, *conditions: tuple[bool, str], **values: float | None) -> None:
        """Count one check, fold its values into the worsts, and keep the
        message of each (failed, message) condition that failed."""
        self.checks += 1
        for name, value in values.items():
            if value is not None:
                self.worst[name] = max(self.worst[name], value)
        self.failures.extend(message for failed, message in conditions if failed)

    def stats(self) -> dict:
        return {name: float(value) for name, value in self.worst.items()}

    def suite(self) -> dict:
        return _suite(self.checks, self.failures, self.stats())


def _suite(checks: int, failures: list, stats: dict) -> dict:
    return {
        "passed": not failures,
        "checks": int(checks),
        "failures": list(failures),
        "stats": stats,
    }


# Row keys of a case's trace norm and estimate value, for operators and for games.
OPERATOR_NAMES = ("trace_norm", "eps_estimate")
GAME_NAMES = ("beta_all", "beta_product")


def case_row(report, names: tuple[str, str]) -> dict:
    """The reported fields of one RatioReport: names key the trace norm
    and the estimate's value, "estimate" holds its full payload, and ratio
    and margin are None for a zero game."""
    est = report.eps_estimate
    ratio = None if report.ratio is None else float(report.ratio)
    return {
        names[0]: float(report.trace_norm),
        names[1]: float(est.value),
        "converged": bool(est.converged),
        "ratio": ratio,
        "bound": float(report.bound),
        "satisfied": bool(report.satisfied),
        "margin": None if ratio is None else float(report.bound - report.ratio),
        "estimate": {
            "value": float(est.value),
            "is_lower_bound": True,  # every reported estimate is a lower bound
            "iterations_used": int(est.iterations_used),
            "converged": bool(est.converged),
            "restart_index": est.restart_index,
        },
    }


def _escalating_scan(cases, evaluate, names: tuple[str, str]) -> dict:
    """Evaluate each (label, instance, config, fields) case and retry a
    cap violation at ESCALATE_RESTARTS.

    evaluate(instance, config) returns a RatioReport; each row is the
    case's fields, the case_row of its final report (the escalated one
    when escalation fired) and escalated. Only violations that persist
    after escalation count as failures.
    """
    rows = []
    tally = _Tally(worst_ratio_over_bound=0.0)
    for label, instance, config, fields in cases:
        report = evaluate(instance, config)
        escalated = report.ratio is not None and not report.satisfied
        if escalated:
            report = evaluate(instance, replace(config, restarts=ESCALATE_RESTARTS))
        rows.append({**fields, **case_row(report, names), "escalated": escalated})
        message = (
            f"{label}: ratio {report.ratio!r} exceeds bound {report.bound!r} "
            f"after escalation to {ESCALATE_RESTARTS} restarts"
        )
        worst = None if report.ratio is None else report.ratio / report.bound
        tally.check((not report.satisfied, message), worst_ratio_over_bound=worst)
    return {"rows": rows, "failures": tally.failures, **tally.stats()}


def main_bound_scan(dims, samples_per_pair: int, config: SeeSawConfig) -> dict:
    """Trace norm against 2 sqrt(2) min-dim times the product-witness
    estimate, over GUE and induced-difference instances.

    Each instance alternates generator kind by index. Violations at the
    working budget are retried at ESCALATE_RESTARTS; rows record both
    stages and only post-escalation violations are returned as failures.
    """
    cases = (
        (
            f"({n_a},{n_b}) {kind}[{index}]",
            z,
            replace(config, seed=restart_seed),
            {"n_a": n_a, "n_b": n_b, "kind": kind, "index": index},
        )
        for n_a, n_b, kind, index, z, restart_seed in _instances(config.seed, _SCAN_LABEL, dims, samples_per_pair)
    )
    return _escalating_scan(cases, hiding_ratio, OPERATOR_NAMES)


def game_bound_scan(samples: int, n_a: int, n_b: int, config: SeeSawConfig) -> dict:
    """Unrestricted versus product bias over random four-state games, with
    the same escalation policy as the operator scan."""

    def cases():
        for index in range(samples):
            rng = stream(config.seed, _GAME_LABEL, n_a, n_b, index)
            game = random_game(n_a, n_b, num_states=4, seed=rng)
            run_config = replace(config, seed=run_seed(rng))
            yield f"game[{index}] at ({n_a},{n_b})", game, run_config, {"index": index}

    return _escalating_scan(cases(), evaluate_game, GAME_NAMES)


def field_ratio_scan(samples: int, config: SeeSawConfig) -> dict:
    """Complex against Hermitian witness values on 3 x 3 GUE instances at
    the same budget. The complex value provably exceeds the Hermitian one
    by at most sqrt(2), which it must meet up to estimator slack; the row's
    ratio is 1.0 when both vanish and inf when only the Hermitian does."""
    rows = []
    tally = _Tally(worst_ratio=0.0)
    cap = math.sqrt(2.0)
    n_a = n_b = 3
    for index in range(samples):
        rng = stream(config.seed, _FIELD_LABEL, n_a, n_b, index)
        z = gue_operator(n_a, n_b, rng)
        run_config = replace(config, seed=run_seed(rng))
        c = epsilon_norm(z, run_config, hermitian=False).value
        h = epsilon_norm(z, run_config).value
        ratio = c / h if h > 0 else (1.0 if c == 0 else math.inf)
        rows.append({"index": index, "complex": float(c), "hermitian": float(h), "ratio": float(ratio)})
        message = (
            f"field[{index}] at ({n_a},{n_b}): complex {c!r} exceeds sqrt(2) * {h!r} + {FIELD_RATIO_SLACK}"
        )
        tally.check((c > cap * h + FIELD_RATIO_SLACK, message), worst_ratio=ratio)
    return {"rows": rows, "failures": tally.failures, **tally.stats()}


def _suite_block_identities(seed: int, samples: int) -> dict:
    tally = _Tally(max_unitary_residual=0.0, max_unit_residual=0.0)
    for n_a, n_b in DEFAULT_PAIRS:
        dim = n_a * n_b
        target = n_a * np.eye(n_b)
        for index in range(samples):
            u = haar_unitary(dim, stream(seed, _BLOCK_LABEL, n_a, n_b, index))
            left, right = block_frame_sums(u, n_a, n_b)
            residual = max(float(np.abs(left - target).max()), float(np.abs(right - target).max()))
            message = f"unitary blocks ({n_a},{n_b})[{index}]: residual {residual!r} > {BLOCK_RESIDUAL_TOL}"
            tally.check((residual > BLOCK_RESIDUAL_TOL, message), max_unitary_residual=residual)
    for n in (2, 3, 4):
        # Matrix units e_ij: sum_ij e_ij^dag e_ij = n * identity, exactly.
        total = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n))
                e[i, j] = 1.0
                total += e.T @ e
        residual = float(np.abs(total - n * np.eye(n)).max())
        tally.check(
            (residual > 1e-15, f"matrix units n={n}: residual {residual!r} > 1e-15"),
            max_unit_residual=residual,
        )
    return tally.suite()


def _property_suites(samples: int, config: SeeSawConfig) -> tuple[dict, dict]:
    """The monotonicity and ordering suites, in one pass over the property
    instances: every single-start history is nondecreasing, and the
    multistart estimate stays below the trace norm with a witness pair
    that reproduces it."""
    monotone = _Tally(max_decrease=0.0)
    ordering = _Tally(max_excess_over_trace_norm=-math.inf, max_witness_gap=0.0)
    for n_a, n_b, kind, index, z, restart_seed in _instances(config.seed, _PROPERTY_LABEL, DEFAULT_PAIRS, samples):
        label = f"({n_a},{n_b}) {kind}[{index}]"
        run_config = replace(config, seed=restart_seed, restarts=2)
        for start_index, g0 in initial_contractions(n_b, run_config):
            diffs = np.diff(seesaw_run(z, g0, run_config).value_history)
            step = -float(diffs.min()) if diffs.size else 0.0
            monotone.check(
                (step > MONOTONE_STEP_TOL, f"{label} start {start_index}: value decreased by {step!r}"),
                max_decrease=step,
            )
        est = epsilon_norm(z, replace(config, seed=restart_seed))
        tn = trace_norm(z.matrix)
        gap = abs(witness_value(z, est) - est.value)
        ordering.check(
            (est.value - tn > ORDERING_TOL, f"{label}: estimate {est.value!r} exceeds trace norm {tn!r}"),
            (gap > WITNESS_TOL, f"{label}: witness reproduces {est.value!r} only to {gap!r}"),
            max_excess_over_trace_norm=est.value - tn,
            max_witness_gap=gap,
        )
    return monotone.suite(), ordering.suite()


def _history_gap(a, b) -> float:
    if len(a) != len(b):
        return math.inf
    if not a:
        return 0.0
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def covariance_gaps(z: BipartiteOperator, g0, u, v, config: SeeSawConfig) -> tuple[float, float]:
    """(swap_gap, rotation_gap): how far the value history of the see-saw
    on z from g0 on B lies from the same run on the swapped operator
    started on A, and from the run on (u x v) z (u x v)^dag started from
    v g0 v^dag. Both runs are exact images of the first, so both gaps
    vanish up to rounding; histories of different lengths give inf."""
    direct = seesaw_run(z, g0, config).value_history
    swapped = seesaw_run(swap_subsystems(z), g0, config, start_side="A").value_history
    w = np.kron(u, v)
    rotated = BipartiteOperator(z.n_a, z.n_b, w @ z.matrix @ w.conj().T)
    conjugated = seesaw_run(rotated, v @ g0 @ v.conj().T, config).value_history
    return _history_gap(direct, swapped), _history_gap(direct, conjugated)


def _covariance_suites(samples: int, config: SeeSawConfig) -> tuple[dict, dict]:
    """The swap and local-unitary covariance suites, in one pass over the
    covariance instances."""
    swap = _Tally(max_history_gap=0.0)
    rotation = _Tally(max_history_gap=0.0)
    for n_a, n_b in DEFAULT_PAIRS:
        for index in range(samples):
            rng = stream(config.seed, _COVARIANCE_LABEL, n_a, n_b, index)
            z = gue_operator(n_a, n_b, rng)
            g0 = hermitian_sign(gue_hermitian(n_b, rng))
            rng = stream(config.seed, _COVARIANCE_LABEL, n_a, n_b, index, 1)
            u = haar_unitary(n_a, rng)
            v = haar_unitary(n_b, rng)
            swap_gap, rotation_gap = covariance_gaps(z, g0, u, v, config)
            swap.check(
                (swap_gap > COVARIANCE_TOL, f"({n_a},{n_b})[{index}]: swap history gap {swap_gap!r}"),
                max_history_gap=swap_gap,
            )
            message = f"({n_a},{n_b})[{index}]: local-unitary history gap {rotation_gap!r}"
            rotation.check((rotation_gap > COVARIANCE_TOL, message), max_history_gap=rotation_gap)
    return swap.suite(), rotation.suite()


def _scan_suite(scan: dict, stat: str) -> dict:
    return _suite(len(scan["rows"]), scan["failures"], {stat: scan[stat]})


def run_verification(config: SeeSawConfig, samples: int = 20) -> dict:
    """Run every suite from the root seed config.seed and return the
    deterministic summary dict, which echoes the four config values.

    samples >= 1 scales each randomized suite; config.restarts is the
    multistart budget of the scans (escalation goes to ESCALATE_RESTARTS
    regardless).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    quarter = max(1, samples // 4)

    scan = main_bound_scan(DEFAULT_PAIRS, samples, config)
    games = game_bound_scan(samples, 2, 2, config)
    fields = field_ratio_scan(max(1, samples // 2), config)
    blocks = _suite_block_identities(config.seed, quarter)
    monotonicity, ordering = _property_suites(quarter, config)
    swap, rotation = _covariance_suites(quarter, config)

    suites = {
        "block_identities": blocks,
        "seesaw_monotonicity": monotonicity,
        "ordering": ordering,
        "swap_covariance": swap,
        "local_unitary_covariance": rotation,
        "main_bound_scan": _scan_suite(scan, "worst_ratio_over_bound"),
        "game_bound_scan": _scan_suite(games, "worst_ratio_over_bound"),
        "field_ratio_scan": _scan_suite(fields, "worst_ratio"),
    }
    return {
        "tool": "locnorms-verify",
        "seed": int(config.seed),
        "samples": int(samples),
        "restarts": int(config.restarts),
        "max_iters": int(config.max_iters),
        "rel_tol": float(config.rel_tol),
        "suites": suites,
        "passed": all(s["passed"] for s in suites.values()),
    }
