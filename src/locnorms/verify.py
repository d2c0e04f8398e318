"""Randomized invariant suites over the whole pipeline.

Each suite draws reproducible instances from (seed, labeled substream),
checks an exact or proven property, and reports a machine-readable
summary: counts, worst residuals, and one failure string per violation.
The summary contains no volatile data, so identical arguments produce
byte-identical JSON. Every scan and suite draws its instances from the
root seed config.seed and searches at the budget of the same config.

Each instance family is drawn once: one pass over the property
instances feeds the monotonicity and ordering suites, one pass over the
covariance instances (`_covariance_jobs`) the swap and local-unitary
suites. Every suite and scan counts its checks, failures and worst
values in one accumulator, `_Tally`, whose `suite()` is the one summary
record: passed, checks, failures and the worst values under stats. A
scan returns that record with its rows, one per check, and
`run_verification` reports it without them.

Every seeded case of the scans and of the CLI takes one path: `draw`,
the one registry of instance generators, draws it and its see-saw seed
from the substream that its labels, dimensions and index key, and every
case is a tuple that starts with that (instance, see-saw seed) pair.
`_case_rows` is the one step that turns cases into rows: it gives each
case the operator `norms._case_operator` gives it, runs every `_estimate`
in one round, and `_record`s the `_report` of each, dimensions included.
A CLI row (`case_records`) holds the record beside the command's keys,
seed and budget, and a scan row holds it beside the case's fields.
The stream codes `GENERATOR_CODE` are fixed: they key every drawn
instance, so changing one changes every output. The operator and game
scans share one scan-and-escalate loop, `_escalating_scan`: a bound
violation at a working restart budget below ESCALATE_RESTARTS is retried
at ESCALATE_RESTARTS before it counts, since a see-saw shortfall on a
hard instance is an estimator artifact, not a counterexample. At
ESCALATE_RESTARTS or more the first run is final.

A verify pass batches its see-saw work across all suites. A suite (or
a case within one) is a step in the sense of the norms module docstring,
and a whole pass, its suites merged by `_gather`, runs through one
`_drive`, one kernel call per half-step shape. `_case_rows` makes its
rows with `_report`, the report code of hiding_ratio (which
games.evaluate_game is), so a row equals its report of the case,
operator or game, bit for bit. A scan makes every first-round row
before it escalates, and then escalates a cap violation row by row, as
the case's `_case_rows` step run again at ESCALATE_RESTARTS.

Tests reach the failure branches by patching `_report`, `_estimate`,
`_covariance_jobs`, `trace_norm`, `witness_value` and
`block_frame_sums` here, and count kernel calls by patching `_run_jobs`,
`_seesaw` and `_start_stacks` on norms. The benchmark's tracer
(perfbench/tracing.py) patches the instance generators, evaluators and
scans, and hiding_ratio and evaluate_game (one function under two
names), epsilon_norm, seesaw_run and initial_contractions are imported
only for it. Callers look these names up in this module's globals at
call time, so a patch reaches every caller.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .games import random_game
from .linalg import BipartiteOperator, block_frame_sums, check_count, check_dims, hermitian_sign
from .linalg import swap_subsystems, trace_norm
from .norms import SeeSawConfig, witness_value
from .norms import _case_operator, _drive, _estimate, _gather, _report

# Unused here; kept because the benchmark's tracer patches them on this module by name.
from .games import evaluate_game  # noqa: F401
from .norms import epsilon_norm, hiding_ratio, initial_contractions, seesaw_run  # noqa: F401
from .states import (
    QuantumXorGame,
    game_operator,
    gue_hermitian,
    gue_operator,
    haar_unitary,
    induced_difference,
    stream,
    werner_hiding_pair,
)

MONOTONE_STEP_TOL = 1e-12
# Starts whose histories the monotonicity suite checks: 0 (identity) to 2.
MONOTONE_STARTS = 3
ORDERING_TOL = 1e-9
WITNESS_TOL = 1e-9
COVARIANCE_TOL = 1e-9
BLOCK_RESIDUAL_TOL = 1e-10
FIELD_RATIO_SLACK = 0.02

# Stream codes of the instance generators and substream labels of the
# suites and of the CLI's random games and file inputs. draw keys a case
# by (*labels, n_a, n_b, index) under the root seed. The numbers are
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

# A cap violation at a smaller restart budget is retried at this one before it counts.
ESCALATE_RESTARTS = 500

DEFAULT_PAIRS = ((2, 2), (2, 3), (3, 3))


def run_seed(rng) -> int:
    """The see-saw seed of an instance: the next draw from its stream."""
    return int(rng.integers(0, 2**63 - 1))


def draw(kind: str, n_a: int, n_b: int, seed: int, index: int, *labels: int, num_states: int = 4) -> tuple:
    """Case index on n_a x n_b, drawn from stream(seed, *labels, n_a, n_b,
    index): the instance of kind, a GENERATOR_CODE name or "game" (a
    random_game of num_states states), and the see-saw seed drawn after it.
    The werner pair is deterministic and lives on n_a x n_a; it ignores n_b."""
    # before a stream key is built, whose SeedSequence rejects a negative entry in its own words
    check_dims(n_a, n_b)
    rng = stream(seed, *labels, n_a, n_b, index)
    build = {
        "werner": lambda: game_operator(werner_hiding_pair(n_a)),
        "gue": lambda: gue_operator(n_a, n_b, rng),
        "induced": lambda: induced_difference(n_a, n_b, rng),
        "game": lambda: random_game(n_a, n_b, num_states=num_states, seed=rng),
    }
    return build[kind](), run_seed(rng)


def _instances(seed: int, label: int, dims, samples: int):
    """samples cases per (n_a, n_b) in dims, GUE at even and induced at
    odd index: (operator, see-saw seed, case label, fields), the pair that
    draw returns first, with fields kind and index."""
    for n_a, n_b in dims:
        for index in range(samples):
            kind = "gue" if index % 2 == 0 else "induced"
            case = draw(kind, n_a, n_b, seed, index, label, GENERATOR_CODE[kind])
            yield *case, f"({n_a},{n_b}) {kind}[{index}]", {"kind": kind, "index": index}


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

    def suite(self, **extra) -> dict:
        """The summary record, followed by extra (a scan passes its rows)."""
        return {
            "passed": not self.failures,
            "checks": self.checks,
            "failures": self.failures,
            "stats": self.worst,
            **extra,
        }


def _record(instance, report) -> dict:
    """The reported fields of a case's report: the instance's n_a and n_b,
    trace norm and estimate value keyed beta_all and beta_product for a
    QuantumXorGame, trace_norm and eps_estimate for an operator, and the
    estimate's full payload; ratio and margin are None for a zero game."""
    names = ("beta_all", "beta_product") if isinstance(instance, QuantumXorGame) else ("trace_norm", "eps_estimate")
    est = report.eps_estimate
    return {
        "n_a": instance.n_a,
        "n_b": instance.n_b,
        names[0]: report.trace_norm,
        names[1]: est.value,
        "converged": est.converged,
        "ratio": report.ratio,
        "bound": report.bound,
        "satisfied": report.satisfied,
        "margin": None if report.ratio is None else report.bound - report.ratio,
        "estimate": {
            "value": est.value,
            "is_lower_bound": True,  # every reported estimate is a lower bound
            "iterations_used": est.iterations_used,
            "converged": est.converged,
            "restart_index": est.restart_index,
        },
    }


def _case_rows(cases, config: SeeSawConfig):
    """A step: the (case, row) pair of each case, in order, for cases that
    are tuples starting with (instance, see-saw seed). The row is the
    _record of the report hiding_ratio gives the instance, operator or
    QuantumXorGame, at config with the case's seed, bit for bit. cases may
    be drawn lazily: each is checked by _case_operator before the next is
    drawn. Every estimate runs in one _gather round."""
    cases = [(case, _case_operator(case[0])) for case in cases]
    estimates = yield from _gather(_estimate(z, replace(config, seed=case[1])) for case, z in cases)
    return [(case, _record(case[0], _report(z, est))) for (case, z), est in zip(cases, estimates)]


def case_records(cases, config: SeeSawConfig, **keys) -> list[dict]:
    """The CLI rows of (instance, see-saw seed) cases at config, every
    search in one _drive: keys, config.seed, config.restarts and the
    case's _case_rows row."""
    rows = _drive(_case_rows(cases, config), config)
    return [{**keys, "seed": config.seed, "restarts": config.restarts, **row} for _, row in rows]


def _escalating_scan(cases, config: SeeSawConfig):
    """Evaluate each (instance, see-saw seed, label, fields) case at config
    with its see-saw seed, and retry a cap violation at ESCALATE_RESTARTS
    when config.restarts is below it; escalation only raises the budget.

    A step: the _case_rows of all cases, then a violating row replaced in
    row order by the case's _case_rows at ESCALATE_RESTARTS. Each row is
    the case's fields, the record of its final run (the escalated one when
    escalation fired) and escalated. Only violations of the final run
    count as failures. Returns the scan's summary record with its rows.
    """
    rows = []
    tally = _Tally(worst_ratio_over_bound=0.0)
    for (instance, seed, label, fields), row in (yield from _case_rows(cases, config)):
        # a zero game's report (ratio None) is satisfied
        escalated = not row["satisfied"] and config.restarts < ESCALATE_RESTARTS
        restarts = config.restarts
        if escalated:
            restarts = ESCALATE_RESTARTS
            ((_, row),) = yield from _case_rows([(instance, seed)], replace(config, restarts=restarts))
        rows.append({**fields, **row, "escalated": escalated})
        stage = "after escalation to" if escalated else "at"
        message = f"{label}: ratio {row['ratio']!r} exceeds bound {row['bound']!r} {stage} {restarts} restarts"
        worst = None if row["ratio"] is None else row["ratio"] / row["bound"]
        tally.check((not row["satisfied"], message), worst_ratio_over_bound=worst)
    return tally.suite(rows=rows)


def main_bound_scan(dims, samples_per_pair: int, config: SeeSawConfig) -> dict:
    """Trace norm against 2 sqrt(2) min-dim times the product-witness
    estimate, over GUE and induced-difference instances.

    Each instance alternates generator kind by index. Violations at a
    working budget below ESCALATE_RESTARTS are retried there; rows report
    the final run and only its violations are returned as failures.
    Every pair is checked before the first draw.
    """
    return _drive(_main_scan(dims, samples_per_pair, config), config)


def _main_scan(dims, samples_per_pair: int, config: SeeSawConfig):
    samples_per_pair = check_count(samples_per_pair, "samples", 0)
    dims = [check_dims(n_a, n_b) for n_a, n_b in dims]
    return (yield from _escalating_scan(_instances(config.seed, _SCAN_LABEL, dims, samples_per_pair), config))


def game_bound_scan(samples: int, n_a: int, n_b: int, config: SeeSawConfig) -> dict:
    """Unrestricted versus product bias over random four-state games, with
    the same escalation policy as the operator scan."""
    return _drive(_game_scan(samples, n_a, n_b, config), config)


def _game_scan(samples: int, n_a: int, n_b: int, config: SeeSawConfig):
    samples = check_count(samples, "samples", 0)
    n_a, n_b = check_dims(n_a, n_b)
    drawn = (draw("game", n_a, n_b, config.seed, index, _GAME_LABEL) for index in range(samples))
    cases = ((*case, f"game[{index}] at ({n_a},{n_b})", {"index": index}) for index, case in enumerate(drawn))
    return (yield from _escalating_scan(cases, config))


def field_ratio_scan(samples: int, config: SeeSawConfig) -> dict:
    """Complex against Hermitian witness values on 3 x 3 GUE instances at
    the same budget. The complex value provably exceeds the Hermitian one
    by at most sqrt(2), which it must meet up to estimator slack; the row's
    ratio is 1.0 when both vanish and inf when only the Hermitian does."""
    return _drive(_field_scan(samples, config), config)


def _field_scan(samples: int, config: SeeSawConfig):
    samples = check_count(samples, "samples", 0)
    n_a = n_b = 3
    drawn = [draw("gue", n_a, n_b, config.seed, index, _FIELD_LABEL) for index in range(samples)]
    # the complex and the Hermitian estimate of each instance, in turn
    estimates = yield from _gather(
        _estimate(z, replace(config, seed=seed), hermitian) for z, seed in drawn for hermitian in (False, True)
    )
    rows = []
    tally = _Tally(worst_ratio=0.0)
    cap = math.sqrt(2.0)
    for index, (c, h) in enumerate(zip(estimates[::2], estimates[1::2])):
        c, h = c.value, h.value
        ratio = c / h if h > 0 else (1.0 if c == 0 else math.inf)
        rows.append({"index": index, "complex": c, "hermitian": h, "ratio": ratio})
        message = (
            f"field[{index}] at ({n_a},{n_b}): complex {c!r} exceeds sqrt(2) * {h!r} + {FIELD_RATIO_SLACK}"
        )
        tally.check((c > cap * h + FIELD_RATIO_SLACK, message), worst_ratio=ratio)
    return tally.suite(rows=rows)


def _suite_block_identities(samples: int, config: SeeSawConfig) -> dict:
    tally = _Tally(max_unitary_residual=0.0, max_unit_residual=0.0)
    for n_a, n_b in DEFAULT_PAIRS:
        dim = n_a * n_b
        target = n_a * np.eye(n_b)
        for index in range(samples):
            u = haar_unitary(dim, stream(config.seed, _BLOCK_LABEL, n_a, n_b, index))
            left, right = block_frame_sums(u, n_a, n_b)
            residual = max(float(np.abs(left - target).max()), float(np.abs(right - target).max()))
            message = f"unitary blocks ({n_a},{n_b})[{index}]: residual {residual!r} > {BLOCK_RESIDUAL_TOL}"
            tally.check((residual > BLOCK_RESIDUAL_TOL, message), max_unitary_residual=residual)
    for n in (2, 3, 4):
        # Matrix units e_k: sum_k e_k^dag e_k = n * identity, exactly.
        units = np.eye(n * n).reshape(n * n, n, n)
        total = np.einsum("kji,kjl->il", units, units)
        residual = float(np.abs(total - n * np.eye(n)).max())
        tally.check(
            (residual > 1e-15, f"matrix units n={n}: residual {residual!r} > 1e-15"),
            max_unit_residual=residual,
        )
    return tally.suite()


def _property_suites(samples: int, config: SeeSawConfig):
    """The monotonicity and ordering suites, in one pass over the property
    instances: every single-start history is nondecreasing, and the
    multistart estimate stays below the trace norm with a witness pair
    that reproduces it.

    Each instance runs one multistart job of max(restarts, 2) restarts.
    Every start runs on its own in the batch, so the histories of starts 0
    to 2 are those of seesaw_run from the same starts, and the best of the
    first restarts + 1 runs is epsilon_norm at config, bit for bit."""
    monotone = _Tally(max_decrease=0.0)
    ordering = _Tally(max_excess_over_trace_norm=-math.inf, max_witness_gap=0.0)
    cases = list(_instances(config.seed, _PROPERTY_LABEL, DEFAULT_PAIRS, samples))
    budget = replace(config, restarts=max(config.restarts, MONOTONE_STARTS - 1))

    def read(runs):
        histories = [runs.estimate(start_index).value_history for start_index in range(MONOTONE_STARTS)]
        return histories, runs.best(config.restarts + 1)

    jobs = [(z, replace(budget, seed=seed), "B", True, read) for z, seed, _, _ in cases]
    for (z, _, label, _), (histories, est) in zip(cases, (yield jobs)):
        for start_index, history in enumerate(histories):
            step = -float(np.diff(history).min())
            monotone.check(
                (step > MONOTONE_STEP_TOL, f"{label} start {start_index}: value decreased by {step!r}"),
                max_decrease=step,
            )
        tn = trace_norm(z.matrix)
        gap = abs(witness_value(z, est) - est.value)
        ordering.check(
            (est.value - tn > ORDERING_TOL, f"{label}: estimate {est.value!r} exceeds trace norm {tn!r}"),
            (gap > WITNESS_TOL, f"{label}: witness reproduces {est.value!r} only to {gap!r}"),
            max_excess_over_trace_norm=est.value - tn,
            max_witness_gap=gap,
        )
    return monotone.suite(), ordering.suite()


def _history_gaps(direct, swapped, rotated) -> tuple[float, float]:
    """How far the swapped and the rotated history lie from the direct
    one; a history of another length gives inf."""
    return tuple(
        math.inf if len(other) != len(direct) else float(np.abs(np.asarray(direct) - np.asarray(other)).max())
        for other in (swapped, rotated)
    )


def _start_history(runs) -> tuple[float, ...]:
    """The value history of a single-start job's run."""
    return runs.estimate(0).value_history


def _covariance_jobs(z: BipartiteOperator, g0, u, v) -> list:
    """The three single-start jobs whose reads are the value histories of
    the see-saw on z from g0 on B, on the swapped operator from g0 on A,
    and on (u x v) z (u x v)^dag from v g0 v^dag on B."""
    w = np.kron(u, v)
    rotated = BipartiteOperator(z.n_a, z.n_b, w @ z.matrix @ w.conj().T)
    return [
        (z, g0[None], "B", True, _start_history),
        (swap_subsystems(z), g0[None], "A", True, _start_history),
        (rotated, (v @ g0 @ v.conj().T)[None], "B", True, _start_history),
    ]


def _covariance_suites(samples: int, config: SeeSawConfig):
    """The swap and local-unitary covariance suites, in one pass over the
    covariance instances: one round of the _covariance_jobs of each."""
    swap = _Tally(max_history_gap=0.0)
    rotation = _Tally(max_history_gap=0.0)
    labels, jobs = [], []
    for n_a, n_b in DEFAULT_PAIRS:
        for index in range(samples):
            rng = stream(config.seed, _COVARIANCE_LABEL, n_a, n_b, index)
            z = gue_operator(n_a, n_b, rng)
            g0 = hermitian_sign(gue_hermitian(n_b, rng))
            rng = stream(config.seed, _COVARIANCE_LABEL, n_a, n_b, index, 1)
            u = haar_unitary(n_a, rng)
            v = haar_unitary(n_b, rng)
            labels.append(f"({n_a},{n_b})[{index}]")
            jobs += _covariance_jobs(z, g0, u, v)
    histories = yield jobs
    for index, label in enumerate(labels):
        swap_gap, rotation_gap = _history_gaps(*histories[3 * index : 3 * index + 3])
        swap.check((swap_gap > COVARIANCE_TOL, f"{label}: swap history gap {swap_gap!r}"), max_history_gap=swap_gap)
        message = f"{label}: local-unitary history gap {rotation_gap!r}"
        rotation.check((rotation_gap > COVARIANCE_TOL, message), max_history_gap=rotation_gap)
    return swap.suite(), rotation.suite()


def run_verification(config: SeeSawConfig, samples: int = 20) -> dict:
    """Run every suite from the root seed config.seed and return the
    deterministic summary dict, which echoes the four config values.

    samples >= 1 scales each randomized suite; config.restarts is the
    multistart budget of the scans, whose violations escalate to
    ESCALATE_RESTARTS only from a smaller budget.
    """
    samples = check_count(samples, "samples", 1)
    quarter = max(1, samples // 4)

    (monotonicity, ordering), (swap, rotation), main, game, field = _drive(
        _gather(
            [
                _property_suites(quarter, config),
                _covariance_suites(quarter, config),
                _main_scan(DEFAULT_PAIRS, samples, config),
                _game_scan(samples, 2, 2, config),
                _field_scan(max(1, samples // 2), config),
            ]
        ),
        config,
    )
    suites = {
        "block_identities": _suite_block_identities(quarter, config),
        "seesaw_monotonicity": monotonicity,
        "ordering": ordering,
        "swap_covariance": swap,
        "local_unitary_covariance": rotation,
        "main_bound_scan": main,
        "game_bound_scan": game,
        "field_ratio_scan": field,
    }
    for suite in suites.values():
        suite.pop("rows", None)
    return {
        "tool": "locnorms-verify",
        "seed": config.seed,
        "samples": samples,
        "restarts": config.restarts,
        "max_iters": config.max_iters,
        "rel_tol": config.rel_tol,
        "suites": suites,
        "passed": all(s["passed"] for s in suites.values()),
    }
