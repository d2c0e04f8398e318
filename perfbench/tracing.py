"""In-memory spans and see-saw counters for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
scan workloads replay `hiding_ratio` through the public calls it is made
of, and the CLI workloads run `locnorms.cli.main` with the module
attributes it reaches swapped for timing wrappers (restored afterwards).
Nothing inside the package is edited. Spans stay in memory until the run
ends; per-name totals and self times are kept as they close, so spans on
per-row hot paths can be aggregated without being stored.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import replace
from time import perf_counter

from locnorms import cli, games, norms, verify
from locnorms.linalg import trace_norm
from locnorms.norms import BOUND_TOL, bound_factor, initial_contractions, seesaw_run

# Restart budget the scan-and-escalate policy retries a failed cap check
# with; in verify, a see-saw estimate at this budget is an escalation.
ESCALATE_RESTARTS = 500
# Restarts within this distance of the best value count as agreeing.
AGREEMENT_TOL = 1e-9


class Tracer:
    """Spans with parent links, per-name totals, and see-saw statistics."""

    def __init__(self):
        self.spans = []  # (span_id, op, name, parent_id, start, end)
        self.totals = {}  # name -> [calls, total_s, self_s]
        self.op = None
        self._stack = []  # [span_id, name, start, child_s]
        self._next_id = 0
        self.iterations = []
        self.half_steps = 0
        self.cap_hits = 0
        self.agreement = []
        self.winner_index_max = 0
        self.certified = []
        self.output_bytes = 0
        self._searches = []

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0])

    def end(self, keep: bool = True) -> None:
        stop = perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = stop - start
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if keep:
            self.spans.append((span_id, self.op, name, parent[0] if parent else None, start, stop))

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def record_run(self, est) -> None:
        """Counters of one see-saw run."""
        self.iterations.append(int(est.iterations_used))
        self.half_steps += len(est.value_history)
        if not est.converged:
            self.cap_hits += 1
        if self._searches:
            self._searches[-1].append(float(est.value))

    def record_search(self, values, winner: int) -> None:
        """Agreement and winning index of one multistart search."""
        if not values:
            return
        best = max(values)
        self.agreement.append(sum(v >= best - AGREEMENT_TOL for v in values) / len(values))
        self.winner_index_max = max(self.winner_index_max, int(winner))


# ---------------------------------------------------------------- scans


def _traced_search(z, config, tracer: Tracer):
    """epsilon_norm's multistart loop for n_a, n_b >= 2 and z != 0, with
    the same strict-improvement rule, so ties go to the lowest index."""
    values = []
    best = None
    winner = None
    starts = initial_contractions(z.n_b, config)
    while True:
        tracer.begin("norms.initial_contractions")
        item = next(starts, None)
        tracer.end()
        if item is None:
            break
        index, g0 = item
        tracer.begin("norms.seesaw_run")
        est = seesaw_run(z, g0, config)
        tracer.end()
        tracer.record_run(est)
        values.append(float(est.value))
        if best is None or est.value > best.value:
            best, winner = est, index
    tracer.record_search(values, winner)
    return best, winner


def replay_hiding_ratio(z, config, tracer: Tracer):
    """hiding_ratio followed by the scan's escalation, rebuilt from
    trace_norm, initial_contractions and seesaw_run.

    Returns (trace_norm, estimate, restart_index, escalated)."""
    with tracer.span("linalg.trace_norm"):
        tn = trace_norm(z.matrix)
    best, winner = _traced_search(z, config, tracer)
    ratio = tn / best.value if best.value > 0 else math.inf
    escalated = not ratio <= bound_factor(z.n_a, z.n_b) + BOUND_TOL
    if escalated:
        with tracer.span("verify.escalation"):
            best, winner = _traced_search(z, replace(config, restarts=ESCALATE_RESTARTS), tracer)
    return tn, best, winner, escalated


# ------------------------------------------------------------------ cli


def _timed(tracer: Tracer, fn, name: str, keep: bool = True):
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(keep)

    return wrapper


def _timed_seesaw(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        tracer.begin("norms.seesaw_run")
        try:
            est = fn(*args, **kwargs)
        finally:
            tracer.end()
        tracer.record_run(est)
        return est

    return wrapper


def _timed_starts(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        starts = fn(*args, **kwargs)
        while True:
            tracer.begin("norms.initial_contractions")
            item = next(starts, None)
            tracer.end()
            if item is None:
                return
            yield item

    return wrapper


def _timed_search(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        tracer._searches.append([])
        try:
            est = fn(*args, **kwargs)
        finally:
            values = tracer._searches.pop()
        if values:
            tracer.record_search(values, est.restart_index)
        return est

    return wrapper


def _escalation_aware(tracer: Tracer, fn, certify: bool):
    # verify calls hiding_ratio / evaluate_game at its working budget and
    # again at ESCALATE_RESTARTS when the cap check fails.
    def wrapper(obj, config, *args, **kwargs):
        escalation = config.restarts == ESCALATE_RESTARTS
        if escalation:
            tracer.begin("verify.escalation")
        try:
            report = fn(obj, config, *args, **kwargs)
        finally:
            if escalation:
                tracer.end()
        if certify and report.trace_norm > 0:
            tracer.certified.append(report.eps_estimate.value / report.trace_norm)
        return report

    return wrapper


@contextlib.contextmanager
def instrumented_cli(tracer: Tracer):
    """Swap the module attributes that `locnorms.cli.main` reaches for
    timing wrappers, and restore them on exit."""
    patches = [
        (cli, "run_verification", _timed(tracer, verify.run_verification, "verify.run_verification")),
        (cli, "coefficient_sweep", _timed(tracer, cli.coefficient_sweep, "darwinism.sweep")),
        # one call per output row: aggregated, not stored
        (cli, "diamond_bound_rhs", _timed(tracer, cli.diamond_bound_rhs, "darwinism.diamond", keep=False)),
        (verify, "hiding_ratio", _escalation_aware(tracer, verify.hiding_ratio, certify=True)),
        (verify, "evaluate_game", _escalation_aware(tracer, verify.evaluate_game, certify=False)),
    ]
    for name in ("main_bound_scan", "game_bound_scan", "field_ratio_scan"):
        patches.append((verify, name, _timed(tracer, getattr(verify, name), f"verify.{name}")))
    for module in (norms, verify, games):
        patches.append((module, "trace_norm", _timed(tracer, module.trace_norm, "linalg.trace_norm")))
        patches.append((module, "epsilon_norm", _timed_search(tracer, module.epsilon_norm)))
    for module in (norms, verify):
        patches.append((module, "seesaw_run", _timed_seesaw(tracer, module.seesaw_run)))
        patches.append((module, "initial_contractions", _timed_starts(tracer, module.initial_contractions)))
    for name in ("gue_operator", "induced_difference", "haar_unitary", "gue_hermitian", "random_game"):
        patches.append((verify, name, _timed(tracer, getattr(verify, name), "states.generate")))

    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, wrapper in patches:
            setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
