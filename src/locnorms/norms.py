"""Product-witness tensor norms by see-saw maximization, and the
data-hiding ratio pipeline built on them.

The central quantity is sup tr((f x g) z) over contractions f on A and g
on B. With one side fixed, the optimum over the other side is closed form:
the spectral sign for Hermitian witnesses, the polar unitary for complex
ones. Alternating the two exact half-steps therefore gives a nondecreasing
objective; multistart over randomized initial contractions guards against
local maxima. Global optimality is never certified, so every reported
value is a lower bound carrying the witness pair that achieves it.

One see-saw kernel, _seesaw, runs every search. It runs a stack of R
starts as one batch, one stacked contraction and one stacked eigensolve
(or SVD) per half-step, and drops each start from the batch once it
meets its own stopping test, so slow starts finish on a shrinking batch.
Every matrix in the stack is solved on its own, so each start's run
equals a run of it alone bit for bit. The batch holds all R starts at
once, so memory is O(R n^2) for n = max(n_a, n_b), plus the value
histories of the runs.

The kernel also serves several operators in one call, each with its own
start stack and its own start side, as long as their half-steps have the
same shapes: an operator on n_a x n_b started on B rides with one on
n_b x n_a started on A. Each operator's starts stay one contiguous slice
of the running stack, and its contraction (by its own side's operand)
runs on that slice; the eigensolves, the stopping test and the dropping
of finished starts run once per half-step on the whole stack. So every
operator's runs equal a call on it alone bit for bit. One operator is a
batch of one: its slice is the whole stack, and a lone running slice's
contraction is used as is, with no concatenation.

One function, _run_jobs, makes every kernel call: for epsilon_norm,
seesaw_run and every verify scan, suite, CLI row and escalation. A search
is a step: a generator that yields kernel jobs (operator, starts, start
side, field, read) and is sent what each job's read takes from its runs;
a job's starts are a start stack or the SeeSawConfig whose multistart
stack it runs. _estimate is epsilon_norm as a step. _drive drives one
step, handing each round of its jobs to _run_jobs, which makes one kernel
call per half-step shape (dim of the other side, dim of the start side,
field) and at most 24 operators; _gather, the one way to merge steps,
advances several in lockstep as one step, so
`locnorms verify --samples 1` makes 4 kernel calls. Each multistart job's
stack is built by _start_stack just before the job's call, and the call's
runs are read and released as soon as it returns, so only one call's
stacks and value histories are held at a time. epsilon_norm is _estimate
driven alone and seesaw_run one Hermitian single-start job on any
operator, zero included, so each Hermitian restart of epsilon_norm equals
seesaw_run from its start bit for bit, and each complex one a one-start
_run_jobs job. A caller that needs single-start histories and the
estimate (the verify property suites) reads both from the same runs. Only
_closed_form builds an exact estimate; _Runs.estimate builds every other.

A config's multistart stack comes from GUE samples drawn by one
states.gue_stack(dim, seed, restarts) call, bit for bit as gue_hermitian
on stream(seed, i), and spectral signs from one stacked eigensolve.

A caller's start is a Hermitian start on B, and seesaw_run, the only
function that takes one, checks it. The multistart stack is not checked
at run time; tests pin it as exactly Hermitian contractions, the identity
first.

The operands contract against two contiguous copies of z, relaid once per
kernel call as (b, a, a', b') for the A side and (a, a', b, b') for the B
side. These layouts make einsum sum in the same order as on the strided
(a, b, a', b') view, so they give the same bits; other layouts and BLAS
(matmul) forms are faster but round differently.

Witnesses are Hermitian contractions unless epsilon_norm gets
hermitian=False. For a Hermitian pair (f, g), the outcomes (1 +- f x g)/2
form a local binary measurement with classical postprocessing, so
Hermitian values are achievable local distinguishability; the trace norm
can exceed them by at most the factor 2 sqrt(2) min(n_a, n_b).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, NamedTuple

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    BipartiteOperator,
    DegenerateOperatorError,
    as_square_matrix,
    asymmetry,
    optimal_contraction,
    trace_norm,
)
from .states import QuantumXorGame, game_operator, gue_stack

# Slack accepted on contraction operator norms and on the ratio-vs-bound
# comparison; both absorb eigensolver rounding, nothing more.
OPNORM_SLACK = 1e-12
BOUND_TOL = 1e-6

_TINY = 1e-300
CALL_OPERATORS = 24  # most operators in one kernel call: a bound on its memory that moves no value


@dataclass(frozen=True)
class SeeSawConfig:
    """Search budget and root seed of the see-saw estimator. restarts,
    max_iters and seed are stored as int, so a bool or numpy integer
    becomes one, and rel_tol as float, so a Decimal or Fraction does."""

    restarts: int = 32
    max_iters: int = 500
    rel_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iters"):
            value = getattr(self, name)
            try:
                count = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be a positive integer, got {value!r}") from None
            if count < 1:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, count)
        if self.restarts >= 2**32:
            # restart i draws from substream i, and spawn keys index below 2**32
            raise ValueError(f"restarts must be below 2**32, got {self.restarts}")
        try:
            if not self.rel_tol > 0:
                raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
            object.__setattr__(self, "rel_tol", float(self.rel_tol))
        except (TypeError, OverflowError):  # not a number, or a positive one beyond the float range
            raise ValueError(f"rel_tol must be a positive number, got {self.rel_tol!r}") from None
        try:
            seed = operator.index(self.seed)
        except TypeError:
            seed = -1
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True, eq=False)
class NormEstimate:
    """A lower bound on a product-witness norm together with the witnesses
    (best_f, best_g) that certify it: value = tr((best_f x best_g) z).

    value_history holds both half-step values of every iteration of the
    reported run, ending at value; restart_index is the position of that
    run's start in the multistart stack (0 for a closed form or a bare run).
    """

    value: float
    iterations_used: int
    converged: bool
    best_f: np.ndarray
    best_g: np.ndarray
    value_history: tuple[float, ...]
    restart_index: int


@dataclass(frozen=True, eq=False)
class RatioReport:
    """Trace norm against the product-witness estimate for one operator.

    ratio is None only for a vanishing game operator (see hiding_ratio),
    whose report is satisfied."""

    trace_norm: float
    eps_estimate: NormEstimate
    ratio: float | None
    bound: float
    satisfied: bool


def bound_factor(n_a: int, n_b: int) -> float:
    """2 sqrt(2) min(n_a, n_b): the proven cap on the ratio of trace norm
    to Hermitian product-witness norm on A x B."""
    return 2.0 * math.sqrt(2.0) * min(n_a, n_b)


def error_probability(norm_value: float) -> float:
    """Optimal error (1 - v)/2 for a distinguishability-norm value v of a
    discrimination operator. v must lie in [0, 1] up to 1e-9."""
    v = float(norm_value)
    if not -1e-9 <= v <= 1.0 + 1e-9:
        raise ValueError(f"norm value {v!r} lies outside [0, 1]")
    return (1.0 - min(max(v, 0.0), 1.0)) / 2.0


def witness_value(z: BipartiteOperator, estimate: NormEstimate) -> float:
    """Re-evaluate tr((best_f x best_g) z) from the stored witnesses."""
    val = np.einsum("ab,ij,bjai->", estimate.best_f, estimate.best_g, z.reshaped())
    return float(val.real)


def _relays(z: BipartiteOperator) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous copies of z laid out for _operand_a and _operand_b."""
    z4 = z.reshaped()
    return np.ascontiguousarray(z4.transpose(1, 0, 2, 3)), np.ascontiguousarray(z4.transpose(0, 2, 1, 3))


def _operand_a(zb: np.ndarray, g: np.ndarray) -> np.ndarray:
    # tr_B[z (1 x g)] for each g in the stack: the A-side operands once g is fixed
    return np.einsum("bijc,rcb->rij", zb, g)


def _operand_b(za: np.ndarray, f: np.ndarray) -> np.ndarray:
    # tr_A[z (f x 1)] for each f in the stack: the B-side operands once f is fixed
    return np.einsum("acij,rca->rij", za, f)


def _contract(operands, stack: np.ndarray, bounds: list[int]) -> np.ndarray:
    """Each operator's (operand, relay) pair applied to its slice
    bounds[j]:bounds[j + 1] of the stack, in order, the running slices
    concatenated; a lone running slice's contraction is returned as is."""
    parts = [operand(relay, stack[lo:hi]) for (operand, relay), lo, hi in zip(operands, bounds, bounds[1:]) if lo < hi]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _Runs(NamedTuple):
    """Outcome of one operator's runs in a see-saw batch, indexed by start
    position."""

    values: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    f: np.ndarray
    g: np.ndarray
    # per iteration: (positions still running, first and second half-step values)
    steps: list[tuple[np.ndarray, np.ndarray, np.ndarray]]

    # position of start 0 in the kernel batch, which steps index
    offset: int

    def estimate(self, k: int) -> NormEstimate:
        history = []
        for running, first, second in self.steps[: self.iterations[k]]:
            p = running.searchsorted(k + self.offset)
            history += (float(first[p]), float(second[p]))
        return NormEstimate(
            value=history[-1],
            iterations_used=int(self.iterations[k]),
            converged=bool(self.converged[k]),
            best_f=self.f[k].copy(),
            best_g=self.g[k].copy(),
            value_history=tuple(history),
            restart_index=k,
        )

    def best(self, count: int | None = None) -> NormEstimate:
        """The estimate of the best of the first count runs (all of them by
        default). argmax takes the first maximum, so ties go to the lowest
        restart index."""
        return self.estimate(int(np.argmax(self.values[:count])))


def _seesaw(zs, stacks, config: SeeSawConfig, sides, hermitian: bool) -> list[_Runs]:
    """The see-saw kernel on operators zs, each with its own stack of
    starts (R_j, n, n) on its own start side ("A" or "B", one per
    operator): alternate exact half-steps from every start at once,
    dropping each start from the batch as soon as it meets its own
    stopping test. Every operator has the same half-step shapes: the same
    start-side dimension and the same other-side dimension. Returns one
    _Runs per operator."""
    zb, za = zip(*map(_relays, zs))
    # per operator, the operand of the other side from a start-side stack, and back
    to_other = [(_operand_a, b) if side == "B" else (_operand_b, a) for side, b, a in zip(sides, zb, za)]
    to_start = [(_operand_b, a) if side == "B" else (_operand_a, b) for side, b, a in zip(sides, zb, za)]
    n_other = zs[0].n_a if sides[0] == "B" else zs[0].n_b
    offsets = [0, *accumulate(map(len, stacks))]
    starts = np.concatenate(stacks)
    count = len(starts)
    values = np.empty(count)
    iterations = np.empty(count, dtype=int)
    converged = np.empty(count, dtype=bool)
    final_start = np.empty_like(starts)
    final_other = np.empty((count, n_other, n_other), dtype=np.complex128)
    steps = []
    running = np.arange(count)
    current = starts
    prev = np.nan  # no start passes the stopping test on its first iteration
    tol = min(config.rel_tol, 1.0)  # v - prev <= v, so a tol above 1 stops where 1 does, and 1 cannot overflow
    for iters in range(1, config.max_iters + 1):
        # each operator's starts stay one contiguous slice of the running stack
        bounds = running.searchsorted(offsets).tolist()
        other, first = optimal_contraction(_contract(to_other, current, bounds), hermitian)
        current, v = optimal_contraction(_contract(to_start, other, bounds), hermitian)
        steps.append((running, first, v))
        # v is a sum of singular values or |eigenvalues|, so |v| = v
        done = v - prev <= tol * np.maximum(v, _TINY)
        stop = done if iters < config.max_iters else np.ones_like(done)
        if stop.any():
            finished = running[stop]
            values[finished] = v[stop]
            iterations[finished] = iters
            converged[finished] = done[stop]
            final_start[finished] = current[stop]
            final_other[finished] = other[stop]
            keep = ~stop
            running, current, v = running[keep], current[keep], v[keep]
            if not len(running):
                break
        prev = v
    runs = []
    for side, lo, hi in zip(sides, offsets, offsets[1:]):
        f, g = final_other[lo:hi], final_start[lo:hi]
        if side == "A":
            f, g = g, f
        runs.append(_Runs(values[lo:hi], iterations[lo:hi], converged[lo:hi], f, g, steps, lo))
    return runs


def _run_jobs(jobs, config: SeeSawConfig) -> list:
    """What each kernel job (z, starts, start side, hermitian, read) reads
    from its runs, in order: one _seesaw call per half-step shape and run of
    at most CALL_OPERATORS consecutive jobs of it, at config's max_iters and
    rel_tol. Each SeeSawConfig job's stack is built by _start_stack just
    before its call, and a call's runs are read and released before the
    next call's stacks are built."""
    groups = {}
    for position, (z, _, side, hermitian, _) in enumerate(jobs):
        dims = (z.n_a, z.n_b) if side == "B" else (z.n_b, z.n_a)
        groups.setdefault((*dims, hermitian), []).append(position)
    results = [None] * len(jobs)
    for (_, dim, hermitian), group in groups.items():
        for i in range(0, len(group), CALL_OPERATORS):
            positions = group[i : i + CALL_OPERATORS]
            zs, starts, sides, _, reads = zip(*(jobs[p] for p in positions))
            stacks = [_start_stack(dim, s) if isinstance(s, SeeSawConfig) else s for s in starts]
            for position, read, runs in zip(positions, reads, _seesaw(zs, stacks, config, sides, hermitian)):
                results[position] = read(runs)
            del stacks, runs  # hold one call's batch at a time
    return results


def _gather(steps):
    """The generator steps advanced in lockstep as one step: each round
    yields the kernel jobs of every unfinished step at once and sends each
    what its own jobs read. Returns the steps' results in order."""
    steps = list(steps)
    results = [None] * len(steps)
    sends = dict.fromkeys(range(len(steps)))
    while sends:
        batches = {}
        for i, sent in sends.items():
            try:
                batches[i] = steps[i].send(sent)
            except StopIteration as done:
                results[i] = done.value
        if not batches:
            break
        read = iter((yield [job for batch in batches.values() for job in batch]))
        sends = {i: [next(read) for _ in batch] for i, batch in batches.items()}
    return results


def _drive(step, config: SeeSawConfig):
    """Run the generator step to its result, every round of its pending
    jobs through _run_jobs at once."""
    try:
        jobs = next(step)
        while True:
            jobs = step.send(_run_jobs(jobs, config))
    except StopIteration as done:
        return done.value


def _estimate(z: BipartiteOperator, config: SeeSawConfig, hermitian: bool = True):
    """epsilon_norm(z, config) as a step: the closed form, or the best run
    of its multistart job."""
    est = _closed_form(z, hermitian)
    if est is None:
        (est,) = yield [(z, config, "B", hermitian, lambda runs: runs.best())]
    return est


def seesaw_run(z: BipartiteOperator, g0, config: SeeSawConfig) -> NormEstimate:
    """Alternate exact half-steps of tr((f x g) z) over Hermitian
    contractions from one initial Hermitian contraction g0 on B.

    The first half-step optimizes f on A, so a start with zero overlap
    against z can leave the run at the fixed point 0. Each half-step is
    the exact optimum of its side, so value_history is nondecreasing up to
    eigensolver noise, and the run is deterministic given (z, g0, config).

    Stops once the per-iteration improvement drops to rel_tol relative to
    the current value, or after max_iters iterations (converged=False).
    The run is one single-start job of _run_jobs on every z, zero included
    (two iterations at value 0), and epsilon_norm runs through _run_jobs
    too, so each restart of the Hermitian epsilon_norm equals seesaw_run
    from its start bit for bit.

    g0 must be a finite Hermitian (n_b, n_b) contraction; ValueError
    otherwise.
    """
    start = as_square_matrix(g0)
    if start.shape != (z.n_b, z.n_b):
        raise ValueError(f"initial contraction has shape {start.shape}, expected ({z.n_b}, {z.n_b})")
    opnorm = float(np.linalg.svd(start, compute_uv=False)[0])
    if opnorm > 1.0 + OPNORM_SLACK:
        raise ValueError(f"initial contraction has operator norm {opnorm!r} > 1")
    if asymmetry(start) > HERMITICITY_TOL:
        raise ValueError("hermitian-field see-saw needs a Hermitian initial contraction")
    return _run_jobs([(z, start[None], "B", True, lambda runs: runs.estimate(0))], config)[0]


def _start_stack(dim: int, config: SeeSawConfig) -> np.ndarray:
    """The (restarts + 1, dim, dim) multistart stack of config (see
    initial_contractions): the identity, then the spectral signs of one
    gue_stack(dim, seed, restarts) draw from one stacked eigensolve."""
    # gue_stack draws gue_hermitian(dim, stream(config.seed, i)) for each
    # restart i bit for bit. A GUE sample is exactly Hermitian, so the
    # stacked sign equals hermitian_sign of each sample bit for bit.
    signs, _ = optimal_contraction(gue_stack(dim, config.seed, config.restarts), hermitian=True)
    return np.concatenate([np.eye(dim, dtype=np.complex128)[None], signs])


def initial_contractions(dim: int, config: SeeSawConfig) -> Iterator[tuple[int, np.ndarray]]:
    """Deterministic multistart seeds: the identity at index 0, then
    spectral signs of GUE samples on substreams (seed, restart_index).

    The whole stack is built on the first step, so the iterator holds
    O(restarts * dim^2) memory however far it is consumed."""
    yield from enumerate(_start_stack(dim, config))


def epsilon_norm(z: BipartiteOperator, config: SeeSawConfig, *, hermitian: bool = True) -> NormEstimate:
    """Best see-saw value over the multistart: a lower bound on the
    product-witness (injective tensor) norm of z, over Hermitian
    contractions or, with hermitian=False, over all complex ones.

    The search is the _estimate step driven alone: all
    initial_contractions run as one multistart job of _run_jobs, and
    every restart equals seesaw_run from its start bit for bit. Memory is
    O(R n^2) for R restarts and n = max(n_a, n_b), plus the histories.

    Never exceeds ||z||_1, since f x g is itself a global contraction. The
    cases z = 0 and n_a = 1 or n_b = 1 are exact by closed form. Ties
    between restarts resolve to the lowest restart index, so the result
    does not depend on evaluation order.
    """
    return _drive(_estimate(z, config, hermitian), config)


def _closed_form(z: BipartiteOperator, hermitian: bool) -> NormEstimate | None:
    """The one exact builder: epsilon_norm by closed form where z = 0,
    n_a = 1 or n_b = 1; None elsewhere."""
    n_a, n_b = z.n_a, z.n_b
    if z.is_zero():
        f, g = np.eye(n_a, dtype=np.complex128), np.eye(n_b, dtype=np.complex128)
        return NormEstimate(0.0, 1, True, f, g, (0.0, 0.0), restart_index=0)
    if n_a == 1 or n_b == 1:
        # One factor is scalar: the single nontrivial side is solved exactly.
        w, v = optimal_contraction(z.matrix, hermitian)
        v = float(v)
        one = np.ones((1, 1), dtype=np.complex128)
        f, g = (one, w) if n_a == 1 else (w, one)
        return NormEstimate(v, 1, True, f, g, (v, v), restart_index=0)
    return None


def hiding_ratio(instance: BipartiteOperator | QuantumXorGame, config: SeeSawConfig) -> RatioReport:
    """Data-hiding ratio report of an operator or a QuantumXorGame: the
    trace norm of its operator z over the Hermitian product-witness
    estimate, against the 2 sqrt(2) min(n_a, n_b) cap.

    The estimate is a lower bound, so ratio can only overestimate the true
    hiding ratio; satisfied allows 1e-6 slack on the cap. A game's
    trace_norm and eps_estimate are its unrestricted and product biases; a
    vanishing game gets ratio None and is satisfied.
    """
    z = _case_operator(instance)
    return _report(z, epsilon_norm(z, config))


def _case_operator(instance) -> BipartiteOperator:
    """The operator a case is estimated on: a QuantumXorGame's
    game_operator, or else the operator itself, with
    DegenerateOperatorError if it is zero, whose hiding ratio is undefined."""
    if isinstance(instance, QuantumXorGame):
        return game_operator(instance)
    if instance.is_zero():
        raise DegenerateOperatorError("hiding ratio is undefined for the zero operator")
    return instance


def _report(z: BipartiteOperator, est: NormEstimate) -> RatioReport:
    """The report of z from its estimate est, as hiding_ratio gives it; a
    vanishing z (a zero game, see hiding_ratio) has ratio None and is
    satisfied."""
    bound = bound_factor(z.n_a, z.n_b)
    if z.is_zero():
        return RatioReport(trace_norm=0.0, eps_estimate=est, ratio=None, bound=bound, satisfied=True)
    tn = trace_norm(z.matrix)
    ratio = tn / est.value if est.value > 0 else math.inf
    return RatioReport(
        trace_norm=tn,
        eps_estimate=est,
        ratio=ratio,
        bound=bound,
        satisfied=ratio <= bound + BOUND_TOL,
    )
