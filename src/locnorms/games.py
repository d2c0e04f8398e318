"""Two-player XOR games with quantum questions.

A game distributes the two halves of a bipartite question state to
players who each answer one bit; the correct XOR is prescribed by a sign
per state. The optimal bias over unrestricted (entangled-measurement)
strategies is the trace norm of the game operator; over independent local
+-1 answers it is the Hermitian product-witness norm, so the two never
differ by more than the factor 2 sqrt(2) min(n_a, n_b).

A game is therefore its operator plus a zero case: evaluate_game returns
the hiding_ratio report of the game operator, and a vanishing operator
gets a report with ratio None. QuantumXorGame holds every value check on
signs, weights and states, including those of games read from files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import BipartiteOperator
from .norms import RatioReport, SeeSawConfig, bound_factor, hiding_ratio, _identity_estimate

# Unused here; kept because the benchmark's tracer patches them on this module by name.
from .linalg import trace_norm  # noqa: F401
from .norms import epsilon_norm  # noqa: F401
from .states import check_density_matrix, random_density_matrix, rng_from

PROB_SUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class QuantumXorGame:
    """Question states with signs and weights on A x B."""

    n_a: int
    n_b: int
    states: tuple[np.ndarray, ...]
    signs: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError(f"local dimensions must be >= 1, got ({self.n_a}, {self.n_b})")
        n = len(self.states)
        if n < 1:
            raise ValueError("a game needs at least one question state")
        if len(self.signs) != n or len(self.probs) != n:
            raise ValueError(
                f"got {n} states, {len(self.signs)} signs, {len(self.probs)} probs; "
                "all three must have equal length"
            )
        for x, c in enumerate(self.signs):
            if c not in (-1, 1):
                raise ValueError(f"signs[{x}] must be +1 or -1, got {c!r}")
        for x, p in enumerate(self.probs):
            if not (math.isfinite(p) and p >= 0.0):
                raise ValueError(f"probs[{x}] must be a finite nonnegative weight, got {p!r}")
        try:
            total = math.fsum(self.probs)
        except OverflowError:  # finite weights whose sum exceeds the float range
            total = math.inf
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probs sum to {total!r}, deviating from 1 by {abs(total - 1.0):.3e}")
        dim = self.n_a * self.n_b
        checked = []
        for x, state in enumerate(self.states):
            h = check_density_matrix(state, name=f"states[{x}]")
            if h.shape != (dim, dim):
                raise ValueError(
                    f"states[{x}] has shape {h.shape}, expected ({dim}, {dim}) "
                    f"for local dimensions ({self.n_a}, {self.n_b})"
                )
            h.flags.writeable = False
            checked.append(h)
        object.__setattr__(self, "states", tuple(checked))
        object.__setattr__(self, "signs", tuple(int(c) for c in self.signs))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))

    @property
    def num_states(self) -> int:
        return len(self.states)


def game_operator(game: QuantumXorGame) -> BipartiteOperator:
    """The signed mixture sum_x c_x p_x rho_x.

    Hermitian with trace norm at most 1; opposite signs on identical
    states cancel, which is how degenerate games arise."""
    dim = game.n_a * game.n_b
    m = np.zeros((dim, dim), dtype=np.complex128)
    for c, p, state in zip(game.signs, game.probs, game.states):
        m += (c * p) * state
    return BipartiteOperator(game.n_a, game.n_b, m, hermitian=True)


def evaluate_game(game: QuantumXorGame, config: SeeSawConfig) -> RatioReport:
    """Optimal biases of one game: the hiding_ratio report of its operator.

    trace_norm is the unrestricted bias; eps_estimate is the Hermitian
    product-witness estimate (independent local +-1 answers), a lower
    bound on the true product bias. When the operator vanishes both
    biases are 0, every strategy is optimal and ratio is None."""
    gop = game_operator(game)
    if gop.is_zero():
        zero = _identity_estimate(game.n_a, game.n_b, restart_index=0)
        bound = bound_factor(game.n_a, game.n_b)
        return RatioReport(trace_norm=0.0, eps_estimate=zero, ratio=None, bound=bound, satisfied=True)
    return hiding_ratio(gop, config)


def random_game(n_a: int, n_b: int, num_states: int = 4, seed=0, env: int | None = None) -> QuantumXorGame:
    """Random game: induced-measure question states, uniform weights,
    independent uniform signs."""
    if num_states < 1:
        raise ValueError(f"num_states must be >= 1, got {num_states}")
    rng = rng_from(seed)
    dim = n_a * n_b
    states = tuple(random_density_matrix(dim, env=env, seed=rng) for _ in range(num_states))
    signs = tuple(int(c) for c in rng.choice((-1, 1), size=num_states))
    probs = (1.0 / num_states,) * num_states
    return QuantumXorGame(n_a=n_a, n_b=n_b, states=states, signs=signs, probs=probs)
