"""Two-player XOR games with quantum questions.

A game distributes the two halves of a bipartite question state to
players who each answer one bit; the correct XOR is prescribed by a sign
per state. The optimal bias over unrestricted (entangled-measurement)
strategies is the trace norm of the game operator; over independent local
+-1 answers it is the Hermitian product-witness norm, so the two never
differ by more than the factor 2 sqrt(2) min(n_a, n_b).

QuantumXorGame and game_operator live in `states`. Here a game is its
operator plus a zero case: evaluate_game returns the hiding_ratio report
of the game operator, and a vanishing operator gets ratio None.
"""

from __future__ import annotations

from .linalg import check_count, check_dims
from .norms import RatioReport, SeeSawConfig, _case_operator, _report, epsilon_norm

# Unused here; kept because the benchmark's tracer patches it on this module by name.
from .linalg import trace_norm  # noqa: F401
from .states import QuantumXorGame, random_density_matrix, rng_from


def evaluate_game(game: QuantumXorGame, config: SeeSawConfig) -> RatioReport:
    """Optimal biases of one game: the hiding_ratio report of its operator.

    trace_norm is the unrestricted bias; eps_estimate is the Hermitian
    product-witness estimate (independent local +-1 answers), a lower
    bound on the true product bias. When the operator vanishes both
    biases are 0, every strategy is optimal and ratio is None."""
    gop = _case_operator(game)
    return _report(gop, epsilon_norm(gop, config))


def random_game(n_a: int, n_b: int, num_states: int = 4, seed=0) -> QuantumXorGame:
    """Random game: induced-measure question states, uniform weights,
    independent uniform signs."""
    num_states = check_count(num_states, "num_states", 1)
    n_a, n_b = check_dims(n_a, n_b)
    rng = rng_from(seed)
    states = tuple(random_density_matrix(n_a * n_b, seed=rng) for _ in range(num_states))
    signs = tuple(int(c) for c in rng.choice((-1, 1), size=num_states))
    probs = (1.0 / num_states,) * num_states
    return QuantumXorGame(n_a=n_a, n_b=n_b, states=states, signs=signs, probs=probs)
