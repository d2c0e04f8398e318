"""Two-player XOR games with quantum questions.

A game distributes the two halves of a bipartite question state to
players who each answer one bit; the correct XOR is prescribed by a sign
per state. The optimal bias over unrestricted (entangled-measurement)
strategies is the trace norm of the game operator; over independent local
+-1 answers it is the Hermitian product-witness norm, so the two never
differ by more than the factor 2 sqrt(2) min(n_a, n_b).

QuantumXorGame and game_operator live in `states`. evaluate_game is
norms.hiding_ratio, the one report function for every case: a game's
report holds its two biases, and a vanishing game gets ratio None.
"""

from __future__ import annotations

from .linalg import check_count, check_dims
from .norms import hiding_ratio
from .states import QuantumXorGame, random_density_matrix, rng_from

# Unused here; kept because the benchmark's tracer patches them on this module by name.
from .linalg import trace_norm  # noqa: F401
from .norms import epsilon_norm  # noqa: F401

evaluate_game = hiding_ratio


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
