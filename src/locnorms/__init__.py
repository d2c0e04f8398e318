"""Distinguishability norms under local measurements.

How well can two parties holding halves of a bipartite system tell two
states apart without communicating quantum information? This package
computes the unrestricted distinguishability (trace norm), lower-bounds
the product-witness tensor norm by see-saw maximization, and reports the
data-hiding ratio between them, which provably never exceeds
2 sqrt(2) min(n_a, n_b). The same machinery evaluates quantum XOR game
biases and the dimensional coefficients of observer-objectivity bounds.

The top level exports the entry points and the types they take, return
or raise. The matrix, stream and generator helpers they are built on
(hermitian_sign, stream, haar_unitary, ...) are imported from their
modules: locnorms.linalg, locnorms.states and locnorms.norms.
"""

from .darwinism import coefficient_sweep, diamond_bound_rhs, omega_new, omega_ranard
from .games import evaluate_game, random_game
from .linalg import BipartiteOperator, DegenerateOperatorError, trace_norm
from .norms import (
    NormEstimate,
    RatioReport,
    SeeSawConfig,
    epsilon_norm,
    error_probability,
    hiding_ratio,
    seesaw_run,
    witness_value,
)
from .opfile import (
    OperatorFileError,
    parse_game_file,
    parse_operator_file,
    write_game_file,
    write_operator_file,
)
from .states import QuantumXorGame, game_operator, gue_operator, random_density_matrix, werner_hiding_pair
from .verify import field_ratio_scan, game_bound_scan, main_bound_scan, run_verification

__version__ = "0.1.0"

__all__ = [
    "BipartiteOperator",
    "DegenerateOperatorError",
    "NormEstimate",
    "OperatorFileError",
    "QuantumXorGame",
    "RatioReport",
    "SeeSawConfig",
    "coefficient_sweep",
    "diamond_bound_rhs",
    "epsilon_norm",
    "error_probability",
    "evaluate_game",
    "field_ratio_scan",
    "game_bound_scan",
    "game_operator",
    "gue_operator",
    "hiding_ratio",
    "main_bound_scan",
    "omega_new",
    "omega_ranard",
    "parse_game_file",
    "parse_operator_file",
    "random_density_matrix",
    "random_game",
    "run_verification",
    "seesaw_run",
    "trace_norm",
    "werner_hiding_pair",
    "witness_value",
    "write_game_file",
    "write_operator_file",
]
