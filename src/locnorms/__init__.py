"""Distinguishability norms under local measurements.

How well can two parties holding halves of a bipartite system tell two
states apart without communicating quantum information? This package
computes the unrestricted distinguishability (trace norm), lower-bounds
the product-witness tensor norm by see-saw maximization, and reports the
data-hiding ratio between them, which provably never exceeds
2 sqrt(2) min(n_a, n_b). The same machinery evaluates quantum XOR game
biases and the dimensional coefficients of observer-objectivity bounds.
"""

from .darwinism import (
    DarwinismParams,
    SweepRow,
    coefficient_sweep,
    diamond_bound_rhs,
    omega_new,
    omega_ranard,
)
from .games import QuantumXorGame, evaluate_game, game_operator, random_game
from .linalg import (
    BipartiteOperator,
    DegenerateOperatorError,
    asymmetry,
    block_frame_sums,
    hermitian_part,
    hermitian_sign,
    swap_subsystems,
    trace_norm,
)
from .norms import (
    FIELD_COMPLEX,
    FIELD_HERMITIAN,
    FieldComparison,
    NormEstimate,
    RatioReport,
    SeeSawConfig,
    bound_factor,
    complex_vs_hermitian_check,
    epsilon_norm,
    error_probability,
    hiding_ratio,
    initial_contractions,
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
from .states import (
    DiscriminationInstance,
    check_density_matrix,
    discrimination_operator,
    gue_hermitian,
    gue_operator,
    haar_unitary,
    induced_difference,
    random_density_matrix,
    rng_from,
    stream,
    werner_hiding_pair,
)
from .verify import field_ratio_scan, game_bound_scan, main_bound_scan, run_verification

__version__ = "0.1.0"

__all__ = [
    "BipartiteOperator",
    "DarwinismParams",
    "DegenerateOperatorError",
    "DiscriminationInstance",
    "FIELD_COMPLEX",
    "FIELD_HERMITIAN",
    "FieldComparison",
    "NormEstimate",
    "OperatorFileError",
    "QuantumXorGame",
    "RatioReport",
    "SeeSawConfig",
    "SweepRow",
    "asymmetry",
    "block_frame_sums",
    "bound_factor",
    "check_density_matrix",
    "coefficient_sweep",
    "complex_vs_hermitian_check",
    "diamond_bound_rhs",
    "discrimination_operator",
    "epsilon_norm",
    "error_probability",
    "evaluate_game",
    "field_ratio_scan",
    "game_bound_scan",
    "game_operator",
    "gue_hermitian",
    "gue_operator",
    "haar_unitary",
    "hermitian_part",
    "hermitian_sign",
    "hiding_ratio",
    "induced_difference",
    "initial_contractions",
    "main_bound_scan",
    "omega_new",
    "omega_ranard",
    "parse_game_file",
    "parse_operator_file",
    "random_density_matrix",
    "random_game",
    "rng_from",
    "run_verification",
    "seesaw_run",
    "stream",
    "swap_subsystems",
    "trace_norm",
    "werner_hiding_pair",
    "witness_value",
    "write_game_file",
    "write_operator_file",
]
