"""The top-level namespace: the entry points and the types they take, return or raise."""

import locnorms

PUBLIC_NAMES = [
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


def test_public_names_are_pinned_and_resolve():
    assert sorted(locnorms.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(locnorms, name)] == []
