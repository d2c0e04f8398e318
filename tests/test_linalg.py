"""Matrix primitives against independent decomposition oracles."""

import re
import warnings

import numpy as np
import pytest

from locnorms import (
    BipartiteOperator,
    QuantumXorGame,
    SeeSawConfig,
    coefficient_sweep,
    diamond_bound_rhs,
    game_bound_scan,
    game_operator,
    gue_operator,
    main_bound_scan,
    parse_game_file,
    parse_operator_file,
    random_density_matrix,
    random_game,
    run_verification,
    trace_norm,
    werner_hiding_pair,
    write_game_file,
    write_operator_file,
)
from locnorms import verify
from locnorms.linalg import (
    asymmetry,
    block_frame_sums,
    hermitian_part,
    hermitian_sign,
    optimal_contraction,
    swap_subsystems,
)
from locnorms.states import gue_hermitian, haar_unitary, induced_difference, stream


# ---------------------------------------------------------------- trace norm

def test_trace_norm_known_values():
    assert trace_norm(np.eye(4)) == pytest.approx(4.0)
    assert trace_norm(np.diag([1.0, -2.0, 3.0])) == pytest.approx(6.0)
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_zero_iff_zero_matrix():
    rng = stream(11)
    for _ in range(20):
        m = gue_hermitian(3, rng)
        assert trace_norm(m) > 0.0


def test_trace_norm_matches_eigenvalue_oracle():
    # Independent route: |eigenvalues| summed from eigvalsh, not SVD.
    rng = stream(12)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        m = gue_hermitian(n, rng)
        oracle = float(np.abs(np.linalg.eigvalsh(m)).sum())
        assert trace_norm(m) == pytest.approx(oracle, rel=1e-10)


def test_trace_norm_general_matrix_gram_oracle():
    # Non-Hermitian input: compare against sqrt of the Gram spectrum.
    rng = stream(13)
    for _ in range(20):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        gram_vals = np.linalg.eigvalsh(m.conj().T @ m)
        oracle = float(np.sqrt(np.clip(gram_vals, 0.0, None)).sum())
        assert trace_norm(m) == pytest.approx(oracle, rel=1e-8)


def test_trace_norm_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        trace_norm(np.ones((2, 5)))


# ---------------------------------------------------------------- hermitian sign

def test_hermitian_sign_diagonal_with_zero_tiebreak():
    s = hermitian_sign(np.diag([5.0, -3.0, 0.0]))
    np.testing.assert_allclose(s, np.diag([1.0, -1.0, 1.0]), atol=1e-14)


def test_hermitian_sign_contracts_squares_and_attains():
    rng = stream(14)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        m = gue_hermitian(n, rng)
        s = hermitian_sign(m)
        assert np.abs(s - s.conj().T).max() <= 1e-13
        assert np.abs(s @ s - np.eye(n)).max() <= 1e-12
        attained = float(np.trace(s @ m).real)
        assert attained == pytest.approx(trace_norm(m), abs=1e-10)


def test_hermitian_sign_commutes_with_conjugation():
    m = gue_hermitian(4, 15)
    u = haar_unitary(4, 16)
    lhs = hermitian_sign(u @ m @ u.conj().T)
    rhs = u @ hermitian_sign(m) @ u.conj().T
    assert np.abs(lhs - rhs).max() <= 1e-12


# ---------------------------------------------------------------- optimal contraction

@pytest.mark.parametrize("hermitian", [True, False])
def test_optimal_contraction_stack_matches_single_calls(hermitian):
    # A stacked call solves each matrix on its own: same bits as one call
    # per matrix, and each value is the trace norm the witness attains.
    rng = stream(18, int(hermitian))
    for n in (1, 2, 3, 5):
        ms = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
        ws, vals = optimal_contraction(ms, hermitian)
        assert ws.shape == ms.shape and vals.shape == (7,)
        for m, w, v in zip(ms, ws, vals):
            w1, v1 = optimal_contraction(m, hermitian)
            assert w1.tobytes() == w.tobytes() and v1 == v
            assert float(np.linalg.svd(w, compute_uv=False)[0]) <= 1.0 + 1e-12
            target = (m + m.conj().T) / 2 if hermitian else m
            attained = np.trace(w @ target)
            assert abs(attained.imag) <= 1e-10
            assert attained.real == pytest.approx(trace_norm(target), rel=1e-10)
            assert v == pytest.approx(trace_norm(target), rel=1e-10)


def test_optimal_contraction_complex_unitary_input_gives_adjoint():
    u = haar_unitary(5, 17)
    w, v = optimal_contraction(u, hermitian=False)
    np.testing.assert_allclose(w, u.conj().T, atol=1e-12)
    assert v == pytest.approx(5.0, rel=1e-12)


# ---------------------------------------------------------------- bipartite operator

def test_bipartite_operator_validates_dimensions():
    with pytest.raises(ValueError, match="shape"):
        BipartiteOperator(2, 3, np.eye(4))
    with pytest.raises(ValueError, match=">= 1"):
        BipartiteOperator(0, 2, np.eye(0))


def test_bipartite_operator_symmetrizes_with_warning():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-9
    with pytest.warns(RuntimeWarning, match="asymmetry"):
        op = BipartiteOperator(2, 2, m)
    assert np.abs(op.matrix - op.matrix.conj().T).max() == 0.0


def test_bipartite_operator_matrix_is_frozen():
    op = BipartiteOperator(2, 2, np.eye(4))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_swap_subsystems_involution_and_values():
    x = gue_hermitian(2, 21)
    y = gue_hermitian(3, 22)
    z = BipartiteOperator(2, 3, np.kron(x, y))
    zs = swap_subsystems(z)
    assert (zs.n_a, zs.n_b) == (3, 2)
    np.testing.assert_allclose(zs.matrix, np.kron(y, x), atol=1e-14)
    back = swap_subsystems(zs)
    np.testing.assert_allclose(back.matrix, z.matrix, atol=0)


# ---------------------------------------------------------------- block identities

@pytest.mark.parametrize("n_a,n_b", [(2, 2), (2, 3), (3, 3)])
def test_block_frame_sums_unitary_identity(n_a, n_b):
    target = n_a * np.eye(n_b)
    for k in range(5):
        u = haar_unitary(n_a * n_b, stream(23, n_a, n_b, k))
        left, right = block_frame_sums(u, n_a, n_b)
        assert np.abs(left - target).max() <= 1e-10
        assert np.abs(right - target).max() <= 1e-10


def test_block_frame_sums_matrix_units_exact():
    # The n_a x n_a matrix units stacked as blocks of scalars: both frame
    # sums collapse to n_a exactly, with no floating error at all.
    for n in (2, 3, 4):
        total = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n))
                e[i, j] = 1.0
                total += e.conj().T @ e
        assert np.abs(total - n * np.eye(n)).max() == 0.0


def test_block_frame_sums_rejects_mismatched_split():
    with pytest.raises(ValueError, match="blocks"):
        block_frame_sums(np.eye(5), 2, 2)


def test_hermitian_part_warning_band():
    clean = np.eye(3, dtype=complex)
    with np.testing.assert_no_warnings():
        hermitian_part(clean)
    dirty = clean.copy()
    dirty[0, 2] = 1e-8
    with pytest.warns(RuntimeWarning, match="asymmetry"):
        hermitian_part(dirty)


def test_hermitian_part_rejects_an_overflowing_sum_without_numpy_warnings():
    for m in ([[1e308]], [[0.0, 1e308], [1e308, 0.0]]):
        with pytest.raises(ValueError, match="overflow when symmetrized"):
            hermitian_part(m)
        with pytest.raises(ValueError, match="overflow when symmetrized"):
            BipartiteOperator(1, len(m), m)
    # finite sums keep their bits
    a = np.random.default_rng(5).standard_normal((4, 4)) * 1e307
    with pytest.warns(RuntimeWarning, match="asymmetry"):
        np.testing.assert_array_equal(hermitian_part(a), (a + a.T) / 2)


def test_asymmetry_beyond_the_float_range_is_inf_without_numpy_warnings():
    m = [[0.0, 1e308], [-1e308, 0.0]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert asymmetry(m) == np.inf
        z = BipartiteOperator(1, 2, m)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert runtime == ["asymmetry inf exceeds 1.0e-12; taking the Hermitian part"]
    assert z.is_zero()


# ---------------------------------------------------------------- counts and dimensions

def one_state_game(n_a, n_b):
    rho = np.eye(4) / 4
    return QuantumXorGame(n_a=n_a, n_b=n_b, states=(rho,), signs=(1,), probs=(1.0,))


def test_counts_and_dimensions_must_be_integers(tmp_path):
    config = SeeSawConfig(restarts=1)
    pairs = {  # each takes local dimensions (n_a, n_b)
        "operator": lambda n_a, n_b: BipartiteOperator(n_a, n_b, np.eye(4)),
        "game": one_state_game,
        "gue": lambda n_a, n_b: gue_operator(n_a, n_b, 0),
        "induced": lambda n_a, n_b: induced_difference(n_a, n_b, 0),
        "main scan": lambda n_a, n_b: main_bound_scan([(n_a, n_b)], 1, config),
        "game scan": lambda n_a, n_b: game_bound_scan(1, n_a, n_b, config),
    }
    counts = {  # each takes one count, checked under its name
        "haar": ("dimension", lambda n: haar_unitary(n, 1)),
        "gue_hermitian": ("dimension", lambda n: gue_hermitian(n, 1)),
        "density": ("dimension", lambda n: random_density_matrix(n)),
        "random_game": ("num_states", lambda n: random_game(2, 2, num_states=n)),
        "diamond r": ("r_size", lambda n: diamond_bound_rhs(2, 5, n, 100)),
        "diamond q": ("q_size", lambda n: diamond_bound_rhs(2, 5, 1, n)),
        "sweep r": ("r_size", lambda n: coefficient_sweep([2], [3], n, 100)),
        "sweep q": ("q_size", lambda n: coefficient_sweep([2], [3], 1, n)),
        "main scan": ("samples", lambda n: main_bound_scan([(2, 2)], n, config)),
        "game scan": ("samples", lambda n: game_bound_scan(n, 2, 2, config)),
        "verification": ("samples", lambda n: run_verification(config, samples=n)),
        "werner": ("d", werner_hiding_pair),
    }
    for bad in (1.5, 2.0, np.float64(2.0), 2.5, 3.0, np.float64(3.0)):
        for build in pairs.values():
            for n_a, n_b in ((bad, 2), (2, bad)):
                message = f"local dimensions must be integers, got ({n_a!r}, {n_b!r})"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    build(n_a, n_b)
        for name, build in counts.values():
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer, got {bad!r}')}$"):
                build(bad)
    for build in (lambda: gue_hermitian(0, 1), lambda: random_density_matrix(0)):
        with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
            build()

    assert werner_hiding_pair(np.int64(3)).n_a == 3
    # a narrow numpy integer is converted before d * d is formed, so it cannot wrap
    small, pair = werner_hiding_pair(np.uint8(16)), werner_hiding_pair(16)
    assert type(small.n_a) is int and small.n_a == 16
    for got, want in zip(small.states, pair.states):
        np.testing.assert_array_equal(got, want)
    z, _ = verify.draw("werner", np.uint8(16), 16, 0, 0, 0)
    np.testing.assert_array_equal(z.matrix, game_operator(pair).matrix)
    with pytest.raises(ValueError, match=r"at d=1\)$"):
        werner_hiding_pair(True)

    # numpy integers are stored as int, so the files write them as JSON numbers
    z = BipartiteOperator(np.int64(2), np.uint8(2), gue_hermitian(4, 3))
    game = one_state_game(np.uint8(2), np.int64(2))
    for n_a, n_b in ((z.n_a, z.n_b), (game.n_a, game.n_b)):
        assert (type(n_a), type(n_b), n_a, n_b) == (int, int, 2, 2)
    write_operator_file(tmp_path / "op.json", z)
    back = parse_operator_file(tmp_path / "op.json")
    assert (back.n_a, back.n_b) == (2, 2)
    np.testing.assert_array_equal(back.matrix, z.matrix)
    write_game_file(tmp_path / "game.json", game)
    back = parse_game_file(tmp_path / "game.json")
    assert (back.n_a, back.n_b, back.signs, back.probs) == (2, 2, (1,), (1.0,))
    np.testing.assert_array_equal(back.states[0], game.states[0])
