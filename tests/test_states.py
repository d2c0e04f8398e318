"""Generator distributions against moment oracles, and the structured pairs."""

import numpy as np
import pytest

from locnorms import (
    BipartiteOperator,
    QuantumXorGame,
    game_operator,
    gue_operator,
    random_density_matrix,
    trace_norm,
    werner_hiding_pair,
)
from locnorms.states import (
    check_density_matrix,
    gue_hermitian,
    gue_stack,
    haar_unitary,
    induced_difference,
    rng_from,
    stream,
)


# ---------------------------------------------------------------- streams

def test_stream_is_reproducible_and_keyed():
    a = stream(5, 1, 2).standard_normal(8)
    b = stream(5, 1, 2).standard_normal(8)
    c = stream(5, 1, 3).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3


# seeds at 32-bit word boundaries, and seeds of five and seven words (more
# than the four-word SeedSequence pool)
STACK_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1, 2**128, 2**130, 2**200 + 3]
STACK_COUNTS = [0, 1, 17, 501]


@pytest.mark.parametrize("n", range(1, 7))
def test_gue_stack_equals_gue_hermitian_per_stream(n):
    # tobytes, so that signed zeros count
    for seed in STACK_SEEDS:
        expected = [gue_hermitian(n, stream(seed, i)).tobytes() for i in range(1, max(STACK_COUNTS) + 1)]
        for count in STACK_COUNTS:
            stack = gue_stack(n, seed, count)
            assert stack.shape == (count, n, n)
            assert [sample.tobytes() for sample in stack] == expected[:count]
    with pytest.raises(ValueError, match="non-negative"):
        gue_stack(n, -1, 1)
    with pytest.raises(ValueError, match="dimension"):
        gue_stack(0, 0, 1)


def test_rng_from_passes_generators_through():
    rng = stream(6)
    assert rng_from(rng) is rng
    x = rng_from(7).standard_normal(4)
    y = rng_from(7).standard_normal(4)
    np.testing.assert_array_equal(x, y)
    for seed in (0, 7, 2**32, 2**64 - 1):
        np.testing.assert_array_equal(rng_from(seed).standard_normal(4), stream(seed).standard_normal(4))


# ---------------------------------------------------------------- haar unitaries

def test_haar_unitary_is_unitary():
    for k, n in enumerate([1, 2, 5, 9]):
        u = haar_unitary(n, stream(30, k))
        assert np.abs(u @ u.conj().T - np.eye(n)).max() <= 1e-12


def test_haar_unitary_trace_moment():
    # Haar: E |tr(U)|^2 = 1 in any dimension; Monte Carlo at n=8.
    rng = stream(31)
    samples = [abs(np.trace(haar_unitary(8, rng))) ** 2 for _ in range(1000)]
    assert np.mean(samples) == pytest.approx(1.0, abs=0.15)


def test_haar_unitary_deterministic_and_validated():
    np.testing.assert_array_equal(haar_unitary(4, 32), haar_unitary(4, 32))
    with pytest.raises(ValueError, match=">= 1"):
        haar_unitary(0, 1)


# ---------------------------------------------------------------- GUE

def test_gue_hermitian_is_exactly_hermitian():
    m = gue_hermitian(6, 33)
    np.testing.assert_array_equal(m, m.conj().T)


def test_gue_second_moment():
    # E tr(m^2) = n^2: diagonal variance 1, off-diagonal E|m_ij|^2 = 1.
    rng = stream(34)
    n = 64
    acc = 0.0
    for _ in range(200):
        m = gue_hermitian(n, rng)
        acc += float((np.abs(m) ** 2).sum()) / n**2
    assert acc / 200 == pytest.approx(1.0, abs=0.1)


def test_gue_hermitian_deterministic():
    np.testing.assert_array_equal(gue_hermitian(5, 35), gue_hermitian(5, 35))


# ---------------------------------------------------------------- induced states

def test_random_density_matrix_contract():
    rng = stream(36)
    for _ in range(20):
        rho = random_density_matrix(5, seed=rng)
        check_density_matrix(rho)
    assert random_density_matrix(1, seed=0) == pytest.approx(np.ones((1, 1)))


def test_random_density_matrix_purity_moment():
    # Hilbert-Schmidt measure: E tr(rho^2) = 2n/(n^2 + 1).
    n = 4
    expected = 2 * n / (n * n + 1)
    rng = stream(37)
    acc = 0.0
    for _ in range(500):
        rho = random_density_matrix(n, seed=rng)
        acc += float(np.trace(rho @ rho).real)
    assert acc / 500 == pytest.approx(expected, abs=0.02)


# ---------------------------------------------------------------- werner pair

def test_werner_hiding_pair_rejects_small_dimension():
    with pytest.raises(ValueError, match="d >= 2"):
        werner_hiding_pair(1)


def test_werner_hiding_pair_d2_singlet():
    game = werner_hiding_pair(2)
    singlet = np.zeros((4, 4))
    singlet[1, 1] = singlet[2, 2] = 0.5
    singlet[1, 2] = singlet[2, 1] = -0.5
    np.testing.assert_allclose(game.states[1], singlet, atol=1e-14)
    assert (game.n_a, game.n_b, game.signs, game.probs) == (2, 2, (1, -1), (0.5, 0.5))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_werner_projectors_resolve_identity(d):
    rho, sigma = werner_hiding_pair(d).states
    # Undo the normalizations: the two projectors must sum to the identity.
    p_sym = rho * (d * (d + 1) / 2)
    p_asym = sigma * (d * (d - 1) / 2)
    assert np.abs(p_sym + p_asym - np.eye(d * d)).max() <= 1e-12
    assert np.abs(p_sym @ p_asym).max() <= 1e-12
    check_density_matrix(rho, name="rho")
    check_density_matrix(sigma, name="sigma")


# ---------------------------------------------------------------- discrimination operators

def binary_game(rho, sigma, p, n_a=2, n_b=2):
    """Discrimination of rho from sigma at prior p: the two-state game with signs (+1, -1)."""
    return QuantumXorGame(n_a=n_a, n_b=n_b, states=(rho, sigma), signs=(1, -1), probs=(p, 1.0 - p))


def test_discrimination_operator_prior_one_returns_rho():
    rho = random_density_matrix(4, seed=40)
    sigma = random_density_matrix(4, seed=41)
    np.testing.assert_allclose(game_operator(binary_game(rho, sigma, 1.0)).matrix, rho, atol=1e-15)


def test_discrimination_operator_equal_states_cancel():
    rho = random_density_matrix(4, seed=42)
    assert game_operator(binary_game(rho, rho, 0.5)).is_zero()


def test_discrimination_operator_werner_traceless_unit_norm():
    z = game_operator(werner_hiding_pair(3))
    assert abs(np.trace(z.matrix)) <= 1e-12
    assert trace_norm(z.matrix) == pytest.approx(1.0, abs=1e-12)


def test_discrimination_operator_norm_at_most_one():
    # At p=1/2, the trace norm hits 1 exactly iff the states are orthogonal.
    rng = stream(43)
    for _ in range(20):
        p = float(rng.uniform())
        rho = random_density_matrix(4, seed=rng)
        sigma = random_density_matrix(4, seed=rng)
        assert trace_norm(game_operator(binary_game(rho, sigma, p)).matrix) <= 1.0 + 1e-9
    for _ in range(10):
        rho = random_density_matrix(4, seed=rng)
        sigma = random_density_matrix(4, seed=rng)
        # Full-rank overlapping states: strictly inside the unit ball.
        assert trace_norm(game_operator(binary_game(rho, sigma, 0.5)).matrix) < 1.0 - 1e-3


def test_discrimination_instance_validation():
    rho = random_density_matrix(4, seed=44)
    # A prior outside [0, 1] leaves one of the two weights negative.
    with pytest.raises(ValueError, match="nonnegative"):
        binary_game(rho, rho, 1.5)
    with pytest.raises(ValueError, match="shape"):
        binary_game(rho, rho, 0.5, n_a=2, n_b=3)
    with pytest.raises(ValueError, match="trace"):
        binary_game(2 * rho, rho, 0.5)


# ---------------------------------------------------------------- experiment generators

def test_gue_operator_tags_dimensions():
    z = gue_operator(2, 3, 45)
    assert (z.n_a, z.n_b) == (2, 3)
    assert z.matrix.shape == (6, 6)
    np.testing.assert_array_equal(z.matrix, z.matrix.conj().T)


def test_induced_difference_is_bounded_discrimination_operator():
    z = induced_difference(2, 3, 46)
    assert (z.n_a, z.n_b) == (2, 3)
    assert abs(np.trace(z.matrix)) <= 1e-10
    assert trace_norm(z.matrix) <= 1.0 + 1e-9


def test_induced_difference_is_half_rho_minus_half_sigma_bit_for_bit():
    # The CLI's bytes depend on these bits: two induced-measure states drawn
    # in order from one stream, combined at prior 1/2.
    for n_a, n_b in ((1, 1), (2, 3), (3, 2), (4, 4)):
        rng = stream(47, n_a, n_b)
        rho = random_density_matrix(n_a * n_b, seed=rng)
        sigma = random_density_matrix(n_a * n_b, seed=rng)
        expected = BipartiteOperator(n_a, n_b, 0.5 * rho - 0.5 * sigma)
        z = induced_difference(n_a, n_b, stream(47, n_a, n_b))
        np.testing.assert_array_equal(z.matrix, expected.matrix)
