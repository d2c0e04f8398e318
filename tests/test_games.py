"""Correlation game construction, payoff operators, and bias evaluation."""

import numpy as np
import pytest

from locnorms import (
    QuantumXorGame,
    SeeSawConfig,
    game_operator,
    hiding_ratio,
    random_density_matrix,
    random_game,
    trace_norm,
    werner_hiding_pair,
)
from locnorms.norms import bound_factor
from locnorms.states import stream

CFG = SeeSawConfig(restarts=16, seed=200)


# ---------------------------------------------------------------- validation

def test_game_validation_errors():
    rho = random_density_matrix(4, seed=201)
    good = dict(n_a=2, n_b=2, states=(rho,), signs=(1,), probs=(1.0,))
    QuantumXorGame(**good)

    with pytest.raises(ValueError, match="at least one"):
        QuantumXorGame(n_a=2, n_b=2, states=(), signs=(), probs=())
    with pytest.raises(ValueError, match="signs"):
        QuantumXorGame(**{**good, "signs": (2,)})
    with pytest.raises(ValueError, match="equal length"):
        QuantumXorGame(**{**good, "signs": (1, -1)})
    with pytest.raises(ValueError, match="nonnegative"):
        QuantumXorGame(**{**good, "states": (rho, rho), "signs": (1, 1),
                          "probs": (1.5, -0.5)})
    with pytest.raises(ValueError, match="deviating from 1"):
        QuantumXorGame(**{**good, "probs": (0.7,)})
    with pytest.raises(ValueError, match=r"probs\[0\] must be a finite"):
        QuantumXorGame(**{**good, "probs": (float("nan"),)})
    with pytest.raises(ValueError, match=r"probs\[1\] must be a finite"):
        QuantumXorGame(**{**good, "states": (rho, rho), "signs": (1, 1),
                          "probs": (1.0, float("inf"))})
    with pytest.raises(ValueError, match=r"states\[0\]"):
        QuantumXorGame(**{**good, "states": (np.eye(4),)})
    with pytest.raises(ValueError, match="shape"):
        QuantumXorGame(**{**good, "states": (random_density_matrix(6, seed=202),)})
    # an empty matrix has asymmetry 0.0, so its trace is what refuses it
    with pytest.raises(ValueError, match=r"^states\[0\] has trace 0\.0, deviating from 1 by more than 1\.0e-10$"):
        QuantumXorGame(n_a=1, n_b=1, states=(np.zeros((0, 0)),), signs=(1,), probs=(1.0,))


def test_game_weights_whose_sum_overflows_are_rejected():
    rho = random_density_matrix(4, seed=201)
    with pytest.raises(ValueError, match="probs sum to inf"):
        QuantumXorGame(n_a=2, n_b=2, states=(rho, rho), signs=(1, 1), probs=(1e308, 1e308))


# ---------------------------------------------------------------- operator

def test_game_operator_single_state():
    rho = random_density_matrix(4, seed=203)
    game = QuantumXorGame(n_a=2, n_b=2, states=(rho,), signs=(1,), probs=(1.0,))
    gop = game_operator(game)
    np.testing.assert_allclose(gop.matrix, rho, atol=1e-15)


def test_game_operator_cancellation():
    rho = random_density_matrix(4, seed=204)
    game = QuantumXorGame(n_a=2, n_b=2, states=(rho, rho), signs=(1, -1),
                          probs=(0.5, 0.5))
    assert game_operator(game).is_zero()


def test_game_operator_trace_identity():
    # tr G = sum_x c_x p_x since every state has unit trace.
    rng = stream(205)
    states = tuple(random_density_matrix(6, seed=rng) for _ in range(3))
    probs = (0.2, 0.3, 0.5)
    signs = (1, -1, 1)
    game = QuantumXorGame(n_a=2, n_b=3, states=states, signs=signs, probs=probs)
    expected = sum(c * p for c, p in zip(signs, probs))
    assert np.trace(game_operator(game).matrix).real == pytest.approx(expected, abs=1e-12)


def test_game_operator_trace_norm_at_most_one():
    rng = stream(206)
    for _ in range(10):
        game = random_game(2, 3, num_states=4, seed=rng)
        assert trace_norm(game_operator(game).matrix) <= 1.0 + 1e-9


# ---------------------------------------------------------------- evaluation

def test_evaluate_single_state_game():
    rho = random_density_matrix(4, seed=207)
    game = QuantumXorGame(n_a=2, n_b=2, states=(rho,), signs=(1,), probs=(1.0,))
    report = hiding_ratio(game, CFG)
    assert report.trace_norm == pytest.approx(1.0, abs=1e-12)
    assert report.eps_estimate.value == pytest.approx(1.0, abs=1e-9)
    assert report.ratio == pytest.approx(1.0, abs=1e-6)
    assert report.satisfied


def report_bits(report):
    """Every field of a report, its witnesses as bytes."""
    est = report.eps_estimate
    return (
        report.trace_norm, report.ratio, report.bound, report.satisfied,
        est.value, est.iterations_used, est.converged, est.restart_index, est.value_history,
        est.best_f.tobytes(), est.best_g.tobytes(),
    )


def test_evaluate_werner_game_matches_hiding_ratio():
    werner = werner_hiding_pair(3)
    rng = stream(215)
    games = [werner] + [random_game(n_a, n_b, num_states=3, seed=rng)
                        for n_a, n_b in ((2, 2), (2, 3), (3, 2))]
    cfg = SeeSawConfig(restarts=32, seed=208)
    for game in games:
        report = hiding_ratio(game, cfg)
        assert report_bits(report) == report_bits(hiding_ratio(game_operator(game), cfg))
        assert report.satisfied
    assert hiding_ratio(werner, cfg).ratio == pytest.approx(3.0, abs=1e-6)


def test_evaluate_zero_game():
    rho = random_density_matrix(4, seed=209)
    game = QuantumXorGame(n_a=2, n_b=2, states=(rho, rho), signs=(1, -1),
                          probs=(0.5, 0.5))
    report = hiding_ratio(game, CFG)
    assert report.trace_norm == 0.0
    assert report.eps_estimate.value == 0.0
    assert report.ratio is None
    assert report.satisfied


def test_evaluate_sign_flip_invariance():
    # Flipping every sign negates the payoff operator and both biases are
    # absolute values, so the report is unchanged.
    rng = stream(210)
    states = tuple(random_density_matrix(4, seed=rng) for _ in range(3))
    probs = (0.5, 0.25, 0.25)
    cfg = SeeSawConfig(restarts=8, seed=211)
    plus = QuantumXorGame(n_a=2, n_b=2, states=states, signs=(1, -1, 1), probs=probs)
    minus = QuantumXorGame(n_a=2, n_b=2, states=states, signs=(-1, 1, -1), probs=probs)
    a, b = hiding_ratio(plus, cfg), hiding_ratio(minus, cfg)
    assert a.trace_norm == pytest.approx(b.trace_norm, abs=1e-12)
    assert a.eps_estimate.value == pytest.approx(b.eps_estimate.value, abs=1e-9)


def test_evaluate_bias_bounded_by_one():
    rng = stream(212)
    for _ in range(8):
        game = random_game(2, 2, num_states=3, seed=rng)
        report = hiding_ratio(game, SeeSawConfig(restarts=8, seed=213))
        assert report.trace_norm <= 1.0 + 1e-9
        assert report.eps_estimate.value <= report.trace_norm + 1e-9
        assert report.bound == bound_factor(2, 2)


# ---------------------------------------------------------------- random games

def test_random_game_contract_and_determinism():
    a = random_game(2, 3, num_states=5, seed=214)
    b = random_game(2, 3, num_states=5, seed=214)
    assert a.n_a == 2 and a.n_b == 3
    assert len(a.states) == 5
    assert all(c in (-1, 1) for c in a.signs)
    assert sum(a.probs) == pytest.approx(1.0, abs=1e-12)
    for s, t in zip(a.states, b.states):
        np.testing.assert_array_equal(s, t)
    assert a.signs == b.signs
