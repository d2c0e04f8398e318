"""See-saw estimator soundness, exact cases, covariances, and the ratio
pipeline."""

import gc
import json
import math
import re
import warnings
import weakref

import numpy as np
import pytest

from locnorms import (
    BipartiteOperator,
    DegenerateOperatorError,
    SeeSawConfig,
    epsilon_norm,
    error_probability,
    evaluate_game,
    game_operator,
    gue_operator,
    hiding_ratio,
    random_density_matrix,
    random_game,
    seesaw_run,
    trace_norm,
    werner_hiding_pair,
    witness_value,
)
from locnorms.linalg import hermitian_sign, swap_subsystems
from locnorms import norms
from locnorms.norms import OPNORM_SLACK, _closed_form, _operand_a, _operand_b, _relays, _seesaw
from locnorms.norms import _start_stacks
from locnorms.norms import bound_factor
from locnorms.norms import initial_contractions
from locnorms.states import gue_hermitian, haar_unitary, induced_difference, stream
from locnorms.verify import case_records

CFG = SeeSawConfig(restarts=16, seed=100)


def sign_pair_product(seed):
    rng = stream(seed)
    x = gue_hermitian(2, rng)
    y = gue_hermitian(2, rng)
    return x, y, BipartiteOperator(2, 2, np.kron(x, y))


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError, match="restarts"):
        SeeSawConfig(restarts=0)
    with pytest.raises(ValueError, match="max_iters"):
        SeeSawConfig(max_iters=0)
    with pytest.raises(ValueError, match="rel_tol"):
        SeeSawConfig(rel_tol=0.0)


@pytest.mark.parametrize("rel_tol", ["1e-3", None])
def test_config_rejects_a_tolerance_that_is_not_a_number(rel_tol):
    with pytest.raises(ValueError, match=rf"^rel_tol must be a positive number, got {rel_tol!r}$"):
        SeeSawConfig(rel_tol=rel_tol)


@pytest.mark.parametrize("name", ["restarts", "max_iters"])
@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, "3", None, np.float64(2.0)])
def test_config_rejects_a_budget_that_is_not_an_integer(name, value):
    # a fractional restart count would run a rounded-up number of restarts
    with pytest.raises(ValueError, match=rf"^{name} must be a positive integer, got "):
        SeeSawConfig(**{name: value})


def test_config_caps_restarts_at_the_substream_index_range():
    # restart i draws from substream i, whose spawn key must lie below 2**32
    assert SeeSawConfig(restarts=2**32 - 1).restarts == 2**32 - 1
    for restarts in (2**32, 2**64):
        with pytest.raises(ValueError, match=rf"^restarts must be below 2\*\*32, got {restarts}$"):
            SeeSawConfig(restarts=restarts)


@pytest.mark.parametrize("name", ["restarts", "max_iters"])
@pytest.mark.parametrize("value", [1, np.int64(5), np.uint32(7)])
def test_config_accepts_integer_budgets(name, value):
    assert getattr(SeeSawConfig(**{name: value}), name) == value


def test_config_stores_its_counts_and_seed_as_int():
    # a bool or numpy-integer budget is stored as int, so it runs and
    # serializes as that int does
    ones = SeeSawConfig(restarts=True, max_iters=np.uint8(40), seed=np.uint64(7))
    assert [type(ones.restarts), type(ones.max_iters), type(ones.seed)] == [int, int, int]
    z = gue_operator(2, 3, 177)
    est = epsilon_norm(z, ones)
    ref = epsilon_norm(z, SeeSawConfig(restarts=1, max_iters=40, seed=7))
    assert est.value_history == ref.value_history
    assert np.array_equal(est.best_f, ref.best_f) and np.array_equal(est.best_g, ref.best_g)
    rows = [
        json.dumps(case_records([(z, 11)], SeeSawConfig(restarts=count(3), seed=count(5)), generator="gue"))
        for count in (int, np.int64, np.uint64)
    ]
    assert rows[1:] == rows[:1] * 2


@pytest.mark.parametrize("seed", [1.5, -1, "3", None, np.float64(2.0)])
def test_config_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got "):
        SeeSawConfig(seed=seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**130, np.uint64(7), np.int64(3)])
def test_config_accepts_nonnegative_integer_seeds(seed):
    assert SeeSawConfig(seed=seed).seed == seed


# ---------------------------------------------------------------- seesaw_run

def test_seesaw_product_saturates_from_sign_start():
    x = np.diag([1.0, -1.0])
    y = np.diag([1.0, -1.0])
    z = BipartiteOperator(2, 2, np.kron(x, y))
    est = seesaw_run(z, np.diag([1.0, -1.0]), CFG)
    assert est.value == pytest.approx(4.0, abs=1e-12)
    assert est.iterations_used <= 2
    assert est.converged


def test_seesaw_traceless_product_identity_start_is_degenerate():
    # tr(y * identity) = 0, so the first operand vanishes and the run sits
    # at the fixed point 0; the multistart recovers the true value 4.
    x = np.diag([1.0, -1.0])
    z = BipartiteOperator(2, 2, np.kron(x, x))
    stuck = seesaw_run(z, np.eye(2), CFG)
    assert stuck.value == 0.0
    assert stuck.converged
    assert epsilon_norm(z, CFG).value == pytest.approx(4.0, abs=1e-12)


def test_seesaw_density_matrix_psd_starts_reach_one():
    # From any PSD start with positive overlap, the first half-step already
    # attains 1 = tr(rho); indefinite starts may stall at local maxima,
    # which is why the multistart always includes the identity.
    rng = stream(101)
    for k in range(5):
        rho = random_density_matrix(6, seed=rng)
        z = BipartiteOperator(2, 3, rho)
        for g0 in (np.eye(3), np.diag(rng.uniform(0.1, 1.0, size=3))):
            est = seesaw_run(z, g0, CFG)
            assert est.value == pytest.approx(1.0, abs=1e-9)


def test_seesaw_run_on_the_zero_operator_is_a_kernel_run():
    # The first iteration cannot stop (it has no previous value), the second
    # gains nothing, and the sign of a zero operand is the identity.
    z = BipartiteOperator(2, 3, np.zeros((6, 6)))
    est = seesaw_run(z, np.eye(3), CFG)
    assert est.value == 0.0
    assert est.converged
    assert est.iterations_used == 2
    assert est.value_history == (0.0, 0.0, 0.0, 0.0)
    assert est.restart_index is None
    assert np.array_equal(est.best_f, np.eye(2)) and np.array_equal(est.best_g, np.eye(3))


def test_seesaw_monotone_histories():
    rng = stream(102)
    for k in range(30):
        n_a, n_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        z = gue_operator(n_a, n_b, rng)
        g0 = hermitian_sign(gue_hermitian(n_b, rng))
        est = seesaw_run(z, g0, CFG)
        diffs = np.diff(est.value_history)
        assert diffs.min() >= -1e-12
        assert est.value == est.value_history[-1]


def test_seesaw_deterministic():
    z = gue_operator(3, 3, 103)
    g0 = hermitian_sign(gue_hermitian(3, 104))
    a = seesaw_run(z, g0, CFG)
    b = seesaw_run(z, g0, CFG)
    assert a.value_history == b.value_history
    np.testing.assert_array_equal(a.best_f, b.best_f)
    np.testing.assert_array_equal(a.best_g, b.best_g)


def test_seesaw_witnesses_are_contractions_and_reproduce_value():
    rng = stream(105)
    cfg = SeeSawConfig(restarts=4, seed=106)
    for hermitian in (True, False):
        for _ in range(10):
            z = gue_operator(3, 2, rng)
            g0 = hermitian_sign(gue_hermitian(2, rng))
            est = run_from(z, g0, cfg, "B", hermitian)
            for w in (est.best_f, est.best_g):
                assert float(np.linalg.svd(w, compute_uv=False)[0]) <= 1.0 + 1e-12
            assert witness_value(z, est) == pytest.approx(est.value, abs=1e-9)


def test_seesaw_input_validation():
    z = gue_operator(2, 2, 107)
    with pytest.raises(ValueError, match="shape"):
        seesaw_run(z, np.eye(3), CFG)
    with pytest.raises(ValueError, match="operator norm"):
        seesaw_run(z, 2.0 * np.eye(2), CFG)
    with pytest.raises(ValueError, match="Hermitian initial"):
        seesaw_run(z, np.array([[0.0, 1.0], [0.0, 0.0]]), CFG)
    with pytest.raises(ValueError, match="must be finite"):
        seesaw_run(z, np.array([[np.nan, 0.0], [0.0, 1.0]]), CFG)


@pytest.mark.parametrize(
    "start, message",
    [
        (2.0 * np.eye(3), "initial contraction has operator norm 2.0 > 1"),
        (np.eye(2), "initial contraction has shape (2, 2), expected (3, 3)"),
        (np.diag([1.0, 1.0, 0.5j]), "hermitian-field see-saw needs a Hermitian initial contraction"),
    ],
    ids=["norm", "shape", "hermitian"],
)
def test_seesaw_run_checks_its_start(start, message):
    z = gue_operator(2, 3, 169)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        seesaw_run(z, start, CFG)


def test_seesaw_run_is_hermitian_only():
    # The complex field is epsilon_norm's alone; a one-start complex run is
    # a _run_jobs job (run_from).
    z = gue_operator(2, 2, 107)
    with pytest.raises(TypeError, match="hermitian"):
        seesaw_run(z, np.eye(2), CFG, hermitian=False)
    unitary = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="^hermitian-field see-saw needs a Hermitian initial contraction$"):
        seesaw_run(z, unitary, CFG)


# ---------------------------------------------------------------- epsilon_norm

def test_epsilon_norm_bounded_by_trace_norm():
    rng = stream(108)
    for k in range(20):
        z = gue_operator(3, 3, rng) if k % 2 == 0 else induced_difference(3, 3, rng)
        est = epsilon_norm(z, SeeSawConfig(restarts=8, seed=109))
        assert est.value <= trace_norm(z.matrix) + 1e-9
        assert witness_value(z, est) == pytest.approx(est.value, abs=1e-9)


def test_epsilon_norm_scalar_factor_shortcut():
    cfg = SeeSawConfig(restarts=4, seed=110)
    for hermitian in (True, False):
        m = gue_hermitian(4, 111)
        z = BipartiteOperator(1, 4, m)
        est = epsilon_norm(z, cfg, hermitian=hermitian)
        assert est.value == pytest.approx(trace_norm(m), abs=1e-12)
        assert est.iterations_used == 1
        assert witness_value(z, est) == pytest.approx(est.value, abs=1e-10)
        zt = BipartiteOperator(4, 1, m)
        assert epsilon_norm(zt, cfg, hermitian=hermitian).value == pytest.approx(trace_norm(m), abs=1e-12)


def test_epsilon_norm_zero_operator():
    z = BipartiteOperator(3, 2, np.zeros((6, 6)))
    est = epsilon_norm(z, CFG)
    assert est.value == 0.0
    assert est.converged


def test_epsilon_norm_density_matrix_is_one():
    # Identity start is always included, so the PSD optimum is never missed.
    rng = stream(112)
    for _ in range(5):
        z = BipartiteOperator(2, 2, random_density_matrix(4, seed=rng))
        est = epsilon_norm(z, SeeSawConfig(restarts=1, seed=int(rng.integers(1 << 32))))
        assert est.value == pytest.approx(1.0, abs=1e-9)


def test_epsilon_norm_product_case_recovers_factor_norms():
    for seed in range(120, 130):
        x, y, z = sign_pair_product(seed)
        target = trace_norm(x) * trace_norm(y)
        est = epsilon_norm(z, SeeSawConfig(restarts=20, seed=seed))
        assert est.value == pytest.approx(target, rel=1e-8)


def test_epsilon_norm_restart_metadata():
    z = game_operator(werner_hiding_pair(2))
    est = epsilon_norm(z, SeeSawConfig(restarts=32, seed=7))
    assert est.restart_index is not None and 0 <= est.restart_index <= 32
    # Identity is stuck at 0 here (both partial traces vanish), so the
    # winner must be a randomized start.
    assert est.restart_index > 0
    assert est.value == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_initial_contractions_shape_and_count():
    cfg = SeeSawConfig(restarts=5, seed=113)
    starts = list(initial_contractions(3, cfg))
    assert len(starts) == 6
    assert starts[0][0] == 0
    np.testing.assert_array_equal(starts[0][1], np.eye(3))
    for _, g0 in starts[1:]:
        assert np.abs(g0 @ g0 - np.eye(3)).max() <= 1e-12


@pytest.mark.parametrize("restarts", [1, 50, 500])
def test_initial_contractions_equal_per_restart_signs(restarts):
    # The stacked start generation against one hermitian_sign per sample.
    for dim in range(1, 7):
        cfg = SeeSawConfig(restarts=restarts, seed=150 + dim)
        ref = [np.eye(dim, dtype=complex)]
        ref += [hermitian_sign(gue_hermitian(dim, stream(cfg.seed, i))) for i in range(1, restarts + 1)]
        starts = list(initial_contractions(dim, cfg))
        assert [index for index, _ in starts] == list(range(restarts + 1))
        for (_, g0), expected in zip(starts, ref):
            assert np.array_equal(g0, expected)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("restarts", [1, 50, 500])
def test_start_stack_holds_hermitian_contractions_identity_first(restarts, seed):
    # _run_jobs runs this stack unchecked, for epsilon_norm and verify alike, so the guarantee lives here.
    for dim in range(1, 7):
        (starts,) = _start_stacks(dim, [SeeSawConfig(restarts=restarts, seed=seed)])
        assert starts.shape == (restarts + 1, dim, dim)
        assert np.array_equal(starts[0], np.eye(dim))
        assert np.array_equal(starts, starts.conj().swapaxes(1, 2))
        assert np.linalg.svd(starts, compute_uv=False)[:, 0].max() <= 1.0 + OPNORM_SLACK


@pytest.mark.parametrize("restarts", [1, 2, 17])
def test_start_stacks_equal_one_start_stack_each(restarts):
    # One _start_stacks call over configs of several seeds and budgets
    # (and a repeated one) gives each config's stack built alone, bit for bit.
    seeds = (0, 2**32, 2**64 - 1, 2**130)
    configs = [SeeSawConfig(restarts=restarts + k % 2, seed=seed) for k, seed in enumerate(seeds)]
    configs.insert(2, configs[0])
    for dim in range(1, 7):
        stacks = _start_stacks(dim, configs)
        assert len(stacks) == len(configs)
        for config, stack in zip(configs, stacks):
            (expected,) = _start_stacks(dim, [config])
            assert stack.shape == expected.shape and stack.tobytes() == expected.tobytes()


@pytest.mark.parametrize("count", [1, 51, 501])
def test_relaid_operands_equal_strided_einsum(count):
    # The operands on the relaid copies of z against the same einsum on
    # the strided (n_a, n_b, n_a, n_b) view.
    for n_a in range(1, 7):
        for n_b in range(1, 7):
            rng = stream(151, n_a, n_b, count)
            dim = n_a * n_b
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            z = BipartiteOperator(n_a, n_b, (m + m.conj().T) / 2)
            g = rng.standard_normal((count, n_b, n_b)) + 1j * rng.standard_normal((count, n_b, n_b))
            f = rng.standard_normal((count, n_a, n_a)) + 1j * rng.standard_normal((count, n_a, n_a))
            zb, za = _relays(z)
            assert np.array_equal(_operand_a(zb, g), np.einsum("ibjc,rcb->rij", z.reshaped(), g))
            assert np.array_equal(_operand_b(za, f), np.einsum("aicj,rca->rij", z.reshaped(), f))


# ---------------------------------------------------------------- batched multistart

EQUIV_SIZES = (2, 3, 4, 6)


def per_restart_reference(z, config, hermitian):
    """epsilon_norm as a loop of single-start runs (run_from on B) with
    strict-improvement selection, so ties go to the lowest restart index."""
    best, winner, values = None, None, []
    for index, g0 in initial_contractions(z.n_b, config):
        est = run_from(z, g0, config, "B", hermitian)
        values.append(est.value)
        if best is None or est.value > best.value:
            best, winner = est, index
    return best, winner, values


def assert_bit_identical(est, ref, winner):
    assert est.value == ref.value
    assert est.restart_index == winner
    assert est.iterations_used == ref.iterations_used
    assert est.converged == ref.converged
    assert est.value_history == ref.value_history
    assert np.array_equal(est.best_f, ref.best_f)
    assert np.array_equal(est.best_g, ref.best_g)


def loop_seesaw(z, g0, config, hermitian, start_side="B"):
    """One see-saw run as a plain loop of unbatched half-steps: the
    reference for the arithmetic of the batched kernel."""

    def half_step(m):
        if hermitian:
            vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
            w = (vecs * np.where(vals >= 0.0, 1.0, -1.0)) @ vecs.conj().T
            return (w + w.conj().T) / 2, float(np.abs(vals).sum())
        u, sv, vh = np.linalg.svd(m)
        return (u @ vh).conj().T, float(sv.sum())

    z4 = z.reshaped()
    f = g = np.asarray(g0, dtype=complex)
    history, prev, converged = [], None, False
    for iters in range(1, config.max_iters + 1):
        if start_side == "B":
            f, v = half_step(np.einsum("ibjc,cb->ij", z4, g))
            history.append(v)
            g, v = half_step(np.einsum("aicj,ca->ij", z4, f))
        else:
            g, v = half_step(np.einsum("aicj,ca->ij", z4, f))
            history.append(v)
            f, v = half_step(np.einsum("ibjc,cb->ij", z4, g))
        history.append(v)
        if prev is not None and v - prev <= config.rel_tol * max(abs(v), 1e-300):
            converged = True
            break
        prev = v
    return history, iters, converged, f, g


def run_from(z, g0, config, start_side, hermitian=True):
    """seesaw_run from g0 on B in the Hermitian field; otherwise the
    one-start _run_jobs job that seesaw_run makes, started on start_side in
    the given field."""
    if start_side == "B" and hermitian:
        return seesaw_run(z, g0, config)
    return norms._run_jobs([(z, g0[None], start_side, hermitian, lambda runs: runs.estimate(0))], config)[0]


FIELDS = pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "complex"])


@FIELDS
@pytest.mark.parametrize("start_side", ["A", "B"])
@pytest.mark.parametrize("max_iters", [3, 500])
def test_seesaw_run_equals_unbatched_loop(hermitian, start_side, max_iters):
    config = SeeSawConfig(restarts=3, seed=147, max_iters=max_iters)
    for n_a, n_b in [(2, 2), (2, 3), (4, 3), (6, 5)]:
        z = equivalence_operator(n_a, n_b, n_a + n_b)
        dim = n_b if start_side == "B" else n_a
        for _, g0 in initial_contractions(dim, config):
            est = run_from(z, g0, config, start_side, hermitian)
            history, iters, converged, f, g = loop_seesaw(z, g0, config, hermitian, start_side)
            assert est.value_history == tuple(history) and est.value == history[-1]
            assert (est.iterations_used, est.converged) == (iters, converged)
            assert np.array_equal(est.best_f, f) and np.array_equal(est.best_g, g)


def equivalence_operator(n_a, n_b, k):
    # GUE on even k, an induced difference on odd k
    rng = stream(140, n_a, n_b, k)
    return gue_operator(n_a, n_b, rng) if k % 2 == 0 else induced_difference(n_a, n_b, rng)


def assert_same_runs(runs, ref):
    assert runs.values.tobytes() == ref.values.tobytes()
    assert runs.iterations.tobytes() == ref.iterations.tobytes()
    assert runs.converged.tobytes() == ref.converged.tobytes()
    assert runs.f.tobytes() == ref.f.tobytes() and runs.g.tobytes() == ref.g.tobytes()
    for k in range(len(ref.values)):
        assert runs.estimate(k).value_history == ref.estimate(k).value_history


@FIELDS
@pytest.mark.parametrize("start_side", ["A", "B"])
@pytest.mark.parametrize("n_a", (2, 3, 4, 5))
@pytest.mark.parametrize("n_b", (2, 3, 4, 5))
def test_kernel_on_several_operators_equals_one_call_each(hermitian, start_side, n_a, n_b):
    # Four operators of one shape with 1, 4, 2 and 6 starts share one
    # kernel call; each one's runs equal a call on it alone, bit for bit,
    # also where the iteration cap stops part of the batch.
    dim = n_b if start_side == "B" else n_a
    zs = [equivalence_operator(n_a, n_b, k) for k in range(4)]
    stacks = _start_stacks(dim, [SeeSawConfig(restarts=5, seed=148 + k) for k in range(4)])
    stacks = [stacks[0][1:2], stacks[1][:4], stacks[2][3:5], stacks[3]]
    for config in (SeeSawConfig(), SeeSawConfig(max_iters=3)):
        batch = _seesaw(zs, stacks, config, [start_side] * len(zs), hermitian)
        assert len(batch) == len(zs)
        for z, starts, runs in zip(zs, stacks, batch):
            assert_same_runs(runs, _seesaw([z], [starts], config, [start_side], hermitian)[0])
        converged = np.concatenate([runs.converged for runs in batch])
        assert converged.all() if config.max_iters == 500 else not converged.all()


@FIELDS
@pytest.mark.parametrize("n_a", (2, 3, 4, 5))
@pytest.mark.parametrize("n_b", (2, 3, 4, 5))
def test_kernel_on_both_start_sides_equals_one_call_each(hermitian, n_a, n_b):
    # Operators on n_a x n_b started on B and on n_b x n_a started on A
    # have the same half-step shapes and share one kernel call, in either
    # order; each one's runs equal a call on it alone, bit for bit, also
    # where the iteration cap stops part of the batch.
    direct = [equivalence_operator(n_a, n_b, k) for k in range(3)]
    swapped = [equivalence_operator(n_b, n_a, k) for k in range(3, 6)]
    stacks = _start_stacks(n_b, [SeeSawConfig(restarts=4, seed=149 + k) for k in range(6)])
    stacks = [stacks[0][:3], stacks[1][2:3], stacks[2], stacks[3][1:], stacks[4][:2], stacks[5][4:]]
    orders = [[3, 0, 4, 1, 5, 2], [0, 1, 3, 2, 4, 5], [5, 4, 3]]
    zs, sides = direct + swapped, ["B"] * 3 + ["A"] * 3
    for config in (SeeSawConfig(), SeeSawConfig(max_iters=3)):
        for order in orders:
            z_order, stack_order, side_order = ([x[j] for j in order] for x in (zs, stacks, sides))
            batch = _seesaw(z_order, stack_order, config, side_order, hermitian)
            for j, runs in zip(order, batch):
                assert_same_runs(runs, _seesaw([zs[j]], [stacks[j]], config, [sides[j]], hermitian)[0])


@FIELDS
@pytest.mark.parametrize("n_a", EQUIV_SIZES)
@pytest.mark.parametrize("n_b", EQUIV_SIZES)
def test_epsilon_norm_equals_per_restart_loop(hermitian, n_a, n_b):
    for k in range(2):
        z = equivalence_operator(n_a, n_b, k)
        for config in (
            SeeSawConfig(restarts=50, seed=141 + k),
            # capped and converged restarts share one batch
            SeeSawConfig(restarts=50, seed=143 + k, max_iters=3),
        ):
            ref, winner, _ = per_restart_reference(z, config, hermitian)
            assert_bit_identical(epsilon_norm(z, config, hermitian=hermitian), ref, winner)


@pytest.mark.parametrize(
    "hermitian,n_a,n_b", [(True, 2, 3), (False, 3, 2)], ids=["hermitian-2-3", "complex-3-2"]
)
def test_epsilon_norm_equals_per_restart_loop_at_escalation_budget(hermitian, n_a, n_b):
    z = equivalence_operator(n_a, n_b, 0)
    config = SeeSawConfig(restarts=500, seed=145)
    ref, winner, values = per_restart_reference(z, config, hermitian)
    assert_bit_identical(epsilon_norm(z, config, hermitian=hermitian), ref, winner)
    assert len(values) == 501


def assert_same_estimate(est, ref):
    # every field, compared by its bytes
    assert np.float64(est.value).tobytes() == np.float64(ref.value).tobytes()
    assert np.array(est.value_history).tobytes() == np.array(ref.value_history).tobytes()
    assert est.best_f.tobytes() == ref.best_f.tobytes() and est.best_g.tobytes() == ref.best_g.tobytes()
    assert (est.iterations_used, est.converged, est.restart_index) == (
        ref.iterations_used,
        ref.converged,
        ref.restart_index,
    )


def direct_epsilon_norm(z, config, hermitian):
    """epsilon_norm as the closed form where it is exact and otherwise one
    direct kernel call on the multistart stack: the reference for the
    driven path."""
    est = _closed_form(z, hermitian)
    if est is None:
        est = _seesaw([z], _start_stacks(z.n_b, [config]), config, ["B"], hermitian)[0].best()
    return est


@FIELDS
@pytest.mark.parametrize("n_a", range(1, 7))
@pytest.mark.parametrize("n_b", range(1, 7))
def test_epsilon_norm_equals_a_direct_kernel_call(hermitian, n_a, n_b):
    zero = BipartiteOperator(n_a, n_b, np.zeros((n_a * n_b, n_a * n_b)))
    for k, config in enumerate((SeeSawConfig(restarts=6, seed=170), SeeSawConfig(restarts=6, seed=171, max_iters=3))):
        for z in (equivalence_operator(n_a, n_b, k), zero):
            assert_same_estimate(epsilon_norm(z, config, hermitian=hermitian), direct_epsilon_norm(z, config, hermitian))


@FIELDS
@pytest.mark.parametrize("start_side", ["A", "B"])
@pytest.mark.parametrize("n_a", range(1, 7))
@pytest.mark.parametrize("n_b", range(1, 7))
def test_seesaw_run_equals_a_direct_kernel_call(hermitian, start_side, n_a, n_b):
    dim = n_b if start_side == "B" else n_a
    zero = BipartiteOperator(n_a, n_b, np.zeros((n_a * n_b, n_a * n_b)))
    for z in (equivalence_operator(n_a, n_b, n_a + n_b), zero):
        for config in (SeeSawConfig(restarts=2, seed=172), SeeSawConfig(restarts=2, seed=173, max_iters=2)):
            for _, g0 in initial_contractions(dim, config):
                est = run_from(z, g0, config, start_side, hermitian)
                ref = _seesaw([z], [g0[None]], config, [start_side], hermitian)[0].estimate(0)
                assert_same_estimate(est, ref)


def test_run_jobs_holds_one_kernel_call_at_a_time(monkeypatch):
    # Two shapes make two kernel calls; when the second call's starts are
    # built and when it runs, the first call's start stacks and value
    # histories are gone.
    stack_refs, step_refs = [], []
    real_stacks, real_seesaw = norms._start_stacks, norms._seesaw

    def assert_released(refs):
        gc.collect()
        assert sum(ref() is not None for ref in refs) == 0

    def start_stacks(*args):
        assert_released(stack_refs)
        stacks = real_stacks(*args)
        stack_refs.extend(map(weakref.ref, stacks))
        return stacks

    def seesaw(*args):
        assert_released(step_refs)
        runs = real_seesaw(*args)
        step_refs.extend(weakref.ref(array) for step in runs[0].steps for array in step)
        return runs

    monkeypatch.setattr(norms, "_start_stacks", start_stacks)
    monkeypatch.setattr(norms, "_seesaw", seesaw)
    config = SeeSawConfig(restarts=4, seed=176)
    jobs = [(gue_operator(n, n, 177 + n), config, "B", True, lambda runs: runs.best()) for n in (2, 3)]
    norms._run_jobs(jobs, config)
    assert len(stack_refs) == 2 and step_refs


def test_hiding_ratio_and_evaluate_game_make_one_kernel_call_each(monkeypatch):
    calls = []
    real = norms._seesaw

    def counted(zs, *args):
        calls.append(len(zs))
        return real(zs, *args)

    monkeypatch.setattr(norms, "_seesaw", counted)
    hiding_ratio(gue_operator(3, 2, 174), CFG)
    assert calls == [1]
    evaluate_game(random_game(2, 2, seed=175), CFG)
    assert calls == [1, 1]


@FIELDS
def test_epsilon_norm_stalled_start_and_ties_pick_lowest_index(hermitian):
    # The identity start has zero overlap with diag(1,-1) x diag(1,-1) and
    # stays at 0; most sign starts tie exactly at the optimum 4.
    sz = np.diag([1.0, -1.0])
    z = BipartiteOperator(2, 2, np.kron(sz, sz))
    config = SeeSawConfig(restarts=20, seed=146)
    ref, winner, values = per_restart_reference(z, config, hermitian)
    assert values[0] == 0.0
    assert values.count(max(values)) > 1
    assert winner == values.index(max(values)) > 0
    assert_bit_identical(epsilon_norm(z, config, hermitian=hermitian), ref, winner)


# ---------------------------------------------------------------- properties

def test_epsilon_norm_scaling_homogeneity():
    base = SeeSawConfig(restarts=8, seed=114)
    for k in range(5):
        z = gue_operator(3, 2, stream(115, k))
        ref = epsilon_norm(z, base).value
        for alpha in (-2.0, 0.5, 3.0):
            scaled = BipartiteOperator(3, 2, alpha * z.matrix)
            val = epsilon_norm(scaled, base).value
            assert val == pytest.approx(abs(alpha) * ref, rel=1e-9)


def test_seesaw_swap_covariance():
    for k in range(10):
        rng = stream(116, k)
        z = gue_operator(2, 3, rng)
        g0 = hermitian_sign(gue_hermitian(3, rng))
        direct = seesaw_run(z, g0, CFG)
        swapped = run_from(swap_subsystems(z), g0, CFG, "A")
        assert len(direct.value_history) == len(swapped.value_history)
        gap = np.abs(np.array(direct.value_history) - np.array(swapped.value_history)).max()
        assert gap <= 1e-9


def test_seesaw_local_unitary_covariance():
    for k in range(10):
        rng = stream(117, k)
        z = gue_operator(3, 2, rng)
        g0 = hermitian_sign(gue_hermitian(2, rng))
        u = haar_unitary(3, rng)
        v = haar_unitary(2, rng)
        w = np.kron(u, v)
        rotated = BipartiteOperator(3, 2, w @ z.matrix @ w.conj().T)
        direct = seesaw_run(z, g0, CFG)
        conjugated = seesaw_run(rotated, v @ g0 @ v.conj().T, CFG)
        assert len(direct.value_history) == len(conjugated.value_history)
        gap = np.abs(np.array(direct.value_history) - np.array(conjugated.value_history)).max()
        assert gap <= 1e-9


# ---------------------------------------------------------------- Hermitian default field

def test_epsilon_norm_hermitian_default_known_values():
    z = BipartiteOperator(2, 2, random_density_matrix(4, seed=118))
    assert epsilon_norm(z, CFG).value == pytest.approx(1.0, abs=1e-9)
    zero = BipartiteOperator(2, 2, np.zeros((4, 4)))
    assert epsilon_norm(zero, CFG).value == 0.0


@pytest.mark.filterwarnings("default::UserWarning")
def test_epsilon_norm_bound_consistency_flags_only():
    # value >= trace_norm/(2 sqrt(2) * 3) should hold on random 3x3
    # instances; the estimate is a lower bound, so any shortfall is an
    # estimator artifact and is flagged as a warning rather than a failure.
    violations = []
    rng = stream(121)
    for k in range(20):
        z = gue_operator(3, 3, rng)
        est = epsilon_norm(z, SeeSawConfig(restarts=16, seed=int(rng.integers(1 << 32))))
        floor = trace_norm(z.matrix) / bound_factor(3, 3)
        if est.value < floor:
            violations.append((k, est.value, floor))
    if violations:
        warnings.warn(f"lower-bound shortfall on instances {violations}", stacklevel=1)


# ---------------------------------------------------------------- error probability

def test_error_probability_endpoints_exact():
    assert error_probability(1.0) == 0.0
    assert error_probability(0.0) == 0.5
    assert error_probability(0.5) == 0.25


def test_error_probability_clamps_rounding_noise():
    assert error_probability(1.0 + 5e-10) == 0.0
    assert error_probability(-5e-10) == 0.5


def test_error_probability_domain_errors():
    with pytest.raises(ValueError, match="outside"):
        error_probability(1.0 + 2e-9)
    with pytest.raises(ValueError, match="outside"):
        error_probability(-0.1)


def test_error_probability_orthogonal_pair_cap():
    # Orthogonal states at p=1/2 on min dim 4: the local witness value is at
    # least 1/(8 sqrt(2)), so P_e is at most (1 - 1/(8 sqrt(2)))/2 = 0.4558.
    cap = 0.5 * (1.0 - 1.0 / (8.0 * math.sqrt(2.0)))
    assert cap == pytest.approx(0.4558, abs=5e-5)
    z = game_operator(werner_hiding_pair(4))
    est = epsilon_norm(z, SeeSawConfig(restarts=32, seed=122))
    assert error_probability(est.value) <= cap


# ---------------------------------------------------------------- hiding ratio

def test_hiding_ratio_rejects_zero_operator():
    z = BipartiteOperator(2, 2, np.zeros((4, 4)))
    with pytest.raises(DegenerateOperatorError, match="zero"):
        hiding_ratio(z, CFG)


def test_hiding_ratio_density_matrix_is_one():
    z = BipartiteOperator(2, 2, random_density_matrix(4, seed=123))
    report = hiding_ratio(z, CFG)
    assert report.ratio == pytest.approx(1.0, abs=1e-9)
    assert report.satisfied


def test_hiding_ratio_product_is_one():
    _, _, z = sign_pair_product(124)
    report = hiding_ratio(z, SeeSawConfig(restarts=20, seed=125))
    assert report.ratio == pytest.approx(1.0, abs=1e-6)


def test_hiding_ratio_werner_d2():
    z = game_operator(werner_hiding_pair(2))
    report = hiding_ratio(z, SeeSawConfig(restarts=32, seed=126))
    assert report.trace_norm == pytest.approx(1.0, abs=1e-12)
    assert report.eps_estimate.value == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert report.ratio == pytest.approx(1.5, abs=1e-6)
    assert report.satisfied


@pytest.mark.parametrize("d", range(2, 9))
def test_hiding_ratio_werner_closed_form(d):
    # z = (F - 1/d)/(d^2 - 1) for the swap F, so tr((f x g) z) is the
    # inner product of the traceless parts of f and g over d^2 - 1; by
    # Cauchy-Schwarz and f = g = diag(+-1) the Hermitian norm is d/(d^2 - 1)
    # at even d and 1/d at odd d, while ||z||_1 = 1.
    report = hiding_ratio(game_operator(werner_hiding_pair(d)), SeeSawConfig(restarts=32, seed=0))
    norm, ratio = (d / (d * d - 1), (d * d - 1) / d) if d % 2 == 0 else (1 / d, d)
    assert report.trace_norm == pytest.approx(1.0, rel=1e-12)
    assert report.eps_estimate.value == pytest.approx(norm, rel=1e-12)
    assert report.ratio == pytest.approx(ratio, rel=1e-12)


# ---------------------------------------------------------------- realignment upper bound

def realignment_bound(z):
    """sqrt(n_a n_b) times the operator norm of the realigned z, an upper
    bound on the product-witness norm of z in either field (Rudolph, PRA 67,
    032312, 2003): tr((f x g) z) pairs vec(f) and vec(g) through the
    realigned matrix, and a contraction on C^n has Frobenius norm at most
    sqrt(n)."""
    r = z.reshaped().transpose(0, 2, 1, 3).reshape(z.n_a**2, z.n_b**2)
    return math.sqrt(z.n_a * z.n_b) * np.linalg.norm(r, 2)


def test_realignment_bound_caps_the_estimate():
    for n_a in range(2, 6):
        for n_b in range(2, 6):
            for k in range(2):
                seed = 1000 + 10 * (10 * n_a + n_b) + k
                for z in (gue_operator(n_a, n_b, seed), induced_difference(n_a, n_b, seed)):
                    u = realignment_bound(z)
                    for hermitian in (True, False):
                        value = epsilon_norm(z, SeeSawConfig(restarts=16, seed=seed), hermitian=hermitian).value
                        assert value <= u * (1 + 1e-12), (n_a, n_b, k, hermitian)


@pytest.mark.parametrize("d", range(2, 9))
def test_realignment_bound_on_werner_pairs(d):
    # u = d/(d^2 - 1) for every d: it is attained at even d and exceeds the
    # norm 1/d by the factor d^2/(d^2 - 1) at odd d
    z = game_operator(werner_hiding_pair(d))
    value = epsilon_norm(z, SeeSawConfig(restarts=32, seed=0)).value
    expected = 1.0 if d % 2 == 0 else d * d / (d * d - 1)
    assert realignment_bound(z) / value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n_a", range(1, 6))
@pytest.mark.parametrize("n_b", range(1, 6))
def test_sign_products_are_exact_for_the_estimate_and_the_realignment_bound(n_a, n_b):
    # For Hermitian unitaries x and y, tr((f x g)(x x y)) = tr(f x) tr(g y) is
    # at most n_a n_b = ||x x y||_1, attained at (f, g) = (x, y); the
    # realigned x x y is vec(x) vec(y)^T, whose operator norm is
    # ||x||_2 ||y||_2 = sqrt(n_a n_b).
    rng = stream(180, n_a, n_b)
    config = SeeSawConfig(restarts=8, seed=181)
    for _ in range(3):
        x, y = hermitian_sign(gue_hermitian(n_a, rng)), hermitian_sign(gue_hermitian(n_b, rng))
        z = BipartiteOperator(n_a, n_b, np.kron(x, y))
        assert realignment_bound(z) == pytest.approx(n_a * n_b, rel=1e-12)
        for hermitian in (True, False):
            assert epsilon_norm(z, config, hermitian=hermitian).value == pytest.approx(n_a * n_b, rel=1e-12)


# ---------------------------------------------------------------- field comparison

def field_values(z, config):
    """(complex, Hermitian) estimates of z at the same budget."""
    return tuple(epsilon_norm(z, config, hermitian=h).value for h in (False, True))


def test_complex_vs_hermitian_product_and_density_agree():
    _, _, z = sign_pair_product(127)
    c, h = field_values(z, SeeSawConfig(restarts=20, seed=128))
    assert c / h == pytest.approx(1.0, abs=1e-6)
    zd = BipartiteOperator(2, 2, random_density_matrix(4, seed=129))
    c, h = field_values(zd, CFG)
    assert c / h == pytest.approx(1.0, abs=1e-6)


def test_complex_vs_hermitian_cap_on_gue():
    rng = stream(130)
    cap = math.sqrt(2.0)
    for _ in range(10):
        z = gue_operator(3, 3, rng)
        c, h = field_values(z, SeeSawConfig(restarts=12, seed=int(rng.integers(1 << 32))))
        assert h <= c + 1e-9
        assert c <= cap * h + 0.02


def test_bound_factor_values():
    assert bound_factor(2, 5) == pytest.approx(4.0 * math.sqrt(2.0))
    assert bound_factor(4, 3) == pytest.approx(6.0 * math.sqrt(2.0))
