"""Acceptance gate.

Each test covers one numbered criterion at its stated tolerance and prints
exactly one bracketed pass or fail line (visible with pytest -s). Expected
values come from independent routes: eigenvalue sums against the singular
value route, a Bloch-sphere grid oracle against the see-saw, and plain
arithmetic against the coefficient formulas.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from locnorms import (
    BipartiteOperator,
    SeeSawConfig,
    diamond_bound_rhs,
    epsilon_norm,
    error_probability,
    game_operator,
    gue_operator,
    hiding_ratio,
    omega_new,
    omega_ranard,
    seesaw_run,
    trace_norm,
    werner_hiding_pair,
)
from locnorms.cli import main as cli_main
from locnorms.linalg import block_frame_sums, hermitian_sign, swap_subsystems
from locnorms.norms import _run_jobs, bound_factor, initial_contractions
from locnorms.states import gue_hermitian, haar_unitary, stream
from locnorms.verify import field_ratio_scan, game_bound_scan, main_bound_scan

BASE_SEED = 20260823


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {title}", flush=True)
        raise
    print(f"[PASS] criterion {number}: {title}", flush=True)


# ------------------------------------------------------------------ 1

def test_criterion_01_trace_norm_oracle():
    with criterion(1, "trace norm matches the eigenvalue-sum route on 500 matrices"):
        start = time.perf_counter()
        rng = stream(BASE_SEED, 1)
        for _ in range(500):
            n = int(rng.integers(2, 65))
            m = gue_hermitian(n, rng)
            via_svd = trace_norm(m)
            via_eigs = float(np.abs(np.linalg.eigvalsh(m)).sum())
            assert via_svd == pytest.approx(via_eigs, rel=1e-10)
        assert time.perf_counter() - start < 10.0


# ------------------------------------------------------------------ 2

def test_criterion_02_seesaw_soundness():
    with criterion(2, "see-saw histories are monotone and capped by the trace norm"):
        start = time.perf_counter()
        rng = stream(BASE_SEED, 2)
        config = SeeSawConfig(restarts=6, seed=0)
        for k in range(500):
            n_a = int(rng.integers(2, 5))
            n_b = int(rng.integers(2, 5))
            z = gue_operator(n_a, n_b, rng)
            run_config = SeeSawConfig(restarts=6, seed=int(rng.integers(1 << 63)))
            best = 0.0
            for _, g0 in initial_contractions(n_b, run_config):
                est = seesaw_run(z, g0, run_config)
                assert min(np.diff(est.value_history), default=0.0) >= -1e-12
                best = max(best, est.value)
            cap = trace_norm(z.matrix) + 1e-9
            assert best <= cap
            assert epsilon_norm(z, run_config).value <= cap
        assert time.perf_counter() - start < 60.0


# ------------------------------------------------------------------ 3

def test_criterion_03_product_case_exactness():
    with criterion(3, "product operators recover the product of factor trace norms"):
        rng = stream(BASE_SEED, 3)
        for k in range(100):
            n_a = int(rng.integers(2, 7))
            n_b = int(rng.integers(2, 7))
            x = gue_hermitian(n_a, rng)
            y = gue_hermitian(n_b, rng)
            z = BipartiteOperator(n_a, n_b, np.kron(x, y))
            est = epsilon_norm(z, SeeSawConfig(restarts=20, seed=int(rng.integers(1 << 63))))
            assert est.value == pytest.approx(trace_norm(x) * trace_norm(y), rel=1e-8)


# ------------------------------------------------------------------ 4

def test_criterion_04_main_bound_scan():
    with criterion(4, "trace norm stays within 2 sqrt(2) min-dim of the product witness"):
        start = time.perf_counter()
        dims = tuple((a, b) for a in (2, 3, 4) for b in (2, 3, 4))
        result = main_bound_scan(
            dims,
            samples_per_pair=200,
            config=SeeSawConfig(restarts=50, seed=BASE_SEED + 4),
        )
        assert len(result["rows"]) == 1800
        assert result["failures"] == []
        assert all(row["satisfied"] for row in result["rows"])
        assert time.perf_counter() - start < 600.0


# ------------------------------------------------------------------ 5

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def pauli_coupling(z4):
    m = np.empty((4, 4))
    for mu, p in enumerate(PAULIS):
        for nu, q in enumerate(PAULIS):
            m[mu, nu] = np.trace(np.kron(p, q) @ z4).real
    return m


def sphere_grid(center_theta, center_phi, half_width, n):
    thetas = np.linspace(center_theta - half_width, center_theta + half_width, n)
    phis = np.linspace(center_phi - half_width, center_phi + half_width, n)
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    pts = np.stack(
        [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1
    ).reshape(-1, 3)
    return pts, t.ravel(), p.ravel()


def bloch_oracle(z4, rounds=6, n=25):
    """Best product-witness value on two qubits by direct search.

    A Hermitian contraction on one qubit is a0 I + a.sigma with
    |a0| + |a| <= 1, whose extreme points are +-I and unit Bloch vectors,
    so the bilinear objective a^T M b is maximized over sphere-by-sphere
    grids (iteratively refined) plus the three trivial identity cases.
    No eigendecomposition, SVD, or alternating step is involved.
    """
    m = pauli_coupling(z4)
    trivial = max(
        abs(m[0, 0]),
        math.sqrt(float((m[0, 1:] ** 2).sum())),
        math.sqrt(float((m[1:, 0] ** 2).sum())),
    )
    mv = m[1:, 1:]
    cf = (math.pi / 2.0, math.pi)
    cg = (math.pi / 2.0, math.pi)
    half = math.pi
    best = -math.inf
    for _ in range(rounds):
        pts_f, tf, pf = sphere_grid(cf[0], cf[1], half, n)
        pts_g, tg, pg = sphere_grid(cg[0], cg[1], half, n)
        values = pts_f @ mv @ pts_g.T
        i, j = np.unravel_index(int(values.argmax()), values.shape)
        best = max(best, float(values[i, j]))
        cf = (float(tf[i]), float(pf[i]))
        cg = (float(tg[j]), float(pg[j]))
        half *= 0.35
    return max(best, trivial)


def test_criterion_05_werner_growth_and_bloch_oracle():
    with criterion(5, "werner hiding ratios grow with dimension; d=2 matches the Bloch grid"):
        ratios = []
        for d in range(2, 6):
            z = game_operator(werner_hiding_pair(d))
            report = hiding_ratio(z, SeeSawConfig(restarts=32, seed=BASE_SEED + 5))
            assert report.ratio <= 2.0 * math.sqrt(2.0) * d + 1e-6
            ratios.append(report.ratio)
            if d == 2:
                oracle = bloch_oracle(z.matrix)
                assert report.eps_estimate.value == pytest.approx(oracle, abs=1e-3)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))


# ------------------------------------------------------------------ 6

def test_criterion_06_game_bound_scan():
    with criterion(6, "random 4-state games satisfy the bias-ratio bound"):
        result = game_bound_scan(
            samples=50,
            n_a=3,
            n_b=3,
            config=SeeSawConfig(restarts=50, seed=BASE_SEED + 6),
        )
        assert len(result["rows"]) == 50
        assert result["failures"] == []
        assert all(row["satisfied"] for row in result["rows"])


# ------------------------------------------------------------------ 7

def test_criterion_07_field_ratio_scan():
    with criterion(7, "complex witness values stay within sqrt(2) of Hermitian ones"):
        result = field_ratio_scan(
            samples=100,
            config=SeeSawConfig(restarts=16, seed=BASE_SEED + 7),
        )
        assert len(result["rows"]) == 100
        assert result["failures"] == []


# ------------------------------------------------------------------ 8

def test_criterion_08_block_identities():
    with criterion(8, "unitary block frames sum to n_a times the identity"):
        rng = stream(BASE_SEED, 8)
        for n_a, n_b in ((2, 2), (2, 3), (3, 3)):
            for _ in range(20):
                u = haar_unitary(n_a * n_b, rng)
                left, right = block_frame_sums(u, n_a, n_b)
                target = n_a * np.eye(n_b)
                assert np.abs(left - target).max() <= 1e-10
                assert np.abs(right - target).max() <= 1e-10
        # 0/1 permutation unitaries make the identity exact
        for n_a, n_b in ((2, 2), (2, 3), (3, 2)):
            d = n_a * n_b
            shift = np.eye(d)[:, list(range(1, d)) + [0]]
            for u in (np.eye(d), shift):
                left, right = block_frame_sums(u, n_a, n_b)
                target = n_a * np.eye(n_b)
                assert np.abs(left - target).max() <= 1e-15
                assert np.abs(right - target).max() <= 1e-15


# ------------------------------------------------------------------ 9

def test_criterion_09_darwinism_coefficients():
    with criterion(9, "objectivity coefficients: exact values, dominance, bound arithmetic"):
        assert omega_new(2, 5) == 4.0
        assert omega_new(3, 10**6) == pytest.approx(6.0 * math.sqrt(2.0), abs=1e-12)
        worst = math.inf
        for d_a in range(3, 101):
            for d_r in range(1, 1001):
                worst = min(worst, omega_ranard(d_a, d_r) - omega_new(d_a, d_r))
        assert worst >= -1e-12
        # independent arithmetic: 2 * Omega(2,2) * sqrt(2 ln 2 / 100) with
        # Omega(2,2) = 3, written as 6 sqrt(ln 4)/10 = 0.70645 to five digits
        value = diamond_bound_rhs(2, 2, 1, 100)
        assert value == pytest.approx(6.0 * math.sqrt(math.log(4.0)) / 10.0, abs=1e-5)


# ------------------------------------------------------------------ 10

def test_criterion_10_covariance_suites():
    with criterion(10, "value histories are invariant under swap and local rotations"):
        config = SeeSawConfig(restarts=4, seed=0)
        for k in range(50):
            rng = stream(BASE_SEED, 10, k)
            n_a = int(rng.integers(2, 5))
            n_b = int(rng.integers(2, 5))
            z = gue_operator(n_a, n_b, rng)
            g0 = hermitian_sign(gue_hermitian(n_b, rng))
            u = haar_unitary(n_a, rng)
            v = haar_unitary(n_b, rng)
            direct = seesaw_run(z, g0, config).value_history
            # the swapped operator started on A: a one-start A-side kernel job
            job = (swap_subsystems(z), g0[None], "A", True, lambda runs: runs.estimate(0).value_history)
            (swapped,) = _run_jobs([job], config)
            w = np.kron(u, v)
            rotated_z = BipartiteOperator(n_a, n_b, w @ z.matrix @ w.conj().T)
            rotated = seesaw_run(rotated_z, v @ g0 @ v.conj().T, config).value_history
            for other in (swapped, rotated):
                assert len(other) == len(direct)
                assert np.abs(np.subtract(direct, other)).max() <= 1e-9


# ------------------------------------------------------------------ 11

def test_criterion_11_deterministic_csv(tmp_path):
    with criterion(11, "identical sweep invocations produce byte-identical CSV"):
        argv = [
            "scaling", "--generator", "gue", "--dmin", "2", "--dmax", "3",
            "--samples", "3", "--restarts", "16", "--seed", "21",
        ]
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_text().splitlines()) == 7


# ------------------------------------------------------------------ 12

def test_criterion_12_error_probability_endpoints_and_pipeline():
    with criterion(12, "error probabilities: exact endpoints and the local-measurement cap"):
        assert error_probability(1.0) == 0.0
        assert error_probability(0.0) == 0.5
        for d in (2, 3):
            z = game_operator(werner_hiding_pair(d))
            assert trace_norm(z.matrix) == pytest.approx(1.0, abs=1e-12)
            est = epsilon_norm(z, SeeSawConfig(restarts=32, seed=BASE_SEED + 12))
            cap = 0.5 * (1.0 - 1.0 / (2.0 * math.sqrt(2.0) * d))
            assert error_probability(est.value) <= cap + 1e-12
