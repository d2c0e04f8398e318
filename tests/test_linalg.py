"""Matrix primitives against independent decomposition oracles."""

import warnings

import numpy as np
import pytest

from locnorms import (
    BipartiteOperator,
    block_frame_sums,
    haar_unitary,
    hermitian_part,
    hermitian_sign,
    gue_hermitian,
    swap_subsystems,
    trace_norm,
)
from locnorms.linalg import optimal_contraction
from locnorms.states import stream


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
            target = hermitian_part(m, warn_tol=np.inf) if hermitian else m
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in ([[1e308]], [[0.0, 1e308], [1e308, 0.0]]):
            with pytest.raises(ValueError, match="overflow when symmetrized"):
                hermitian_part(m)
            with pytest.raises(ValueError, match="overflow when symmetrized"):
                BipartiteOperator(1, len(m), m)
    # finite sums keep their bits
    a = np.random.default_rng(5).standard_normal((4, 4)) * 1e307
    np.testing.assert_array_equal(hermitian_part(a, warn_tol=np.inf), (a + a.T) / 2)
