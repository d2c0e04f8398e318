"""Dense complex and Hermitian matrix primitives.

Operators are square complex numpy arrays. A bipartite operator on A x B
with local dimensions (n_a, n_b) is an (n_a*n_b) x (n_a*n_b) matrix in
row-major Kronecker ordering, i.e. composite index (a, b) = a*n_b + b.
Every BipartiteOperator is Hermitian: it stores the Hermitian part of its
input.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

# Asymmetry up to this level is treated as rounding noise; beyond it the
# Hermitian part is still taken but a warning is issued.
HERMITICITY_TOL = 1e-12


class DegenerateOperatorError(ValueError):
    """Raised when a quantity is undefined on the zero operator."""


def check_count(value: int, name: str, least: int) -> int:
    """value as an int, or ValueError unless it is an integer (not a float) >= least."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    return count


def check_dims(n_a: int, n_b: int) -> tuple[int, int]:
    """(n_a, n_b) as ints, or ValueError unless both are integers (not floats) >= 1."""
    try:
        dims = operator.index(n_a), operator.index(n_b)
    except TypeError:
        raise ValueError(f"local dimensions must be integers, got ({n_a!r}, {n_b!r})") from None
    if min(dims) < 1:
        raise ValueError(f"local dimensions must be >= 1, got {dims}")
    return dims


def as_square_matrix(m) -> np.ndarray:
    """Coerce to a finite square complex128 array or raise ValueError."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def asymmetry(m) -> float:
    """Max-entry deviation of m from its conjugate transpose."""
    a = np.asarray(m, dtype=np.complex128)
    if a.size == 0:
        return 0.0
    with np.errstate(over="ignore"):  # an asymmetry beyond the float range is inf
        return float(np.abs(a - a.conj().T).max())


def hermitian_part(m) -> np.ndarray:
    """(m + m^dag)/2, warning when the asymmetry exceeds HERMITICITY_TOL; ValueError when the sum overflows."""
    a = as_square_matrix(m)
    delta = asymmetry(a)
    if delta > HERMITICITY_TOL:
        warnings.warn(
            f"asymmetry {delta:.3e} exceeds {HERMITICITY_TOL:.1e}; taking the Hermitian part",
            RuntimeWarning,
            stacklevel=2,
        )
    with np.errstate(over="ignore", invalid="ignore"):
        h = (a + a.conj().T) / 2
    if not np.isfinite(h).all():
        raise ValueError("matrix entries overflow when symmetrized")
    return h


def trace_norm(m) -> float:
    """Trace norm ||m||_1, the sum of singular values.

    For Hermitian m this equals the sum of |eigenvalues| and is the
    unrestricted distinguishability norm of a discrimination operator.
    """
    return float(np.linalg.svd(as_square_matrix(m), compute_uv=False).sum())


def hermitian_sign(m) -> np.ndarray:
    """Spectral sign of a Hermitian matrix; kernel directions map to +1.

    The result s is Hermitian with s^2 = 1 and tr(s m) = ||m||_1, i.e. the
    optimal Hermitian contraction against m.
    """
    # hermitian_part warns on asymmetric input; symmetrizing its exactly
    # Hermitian output again inside optimal_contraction changes no bits
    return optimal_contraction(hermitian_part(m), hermitian=True)[0]


def optimal_contraction(m: np.ndarray, hermitian: bool) -> tuple[np.ndarray, np.ndarray]:
    """Contraction w maximizing Re tr(w m), with the attained value ||m||_1.

    m is one square matrix or a stack (..., n, n); each matrix is solved on
    its own, so a stacked call gives the same bits as one call per matrix.
    With hermitian=True the optimum runs over Hermitian contractions against
    the Hermitian part of m and is its spectral sign (kernel directions map
    to +1); otherwise it is the adjoint of the polar unitary of m.
    """
    if hermitian:
        vals, vecs = np.linalg.eigh((m + _dagger(m)) / 2)
        w = (vecs * np.where(vals >= 0.0, 1.0, -1.0)[..., None, :]) @ _dagger(vecs)
        return (w + _dagger(w)) / 2, np.abs(vals).sum(axis=-1)
    u, s, vh = np.linalg.svd(m)
    return _dagger(u @ vh), s.sum(axis=-1)


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class BipartiteOperator:
    """A Hermitian operator on A x B with declared local dimensions.

    The stored matrix is the Hermitian part of the input (symmetrized on
    construction, warning above rounding level), frozen read-only.
    """

    n_a: int
    n_b: int
    matrix: np.ndarray

    def __post_init__(self):
        dims = check_dims(self.n_a, self.n_b)
        object.__setattr__(self, "n_a", dims[0])
        object.__setattr__(self, "n_b", dims[1])
        m = as_square_matrix(self.matrix)
        dim = self.n_a * self.n_b
        if m.shape != (dim, dim):
            raise ValueError(
                f"matrix has shape {m.shape}, expected ({dim}, {dim}) "
                f"for local dimensions ({self.n_a}, {self.n_b})"
            )
        m = hermitian_part(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.n_a * self.n_b

    def reshaped(self) -> np.ndarray:
        """The matrix as an (n_a, n_b, n_a, n_b) view."""
        return self.matrix.reshape(self.n_a, self.n_b, self.n_a, self.n_b)

    def is_zero(self) -> bool:
        return not self.matrix.any()


def swap_subsystems(z: BipartiteOperator) -> BipartiteOperator:
    """Exchange the roles of A and B: S z S^dag for the flip S|a,b> = |b,a>."""
    m = z.reshaped().transpose(1, 0, 3, 2).reshape(z.dim, z.dim)
    return BipartiteOperator(z.n_b, z.n_a, m)


def block_frame_sums(u, n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum_ij B_ij B_ij^dag and Sum_ij B_ij^dag B_ij over the n_a x n_a grid
    of n_b x n_b blocks B_ij of u.

    For unitary u both sums equal n_a times the identity on the second
    factor; the same identity for matrix units is what makes n_a the right
    scale for product-witness lower bounds.
    """
    a = as_square_matrix(u)
    if a.shape[0] != n_a * n_b:
        raise ValueError(f"matrix of size {a.shape[0]} does not split into ({n_a}, {n_b}) blocks")
    b = a.reshape(n_a, n_b, n_a, n_b)
    left = np.einsum("ipjq,irjq->pr", b, b.conj())
    right = np.einsum("iqjp,iqjr->pr", b.conj(), b)
    return left, right
