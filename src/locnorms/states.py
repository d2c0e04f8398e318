"""Seedable generators of bipartite operators, and the signed state ensemble.

Everything draws from counter-based Philox streams so runs are reproducible
and independent substreams can be derived from (seed, index) without
coordination between call sites.

QuantumXorGame (states rho_x, signs c_x, weights p_x) is the one signed
ensemble type and holds every check on its values, also for games read from
files; game_operator builds sum_x c_x p_x rho_x. Discriminating rho from
sigma at prior p is the two-state game with signs (+1, -1) and weights
(p, 1 - p), as werner_hiding_pair returns and induced_difference builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import BipartiteOperator, check_dims, hermitian_part

# Admission tolerances: density-matrix eigenvalues may dip this far below
# zero, and traces and game weight sums may deviate this much from one.
DENSITY_EIG_FLOOR = 1e-10
DENSITY_TRACE_TOL = 1e-10
PROB_SUM_TOL = 1e-10


def rng_from(seed) -> np.random.Generator:
    """Philox generator for an integer seed, stream(seed); Generator instances pass through."""
    return seed if isinstance(seed, np.random.Generator) else stream(seed)


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent Philox substream identified by (seed, *key)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary.

    QR of a complex Ginibre sample with the R-diagonal phase correction,
    which removes the sign ambiguity that would otherwise bias QR output
    away from Haar measure.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = rng_from(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    absd = np.abs(d)
    phases = np.where(absd > 0, d, 1.0) / np.where(absd > 0, absd, 1.0)
    return q * phases


def gue_hermitian(n: int, seed) -> np.ndarray:
    """GUE sample: N(0,1) real diagonal, off-diagonal real and imaginary
    parts independent N(0, 1/2). E tr(m^2) = n^2."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = rng_from(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_density_matrix(n: int, seed=0) -> np.ndarray:
    """Hilbert-Schmidt density matrix G G^dag / tr(G G^dag) for an n x n
    complex Ginibre G; expected purity is 2n/(n^2 + 1).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = rng_from(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return hermitian_part(rho / np.trace(rho).real)


def check_density_matrix(m, name: str = "state") -> np.ndarray:
    """Validate unit trace and positivity within the DENSITY_* tolerances; returns the Hermitian part."""
    h = hermitian_part(m)
    tr = float(np.trace(h).real)
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise ValueError(f"{name} has trace {tr!r}, deviating from 1 by more than {DENSITY_TRACE_TOL:.1e}")
    lam_min = float(np.linalg.eigvalsh(h)[0])
    if lam_min < -DENSITY_EIG_FLOOR:
        raise ValueError(f"{name} has eigenvalue {lam_min:.3e} below -{DENSITY_EIG_FLOOR:.1e}")
    return h


@dataclass(frozen=True, eq=False)
class QuantumXorGame:
    """Question states with signs and weights on A x B."""

    n_a: int
    n_b: int
    states: tuple[np.ndarray, ...]
    signs: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        check_dims(self.n_a, self.n_b)
        n = len(self.states)
        if n < 1:
            raise ValueError("a game needs at least one question state")
        if len(self.signs) != n or len(self.probs) != n:
            raise ValueError(
                f"got {n} states, {len(self.signs)} signs, {len(self.probs)} probs; "
                "all three must have equal length"
            )
        for x, c in enumerate(self.signs):
            if c not in (-1, 1):
                raise ValueError(f"signs[{x}] must be +1 or -1, got {c!r}")
        for x, p in enumerate(self.probs):
            if not (math.isfinite(p) and p >= 0.0):
                raise ValueError(f"probs[{x}] must be a finite nonnegative weight, got {p!r}")
        try:
            total = math.fsum(self.probs)
        except OverflowError:  # finite weights whose sum exceeds the float range
            total = math.inf
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probs sum to {total!r}, deviating from 1 by {abs(total - 1.0):.3e}")
        dim = self.n_a * self.n_b
        checked = []
        for x, state in enumerate(self.states):
            h = check_density_matrix(state, name=f"states[{x}]")
            if h.shape != (dim, dim):
                raise ValueError(
                    f"states[{x}] has shape {h.shape}, expected ({dim}, {dim}) "
                    f"for local dimensions ({self.n_a}, {self.n_b})"
                )
            h.flags.writeable = False
            checked.append(h)
        object.__setattr__(self, "states", tuple(checked))
        object.__setattr__(self, "signs", tuple(int(c) for c in self.signs))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))

    @property
    def num_states(self) -> int:
        return len(self.states)


def game_operator(game: QuantumXorGame) -> BipartiteOperator:
    """The signed mixture sum_x c_x p_x rho_x.

    Hermitian with trace norm at most 1; opposite signs on identical
    states cancel, which is how degenerate games arise. For a two-state
    game with signs (+1, -1) and weights (p, 1-p) this is p rho - (1-p) sigma,
    whose norms give the optimal discrimination error via (1 - ||z||)/2."""
    dim = game.n_a * game.n_b
    m = np.zeros((dim, dim), dtype=np.complex128)
    for c, p, state in zip(game.signs, game.probs, game.states):
        m += (c * p) * state
    return BipartiteOperator(game.n_a, game.n_b, m)


def werner_hiding_pair(d: int) -> QuantumXorGame:
    """Normalized projectors onto the symmetric and antisymmetric subspaces
    of C^d x C^d at prior 1/2, as the two-state game with signs (+1, -1).

    Globally the pair is orthogonal (perfectly distinguishable); under local
    strategies its distinguishability decays with d, which is the hiding
    phenomenon these norms measure.
    """
    if d < 2:
        raise ValueError(f"hiding pair needs d >= 2 (no antisymmetric subspace at d={d})")
    eye = np.eye(d * d)
    flip = eye.reshape(d, d, d, d).swapaxes(0, 1).reshape(d * d, d * d)
    rho = (eye + flip) / (d * (d + 1))
    sigma = (eye - flip) / (d * (d - 1))
    return QuantumXorGame(n_a=d, n_b=d, states=(rho, sigma), signs=(1, -1), probs=(0.5, 0.5))


def gue_operator(n_a: int, n_b: int, seed) -> BipartiteOperator:
    """GUE sample on the full product space, tagged with local dimensions."""
    return BipartiteOperator(n_a, n_b, gue_hermitian(n_a * n_b, seed))


def induced_difference(n_a: int, n_b: int, seed) -> BipartiteOperator:
    """Discrimination operator of two independent induced-measure states at prior 1/2."""
    rng = rng_from(seed)
    rho = random_density_matrix(n_a * n_b, seed=rng)
    sigma = random_density_matrix(n_a * n_b, seed=rng)
    return game_operator(QuantumXorGame(n_a=n_a, n_b=n_b, states=(rho, sigma), signs=(1, -1), probs=(0.5, 0.5)))
