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

from .linalg import BipartiteOperator, check_count, check_dims, hermitian_part

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


# The constants of numpy's SeedSequence (pool of four 32-bit words).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, start: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = start..start + 4, as a uint64 column:
    the hash of row r xors constant r and multiplies by constant r + 1."""
    consts = [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(start, start + 5)]
    return np.array(consts, dtype=np.uint64)[:, None]


def gue_stack(n: int, seed: int, count: int) -> np.ndarray:
    """gue_hermitian(n, stream(seed, i)) for i = 1..count bit for bit,
    stacked as (count, n, n). count must stay below 2**32, so that each i
    is one spawn word.

    SeedSequence(seed).pool is the seed's mixed pool. The spawn word i is
    mixed in last and the Philox key is hashed out of the pool, as in
    SeedSequence(seed, spawn_key=(i,)).generate_state(2, np.uint64), for
    every i at once in (4, count) uint64 arrays of 32-bit words: every
    product is of two such words, so nothing wraps and no overflow warning
    can appear. One Philox generator is reused by assigning its state (the
    key, a zero counter and an empty buffer); each sample takes its real
    and imaginary parts from one standard_normal((2, n, n)) call, and the
    stack is symmetrised once."""
    n = check_count(n, "dimension", 1)
    seed = int(seed)
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    # the hash constants go on after the pool's 16 hashmixes and 4 per seed word beyond its four
    consts = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(0, -(-seed.bit_length() // 32) - 4))
    # row r is mix(pool[r], hashmix(i)); mix is (L x - R y) mod 2**32, kept
    # nonnegative by adding 2**32
    hashed = (np.arange(1, count + 1, dtype=np.uint64) ^ consts[:-1]) * consts[1:] & _MASK32
    hashed ^= hashed >> 16
    words = ((_MIX_MULT_L * pool & _MASK32) + (1 << 32) - (_MIX_MULT_R * hashed & _MASK32)) & _MASK32
    words ^= words >> 16
    # generate_state: one hashed output word per pool word, two to a key
    consts = _hash_consts(_INIT_B, _MULT_B, 0)
    words = (words ^ consts[:-1]) * consts[1:] & _MASK32
    words ^= words >> 16
    keys = (words[0::2] | words[1::2] << 32).T.tolist()
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    zeros = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros},
        "buffer": zeros,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    parts = np.empty((count, 2, n, n))
    for r, key in enumerate(keys):
        state["state"]["key"] = key
        bit_generator.state = state
        parts[r] = rng.standard_normal((2, n, n))
    a = parts[:, 0] + 1j * parts[:, 1]
    return (a + a.conj().swapaxes(1, 2)) / 2


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary.

    QR of a complex Ginibre sample with the R-diagonal phase correction,
    which removes the sign ambiguity that would otherwise bias QR output
    away from Haar measure.
    """
    n = check_count(n, "dimension", 1)
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
    n = check_count(n, "dimension", 1)
    rng = rng_from(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def random_density_matrix(n: int, seed=0) -> np.ndarray:
    """Hilbert-Schmidt density matrix G G^dag / tr(G G^dag) for an n x n
    complex Ginibre G; expected purity is 2n/(n^2 + 1).
    """
    n = check_count(n, "dimension", 1)
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
        dims = check_dims(self.n_a, self.n_b)
        object.__setattr__(self, "n_a", dims[0])
        object.__setattr__(self, "n_b", dims[1])
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
    if check_count(d, "d", -math.inf) < 2:
        raise ValueError(f"hiding pair needs d >= 2 (no antisymmetric subspace at d={d})")
    eye = np.eye(d * d)
    flip = eye.reshape(d, d, d, d).swapaxes(0, 1).reshape(d * d, d * d)
    rho = (eye + flip) / (d * (d + 1))
    sigma = (eye - flip) / (d * (d - 1))
    return QuantumXorGame(n_a=d, n_b=d, states=(rho, sigma), signs=(1, -1), probs=(0.5, 0.5))


def gue_operator(n_a: int, n_b: int, seed) -> BipartiteOperator:
    """GUE sample on the full product space, tagged with local dimensions."""
    n_a, n_b = check_dims(n_a, n_b)
    return BipartiteOperator(n_a, n_b, gue_hermitian(n_a * n_b, seed))


def induced_difference(n_a: int, n_b: int, seed) -> BipartiteOperator:
    """Discrimination operator of two independent induced-measure states at prior 1/2."""
    n_a, n_b = check_dims(n_a, n_b)
    rng = rng_from(seed)
    rho = random_density_matrix(n_a * n_b, seed=rng)
    sigma = random_density_matrix(n_a * n_b, seed=rng)
    return game_operator(QuantumXorGame(n_a=n_a, n_b=n_b, states=(rho, sigma), signs=(1, -1), probs=(0.5, 0.5)))
