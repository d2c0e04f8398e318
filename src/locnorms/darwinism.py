"""Dimensional coefficients for observer-objectivity bounds.

Pure arithmetic: for an observed system of dimension d_a and a single
observer fragment of dimension d_r, the coefficient Omega(d_a, d_r) scales
the deviation of a broadcast channel from an objective (measure-and-
prepare) one. Smaller is stronger. omega_new is the coefficient implied by
the 2 sqrt(2) min-dimension norm bound; omega_ranard is the previous best
five-way minimum it improves on for d_a >= 3.

Each term of one dimension is written once, in a helper that the single-
pair functions and the sweep share. The sweep, _sweep_grid, evaluates each
such term once per value in Python, in the single-pair functions' order,
so that it checks and fails as they do. It then takes every row's minima,
square root, quotient and product at once on a float64 grid; these are
IEEE-exact, so a grid row equals the single-pair values bit for bit.
coefficient_sweep makes its dicts from the grid, and the CLI writes its
CSV table from it.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .linalg import check_count

TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)
# The keys of a sweep row, in table order.
COLUMNS = ("d_a", "d_r", "omega_new", "omega_ranard", "improvement_factor", "diamond_bound")


def _cap(d_a: int) -> float:
    """omega_new's observed-system term: 4 for a qubit, else 2 sqrt(2) d_a."""
    return 4.0 if d_a == 2 else TWO_ROOT_TWO * d_a


def _linear(d_r: int) -> float:
    """2 d_r - 1, the fragment term of both coefficients."""
    return 2.0 * d_r - 1.0


def _three_halves(d: int) -> float:
    """4 d^{3/2}, a term of omega_ranard in either dimension."""
    return 4.0 * float(d) ** 1.5


def _observed_terms(d_a: int) -> tuple[float, float, float]:
    """omega_ranard's observed-system terms: d_a^2, 4 d_a^{3/2} and 153 d_a."""
    return float(d_a) ** 2, _three_halves(d_a), 153.0 * d_a


def _spread(d_a: int, r_size: int, q_size: int) -> float:
    """sqrt(2 ln(d_a) r_size / q_size), the diamond bound's last factor."""
    return math.sqrt(2.0 * math.log(d_a) * r_size / q_size)


def omega_new(d_a: int, d_r: int) -> float:
    """min(4, 2 d_r - 1) for d_a = 2, else min(2 sqrt(2) d_a, 2 d_r - 1).

    Grows at most linearly in the observed-system dimension, with the
    qubit case pinned at 4 by the sharper two-dimensional analysis."""
    d_a, d_r = check_count(d_a, "observed-system dimension", 2), check_count(d_r, "fragment dimension", 1)
    return float(min(_cap(d_a), _linear(d_r)))


def omega_ranard(d_a: int, d_r: int) -> float:
    """Previous best coefficient: min(d_a^2, 4 d_a^{3/2}, 4 d_r^{3/2},
    sqrt(153 d_a d_r), 2 d_r - 1)."""
    d_a, d_r = check_count(d_a, "observed-system dimension", 2), check_count(d_r, "fragment dimension", 1)
    square, halves_a, d153 = _observed_terms(d_a)
    return float(min(square, halves_a, _three_halves(d_r), math.sqrt(d153 * d_r), _linear(d_r)))


def diamond_bound_rhs(d_a: int, d_r: int, r_size: int, q_size: int) -> float:
    """d_a * Omega(d_a, d_r) * sqrt(2 ln(d_a) * r_size / q_size), the
    right-hand side of the objectivity deviation bound in diamond norm.

    r_size counts the observer fragments addressed jointly, q_size the
    fragments the channel broadcasts over."""
    r_size, q_size = check_count(r_size, "r_size", 1), check_count(q_size, "q_size", 1)
    d_a = check_count(d_a, "observed-system dimension", 2)
    return d_a * omega_new(d_a, d_r) * _spread(d_a, r_size, q_size)


def coefficient_sweep(d_a_values, d_r_values, r_size: int | None = None, q_size: int | None = None) -> list[dict]:
    """One row per (d_a, d_r) pair, d_a outer, keyed d_a, d_r, omega_new,
    omega_ranard and improvement_factor, the quotient omega_ranard /
    omega_new (>= 1 exactly when the new coefficient is at least as
    strong), and with r_size and q_size also diamond_bound, the
    diamond_bound_rhs of the pair. Give both counts or neither. An empty
    range gives no rows.

    The counts are checked first, as diamond_bound_rhs checks them, even
    for an empty range. Then each value is checked once, as an integer,
    the d_r values with the first d_a's rows, and a bad value raises what
    evaluating the rows one by one with the single-pair functions raises
    first, an overflowing term included."""
    d_as, d_rs, grid = _sweep_grid(d_a_values, d_r_values, r_size, q_size)
    rows = grid.reshape(-1, grid.shape[-1]).tolist()
    return [dict(zip(COLUMNS, (*pair, *cells))) for pair, cells in zip(product(d_as, d_rs), rows)]


def _sweep_grid(d_a_values, d_r_values, r_size: int | None = None, q_size: int | None = None):
    """coefficient_sweep's table, checked and raising as it says, as (d_as,
    d_rs, grid): grid is float64 of shape (len(d_as), len(d_rs), 3 or 4),
    and grid[i, j] is row (d_as[i], d_rs[j]) after d_r, in COLUMNS order."""
    if (r_size is None) != (q_size is None):
        raise ValueError(f"give both fragment counts or neither, got r_size={r_size}, q_size={q_size}")
    if r_size is not None:
        r_size, q_size = check_count(r_size, "r_size", 1), check_count(q_size, "q_size", 1)
    d_r_values = list(d_r_values)
    observed = []  # (d_a, cap, d_a^2, 4 d_a^{3/2}, 153 d_a, spread)
    fragments = []  # (d_r, 2 d_r - 1, 4 d_r^{3/2}), filled on the first d_a
    for d_a in d_a_values if d_r_values else ():
        d_a = check_count(d_a, "observed-system dimension", 2)
        if not fragments:  # as in omega_new, the first row checks d_r before d_a's cap can overflow
            d_r = check_count(d_r_values[0], "fragment dimension", 1)
        cap = _cap(d_a)
        if not fragments:  # and computes d_r's terms after that cap
            fragments.append((d_r, _linear(d_r), _three_halves(d_r)))
        observed.append((d_a, cap, *_observed_terms(d_a), 1.0 if r_size is None else _spread(d_a, r_size, q_size)))
        for d_r in d_r_values[len(fragments) :]:
            d_r = check_count(d_r, "fragment dimension", 1)
            fragments.append((d_r, _linear(d_r), _three_halves(d_r)))
    # each integer d converts as float(d), which every term above has done
    d_a, cap, square, halves_a, d153, spread = np.array(observed, dtype=float).reshape(-1, 6).T[..., None]
    d_r, linear, halves_r = np.array(fragments, dtype=float).reshape(-1, 3).T
    with np.errstate(all="ignore"):  # values are positive or inf: no NaN or zero meets min or /
        new = np.minimum(cap, linear)
        old = np.minimum.reduce(np.broadcast_arrays(square, halves_a, halves_r, np.sqrt(d153 * d_r), linear))
        cells = [new, old, old / new] + ([] if r_size is None else [d_a * new * spread])
    return [row[0] for row in observed], [row[0] for row in fragments], np.stack(cells, axis=-1)
