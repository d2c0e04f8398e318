"""Dimensional coefficients for observer-objectivity bounds.

Pure arithmetic: for an observed system of dimension d_a and a single
observer fragment of dimension d_r, the coefficient Omega(d_a, d_r) scales
the deviation of a broadcast channel from an objective (measure-and-
prepare) one. Smaller is stronger. omega_new is the coefficient implied by
the 2 sqrt(2) min-dimension norm bound; omega_ranard is the previous best
five-way minimum it improves on for d_a >= 3.

Each term of one dimension is written once, in a helper, and the single-
pair functions and coefficient_sweep evaluate through the same helpers; the
sweep evaluates each such term once per value of its dimension. Every
expression keeps its operand order, so a sweep row equals the single-pair
values bit for bit.
"""

from __future__ import annotations

import math

TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)


def _check_observed(d_a: int) -> None:
    if d_a < 2:
        raise ValueError(f"observed-system dimension must be >= 2, got {d_a}")


def _check_fragment(d_r: int) -> None:
    if d_r < 1:
        raise ValueError(f"fragment dimension must be >= 1, got {d_r}")


def _check_counts(r_size: int, q_size: int) -> None:
    if r_size < 1:
        raise ValueError(f"r_size must be >= 1, got {r_size}")
    if q_size < 1:
        raise ValueError(f"q_size must be >= 1, got {q_size}")


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


def _omega_new(cap: float, linear: float) -> float:
    return float(min(cap, linear))


def _omega_ranard(square: float, halves_a: float, d153: float, d_r: int, halves_r: float, linear: float) -> float:
    return float(min(square, halves_a, halves_r, math.sqrt(d153 * d_r), linear))


def omega_new(d_a: int, d_r: int) -> float:
    """min(4, 2 d_r - 1) for d_a = 2, else min(2 sqrt(2) d_a, 2 d_r - 1).

    Grows at most linearly in the observed-system dimension, with the
    qubit case pinned at 4 by the sharper two-dimensional analysis."""
    _check_observed(d_a)
    _check_fragment(d_r)
    return _omega_new(_cap(d_a), _linear(d_r))


def omega_ranard(d_a: int, d_r: int) -> float:
    """Previous best coefficient: min(d_a^2, 4 d_a^{3/2}, 4 d_r^{3/2},
    sqrt(153 d_a d_r), 2 d_r - 1)."""
    _check_observed(d_a)
    _check_fragment(d_r)
    return _omega_ranard(*_observed_terms(d_a), d_r, _three_halves(d_r), _linear(d_r))


def diamond_bound_rhs(d_a: int, d_r: int, r_size: int, q_size: int) -> float:
    """d_a * Omega(d_a, d_r) * sqrt(2 ln(d_a) * r_size / q_size), the
    right-hand side of the objectivity deviation bound in diamond norm.

    r_size counts the observer fragments addressed jointly, q_size the
    fragments the channel broadcasts over."""
    _check_counts(r_size, q_size)
    return d_a * omega_new(d_a, d_r) * _spread(d_a, r_size, q_size)


def coefficient_sweep(d_a_values, d_r_values, r_size: int | None = None, q_size: int | None = None) -> list[dict]:
    """One row per (d_a, d_r) pair, d_a outer, keyed d_a, d_r, omega_new,
    omega_ranard and improvement_factor, the quotient omega_ranard /
    omega_new (>= 1 exactly when the new coefficient is at least as
    strong), and with r_size and q_size also diamond_bound, the
    diamond_bound_rhs of the pair. An empty range gives no rows.

    Each value is checked once, the d_r values with the first d_a's rows,
    and a bad value raises what evaluating the rows one by one with the
    single-pair functions raises first, an overflowing term included."""
    if r_size is not None:
        _check_counts(r_size, q_size)
    d_rs = list(map(int, d_r_values))
    fragments = []  # (d_r, 2 d_r - 1, 4 d_r^{3/2}), filled on the first d_a
    rows = []
    for d_a in map(int, d_a_values):
        if not d_rs:
            continue
        _check_observed(d_a)
        if fragments:
            cap = _cap(d_a)
        else:
            # as in omega_new, the first row checks d_r before d_a's cap can
            # overflow, and computes that cap before d_r's terms
            _check_fragment(d_rs[0])
            cap = _cap(d_a)
            fragments.append((d_rs[0], _linear(d_rs[0]), _three_halves(d_rs[0])))
        square, halves_a, d153 = _observed_terms(d_a)
        spread = None if r_size is None else _spread(d_a, r_size, q_size)
        for d_r in d_rs[len(fragments) :]:
            _check_fragment(d_r)
            fragments.append((d_r, _linear(d_r), _three_halves(d_r)))
        for d_r, linear, halves_r in fragments:
            new = _omega_new(cap, linear)
            old = _omega_ranard(square, halves_a, d153, d_r, halves_r, linear)
            row = {"d_a": d_a, "d_r": d_r, "omega_new": new, "omega_ranard": old, "improvement_factor": old / new}
            if spread is not None:
                row["diamond_bound"] = d_a * new * spread
            rows.append(row)
    return rows
