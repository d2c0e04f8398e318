"""Dimensional coefficients for observer-objectivity bounds.

Pure arithmetic: for an observed system of dimension d_a and a single
observer fragment of dimension d_r, the coefficient Omega(d_a, d_r) scales
the deviation of a broadcast channel from an objective (measure-and-
prepare) one. Smaller is stronger. omega_new is the coefficient implied by
the 2 sqrt(2) min-dimension norm bound; omega_ranard is the previous best
five-way minimum it improves on for d_a >= 3.
"""

from __future__ import annotations

import math

TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)


def _check_dims(d_a: int, d_r: int) -> None:
    if d_a < 2:
        raise ValueError(f"observed-system dimension must be >= 2, got {d_a}")
    if d_r < 1:
        raise ValueError(f"fragment dimension must be >= 1, got {d_r}")


def omega_new(d_a: int, d_r: int) -> float:
    """min(4, 2 d_r - 1) for d_a = 2, else min(2 sqrt(2) d_a, 2 d_r - 1).

    Grows at most linearly in the observed-system dimension, with the
    qubit case pinned at 4 by the sharper two-dimensional analysis."""
    _check_dims(d_a, d_r)
    if d_a == 2:
        return float(min(4.0, 2.0 * d_r - 1.0))
    return float(min(TWO_ROOT_TWO * d_a, 2.0 * d_r - 1.0))


def omega_ranard(d_a: int, d_r: int) -> float:
    """Previous best coefficient: min(d_a^2, 4 d_a^{3/2}, 4 d_r^{3/2},
    sqrt(153 d_a d_r), 2 d_r - 1)."""
    _check_dims(d_a, d_r)
    return float(
        min(
            float(d_a) ** 2,
            4.0 * float(d_a) ** 1.5,
            4.0 * float(d_r) ** 1.5,
            math.sqrt(153.0 * d_a * d_r),
            2.0 * d_r - 1.0,
        )
    )


def diamond_bound_rhs(d_a: int, d_r: int, r_size: int, q_size: int) -> float:
    """d_a * Omega(d_a, d_r) * sqrt(2 ln(d_a) * r_size / q_size), the
    right-hand side of the objectivity deviation bound in diamond norm.

    r_size counts the observer fragments addressed jointly, q_size the
    fragments the channel broadcasts over."""
    if r_size < 1:
        raise ValueError(f"r_size must be >= 1, got {r_size}")
    if q_size < 1:
        raise ValueError(f"q_size must be >= 1, got {q_size}")
    return d_a * omega_new(d_a, d_r) * math.sqrt(2.0 * math.log(d_a) * r_size / q_size)


def coefficient_sweep(d_a_values, d_r_values) -> list[dict]:
    """One row per (d_a, d_r) pair, d_a outer, keyed d_a, d_r, omega_new,
    omega_ranard and improvement_factor, the quotient omega_ranard /
    omega_new (>= 1 exactly when the new coefficient is at least as
    strong). An empty range gives no rows."""
    drs = list(map(int, d_r_values))
    rows = []
    for d_a in map(int, d_a_values):
        for d_r in drs:
            new = omega_new(d_a, d_r)
            old = omega_ranard(d_a, d_r)
            rows.append(dict(d_a=d_a, d_r=d_r, omega_new=new, omega_ranard=old, improvement_factor=old / new))
    return rows
