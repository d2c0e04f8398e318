"""Dimensional coefficient arithmetic: values, domains, and the sweep."""

import math

import pytest

from locnorms import (
    coefficient_sweep,
    diamond_bound_rhs,
    omega_new,
    omega_ranard,
)


# ---------------------------------------------------------------- omega_new

def test_omega_new_qubit_values():
    assert omega_new(2, 5) == 4.0
    assert omega_new(2, 1) == 1.0
    assert omega_new(2, 2) == 3.0


def test_omega_new_higher_dimensions():
    assert omega_new(3, 10**6) == pytest.approx(6.0 * math.sqrt(2.0), abs=1e-12)
    # small fragment: the 2 d_r - 1 branch wins
    assert omega_new(3, 3) == 5.0
    assert omega_new(100, 10**6) == pytest.approx(200.0 * math.sqrt(2.0), abs=1e-9)


def test_omega_ranard_values():
    assert omega_ranard(3, 3) == 5.0
    assert omega_ranard(2, 10**6) == 4.0
    assert omega_ranard(10, 10**6) == 100.0
    assert omega_ranard(2, 2) == 3.0


def test_omega_domain_errors():
    for fn in (omega_new, omega_ranard):
        with pytest.raises(ValueError, match=">= 2"):
            fn(1, 5)
        with pytest.raises(ValueError, match=">= 1"):
            fn(3, 0)


# ---------------------------------------------------------------- comparisons

def test_new_coefficient_never_weaker_above_qubit():
    for d_a in (3, 4, 7, 20, 100):
        for d_r in (1, 2, 5, 100, 10**6):
            assert omega_ranard(d_a, d_r) / omega_new(d_a, d_r) >= 1.0 - 1e-12


def test_asymptotic_improvement_factor():
    # For d_a = k^2 and huge fragments the quotient is 4 (k^2)^{3/2} over
    # 2 sqrt(2) k^2, i.e. sqrt(2) k = sqrt(2 d_a); the 4 d_a^{3/2} branch
    # is the binding one of the old minimum once k > 4.
    for k in (25, 49):
        got = omega_ranard(k**2, 10**12) / omega_new(k**2, 10**12)
        assert got == pytest.approx(math.sqrt(2.0) * k, rel=1e-12)


def test_qubit_cell_ties():
    # d_a = d_r = 2: both coefficients are 3, quotient exactly 1.
    rows = coefficient_sweep([2], [2])
    assert rows == [{"d_a": 2, "d_r": 2, "omega_new": 3.0, "omega_ranard": 3.0, "improvement_factor": 1.0}]


def test_omega_new_monotonicity():
    big = 10**6
    prev = 0.0
    for d_a in range(2, 60):
        cur = omega_new(d_a, big)
        assert cur >= prev
        prev = cur
    prev = 0.0
    for d_r in range(1, 40):
        cur = omega_new(5, d_r)
        assert cur >= prev
        prev = cur


# ---------------------------------------------------------------- diamond bound

def test_diamond_bound_arithmetic():
    expected = 2.0 * 4.0 * math.sqrt(2.0 * math.log(2.0) / 100.0)
    assert diamond_bound_rhs(2, 5, 1, 100) == pytest.approx(expected, rel=1e-15)


def test_diamond_bound_r_equals_q():
    # r_size = q_size cancels inside the square root.
    a = diamond_bound_rhs(3, 4, 7, 7)
    b = diamond_bound_rhs(3, 4, 1, 1)
    assert a == pytest.approx(b, rel=1e-15)
    # Omega(3, 4) = min(6 sqrt(2), 7) = 7
    assert a == pytest.approx(3.0 * 7.0 * math.sqrt(2.0 * math.log(3.0)), rel=1e-15)


def test_diamond_bound_sqrt_scaling_in_q():
    base = diamond_bound_rhs(4, 9, 3, 50)
    halved = diamond_bound_rhs(4, 9, 3, 100)
    assert base / halved == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_diamond_bound_monotone_in_q():
    prev = math.inf
    for q in (1, 10, 100, 1000, 10**6):
        cur = diamond_bound_rhs(3, 3, 2, q)
        assert cur < prev
        prev = cur


def test_params_validation():
    with pytest.raises(ValueError, match=">= 2"):
        diamond_bound_rhs(1, 2, 1, 1)
    with pytest.raises(ValueError, match="r_size"):
        diamond_bound_rhs(2, 2, 0, 1)
    with pytest.raises(ValueError, match="q_size"):
        diamond_bound_rhs(2, 2, 1, 0)


# ---------------------------------------------------------------- sweep

def test_sweep_shape_and_consistency():
    rows = coefficient_sweep(range(2, 6), [1, 10, 100])
    assert len(rows) == 12
    assert [(row["d_a"], row["d_r"]) for row in rows] == [(d_a, d_r) for d_a in range(2, 6) for d_r in (1, 10, 100)]
    for row in rows:
        assert row["omega_new"] == omega_new(row["d_a"], row["d_r"])
        assert row["omega_ranard"] == omega_ranard(row["d_a"], row["d_r"])
        assert row["improvement_factor"] == row["omega_ranard"] / row["omega_new"]


def test_sweep_empty_range_gives_no_rows():
    assert coefficient_sweep([], [1, 2]) == []
    assert coefficient_sweep([2, 3], []) == []
    # the other range is never read, so its out-of-domain values raise nothing
    assert coefficient_sweep([], [0]) == []
    assert coefficient_sweep(range(5, 3), [0]) == []
