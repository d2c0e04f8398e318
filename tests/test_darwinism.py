"""Dimensional coefficient arithmetic: values, domains, and the sweep."""

import math
import re

import numpy as np
import pytest

from locnorms import (
    coefficient_sweep,
    diamond_bound_rhs,
    omega_new,
    omega_ranard,
)
from locnorms.darwinism import COLUMNS, _sweep_grid


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


def _dict_rows(*args):
    rows = coefficient_sweep(*args)
    assert all(tuple(row) == COLUMNS[: len(row)] for row in rows)
    return [tuple(row.values()) for row in rows]


def _grid_rows(*args):
    d_as, d_rs, grid = _sweep_grid(*args)
    assert grid.shape == (len(d_as), len(d_rs), 4 if len(args) > 2 else 3)
    return [(d_a, d_r, *cells) for d_a, block in zip(d_as, grid.tolist()) for d_r, cells in zip(d_rs, block)]


# the two sweep paths, each giving its rows as tuples in column order: the
# public dict rows and the float grid the CSV table is written from
SWEEPS = (_dict_rows, _grid_rows)


def test_sweep_rows_equal_the_single_pair_functions():
    # every row is the pair's omega_new, omega_ranard, their quotient and
    # diamond_bound_rhs bit for bit, though the sweep evaluates each
    # one-dimension term once per value
    want = [
        (d_a, d_r, omega_new(d_a, d_r), omega_ranard(d_a, d_r), omega_ranard(d_a, d_r) / omega_new(d_a, d_r))
        for d_a in range(2, 60)
        for d_r in range(1, 80)
    ]
    for sweep in SWEEPS:
        assert sweep(range(2, 60), range(1, 80)) == want
        assert sweep(range(2, 60), range(1, 80), 3, 7) == [(*row, diamond_bound_rhs(*row[:2], 3, 7)) for row in want]


@pytest.mark.parametrize("counts", [(1, None), (None, 5)])
def test_sweep_takes_both_fragment_counts_or_neither(counts):
    for sweep in SWEEPS:
        with pytest.raises(ValueError, match="^give both fragment counts or neither"):
            sweep([2], [2], *counts)


def test_sweep_rows_that_overflow_equal_the_single_pair_functions():
    # Every term of these values is finite, but sqrt(153 d_a d_r) and the
    # diamond bound leave the float range in some rows: the single-pair
    # functions give inf there, and so must the sweep, without a warning.
    d_as = [10**153, 10**154, 13 * 10**153]
    d_rs = [1, 10**152, 10**153, 10**154, 10**205]
    for counts in ((), (1, 1), (3, 7)):
        want = [
            (d_a, d_r, omega_new(d_a, d_r), omega_ranard(d_a, d_r), omega_ranard(d_a, d_r) / omega_new(d_a, d_r))
            + ((diamond_bound_rhs(d_a, d_r, *counts),) if counts else ())
            for d_a in d_as
            for d_r in d_rs
        ]
        assert not counts or any(math.isinf(row[-1]) for row in want)
        for sweep in SWEEPS:
            assert sweep(d_as, d_rs, *counts) == want


def test_sweep_without_fragment_counts_has_no_diamond_bound():
    rows = coefficient_sweep(range(2, 5), range(1, 4))
    assert all(list(row) == ["d_a", "d_r", "omega_new", "omega_ranard", "improvement_factor"] for row in rows)
    assert coefficient_sweep([3], [2], 1, 1)[0]["diamond_bound"] == diamond_bound_rhs(3, 2, 1, 1)


@pytest.mark.parametrize(
    "d_as, d_rs, message",
    [
        ([2, 1], [3], "observed-system dimension must be >= 2, got 1"),
        ([3, 1], [5, 0], "fragment dimension must be >= 1, got 0"),
        ([1, 2], [0], "observed-system dimension must be >= 2, got 1"),
        ([], [0], None),
        ([1], [], None),
    ],
)
def test_sweep_raises_the_first_error_of_its_rows(d_as, d_rs, message):
    # the rows evaluated one by one, d_a outer, raise the same first error
    for sweep in SWEEPS:
        if message is None:
            assert sweep(d_as, d_rs) == []
            continue
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(d_as, d_rs)


def test_sweep_checks_its_fragment_counts_before_any_row():
    # as diamond_bound_rhs does: a bad count raises before a bad dimension
    # that the rows one by one would meet first, and with no row at all
    with pytest.raises(ValueError, match="^observed-system dimension must be >= 2, got 1$"):
        _rows_one_by_one([1], [3], 0, 1)
    for sweep in SWEEPS:
        for d_as, d_rs in (([1], [3]), ([], [])):
            with pytest.raises(ValueError, match="^r_size must be >= 1, got 0$"):
                sweep(d_as, d_rs, 0, 1)


def _rows_one_by_one(d_as, d_rs, r_size, q_size):
    return [
        (omega_new(d_a, d_r), omega_ranard(d_a, d_r), diamond_bound_rhs(d_a, d_r, r_size, q_size))
        for d_a in d_as
        for d_r in d_rs
    ]


def _outcome(fn):
    try:
        return fn()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


# values that fail a check, or overflow float arithmetic in one term only:
# 10**155 squared and (10**206)**1.5 leave the float range, 10**400 is
# beyond it
EDGE_VALUES = (0, 1, 2, 3, 10**155, 10**206, 10**400)


@pytest.mark.parametrize("counts", [(1, 1), (10**400, 1), (1, 10**400)])
def test_sweep_fails_where_the_first_failing_row_would(counts):
    # A check or an overflowing term raises what the single-pair functions
    # raise on the first row that fails, whichever value is at fault.
    for d_as in ([a, b] for a in EDGE_VALUES for b in (2, 3, 10**155, 1)):
        for d_rs in ([a, b] for a in EDGE_VALUES for b in (1, 10**206, 0)):
            want = _outcome(lambda: [(n, o, o / n, d) for n, o, d in _rows_one_by_one(d_as, d_rs, *counts)])
            for sweep in SWEEPS:
                got = _outcome(lambda: [row[2:] for row in sweep(d_as, d_rs, *counts)])
                assert got == want, (sweep, d_as, d_rs, counts)


@pytest.mark.parametrize(
    "d_a, d_r, name",
    [(2.5, 3, "observed-system"), (2, 1.5, "fragment"), (np.float64(3.0), 2, "observed-system")],
)
def test_a_non_integral_dimension_raises_in_every_function(d_a, d_r, name):
    # 2.5 is no dimension: the sweep does not read it as 2 (a qubit row)
    bad = re.escape(repr(d_a if name == "observed-system" else d_r))
    calls = [
        lambda: omega_new(d_a, d_r),
        lambda: omega_ranard(d_a, d_r),
        lambda: diamond_bound_rhs(d_a, d_r, 1, 5),
        *(lambda sweep=sweep: sweep([d_a], [d_r]) for sweep in SWEEPS),
        *(lambda sweep=sweep: sweep([d_a], [d_r], 1, 5) for sweep in SWEEPS),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=rf"^{name} dimension must be an integer, got {bad}$"):
            call()


def test_numpy_integer_dimensions_equal_python_ints():
    d_as, d_rs = [np.int64(2), np.int32(3), np.uint8(7)], [np.int16(1), np.uint64(4), np.int8(9), True]
    ints = [2, 3, 7], [1, 4, 9, 1]
    for sweep in SWEEPS:
        for counts in ((), (3, 7)):
            rows = sweep(d_as, d_rs, *counts)
            assert rows == sweep(*ints, *counts)
            assert all(type(row[0]) is int and type(row[1]) is int for row in rows)
    for d_a, a in zip(d_as, ints[0]):
        for d_r, r in zip(d_rs, ints[1]):
            for fn, args in ((omega_new, ()), (omega_ranard, ()), (diamond_bound_rhs, (3, 7))):
                value = fn(d_a, d_r, *args)
                assert type(value) is float and value == fn(a, r, *args)


# values that are no dimension (a float, even an integral one, NaN or a
# string) and integers of other types (numpy integers and a bool)
ODD_VALUES = (2.5, 1.5, 2.0, math.nan, "3", np.int64(3), np.uint8(2), True, 1, 0)


@pytest.mark.parametrize("counts", [(), (1, 1)])
def test_sweep_fails_on_a_non_integer_where_the_first_failing_row_would(counts):
    # The sweep checks and converts each value where the single-pair
    # functions do, so it raises what the first failing row raises.
    def one_by_one(d_as, d_rs):
        return [
            (omega_new(d_a, d_r), omega_ranard(d_a, d_r))
            + ((diamond_bound_rhs(d_a, d_r, *counts),) if counts else ())
            for d_a in d_as
            for d_r in d_rs
        ]

    for d_as in ([a, b] for a in ODD_VALUES for b in (3, 2.5)):
        for d_rs in ([a, b] for a in ODD_VALUES for b in (2, 1.5)):
            want = _outcome(lambda: one_by_one(d_as, d_rs))
            for sweep in SWEEPS:
                got = _outcome(lambda: [(row[2], row[3], *row[5:]) for row in sweep(d_as, d_rs, *counts)])
                assert got == want, (sweep, d_as, d_rs, counts)
