"""End-to-end command-line behavior: payloads, headers, determinism, exit
codes."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import locnorms
from locnorms import (
    BipartiteOperator,
    QuantumXorGame,
    SeeSawConfig,
    evaluate_game,
    gue_operator,
    hiding_ratio,
    random_density_matrix,
    werner_hiding_pair,
    write_game_file,
    write_operator_file,
)
from locnorms.cli import (
    DARWINISM_COLUMNS,
    EXIT_DEGENERATE,
    EXIT_OK,
    EXIT_SUITE_FAILURE,
    EXIT_VALIDATION,
    SCALING_COLUMNS,
    XOR_COLUMNS,
    main,
)
import locnorms.cli as cli_module
from locnorms import norms, verify
from locnorms.states import stream


def run_json(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def run_text(tmp_path, argv, name="out.csv"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text()


# ---------------------------------------------------------------- ratio

def test_ratio_werner_qubit(tmp_path):
    code, payload = run_json(tmp_path, ["ratio", "--werner", "2"])
    assert code == EXIT_OK
    assert payload["generator"] == "werner"
    assert (payload["n_a"], payload["n_b"]) == (2, 2)
    assert payload["trace_norm"] == pytest.approx(1.0, abs=1e-12)
    assert payload["epsilon"]["value"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert payload["ratio"] == pytest.approx(1.5, abs=1e-6)
    assert payload["bound"] == pytest.approx(4.0 * np.sqrt(2.0))
    assert payload["satisfied"] is True
    assert payload["epsilon"]["is_lower_bound"] is True


def test_ratio_from_density_file(tmp_path):
    op = BipartiteOperator(2, 2, random_density_matrix(4, seed=400))
    src = tmp_path / "rho.json"
    write_operator_file(src, op)
    code, payload = run_json(tmp_path, ["ratio", "--input", str(src)])
    assert code == EXIT_OK
    assert payload["generator"] == "file"
    assert payload["ratio"] == pytest.approx(1.0, abs=1e-6)


def test_ratio_zero_operator_is_degenerate(tmp_path):
    src = tmp_path / "zero.json"
    write_operator_file(src, BipartiteOperator(2, 2, np.zeros((4, 4))))
    assert main(["ratio", "--input", str(src)]) == EXIT_DEGENERATE


def test_ratio_missing_file(tmp_path, capsys):
    assert main(["ratio", "--input", str(tmp_path / "absent.json")]) == EXIT_VALIDATION
    assert "not found" in capsys.readouterr().err


def test_ratio_deeply_nested_input_exits_two(tmp_path, capsys):
    src = tmp_path / "deep.json"
    src.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["ratio", "--input", str(src)]) == EXIT_VALIDATION
    assert f"{src}: invalid JSON" in capsys.readouterr().err


# a JSON integer beyond the float range in an operator entry, a state
# entry and a weight
HUGE = int("9" * 400)
GAME_1X1 = {"n_a": 1, "n_b": 1, "signs": [1], "probs": [1.0], "states": [{"re": [1.0], "im": [0.0]}]}


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("ratio", {"n_a": 1, "n_b": 1, "re": [HUGE], "im": [0.0]}, "re"),
        ("xor", {**GAME_1X1, "states": [{"re": [1.0], "im": [HUGE]}]}, "states[0].im"),
        ("xor", {**GAME_1X1, "probs": [HUGE]}, "probs"),
    ],
    ids=["ratio-re", "xor-state-im", "xor-probs"],
)
def test_integer_beyond_float_range_exits_two(tmp_path, capsys, command, payload, field):
    src = tmp_path / "huge.json"
    src.write_text(json.dumps(payload))
    assert main([command, "--input", str(src)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: field '{field}' contains an integer too large")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, payload",
    [
        ("ratio", {"n_a": 1, "n_b": 1, "re": [1e308], "im": [0.0]}),
        ("ratio", {"n_a": 1, "n_b": 2, "re": [0.0, 1e308, 1e308, 0.0], "im": [0.0] * 4}),
        ("xor", {**GAME_1X1, "states": [{"re": [1e308], "im": [0.0]}]}),
        ("ratio", {"n_a": 1, "n_b": 3, "re": [7e307] * 9, "im": [0.0] * 9}),
        ("xor", {**GAME_1X1, "signs": [1, 1], "probs": [1e308, 1e308], "states": GAME_1X1["states"] * 2}),
    ],
    ids=["ratio-1x1", "ratio-off-diagonal", "xor-state", "ratio-trace-norm", "xor-weight-sum"],
)
def test_values_past_the_float_range_exit_two(tmp_path, capsys, command, payload):
    src = tmp_path / "big.json"
    src.write_text(json.dumps(payload))
    # a numpy overflow warning would surface here as an exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--input", str(src)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: ")
    assert "Traceback" not in err and "RuntimeWarning" not in err


def run_module(argv):
    """The exit code and stderr of `python -m locnorms` in a new process,
    where warnings are shown as a plain command-line run shows them."""
    env = {**os.environ, "PYTHONPATH": str(Path(locnorms.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "locnorms", *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("command", ["ratio", "xor"])
def test_warnings_print_as_one_line_without_the_library_path(tmp_path, command):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1e-9  # in the symmetrization warning band
    matrix = {"re": m.real.ravel().tolist(), "im": m.imag.ravel().tolist()}
    if command == "ratio":
        payload = {"n_a": 2, "n_b": 2, **matrix}
    else:
        payload = {"n_a": 2, "n_b": 2, "signs": [1], "probs": [1.0], "states": [matrix]}
    src = tmp_path / "input.json"
    src.write_text(json.dumps(payload))
    code, err = run_module([command, "--input", str(src), "--restarts", "2", "--out", str(tmp_path / "out.json")])
    assert code == EXIT_OK
    assert err == "warning: asymmetry 1.000e-09 exceeds 1.0e-12; taking the Hermitian part\n"


def test_tolerance_above_one_stops_like_one_without_numpy_warnings(tmp_path):
    # 1e308 times a value above 1.8 overflows; any tolerance >= 1 stops the
    # see-saw at its second iteration
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, huge = run_json(tmp_path, ["ratio", "--gue", "3", "3", "--tol", "1e308"], name="huge.json")
    _, one = run_json(tmp_path, ["ratio", "--gue", "3", "3", "--tol", "1"], name="one.json")
    assert huge["epsilon"] == one["epsilon"]
    assert huge["epsilon"]["iterations_used"] == 2


def test_ratio_csv_format(tmp_path):
    code, text = run_text(tmp_path, ["ratio", "--werner", "2", "--format", "csv"])
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0] == ",".join(SCALING_COLUMNS)
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[3] == "werner"
    assert float(cells[8]) == pytest.approx(1.5, abs=1e-6)


# ---------------------------------------------------------------- scaling

def test_scaling_header_only_when_no_samples(tmp_path):
    for gen in ("gue", "werner"):
        code, text = run_text(tmp_path, [
            "scaling", "--generator", gen, "--dmin", "2", "--dmax", "3",
            "--samples", "0",
        ], name=f"{gen}.csv")
        assert code == EXIT_OK
        assert text == ",".join(SCALING_COLUMNS) + "\n"


def test_scaling_werner_one_row_per_dimension(tmp_path):
    code, text = run_text(tmp_path, [
        "scaling", "--generator", "werner", "--dmin", "2", "--dmax", "4",
        "--samples", "5", "--restarts", "24",
    ])
    assert code == EXIT_OK
    lines = text.splitlines()
    assert len(lines) == 4
    ratios = [float(line.split(",")[8]) for line in lines[1:]]
    assert ratios == pytest.approx([1.5, 3.0, 3.75], abs=1e-6)


def test_scaling_gue_rows_and_convergence(tmp_path):
    code, text = run_text(tmp_path, [
        "scaling", "--generator", "gue", "--dmin", "2", "--dmax", "3",
        "--samples", "2", "--restarts", "8",
    ])
    assert code == EXIT_OK
    lines = text.splitlines()
    assert len(lines) == 5
    for line in lines[1:]:
        cells = dict(zip(SCALING_COLUMNS, line.split(",")))
        assert cells["generator"] == "gue"
        assert cells["converged"] == "true"
        assert float(cells["ratio"]) <= float(cells["bound"]) + 1e-6
        assert float(cells["margin"]) == pytest.approx(
            float(cells["bound"]) - float(cells["ratio"]), abs=1e-9)


def test_scaling_byte_identical_reruns(tmp_path):
    argv = ["scaling", "--generator", "induced", "--dmin", "2", "--dmax", "2",
            "--samples", "2", "--restarts", "6", "--seed", "9"]
    _, first = run_text(tmp_path, argv, name="a.csv")
    _, second = run_text(tmp_path, argv, name="b.csv")
    assert first == second


def test_scaling_json_format(tmp_path):
    code, rows = run_json(tmp_path, [
        "scaling", "--generator", "gue", "--dmin", "2", "--dmax", "2",
        "--samples", "1", "--restarts", "6", "--format", "json",
    ])
    assert code == EXIT_OK
    assert isinstance(rows, list) and len(rows) == 1
    assert set(rows[0]) == set(SCALING_COLUMNS)


def test_scaling_validation_errors(tmp_path, capsys):
    assert main(["scaling", "--generator", "gue", "--dmin", "1"]) == EXIT_VALIDATION
    assert main(["scaling", "--generator", "gue", "--dmin", "4", "--dmax", "3"]) == EXIT_VALIDATION
    assert main(["scaling", "--generator", "gue", "--samples", "-1"]) == EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, dims",
    [
        (["ratio", "--gue", "-1", "2"], "(-1, 2)"),
        (["ratio", "--werner", "-1"], "(-1, -1)"),
        (["xor", "--na", "-1"], "(-1, 3)"),
    ],
    ids=["ratio-gue", "ratio-werner", "xor"],
)
def test_negative_dimensions_exit_two_in_library_words(capsys, argv, dims):
    # the dimensions are checked before they key a Philox stream
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: local dimensions must be >= 1, got {dims}\n"
    assert "non-negative integer" not in err


# ---------------------------------------------------------------- xor

def test_xor_single_state_game_file(tmp_path):
    game = QuantumXorGame(
        n_a=2, n_b=2,
        states=(random_density_matrix(4, seed=401),),
        signs=(1,), probs=(1.0,),
    )
    src = tmp_path / "game.json"
    write_game_file(src, game)
    code, payload = run_json(tmp_path, ["xor", "--input", str(src)])
    assert code == EXIT_OK
    assert payload["num_states"] == 1
    assert payload["beta_all"] == pytest.approx(1.0, abs=1e-12)
    assert payload["beta_product"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert payload["ratio"] == pytest.approx(1.0, abs=1e-6)
    assert payload["satisfied"] is True


def test_xor_werner_game_matches_ratio_command(tmp_path):
    src = tmp_path / "game.json"
    write_game_file(src, werner_hiding_pair(3))
    _, xor = run_json(tmp_path, ["xor", "--input", str(src), "--restarts", "32"],
                      name="xor.json")
    _, ratio = run_json(tmp_path, ["ratio", "--werner", "3", "--restarts", "32"],
                        name="ratio.json")
    assert xor["beta_all"] == pytest.approx(ratio["trace_norm"], abs=1e-12)
    assert xor["beta_product"]["value"] == pytest.approx(ratio["epsilon"]["value"], abs=1e-9)
    assert xor["ratio"] == pytest.approx(ratio["ratio"], abs=1e-6)
    assert xor["ratio"] == pytest.approx(3.0, abs=1e-6)


def test_xor_zero_game_reports_null_ratio(tmp_path):
    rho = random_density_matrix(4, seed=402)
    game = QuantumXorGame(n_a=2, n_b=2, states=(rho, rho), signs=(1, -1),
                          probs=(0.5, 0.5))
    src = tmp_path / "game.json"
    write_game_file(src, game)
    code, payload = run_json(tmp_path, ["xor", "--input", str(src)])
    assert code == EXIT_OK
    assert payload["beta_all"] == 0.0
    assert payload["ratio"] is None
    assert payload["satisfied"] is True


def test_xor_non_finite_weight_names_the_file(tmp_path, capsys):
    game = QuantumXorGame(
        n_a=2, n_b=2,
        states=(random_density_matrix(4, seed=403),),
        signs=(1,), probs=(1.0,),
    )
    src = tmp_path / "game.json"
    write_game_file(src, game)
    data = json.loads(src.read_text())
    data["probs"] = [float("nan")]
    src.write_text(json.dumps(data))
    assert main(["xor", "--input", str(src)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"error: {src}: probs[0] must be a finite nonnegative weight" in err


def test_xor_missing_file_names_no_kind(tmp_path, capsys):
    src = tmp_path / "absent.json"
    assert main(["xor", "--input", str(src)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {src}: file not found\n"


def test_xor_random_batch(tmp_path):
    code, rows = run_json(tmp_path, [
        "xor", "--na", "2", "--nb", "2", "--states", "3", "--samples", "3",
        "--restarts", "8",
    ])
    assert code == EXIT_OK
    assert [row["sample"] for row in rows] == [0, 1, 2]
    for row in rows:
        assert set(row) == set(XOR_COLUMNS)
        assert row["satisfied"] is True
        assert row["beta_product"] <= row["beta_all"] + 1e-9


def test_xor_csv_format(tmp_path):
    code, text = run_text(tmp_path, [
        "xor", "--na", "2", "--nb", "2", "--samples", "1", "--restarts", "6",
        "--format", "csv",
    ])
    assert code == EXIT_OK
    assert text.splitlines()[0] == ",".join(XOR_COLUMNS)


# ---------------------------------------------------------------- darwinism

def test_darwinism_single_cell(tmp_path):
    code, text = run_text(tmp_path, [
        "darwinism", "--da", "2", "--dr", "5", "--r", "1", "--q", "100",
    ])
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0] == ",".join(DARWINISM_COLUMNS)
    cells = dict(zip(DARWINISM_COLUMNS, lines[1].split(",")))
    assert float(cells["omega_new"]) == 4.0
    assert float(cells["diamond_bound"]) == pytest.approx(0.9420, abs=1e-4)


def test_darwinism_empty_range_header_only(tmp_path):
    code, text = run_text(tmp_path, ["darwinism", "--da", "5:3", "--dr", "2:4"])
    assert code == EXIT_OK
    assert text == ",".join(DARWINISM_COLUMNS) + "\n"


def test_darwinism_grid_size(tmp_path):
    code, rows = run_json(tmp_path, [
        "darwinism", "--da", "3:5", "--dr", "2:4", "--format", "json",
    ])
    assert code == EXIT_OK
    assert len(rows) == 9
    assert all(row["improvement_factor"] >= 1.0 - 1e-12 for row in rows)


def test_darwinism_validation_errors(capsys):
    assert main(["darwinism", "--da", "1:4"]) == EXIT_VALIDATION
    assert main(["darwinism", "--r", "0"]) == EXIT_VALIDATION
    assert main(["darwinism", "--q", "0"]) == EXIT_VALIDATION
    capsys.readouterr()
    for flag in ("--da", "--dr", "--r", "--q"):  # an integer too large for float arithmetic; the last --da wins
        assert main(["darwinism", "--da", "2", "--dr", "2", flag, str(10**400)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: value too large (int too large to convert to float)\n"
    # an observed dimension whose square leaves the float range
    assert main(["darwinism", "--da", str(10**155), "--dr", "2"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: value too large ((34, 'Numerical result out of range'))\n"
    # the --dr start is checked like the --da start, also when --da is empty
    assert main(["darwinism", "--da", "5:3", "--dr", "0:2"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: fragment dimension must be >= 1, got 0\n"


# The exact stdout of one small grid in both formats: any change to the
# sweep, the bound or the row projection shows as a byte difference.
DARWINISM_GRID = ["darwinism", "--da", "2:4", "--dr", "1:3", "--r", "2", "--q", "5"]
DARWINISM_GRID_CSV = """\
d_a,d_r,omega_new,omega_ranard,improvement_factor,diamond_bound
2,1,1.0,1.0,1.0,1.4893189644236136
2,2,3.0,3.0,1.0,4.4679568932708404
2,3,4.0,4.0,1.0,5.957275857694454
3,1,1.0,1.0,1.0,2.812473729372488
3,2,3.0,3.0,1.0,8.437421188117463
3,3,5.0,5.0,1.0,14.06236864686244
4,1,1.0,1.0,1.0,4.212430156374655
4,2,3.0,3.0,1.0,12.637290469123965
4,3,5.0,5.0,1.0,21.062150781873274
"""
DARWINISM_GRID_JSON = """\
[
  {
    "d_a": 2,
    "d_r": 1,
    "diamond_bound": 1.4893189644236136,
    "improvement_factor": 1.0,
    "omega_new": 1.0,
    "omega_ranard": 1.0
  },
  {
    "d_a": 2,
    "d_r": 2,
    "diamond_bound": 4.4679568932708404,
    "improvement_factor": 1.0,
    "omega_new": 3.0,
    "omega_ranard": 3.0
  },
  {
    "d_a": 2,
    "d_r": 3,
    "diamond_bound": 5.957275857694454,
    "improvement_factor": 1.0,
    "omega_new": 4.0,
    "omega_ranard": 4.0
  },
  {
    "d_a": 3,
    "d_r": 1,
    "diamond_bound": 2.812473729372488,
    "improvement_factor": 1.0,
    "omega_new": 1.0,
    "omega_ranard": 1.0
  },
  {
    "d_a": 3,
    "d_r": 2,
    "diamond_bound": 8.437421188117463,
    "improvement_factor": 1.0,
    "omega_new": 3.0,
    "omega_ranard": 3.0
  },
  {
    "d_a": 3,
    "d_r": 3,
    "diamond_bound": 14.06236864686244,
    "improvement_factor": 1.0,
    "omega_new": 5.0,
    "omega_ranard": 5.0
  },
  {
    "d_a": 4,
    "d_r": 1,
    "diamond_bound": 4.212430156374655,
    "improvement_factor": 1.0,
    "omega_new": 1.0,
    "omega_ranard": 1.0
  },
  {
    "d_a": 4,
    "d_r": 2,
    "diamond_bound": 12.637290469123965,
    "improvement_factor": 1.0,
    "omega_new": 3.0,
    "omega_ranard": 3.0
  },
  {
    "d_a": 4,
    "d_r": 3,
    "diamond_bound": 21.062150781873274,
    "improvement_factor": 1.0,
    "omega_new": 5.0,
    "omega_ranard": 5.0
  }
]
"""


@pytest.mark.parametrize(
    "fmt, expected", [([], DARWINISM_GRID_CSV), (["--format", "json"], DARWINISM_GRID_JSON)], ids=["csv", "json"]
)
def test_darwinism_grid_bytes(capsys, fmt, expected):
    assert main(DARWINISM_GRID + fmt) == EXIT_OK
    assert capsys.readouterr() == (expected, "")


def test_darwinism_benchmark_grid_digest(capsys):
    # the stdout of the benchmark's ~14k-row grid, recorded when each row
    # called the single-pair functions: any float of any row that changes
    # shows here
    assert main(["darwinism", "--da", "2:120", "--dr", "1:122", "--r", "1", "--q", "100"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert (len(out.splitlines()), err) == (119 * 122 + 1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == "e446f27a5d5aa05a7299f0a948a6254dcd841dd60ae1e5904a9d7766f12c5464"


# A grid whose floats are spelled in exponent form, as csv.writer wrote them.
DARWINISM_EXPONENT_GRID = ["darwinism", "--da", "99999999999999999:100000000000000001"]
DARWINISM_EXPONENT_GRID += ["--dr", "99999999999999999:100000000000000001"]
DARWINISM_EXPONENT_CSV = "d_a,d_r,omega_new,omega_ranard,improvement_factor,diamond_bound\n" + "".join(
    f"{d_a},{d_r},2e+17,2e+17,1.0,1.7696089190755967e+35\n"
    for d_a in range(10**17 - 1, 10**17 + 2)
    for d_r in range(10**17 - 1, 10**17 + 2)
)


def test_darwinism_csv_spells_exponents_and_prints_nothing_on_error(capsys):
    assert main(DARWINISM_EXPONENT_GRID) == EXIT_OK
    assert capsys.readouterr() == (DARWINISM_EXPONENT_CSV, "")
    # 2**512 - 2**458 is the least integer whose float squares out of the
    # float range, so the second grid raises after its first d_a's rows
    for d_a in (str(10**155), f"{2**512 - 2**458 - 1}:{2**512 - 2**458}"):
        assert main(["darwinism", "--da", d_a, "--dr", "1:3"]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: value too large ((34, 'Numerical result out of range'))\n")


def test_darwinism_rows_that_overflow_print_inf_and_no_warning(capsys):
    # every term of the pair is finite, but sqrt(153 d_a d_r) and the
    # diamond bound leave the float range; a numpy overflow warning would
    # surface here as an exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["darwinism", "--da", str(10**154), "--dr", str(10**153), "--r", "1", "--q", "1"]) == EXIT_OK
    row = f"{10**154},{10**153},2e+153,2e+153,1.0,inf\n"
    assert capsys.readouterr() == (",".join(DARWINISM_COLUMNS) + "\n" + row, "")


def test_csv_spells_float_arrays_with_repr(capsys):
    # A float64 column is spelled once per distinct bit pattern. 0.0 and
    # -0.0 compare equal but spell apart, and the three NaN bit patterns
    # compare unequal to everything but spell alike, so spelling keyed by
    # value would go wrong somewhere. Either side of 1e16 and 1e-4 repr
    # switches between positional and exponent form.
    nan_payload = np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64).view(np.float64)
    values = np.array(
        [0.0, -0.0, math.nan, *nan_payload, math.inf, -math.inf, 2.0**-1074, 0.1, 1.0]
        + [9999999999999998.0, 1e16, 1.0000000000000002e16, 9.999999999999999e-05, 1e-4, 0.00010000000000000002]
    )
    assert np.unique(values.view(np.int64)).size == values.size
    table = [values.reshape(2, -1), values[::-1].reshape(2, -1), np.roll(values, 5).reshape(2, -1)]
    keys = np.array(["a", "b"], dtype=object)[:, None]
    cli_module._emit(cli_module._csv(("k", "x", "y", "z"), [keys, *table]), None)
    rows = zip(["a"] * 8 + ["b"] * 8, *(column.ravel().tolist() for column in table))
    assert capsys.readouterr().out == "k,x,y,z\n" + "".join(f"{k},{x!r},{y!r},{z!r}\n" for k, x, y, z in rows)


def test_csv_cells_spell_each_python_scalar(capsys):
    # The oracle is csv.writer with bools spelled true/false: "" for None,
    # str for an int or a str and repr for a float. Values that compare
    # equal but spell differently (0.0 and -0.0; True, 1 and 1.0) share a
    # column in every order, and two distinct NaN objects share one too, so
    # a float memo that conflates any of them misspells some later cell.
    # Rows hold Python scalars only: csv would not spell numpy scalars so.
    nan = float("nan")
    table = [
        (0.0, True, math.nan, None, "gue", 1.0, math.inf),
        (-0.0, 1, nan, -2**70, "werner", True, -math.inf),
        (0.0, 1.0, math.nan, 1e300, "gue", 1, 0.1),
        (-0.0, False, nan, 0.1, "induced", 0.0, 2.0**-1074),
        (1.0, 0, -0.0, 0, "game", -0.0, math.inf),
        (True, 0.0, 0, False, "file", 0, 0.1),
    ]
    columns = tuple(f"c{k}" for k in range(len(table[0])))
    oracle = io.StringIO()
    spell_bools = [[("true" if v else "false") if type(v) is bool else v for v in row] for row in table]
    csv.writer(oracle, lineterminator="\n").writerows([columns, *spell_bools])
    cli_module._emit_rows([dict(zip(columns, row)) for row in table], columns, "csv", None)
    assert capsys.readouterr().out == oracle.getvalue()
    assert oracle.getvalue().splitlines()[1:3] == [
        "0.0,true,nan,,gue,1.0,inf",
        "-0.0,1,nan,-1180591620717411303424,werner,true,-inf",
    ]


# ---------------------------------------------------------------- verify

def test_verify_small_run_passes(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--samples", "4", "--restarts", "8", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    summary = json.loads(out.read_text())
    assert summary["passed"] is True
    assert summary["samples"] == 4
    assert all(s["passed"] for s in summary["suites"].values())
    assert captured.err.count("[PASS]") == len(summary["suites"])


def test_verify_byte_identical_reruns(tmp_path):
    argv = ["verify", "--samples", "3", "--restarts", "6", "--seed", "11"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_verify_rejects_non_positive_samples(tmp_path, capsys):
    out = tmp_path / "verify.json"
    for samples in ("0", "-3"):
        assert main(["verify", "--samples", samples, "--out", str(out)]) == EXIT_VALIDATION
        assert "samples must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_failure_exit_code(tmp_path, capsys, monkeypatch):
    def failing(config, samples):
        return {
            "passed": False,
            "suites": {"stub": {"passed": False, "checks": 1,
                                "failures": ["stub"], "stats": {}}},
        }

    monkeypatch.setattr(cli_module, "run_verification", failing)
    out = tmp_path / "verify.json"
    code = main(["verify", "--out", str(out)])
    assert code == EXIT_SUITE_FAILURE
    assert "[FAIL] stub" in capsys.readouterr().err


# ---------------------------------------------------------------- rows

@pytest.mark.parametrize(
    "argv, columns",
    [
        (["scaling", "--generator", "gue", "--dmin", "2", "--dmax", "2", "--samples", "2", "--restarts", "4"],
         SCALING_COLUMNS),
        (["xor", "--na", "2", "--nb", "2", "--samples", "2", "--restarts", "4"], XOR_COLUMNS),
        (["darwinism", "--da", "2:3", "--dr", "2"], DARWINISM_COLUMNS),
    ],
    ids=["scaling", "xor", "darwinism"],
)
def test_json_rows_carry_exactly_the_csv_columns(tmp_path, argv, columns):
    code, rows = run_json(tmp_path, argv + ["--format", "json"])
    assert code == EXIT_OK
    assert len(rows) == 2
    assert all(list(row) == sorted(columns) for row in rows)


@pytest.mark.parametrize(
    "source, generator",
    [(["--gue", "3", "3"], "gue"), (["--induced", "3", "3"], "induced"), (["--werner", "3"], "werner")],
    ids=["gue", "induced", "werner"],
)
def test_ratio_csv_row_is_the_first_scaling_row(tmp_path, source, generator):
    common = ["--seed", "4", "--restarts", "4", "--format", "csv"]
    _, ratio = run_text(tmp_path, ["ratio", *source, *common], name="ratio.csv")
    _, scaling = run_text(tmp_path, [
        "scaling", "--generator", generator, "--dmin", "3", "--dmax", "3", "--samples", "1", *common,
    ], name="scaling.csv")
    assert ratio == scaling
    assert len(ratio.splitlines()) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["darwinism", "--seed", "1"],
        ["darwinism", "--restarts", "4"],
        ["darwinism", "--max-iters", "5"],
        ["darwinism", "--tol", "0.1"],
        ["verify", "--format", "json"],
    ],
    ids=["darwinism-seed", "darwinism-restarts", "darwinism-max-iters", "darwinism-tol", "verify-format"],
)
def test_flags_a_subcommand_does_not_read_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err


# Each command checks its search flags once, after its own checks: a bad
# flag fails even when no row is built, and an earlier error still wins.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["scaling", "--generator", "gue", "--samples", "0", "--restarts", "0"], "restarts must be positive, got 0"),
        (
            ["scaling", "--generator", "gue", "--samples", "0", "--restarts", str(2**32)],
            f"restarts must be below 2**32, got {2**32}",
        ),
        (["xor", "--samples", "0", "--tol", "-1"], "rel_tol must be positive, got -1.0"),
        (["ratio", "--werner", "1", "--restarts", "0"], "hiding pair needs d >= 2 (no antisymmetric subspace at d=1)"),
        (["xor", "--states", "0", "--restarts", "0"], "num_states must be >= 1, got 0"),
        (["xor", "--states", "0", "--samples", "0", "--restarts", "0"], "num_states must be >= 1, got 0"),
    ],
    ids=[
        "scaling-no-rows",
        "scaling-restarts-past-substreams",
        "xor-no-rows",
        "ratio-instance-first",
        "xor-states-first",
        "xor-states-no-games",
    ],
)
def test_search_flags_are_checked_after_the_command_checks(capsys, argv, message):
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------- dispatch

def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ratio"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ratio", "--werner", "2", "--seed", "-1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["darwinism", "--da", "2:3:4"])
    assert exc.value.code == 2
    capsys.readouterr()


# One argv of each kind that a process's one parser meets: a usage error,
# the help, a darwinism table and a verify pass.
PARSER_ARGV = (
    ["darwinism", "--da", "2:3:4"],
    ["--help"],
    ["darwinism", "--da", "2:6", "--dr", "1:6", "--r", "3", "--q", "7"],
    ["verify", "--samples", "1"],
)


def test_the_cached_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    # main parses every call with the same parser; each call, after any
    # other, gives the stdout, stderr and exit code of a new interpreter.
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width
    env = {**os.environ, "PYTHONPATH": str(Path(locnorms.__file__).parents[1])}
    expected = []
    for argv in PARSER_ARGV:
        proc = subprocess.run([sys.executable, "-m", "locnorms", *argv], capture_output=True, text=True, env=env)
        expected.append((proc.stdout, proc.stderr, proc.returncode))
    for k in (0, 1, 2, 3, 1, 0, 3, 2, 0):
        try:
            code = main(list(PARSER_ARGV[k]))
        except SystemExit as exc:
            code = exc.code
        assert (*capsys.readouterr(), code) == expected[k]
    assert expected[0][2] == EXIT_VALIDATION and expected[1][2] == expected[3][2] == EXIT_OK
    assert cli_module.build_parser() is cli_module.build_parser()


@pytest.mark.parametrize("seed", ["1e3", "abc", str(2**64)])
def test_bad_seed_names_the_seed_range(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["ratio", "--werner", "2", "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --seed: seed must be an unsigned 64-bit integer, got {seed}\n")


@pytest.mark.parametrize(
    "argv, builder", [(["ratio", "--gue", "2", "2"], "gue_operator"), (["xor"], "random_game")], ids=["ratio", "xor"]
)
def test_out_of_memory_exits_two_without_traceback(capsys, monkeypatch, argv, builder):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 TiB for an array")

    monkeypatch.setattr(verify, builder, too_large)
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: out of memory (Unable to allocate 7.45 TiB for an array)\n"


def test_unwritable_output_path(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    assert main(["darwinism", "--da", "2", "--dr", "2", "--out", str(target)]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------- one evaluation path
#
# ratio, scaling and xor search all their cases in one batch through
# norms._drive. The public per-case reports, hiding_ratio of an operator
# and evaluate_game of a game, are the oracle for every row.


def recorded_rows(monkeypatch):
    """The rows verify.case_records builds for the CLI, in a list that
    fills as the command runs."""
    rows = []
    real = cli_module.case_records

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        rows.extend(result)
        return result

    monkeypatch.setattr(cli_module, "case_records", recording)
    return rows


def report_fields(report):
    """What a row reports of a case, read off its public report."""
    est = report.eps_estimate
    return {
        "trace_norm": report.trace_norm,
        "value": est.value,
        "ratio": report.ratio,
        "bound": report.bound,
        "satisfied": report.satisfied,
        "margin": None if report.ratio is None else report.bound - report.ratio,
        "estimate": {
            "value": est.value,
            "is_lower_bound": True,
            "iterations_used": est.iterations_used,
            "converged": est.converged,
            "restart_index": est.restart_index,
        },
    }


def row_fields(row):
    """The same fields read off a CLI row (a game's row keys them beta_*)."""
    game = "beta_all" in row
    fields = {key: row[key] for key in ("ratio", "bound", "satisfied", "margin", "estimate")}
    fields["trace_norm"] = row["beta_all" if game else "trace_norm"]
    fields["value"] = row["beta_product" if game else "eps_estimate"]
    return fields


def operator_file(tmp_path):
    path = tmp_path / "op.json"
    write_operator_file(path, gue_operator(2, 3, 7))
    return path


def game_file(tmp_path, game):
    path = tmp_path / "game.json"
    write_game_file(path, game)
    return path


def cancelling_game():
    rho = random_density_matrix(4, seed=402)
    return QuantumXorGame(n_a=2, n_b=2, states=(rho, rho), signs=(1, -1), probs=(0.5, 0.5))


# command -> (its argv at seed 7 and 4 restarts given a scratch directory,
# the (instance, see-saw seed) cases it draws given the same directory)
ONE_PATH_COMMANDS = {
    "ratio": (
        lambda tmp: ["ratio", "--induced", "3", "2"],
        lambda tmp: [verify.draw("induced", 3, 2, 7, 0, verify.GENERATOR_CODE["induced"])],
    ),
    "ratio-input": (
        lambda tmp: ["ratio", "--input", str(operator_file(tmp))],
        lambda tmp: [(gue_operator(2, 3, 7), verify.run_seed(stream(7, verify.INPUT_LABEL)))],
    ),
    "scaling": (
        lambda tmp: ["scaling", "--generator", "gue", "--dmin", "2", "--dmax", "4", "--samples", "2"],
        lambda tmp: [verify.draw("gue", d, d, 7, k, verify.GENERATOR_CODE["gue"]) for d in (2, 3, 4) for k in (0, 1)],
    ),
    "xor": (
        lambda tmp: ["xor", "--na", "2", "--nb", "3", "--states", "3", "--samples", "3"],
        lambda tmp: [verify.draw("game", 2, 3, 7, k, verify.XOR_LABEL, num_states=3) for k in range(3)],
    ),
    "xor-input": (
        lambda tmp: ["xor", "--input", str(game_file(tmp, werner_hiding_pair(3)))],
        lambda tmp: [(werner_hiding_pair(3), 7)],
    ),
    "xor-input-zero-game": (
        lambda tmp: ["xor", "--input", str(game_file(tmp, cancelling_game()))],
        lambda tmp: [(cancelling_game(), 7)],
    ),
}


@pytest.mark.parametrize("command", sorted(ONE_PATH_COMMANDS))
def test_cli_rows_are_the_per_case_public_reports(monkeypatch, tmp_path, command):
    argv, drawn = ONE_PATH_COMMANDS[command]
    rows = recorded_rows(monkeypatch)
    code, _ = run_text(tmp_path, argv(tmp_path) + ["--seed", "7", "--restarts", "4"])
    assert code == EXIT_OK
    cases = drawn(tmp_path)
    assert len(rows) == len(cases)
    for row, (instance, seesaw_seed) in zip(rows, cases):
        config = SeeSawConfig(restarts=4, seed=seesaw_seed)
        evaluate = evaluate_game if isinstance(instance, QuantumXorGame) else hiding_ratio
        report = evaluate(instance, config)
        assert row_fields(row) == report_fields(report)
        assert (row["n_a"], row["n_b"], row["seed"], row["restarts"]) == (instance.n_a, instance.n_b, 7, 4)


@pytest.mark.parametrize(
    "argv, batches",
    [
        # three shapes of three cases each, then one shape of four games
        (["scaling", "--generator", "gue", "--dmin", "2", "--dmax", "4", "--samples", "3"], [3, 3, 3]),
        (["xor", "--samples", "4"], [4]),
    ],
    ids=["scaling", "xor"],
)
def test_a_command_makes_one_kernel_call_per_shape(monkeypatch, tmp_path, argv, batches):
    calls = []
    real = norms._seesaw

    def counted(zs, *args):
        calls.append(len(zs))
        return real(zs, *args)

    monkeypatch.setattr(norms, "_seesaw", counted)
    code, _ = run_text(tmp_path, argv + ["--restarts", "4"])
    assert code == EXIT_OK
    assert calls == batches


def test_a_zero_operator_wins_over_a_later_draw_error(monkeypatch, capsys):
    # each case is checked as it is drawn: the zero operator at case 1
    # decides the exit before case 2 runs out of memory
    real = verify.gue_operator
    draws = []

    def drawn(n_a, n_b, rng):
        draws.append((n_a, n_b))
        if len(draws) == 2:
            return BipartiteOperator(n_a, n_b, np.zeros((n_a * n_b, n_a * n_b)))
        if len(draws) == 3:
            raise MemoryError("Unable to allocate 7.45 TiB for an array")
        return real(n_a, n_b, rng)

    monkeypatch.setattr(verify, "gue_operator", drawn)
    argv = ["scaling", "--generator", "gue", "--dmin", "2", "--dmax", "2", "--samples", "3", "--restarts", "2"]
    assert main(argv) == EXIT_DEGENERATE
    assert capsys.readouterr() == ("", "error: hiding ratio is undefined for the zero operator\n")
    assert len(draws) == 2
