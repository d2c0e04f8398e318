"""Fuzzed operator and game files, and fuzzed argument lists, through the
command line.

Every file, however malformed, must end in exit 0, 2 or 3 without a
traceback or a numpy warning, and a rejection (exit 2) must name the file.
Each example is a valid file with at most one fault: wrong types and bools,
huge and negative integers (one past int's 4300-digit string conversion),
+-1e308 and near-limit entries, NaN and Infinity literals, wrong lengths,
nesting, missing fields, non-Hermitian matrices, non-PSD or wrongly
normalised states, and zero operators and games.

Every argument list of the five subcommands must end the same way (exit 4
is also allowed from verify), whether argparse rejects it or the command
runs. Each list is valid with at most one fault: a non-integer or nan
token, a zero, negative or huge value, a seed of 2**64 or more, an unknown
flag, an unwritable output or a missing input; empty ranges and
tolerances of 1e308 and inf are valid. Sizes stay small: dimensions at
most 4, samples at most 2, restarts at most 4, darwinism ranges at most
10 long.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locnorms.cli import EXIT_DEGENERATE, EXIT_OK, EXIT_SUITE_FAILURE, EXIT_VALIDATION, main

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)

# json.dumps rejects an integer past int's 4300-digit string conversion, so
# LONG stands for one and check_cli writes its digits into the file text.
LONG = "<5001-digit integer>"
SPECIAL = [1e308, -1e308, float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), LONG]
JUNK = st.sampled_from([None, True, False, "1", [], {}, [[[[[1.0]]]]]])
BAD_DIM = st.one_of(st.sampled_from([0, -1, -(10**30), 10**30, 2.0, LONG]), JUNK)
BAD_NUMBER = st.one_of(st.sampled_from(SPECIAL), JUNK)
MATRIX_FAULTS = ["entry", "length", "asymmetric", "huge"]


@st.composite
def hermitian(draw, dim: int) -> dict:
    """re/im lists of an exactly Hermitian dim x dim matrix."""
    value = st.floats(-2.0, 2.0)
    re, im = [0.0] * (dim * dim), [0.0] * (dim * dim)
    for i in range(dim):
        re[i * dim + i] = draw(value)
        for j in range(i + 1, dim):
            re[i * dim + j] = re[j * dim + i] = draw(value)
            im[i * dim + j] = draw(value)
            im[j * dim + i] = -im[i * dim + j]
    return {"re": re, "im": im}


@st.composite
def density(draw, dim: int) -> dict:
    """re/im lists of a mixture of one or two random pure states."""
    coords = st.lists(st.floats(-1.0, 1.0), min_size=2 * dim, max_size=2 * dim)
    rho = np.zeros((dim, dim), dtype=complex)
    for c in draw(st.lists(coords, min_size=1, max_size=2)):
        v = np.array(c[:dim]) + 1j * np.array(c[dim:])
        v[0] += 2.0  # never the zero vector
        rho += np.outer(v, v.conj())
    rho /= np.trace(rho).real
    return {"re": rho.real.ravel().tolist(), "im": rho.imag.ravel().tolist()}


def break_matrix(draw, m: dict, fault: str) -> None:
    """Apply one of MATRIX_FAULTS to the re/im lists of m in place."""
    part = draw(st.sampled_from(["re", "im"]))
    k = draw(st.integers(0, len(m[part]) - 1))
    if fault == "entry":
        m[part][k] = draw(BAD_NUMBER)
    elif fault == "length":
        m[part] = m[part][:-1] if draw(st.booleans()) else m[part] + [0.0]
    elif fault == "asymmetric":
        # in the symmetrization warning band or beyond the rejection threshold
        m[part][k] += draw(st.sampled_from([1e-9, 1e-3, 1.0]))
    else:
        # finite and still Hermitian: large, or near the float limit
        scale = draw(st.sampled_from([1e150, 1e300, 1e307, 8e307]))
        m["re"] = [v * scale for v in m["re"]]
        m["im"] = [v * scale for v in m["im"]]


def mangle(draw, data: dict, fault: str):
    """The faults every file kind shares."""
    if fault == "dim":
        data[draw(st.sampled_from(["n_a", "n_b"]))] = draw(BAD_DIM)
    elif fault == "field":
        del data[draw(st.sampled_from(sorted(data)))]
    elif fault == "top":
        return draw(JUNK)
    return data


@st.composite
def operator_files(draw):
    n_a, n_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    matrix = draw(hermitian(n_a * n_b))
    fault = draw(st.sampled_from(["none", "none", "zero", "dim", "field", "top", *MATRIX_FAULTS]))
    if fault == "zero":
        matrix = {key: [0.0] * len(v) for key, v in matrix.items()}
    elif fault in MATRIX_FAULTS:
        break_matrix(draw, matrix, fault)
    return mangle(draw, {"n_a": n_a, "n_b": n_b, **matrix}, fault)


@st.composite
def game_files(draw):
    n_a, n_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dim, k = n_a * n_b, draw(st.integers(1, 3))
    states = [draw(density(dim)) for _ in range(k)]
    signs = [draw(st.sampled_from([1, -1])) for _ in range(k)]
    weights = [draw(st.floats(0.1, 1.0)) for _ in range(k)]
    probs = [w / sum(weights) for w in weights]
    faults = ["none", "none", "zero", "dim", "field", "top", "sign", "prob", "probs", "trace", "non-psd", "states"]
    fault = draw(st.sampled_from(faults + MATRIX_FAULTS))
    x = draw(st.integers(0, k - 1))
    if fault == "zero":
        # one state with both signs and equal weights: the game operator vanishes
        states, signs, probs = [states[0], states[0]], [1, -1], [0.5, 0.5]
    elif fault == "sign":
        signs[x] = draw(st.one_of(st.sampled_from([0, 2, -2, 1.0]), JUNK))
    elif fault == "prob":
        probs[x] = draw(st.one_of(st.just(-0.5), BAD_NUMBER))
    elif fault == "probs":
        probs = draw(st.sampled_from([probs + [0.0], [1.1 * p for p in probs], [1e308] * k]) | JUNK)
    elif fault == "trace":
        states[x] = {key: [2.0 * v for v in vals] for key, vals in states[x].items()}
    elif fault == "non-psd":
        # unit trace, eigenvalue -1 (dim 1 has no room and stays valid)
        states[x] = {"re": [0.0] * (dim * dim), "im": [0.0] * (dim * dim)}
        states[x]["re"][0] = 2.0 if dim > 1 else 1.0
        states[x]["re"][-1] -= 1.0 if dim > 1 else 0.0
    elif fault == "states":
        states = draw(st.one_of(st.just([]), st.just(states + [None]), JUNK))
    elif fault in MATRIX_FAULTS:
        break_matrix(draw, states[x], fault)
    data = {"n_a": n_a, "n_b": n_b, "signs": signs, "probs": probs, "states": states}
    return mangle(draw, data, fault)


def check_cli(command: str, data, directory) -> int:
    path = directory / f"{command}.json"
    path.write_text(json.dumps(data).replace(json.dumps(LONG), "9" * 5001))
    err = io.StringIO()
    with warnings.catch_warnings():
        # numpy warnings become exceptions; the documented symmetrization warning stays allowed
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", message="asymmetry .* taking the Hermitian part")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--input", str(path), "--restarts", "2"])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_DEGENERATE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_VALIDATION:
        assert err.getvalue().startswith(f"error: {path}: ")
    return code


@FUZZ
@given(data=operator_files())
def test_fuzzed_operator_files(tmp_path_factory, data):
    check_cli("ratio", data, tmp_path_factory.getbasetemp())


@FUZZ
@given(data=game_files())
def test_fuzzed_game_files(tmp_path_factory, data):
    check_cli("xor", data, tmp_path_factory.getbasetemp())


# ---------------------------------------------------------------- argument lists

HUGE = 10**400
NOT_INT = ["x", "1.5", "nan", "", "1e3", "0x10"]


def ints(lo: int, hi: int, width: int = 1):
    """width integer tokens in [lo, hi]."""
    return st.tuples(*[st.integers(lo, hi).map(str)] * width)


def bad(*values, width: int = 1):
    """One invalid token (a listed value or no integer at all), then valid ones."""
    token = st.one_of(st.sampled_from(values), st.sampled_from(NOT_INT))
    return token.map(lambda v: (str(v),) + ("2",) * (width - 1))


def tokens(*values):
    return st.sampled_from(values).map(lambda v: (v,))


def spans(lo: int):
    """MIN:MAX with lo <= MIN and MAX <= 10; MAX = MIN - 1 is an empty range."""
    return st.integers(lo, 10).flatmap(lambda a: st.integers(a - 1, 10).map(lambda b: (f"{a}:{b}",)))


# flag -> (valid values, invalid values), each a strategy of token tuples
SEARCH = {
    "--seed": (ints(0, 2**64 - 1), bad(2**64, 2**70, -1)),
    "--restarts": (ints(1, 4), bad(0, -1)),
    "--max-iters": (ints(1, 50), bad(0, -1)),
    "--tol": (tokens("1e-10", "1e-3", "1", "1e308", "inf"), bad(0, -1, "-inf")),
}
FORMAT = {"--format": (tokens("csv", "json"), bad("xml"))}
SOURCES = {
    "--werner": (ints(2, 4), bad(1, 0, -1)),
    "--gue": (ints(1, 4, 2), bad(0, -1, width=2)),
    "--induced": (ints(1, 4, 2), bad(0, -1, width=2)),
}
SAMPLES = {"--samples": (ints(0, 2), bad(-1))}
COMMANDS = {
    "ratio": {**SOURCES, **SEARCH, **FORMAT},
    "scaling": {
        "--generator": (tokens("werner", "gue", "induced"), bad("haar")),
        "--dmin": (ints(2, 4), bad(1, 0, -1)),
        "--dmax": (ints(2, 4), bad(1, 0, -1)),
        **SAMPLES,
        **SEARCH,
        **FORMAT,
    },
    "xor": {
        "--na": (ints(1, 4), bad(0, -1)),
        "--nb": (ints(1, 4), bad(0, -1)),
        "--states": (ints(1, 4), bad(0, -1)),
        **SAMPLES,
        **SEARCH,
        **FORMAT,
    },
    "darwinism": {
        "--da": (spans(2), bad(1, HUGE, "a:b", "1:2:3", "2:")),
        "--dr": (spans(1), bad(0, HUGE, "a:b", "2:")),
        "--r": (ints(1, 3), bad(0, -1, HUGE)),
        "--q": (ints(1, 3), bad(0, -1, HUGE)),
        **FORMAT,
    },
    "verify": {"--samples": (ints(1, 2), bad(0, -1)), **SEARCH},
}
# Flags present in every list, one of each group: a ratio source, and the
# flags whose defaults exceed the size bounds.
ALWAYS = {"ratio": [sorted(SOURCES)], "scaling": [["--generator"], ["--samples"]], "verify": [["--samples"]]}
UNKNOWN = ["--bogus", "--seeds", "-x", "7", "--format"]  # verify reads no --format


@st.composite
def argv(draw, command: str, directory) -> list[str]:
    """A valid argument list of command with at most one fault."""
    options = {**COMMANDS[command], "--out": (st.just((str(directory / "out"),)), st.just((str(directory),)))}
    groups = ALWAYS.get(command, [])
    fixed = {flag for group in groups for flag in group}
    flags = draw(st.lists(st.sampled_from(sorted(set(options) - fixed)), unique=True))
    for group in groups:
        flags.insert(draw(st.integers(0, len(flags))), draw(st.sampled_from(group)))
    fault = draw(st.sampled_from(["none", "none", "value", "value", "unknown", "input"]))
    faulty = draw(st.sampled_from(flags)) if fault == "value" and flags else None
    missing = str(directory / "missing.json")
    args = [command]
    for flag in flags:
        if fault == "input" and flag in SOURCES:
            args += ["--input", missing]  # instead of the source
        else:
            valid, invalid = options[flag]
            args += [flag, *draw(invalid if flag == faulty else valid)]
    if fault == "unknown":
        args.insert(draw(st.integers(1, len(args))), draw(st.sampled_from(UNKNOWN)))
    elif fault == "input" and command != "ratio":  # a missing game file, or an unknown flag
        args += ["--input", missing]
    return args


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_fuzzed_argv(tmp_path_factory, command):
    directory = tmp_path_factory.mktemp(command)
    allowed = {EXIT_OK, EXIT_VALIDATION, EXIT_DEGENERATE}
    if command == "verify":
        allowed.add(EXIT_SUITE_FAILURE)

    @settings(derandomize=True, max_examples=40 if command == "verify" else 150, deadline=None)
    @given(args=argv(command, directory))
    def run(args):
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(args)
                except SystemExit as exc:  # argparse rejections
                    code = exc.code
        assert code in allowed, (args, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert "RuntimeWarning" not in err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], args

    run()
