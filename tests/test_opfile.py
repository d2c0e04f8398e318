"""Operator and game file round-trips plus schema rejection messages."""

import json
import re

import numpy as np
import pytest

from locnorms import (
    OperatorFileError,
    gue_operator,
    parse_game_file,
    parse_operator_file,
    random_game,
    write_game_file,
    write_operator_file,
)
from locnorms.cli import EXIT_VALIDATION, main


def write_json(path, data):
    path.write_text(json.dumps(data) + "\n")


def operator_payload(m, n_a=2, n_b=2):
    m = np.asarray(m, dtype=complex)
    return {
        "n_a": n_a,
        "n_b": n_b,
        "re": m.real.ravel().tolist(),
        "im": m.imag.ravel().tolist(),
    }


# ---------------------------------------------------------------- operators

def test_operator_round_trip_exact(tmp_path):
    op = gue_operator(2, 3, 300)
    target = tmp_path / "op.json"
    write_operator_file(target, op)
    back = parse_operator_file(target)
    assert (back.n_a, back.n_b) == (2, 3)
    np.testing.assert_array_equal(back.matrix, op.matrix)


def test_operator_missing_file(tmp_path):
    with pytest.raises(OperatorFileError, match="not found"):
        parse_operator_file(tmp_path / "absent.json")


def test_operator_invalid_json(tmp_path):
    target = tmp_path / "bad.json"
    target.write_text("{not json")
    with pytest.raises(OperatorFileError, match="invalid JSON"):
        parse_operator_file(target)


@pytest.mark.parametrize(
    "content",
    [b"[" * 100_000 + b"]" * 100_000, b'{"n_a": 2, "n_b": \xff}'],
    ids=["nested-100000-deep", "not-utf8"],
)
def test_operator_unreadable_json_names_the_file(tmp_path, content):
    target = tmp_path / "bad.json"
    target.write_bytes(content)
    with pytest.raises(OperatorFileError, match=f"^{re.escape(str(target))}: invalid JSON"):
        parse_operator_file(target)


def test_operator_schema_errors(tmp_path):
    target = tmp_path / "op.json"
    m = np.eye(4)

    payload = operator_payload(m)
    del payload["re"]
    write_json(target, payload)
    with pytest.raises(OperatorFileError, match="missing field 're'"):
        parse_operator_file(target)

    payload = operator_payload(m)
    payload["im"] = payload["im"][:-1]
    write_json(target, payload)
    with pytest.raises(OperatorFileError, match="list of 16 numbers"):
        parse_operator_file(target)

    payload = operator_payload(m)
    payload["re"][3] = "x"
    write_json(target, payload)
    with pytest.raises(OperatorFileError, match="non-numeric"):
        parse_operator_file(target)

    payload = operator_payload(m)
    payload["n_a"] = 0
    write_json(target, payload)
    with pytest.raises(OperatorFileError, match="positive integer"):
        parse_operator_file(target)

    write_json(target, [1, 2, 3])
    with pytest.raises(OperatorFileError, match="JSON object"):
        parse_operator_file(target)


# a JSON integer beyond the float range in an operator entry, a state
# entry and a weight
HUGE = int("9" * 400)
GAME_1X1 = {"n_a": 1, "n_b": 1, "signs": [1], "probs": [1.0], "states": [{"re": [1.0], "im": [0.0]}]}


@pytest.mark.parametrize(
    "parse, payload, field",
    [
        (parse_operator_file, {"n_a": 1, "n_b": 1, "re": [HUGE], "im": [0.0]}, "re"),
        (parse_game_file, {**GAME_1X1, "states": [{"re": [1.0], "im": [HUGE]}]}, "states[0].im"),
        (parse_game_file, {**GAME_1X1, "probs": [HUGE]}, "probs"),
    ],
    ids=["re", "state-im", "probs"],
)
def test_integer_beyond_float_range_names_the_field(tmp_path, parse, payload, field):
    target = tmp_path / "huge.json"
    write_json(target, payload)
    prefix = f"{re.escape(str(target))}: field '{re.escape(field)}'"
    with pytest.raises(OperatorFileError, match=f"^{prefix} contains an integer too large for a float$"):
        parse(target)


# integers past int's 4300-digit string-conversion limit: a literal in the
# file, and the (n_a n_b)^2 entry count of the length message. One file
# holds both schemas' fields, so ratio and xor reach the same check.
WIDE = "9" * 1101
BOTH_SCHEMAS = json.dumps({**GAME_1X1, "re": [1.0], "im": [0.0]})
LONG_INTEGERS = [
    BOTH_SCHEMAS.replace('"n_a": 1', '"n_a": ' + "9" * 5001),
    BOTH_SCHEMAS.replace('"n_a": 1, "n_b": 1', f'"n_a": {WIDE}, "n_b": {WIDE}'),
]


@pytest.mark.parametrize("command", ["ratio", "xor"])
@pytest.mark.parametrize("text", LONG_INTEGERS, ids=["literal", "entry-count"])
def test_integers_past_the_digit_limit_name_the_file(tmp_path, capsys, text, command):
    target = tmp_path / "long.json"
    target.write_text(text)
    assert main([command, "--input", str(target)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: {target}: ")


# finite values past what the float range can carry: an entry whose
# Hermitian part overflows (1x1, off-diagonal pair, game state), entries
# whose trace norm overflows, and weights whose sum overflows
OVERFLOWING = [
    (parse_operator_file, {"n_a": 1, "n_b": 1, "re": [1e308], "im": [0.0]}),
    (parse_operator_file, {"n_a": 1, "n_b": 2, "re": [0.0, 1e308, 1e308, 0.0], "im": [0.0] * 4}),
    (parse_game_file, {**GAME_1X1, "states": [{"re": [1e308], "im": [0.0]}]}),
    (parse_operator_file, {"n_a": 1, "n_b": 3, "re": [7e307] * 9, "im": [0.0] * 9}),
    (parse_game_file, {**GAME_1X1, "signs": [1, 1], "probs": [1e308, 1e308], "states": GAME_1X1["states"] * 2}),
]


@pytest.mark.parametrize(
    "parse, payload", OVERFLOWING, ids=["1x1", "off-diagonal", "game-state", "trace-norm", "weight-sum"]
)
def test_values_past_the_float_range_name_the_file(tmp_path, parse, payload):
    target = tmp_path / "big.json"
    write_json(target, payload)
    with pytest.raises(OperatorFileError, match=f"^{re.escape(str(target))}: .*(overflow|sum to inf)"):
        parse(target)


def test_operator_asymmetry_rejected(tmp_path):
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-4
    target = tmp_path / "op.json"
    write_json(target, operator_payload(m))
    message = f"{target}: matrix asymmetry 1.000e-04 exceeds 1.0e-06; not Hermitian"
    with pytest.raises(OperatorFileError, match=f"^{re.escape(message)}$"):
        parse_operator_file(target)


def test_operator_asymmetry_warn_band(tmp_path):
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-9
    target = tmp_path / "op.json"
    write_json(target, operator_payload(m))
    with pytest.warns(RuntimeWarning, match="Hermitian part"):
        op = parse_operator_file(target)
    np.testing.assert_allclose(op.matrix, op.matrix.conj().T, atol=0)


def test_operator_rounding_level_asymmetry_is_silent(tmp_path):
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-15
    target = tmp_path / "op.json"
    write_json(target, operator_payload(m))
    parse_operator_file(target)


# ---------------------------------------------------------------- games

def test_game_round_trip_exact(tmp_path):
    game = random_game(2, 2, num_states=3, seed=301)
    target = tmp_path / "game.json"
    write_game_file(target, game)
    back = parse_game_file(target)
    assert (back.n_a, back.n_b) == (2, 2)
    assert back.signs == game.signs
    assert back.probs == game.probs
    for s, t in zip(back.states, game.states):
        np.testing.assert_array_equal(s, t)


def test_game_schema_errors(tmp_path):
    target = tmp_path / "game.json"
    game = random_game(2, 2, num_states=2, seed=302)
    write_game_file(target, game)
    base = json.loads(target.read_text())

    bad = dict(base)
    bad["probs"] = [0.6, 0.6]
    write_json(target, bad)
    with pytest.raises(OperatorFileError, match=r"deviating from 1 by 2\.000e-01"):
        parse_game_file(target)

    bad = dict(base)
    bad["signs"] = [1, 0]
    write_json(target, bad)
    with pytest.raises(OperatorFileError, match=r"signs\[1\]"):
        parse_game_file(target)

    bad = dict(base)
    bad["signs"] = [1]
    write_json(target, bad)
    with pytest.raises(OperatorFileError, match="list of 2 entries"):
        parse_game_file(target)

    bad = dict(base)
    bad["states"] = []
    write_json(target, bad)
    with pytest.raises(OperatorFileError, match="nonempty"):
        parse_game_file(target)

    bad = dict(base)
    bad["probs"] = [1.5, -0.5]
    write_json(target, bad)
    with pytest.raises(OperatorFileError, match="negative weight"):
        parse_game_file(target)

    write_json(target, {**base, "states": [1], "signs": [1], "probs": [1.0]})
    with pytest.raises(OperatorFileError, match=r"field 'states\[0\]' must be an object with 're' and 'im'$"):
        parse_game_file(target)


def test_game_state_validation_wrapped(tmp_path):
    # A state that is not PSD must be reported with its index and raised
    # as a file error, not a bare ValueError.
    target = tmp_path / "game.json"
    m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    data = {
        "n_a": 2,
        "n_b": 2,
        "signs": [1],
        "probs": [1.0],
        "states": [{"re": m.real.ravel().tolist(), "im": m.imag.ravel().tolist()}],
    }
    write_json(target, data)
    with pytest.raises(OperatorFileError, match=r"states\[0\]"):
        parse_game_file(target)


def test_game_state_length_error_names_index(tmp_path):
    target = tmp_path / "game.json"
    data = {
        "n_a": 2,
        "n_b": 2,
        "signs": [1],
        "probs": [1.0],
        "states": [{"re": [1.0, 0.0], "im": [0.0, 0.0]}],
    }
    write_json(target, data)
    with pytest.raises(OperatorFileError, match=r"states\[0\]\.re"):
        parse_game_file(target)


def game_payload(state):
    """A one-state 2 x 2 game file whose question state is state."""
    state = np.asarray(state, dtype=complex)
    return {"n_a": 2, "n_b": 2, "signs": [1], "probs": [1.0], "states": [operator_payload(state)]}


def asymmetric_state(delta):
    """The maximally mixed two-qubit state with delta added above the diagonal."""
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = delta
    return rho


def test_game_state_asymmetry_rejected(tmp_path, capsys):
    target = tmp_path / "game.json"
    write_json(target, game_payload(asymmetric_state(0.05)))
    assert main(["xor", "--input", str(target)]) == EXIT_VALIDATION
    assert capsys.readouterr() == (
        "",
        f"error: {target}: states[0] asymmetry 5.000e-02 exceeds 1.0e-06; not Hermitian\n",
    )


def test_game_state_asymmetry_warn_band(tmp_path):
    target = tmp_path / "game.json"
    write_json(target, game_payload(asymmetric_state(1e-9)))
    with pytest.warns(RuntimeWarning, match="Hermitian part"):
        game = parse_game_file(target)
    np.testing.assert_array_equal(game.states[0], game.states[0].conj().T)
