"""JSON file formats for operators and games.

Operator files::

    {"n_a": 2, "n_b": 2, "re": [...], "im": [...]}

with re/im flat row-major length (n_a*n_b)^2 arrays. Game files::

    {"n_a": 2, "n_b": 2, "signs": [1, -1], "probs": [0.5, 0.5],
     "states": [{"re": [...], "im": [...]}, {"re": [...], "im": [...]}]}

Loading validates the schema. Matrix entries must be finite, with
magnitudes summing to at most 1e300, which bounds every norm of the
matrix. Every matrix, an operator or a game's question state, is also
checked for Hermiticity: asymmetry above 1e-6 is rejected, naming the
operator's matrix or the state states[x]; asymmetry above rounding level
(1e-12) is symmetrized with a warning. The values of a game (signs,
weights, density matrices) are checked by QuantumXorGame, whose errors
are raised here with the file path. Writing uses shortest round-trip
float formatting, so a write followed by a read reproduces the matrix
exactly.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np

from .linalg import BipartiteOperator, asymmetry
from .states import QuantumXorGame

ASYMMETRY_REJECT = 1e-6
MAGNITUDE_LIMIT = 1e300  # no norm or see-saw value of a matrix exceeds its entry magnitudes' sum


class OperatorFileError(ValueError):
    """Raised when an operator or game file fails schema or value checks."""


def _require(data: dict, key: str, path) -> object:
    if key not in data:
        raise OperatorFileError(f"{path}: missing field '{key}'")
    return data[key]


def _positive_int(data: dict, key: str, path) -> int:
    value = _require(data, key, path)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise OperatorFileError(f"{path}: field '{key}' must be a positive integer, got {value!r}")
    return value


def _decimal(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # more digits than int's string conversion allows
        return f"2^{n.bit_length() - 1} or more"


def _number_list(value, key: str, length: int, path) -> np.ndarray:
    if not isinstance(value, list) or len(value) != length:
        got = f"length {len(value)}" if isinstance(value, list) else type(value).__name__
        raise OperatorFileError(f"{path}: field '{key}' must be a list of {_decimal(length)} numbers, got {got}")
    for entry in value:
        if not isinstance(entry, numbers.Real) or isinstance(entry, bool):
            raise OperatorFileError(f"{path}: field '{key}' contains non-numeric entry {entry!r}")
    try:
        return np.asarray(value, dtype=np.float64)
    except OverflowError:
        # a JSON integer beyond the float range
        raise OperatorFileError(f"{path}: field '{key}' contains an integer too large for a float") from None


def _matrix_from(data: dict, dim: int, path, label: str = "") -> np.ndarray:
    prefix = f"{label}." if label else ""
    re = _number_list(_require(data, "re", path), f"{prefix}re", dim * dim, path)
    im = _number_list(_require(data, "im", path), f"{prefix}im", dim * dim, path)
    with np.errstate(over="ignore"):
        magnitude = float(np.abs(re).sum() + np.abs(im).sum())  # nan or inf for a non-finite entry
    if not magnitude <= MAGNITUDE_LIMIT:
        raise OperatorFileError(
            f"{path}: field '{prefix}re'/'{prefix}im' must be finite, with magnitudes summing to at most "
            f"{MAGNITUDE_LIMIT:.0e} so that no norm overflows; got {magnitude:.3e}"
        )
    m = (re + 1j * im).reshape(dim, dim)
    delta = asymmetry(m)
    if delta > ASYMMETRY_REJECT:
        raise OperatorFileError(
            f"{path}: {label or 'matrix'} asymmetry {delta:.3e} exceeds {ASYMMETRY_REJECT:.1e}; not Hermitian"
        )
    return m


def _load_json(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise OperatorFileError(f"{path}: file not found")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        # RecursionError: nesting deeper than the decoder's recursion limit.
        raise OperatorFileError(f"{path}: invalid JSON ({exc})") from exc
    except ValueError as exc:  # an integer literal longer than int's string conversion allows
        raise OperatorFileError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise OperatorFileError(f"{path}: top level must be a JSON object")
    return data


def parse_operator_file(path) -> BipartiteOperator:
    """Load a Hermitian bipartite operator, enforcing the schema above."""
    data = _load_json(path)
    n_a = _positive_int(data, "n_a", path)
    n_b = _positive_int(data, "n_b", path)
    m = _matrix_from(data, n_a * n_b, path)
    # BipartiteOperator symmetrizes, warning when the asymmetry is above rounding level.
    try:
        return BipartiteOperator(n_a, n_b, m)
    except ValueError as exc:
        raise OperatorFileError(f"{path}: {exc}") from exc


def write_operator_file(path, op: BipartiteOperator) -> None:
    data = {
        "n_a": op.n_a,
        "n_b": op.n_b,
        "re": op.matrix.real.ravel().tolist(),
        "im": op.matrix.imag.ravel().tolist(),
    }
    Path(path).write_text(json.dumps(data) + "\n")


def parse_game_file(path) -> QuantumXorGame:
    """Load a quantum XOR game, enforcing the schema above."""
    data = _load_json(path)
    n_a = _positive_int(data, "n_a", path)
    n_b = _positive_int(data, "n_b", path)
    dim = n_a * n_b

    raw_states = _require(data, "states", path)
    if not isinstance(raw_states, list) or not raw_states:
        raise OperatorFileError(f"{path}: field 'states' must be a nonempty list")
    raw_signs = _require(data, "signs", path)
    n = len(raw_states)
    if not isinstance(raw_signs, list) or len(raw_signs) != n:
        raise OperatorFileError(f"{path}: field 'signs' must be a list of {n} entries")
    for x, c in enumerate(raw_signs):
        if not isinstance(c, int) or isinstance(c, bool):
            raise OperatorFileError(f"{path}: field 'signs[{x}]' must be +1 or -1, got {c!r}")
    probs = _number_list(_require(data, "probs", path), "probs", n, path)

    states = []
    for x, entry in enumerate(raw_states):
        if not isinstance(entry, dict):
            raise OperatorFileError(f"{path}: field 'states[{x}]' must be an object with 're' and 'im'")
        states.append(_matrix_from(entry, dim, path, label=f"states[{x}]"))

    try:
        return QuantumXorGame(
            n_a=n_a, n_b=n_b, states=tuple(states), signs=tuple(raw_signs), probs=tuple(probs.tolist())
        )
    except ValueError as exc:
        raise OperatorFileError(f"{path}: {exc}") from exc


def write_game_file(path, game: QuantumXorGame) -> None:
    data = {
        "n_a": game.n_a,
        "n_b": game.n_b,
        "signs": list(game.signs),
        "probs": list(game.probs),
        "states": [
            {"re": s.real.ravel().tolist(), "im": s.imag.ravel().tolist()} for s in game.states
        ],
    }
    Path(path).write_text(json.dumps(data) + "\n")
