"""Command-line front end.

Subcommands: ratio (one operator), scaling (dimension sweeps to CSV), xor
(game biases), darwinism (coefficient tables), verify (invariant suites).
ratio, scaling and xor draw each seeded operator or game with
`verify.draw` under the command's stream label, and `verify.case_records`
searches all of them in one batch (one kernel call per shape of at most 24
cases; ratio and a game file are a batch of one) into row dicts: the
command's keys, seed and budget beside the `_record` the verify scans'
rows carry too. A CSV or JSON row is its projection onto the subcommand's
columns, and a single-case JSON report is the row with its estimate
payload. These commands report the cap check at the working budget; only
the verify scans escalate. `_csv` spells every CSV table, whole before it
is written, from one array per column: a row table's cells one by one,
darwinism's float grid once per distinct float. No cell needs quoting.
Floats are spelled with repr and rows and keys come in a fixed order, so
identical invocations produce byte-identical files. A warning is printed
as one line, "warning: <message>". Exit codes: 0 success, 2 validation
error, 3 degenerate input, 4 verification-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from functools import cache
from pathlib import Path

import numpy as np

from .darwinism import COLUMNS as DARWINISM_COLUMNS
from .darwinism import _sweep_grid, coefficient_sweep

# Unused here; kept because the benchmark's tracer patches it on this module by name.
from .darwinism import diamond_bound_rhs  # noqa: F401
from .linalg import DegenerateOperatorError, check_count, check_dims
from .norms import SeeSawConfig
from .opfile import parse_game_file, parse_operator_file
from .states import stream
from .verify import GENERATOR_CODE, INPUT_LABEL, XOR_LABEL
from .verify import case_records, draw, run_seed, run_verification

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_SUITE_FAILURE = 4

SCALING_COLUMNS = (
    "seed",
    "n_a",
    "n_b",
    "generator",
    "trace_norm",
    "eps_estimate",
    "restarts",
    "converged",
    "ratio",
    "bound",
    "margin",
)
XOR_COLUMNS = (
    "sample",
    "n_a",
    "n_b",
    "num_states",
    "beta_all",
    "beta_product",
    "converged",
    "ratio",
    "bound",
    "satisfied",
)


def _seed_type(text: str) -> int:
    try:
        value = int(text)
        if not 0 <= value < 2**64:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text}") from None
    return value


def _range_type(text: str) -> range:
    """Inclusive "N" or "MIN:MAX"; MIN > MAX yields an empty range."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or MIN:MAX, got {text!r}") from None
    return range(lo, hi + 1)


def _add_search(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed_type, default=0, help="root seed (default 0)")
    parser.add_argument("--restarts", type=int, default=32, help="multistart budget (default 32)")
    parser.add_argument("--max-iters", type=int, default=500, help="see-saw iteration cap (default 500)")
    parser.add_argument("--tol", type=float, default=1e-10, help="relative stopping tolerance (default 1e-10)")


def _config(args) -> SeeSawConfig:
    """The one config of a command, built from its search flags after the
    command's own checks, so that a bad flag fails even with no rows."""
    return SeeSawConfig(restarts=args.restarts, max_iters=args.max_iters, rel_tol=args.tol, seed=args.seed)


def _add_output(parser: argparse.ArgumentParser, formats: bool = True) -> None:
    parser.add_argument("--out", type=Path, default=None, help="output path (default stdout)")
    if formats:
        parser.add_argument("--format", choices=("csv", "json"), default=None, help="output format")


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _emit_json(payload, out: Path | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _emit_rows(rows: list[dict], columns, fmt: str, out: Path | None) -> None:
    """Row dicts projected onto columns, as a JSON list or as the one CSV
    path, _csv. No CSV cell needs quoting: rows hold Python scalars and
    fixed generator words only."""
    if fmt == "json":
        _emit_json([{c: row[c] for c in columns} for row in rows], out)
    else:
        _emit(_csv(columns, [np.array([row[c] for row in rows], dtype=object)[:, None] for c in columns]), out)


def _cell(value) -> str:
    """A Python scalar as csv.writer spells it, bar a bool: None as "", a
    bool as true or false, anything else with str (a float's is its repr)."""
    return "" if value is None else str(value).lower() if type(value) is bool else str(value)


def _csv(columns, cells) -> str:
    """The CSV text of a header and of a table given as one array per
    column, built whole. The arrays broadcast to one 2-D shape, (blocks,
    rows of a block), with no block empty. A float64 column is spelled once
    per distinct bit pattern with repr, so 0.0 and -0.0 stay apart; an
    object column holds Python scalars, spelled by _cell."""
    spelled = []
    for column in cells:
        if column.dtype == np.float64:
            bits, index = np.unique(column.view(np.int64), return_inverse=True)
            words = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            spelled.append(words[index.reshape(column.shape)])
        else:
            spelled.append(np.frompyfunc(_cell, 1, 1)(column))
    blocks = zip(*(column.tolist() for column in np.broadcast_arrays(*spelled)))
    return "\n".join([",".join(columns), *("\n".join(map(",".join, zip(*block))) for block in blocks), ""])


def _emit_case(args, row: dict, columns, hidden, key: str, **extras) -> None:
    """A single case as a CSV row, or as a JSON report: the row without the
    hidden keys, its estimate payload under key, and the extra keys."""
    if args.format == "csv":
        _emit_rows([row], columns, "csv", args.out)
        return
    report = {k: v for k, v in row.items() if k not in hidden}
    report[key] = report.pop("estimate")
    _emit_json({**report, **extras}, args.out)


def cmd_ratio(args: argparse.Namespace) -> int:
    if args.input is not None:
        generator, drawn = "file", (parse_operator_file(args.input), run_seed(stream(args.seed, INPUT_LABEL)))
    else:
        generator = next(kind for kind in GENERATOR_CODE if getattr(args, kind) is not None)
        n_a, n_b = [args.werner] * 2 if generator == "werner" else getattr(args, generator)
        drawn = draw(generator, n_a, n_b, args.seed, 0, GENERATOR_CODE[generator])
    config = _config(args)
    (row,) = case_records([drawn], config, generator=generator)
    extras = {"command": "ratio", "max_iters": config.max_iters, "rel_tol": config.rel_tol}
    _emit_case(args, row, SCALING_COLUMNS, ("eps_estimate", "converged"), "epsilon", **extras)
    return EXIT_OK


def cmd_scaling(args: argparse.Namespace) -> int:
    if args.dmin < 2 or args.dmax < args.dmin:
        raise ValueError(f"dimension sweep needs 2 <= dmin <= dmax, got {args.dmin}..{args.dmax}")
    check_count(args.samples, "samples", 0)
    config = _config(args)
    # The werner pair is deterministic: one row per dimension.
    per_dim = min(args.samples, 1) if args.generator == "werner" else args.samples
    code = GENERATOR_CODE[args.generator]
    draws = (
        draw(args.generator, d, d, args.seed, k, code)
        for d in range(args.dmin, args.dmax + 1)
        for k in range(per_dim)
    )
    _emit_rows(case_records(draws, config, generator=args.generator), SCALING_COLUMNS, args.format or "csv", args.out)
    return EXIT_OK


def cmd_xor(args: argparse.Namespace) -> int:
    if args.input is not None:
        game = parse_game_file(args.input)
        (row,) = case_records([(game, args.seed)], _config(args), sample=0, num_states=game.num_states)
        extras = {"command": "xor", "input": str(args.input)}
        _emit_case(args, row, XOR_COLUMNS, ("sample", "converged", "margin"), "beta_product", **extras)
        return EXIT_OK

    check_count(args.samples, "samples", 0)
    check_dims(args.na, args.nb)
    check_count(args.states, "num_states", 1)
    config = _config(args)
    draws = (
        draw("game", args.na, args.nb, args.seed, k, XOR_LABEL, num_states=args.states)
        for k in range(args.samples)
    )
    rows = [{**row, "sample": k} for k, row in enumerate(case_records(draws, config, num_states=args.states))]
    _emit_rows(rows, XOR_COLUMNS, args.format or "json", args.out)
    return EXIT_OK


def cmd_darwinism(args: argparse.Namespace) -> int:
    if args.r < 1 or args.q < 1:
        raise ValueError(f"fragment counts must be >= 1, got r={args.r}, q={args.q}")
    if len(args.da) > 0:
        check_count(args.da[0], "observed-system dimension", 2)
    if len(args.dr) > 0:
        check_count(args.dr[0], "fragment dimension", 1)
    if args.format == "json":
        _emit_json(coefficient_sweep(args.da, args.dr, args.r, args.q), args.out)
    else:
        d_as, d_rs, grid = _sweep_grid(args.da, args.dr, args.r, args.q)
        keys = [np.array(d_as, dtype=object)[:, None], np.array(d_rs, dtype=object)]
        _emit(_csv(DARWINISM_COLUMNS, keys + list(np.moveaxis(grid, -1, 0))), args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    check_count(args.samples, "samples", 1)
    summary = run_verification(_config(args), samples=args.samples)
    _emit_json(summary, args.out)
    for name, suite in summary["suites"].items():
        status = "PASS" if suite["passed"] else "FAIL"
        print(f"[{status}] {name} ({suite['checks']} checks)", file=sys.stderr)
    return EXIT_OK if summary["passed"] else EXIT_SUITE_FAILURE


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: parse_args leaves it unchanged, and a
    subcommand's func looks its library calls up at call time."""
    parser = argparse.ArgumentParser(
        prog="locnorms",
        description="Distinguishability norms under local measurements: ratios, scans, games, coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ratio", help="trace norm vs product-witness estimate for one operator")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", type=Path, help="operator JSON file")
    source.add_argument("--werner", type=int, metavar="D", help="werner hiding pair at dimension D")
    source.add_argument("--gue", type=int, nargs=2, metavar=("NA", "NB"), help="GUE sample on NA x NB")
    source.add_argument(
        "--induced", type=int, nargs=2, metavar=("NA", "NB"), help="induced-state difference on NA x NB"
    )
    _add_search(p)
    _add_output(p)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("scaling", help="ratio sweep over square dimensions, CSV by default")
    p.add_argument("--generator", choices=tuple(GENERATOR_CODE), required=True)
    p.add_argument("--dmin", type=int, default=2, help="first dimension (default 2)")
    p.add_argument("--dmax", type=int, default=4, help="last dimension (default 4)")
    p.add_argument("--samples", type=int, default=10, help="instances per dimension (default 10)")
    _add_search(p)
    _add_output(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("xor", help="optimal biases of quantum XOR games")
    p.add_argument("--input", type=Path, help="game JSON file (otherwise random games)")
    p.add_argument("--na", type=int, default=3, help="local dimension of A for random games")
    p.add_argument("--nb", type=int, default=3, help="local dimension of B for random games")
    p.add_argument("--states", type=int, default=4, help="question states per random game (default 4)")
    p.add_argument("--samples", type=int, default=1, help="number of random games (default 1)")
    _add_search(p)
    _add_output(p)
    p.set_defaults(func=cmd_xor)

    p = sub.add_parser("darwinism", help="objectivity coefficient tables")
    p.add_argument("--da", type=_range_type, default=range(2, 11), help="observed dims, N or MIN:MAX (default 2:10)")
    p.add_argument("--dr", type=_range_type, default=range(2, 11), help="fragment dims, N or MIN:MAX (default 2:10)")
    p.add_argument("--r", type=int, default=1, help="fragments addressed jointly (default 1)")
    p.add_argument("--q", type=int, default=1, help="fragments broadcast over (default 1)")
    _add_output(p)
    p.set_defaults(func=cmd_darwinism)

    p = sub.add_parser("verify", help="run the randomized invariant suites")
    p.add_argument("--samples", type=int, default=20, help="instances per suite scan (default 20)")
    _add_search(p)
    _add_output(p, formats=False)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a shown warning is one line, without the library's file path and source line
    formatwarning, warnings.formatwarning = warnings.formatwarning, lambda message, *_: f"warning: {message}\n"
    try:
        return args.func(args)
    except DegenerateOperatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, OSError) as exc:  # OperatorFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OverflowError as exc:  # an integer argument too large for float or index arithmetic
        print(f"error: value too large ({exc})", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # an instance too large to allocate
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
