"""Command-line front end.

Subcommands: ratio (one operator), scaling (dimension sweeps to CSV), xor
(game biases), darwinism (coefficient tables), verify (invariant suites).
ratio, scaling and xor draw each seeded operator or game with
`verify.draw` under the command's stream key, and evaluate it into one
row dict (`_case`): the command's own keys and the `verify.evaluate_case`
record that the verify scans' rows carry too. A CSV or JSON row is its
projection onto the subcommand's columns, and a single-case JSON report is
the row with its estimate payload. These commands report the cap check at
the working budget; only the verify scans escalate. Outputs use shortest
round-trip float formatting and fixed row/key order, so identical
invocations produce byte-identical files. A warning is printed as one
line, "warning: <message>".
Exit codes: 0 success, 2 validation error, 3 degenerate input,
4 verification-suite failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import operator
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from .darwinism import coefficient_sweep

# Unused here; kept because the benchmark's tracer patches it on this module by name.
from .darwinism import diamond_bound_rhs  # noqa: F401
from .games import check_states
from .linalg import DegenerateOperatorError, check_dims
from .norms import SeeSawConfig
from .opfile import parse_game_file, parse_operator_file
from .states import stream
from .verify import GENERATOR_CODE, INPUT_LABEL, XOR_LABEL, check_samples
from .verify import draw, evaluate_case, run_seed, run_verification

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
DARWINISM_COLUMNS = (
    "d_a",
    "d_r",
    "omega_new",
    "omega_ranard",
    "improvement_factor",
    "diamond_bound",
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


def _cell(value):
    return ("true" if value else "false") if type(value) is bool else value


def _emit_rows(rows: list[dict], columns, fmt: str, out: Path | None) -> None:
    """Each row projected onto columns, as a JSON list or as CSV.

    csv.writer spells None as "", an int with str and a float with repr,
    so only a bool needs spelling out. Rows hold Python scalars only: a
    numpy scalar would print differently (a numpy bool as True)."""
    if fmt == "json":
        _emit_json([{c: row[c] for c in columns} for row in rows], out)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    project = operator.itemgetter(*columns)  # a tuple per row: every table has several columns
    writer.writerows(list(map(_cell, cells)) if bool in map(type, cells) else cells for cells in map(project, rows))
    _emit(buf.getvalue(), out)


def _emit_case(args, row: dict, columns, hidden, key: str, **extras) -> None:
    """A single case as a CSV row, or as a JSON report: the row without the
    hidden keys, its estimate payload under key, and the extra keys."""
    if args.format == "csv":
        _emit_rows([row], columns, "csv", args.out)
        return
    report = {k: v for k, v in row.items() if k not in hidden}
    report[key] = report.pop("estimate")
    _emit_json({**report, **extras}, args.out)


def _case(config: SeeSawConfig, instance, seesaw_seed: int, **keys) -> dict:
    """One operator or game evaluated into its row: the command's keys and
    the verify.evaluate_case record."""
    return {
        **keys,
        "seed": config.seed,
        "n_a": instance.n_a,
        "n_b": instance.n_b,
        "restarts": config.restarts,
        **evaluate_case(instance, replace(config, seed=seesaw_seed)),
    }


def cmd_ratio(args: argparse.Namespace) -> int:
    if args.input is not None:
        generator, drawn = "file", (parse_operator_file(args.input), run_seed(stream(args.seed, INPUT_LABEL)))
    else:
        generator = next(kind for kind in GENERATOR_CODE if getattr(args, kind) is not None)
        n_a, n_b = [args.werner] * 2 if generator == "werner" else getattr(args, generator)
        drawn = draw(generator, n_a, n_b, args.seed, GENERATOR_CODE[generator], n_a, n_b, 0)
    config = _config(args)
    row = _case(config, *drawn, generator=generator)
    extras = {"command": "ratio", "max_iters": config.max_iters, "rel_tol": config.rel_tol}
    _emit_case(args, row, SCALING_COLUMNS, ("eps_estimate", "converged"), "epsilon", **extras)
    return EXIT_OK


def cmd_scaling(args: argparse.Namespace) -> int:
    if args.dmin < 2 or args.dmax < args.dmin:
        raise ValueError(f"dimension sweep needs 2 <= dmin <= dmax, got {args.dmin}..{args.dmax}")
    check_samples(args.samples)
    config = _config(args)
    # The werner pair is deterministic: one row per dimension.
    per_dim = min(args.samples, 1) if args.generator == "werner" else args.samples
    code = GENERATOR_CODE[args.generator]
    rows = [
        _case(config, *draw(args.generator, d, d, args.seed, code, d, d, k), generator=args.generator)
        for d in range(args.dmin, args.dmax + 1)
        for k in range(per_dim)
    ]
    _emit_rows(rows, SCALING_COLUMNS, args.format or "csv", args.out)
    return EXIT_OK


def cmd_xor(args: argparse.Namespace) -> int:
    if args.input is not None:
        game = parse_game_file(args.input)
        row = _case(_config(args), game, args.seed, sample=0, num_states=game.num_states)
        extras = {"command": "xor", "input": str(args.input)}
        _emit_case(args, row, XOR_COLUMNS, ("sample", "converged", "margin"), "beta_product", **extras)
        return EXIT_OK

    check_samples(args.samples)
    check_dims(args.na, args.nb)
    check_states(args.states)
    config = _config(args)
    rows = []
    for k in range(args.samples):
        case = draw("game", args.na, args.nb, args.seed, XOR_LABEL, args.na, args.nb, k, num_states=args.states)
        rows.append(_case(config, *case, sample=k, num_states=args.states))
    _emit_rows(rows, XOR_COLUMNS, args.format or "json", args.out)
    return EXIT_OK


def cmd_darwinism(args: argparse.Namespace) -> int:
    if args.r < 1 or args.q < 1:
        raise ValueError(f"fragment counts must be >= 1, got r={args.r}, q={args.q}")
    if len(args.da) > 0 and args.da[0] < 2:
        raise ValueError(f"observed-system dimension must be >= 2, got {args.da[0]}")
    if len(args.dr) > 0 and args.dr[0] < 1:
        raise ValueError(f"fragment dimension must be >= 1, got {args.dr[0]}")
    rows = coefficient_sweep(args.da, args.dr, args.r, args.q)
    _emit_rows(rows, DARWINISM_COLUMNS, args.format or "csv", args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError(f"samples must be >= 1, got {args.samples}")
    summary = run_verification(_config(args), samples=args.samples)
    _emit_json(summary, args.out)
    for name, suite in summary["suites"].items():
        status = "PASS" if suite["passed"] else "FAIL"
        print(f"[{status}] {name} ({suite['checks']} checks)", file=sys.stderr)
    return EXIT_OK if summary["passed"] else EXIT_SUITE_FAILURE


def build_parser() -> argparse.ArgumentParser:
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
