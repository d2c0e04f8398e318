"""Command-line front end.

Subcommands: ratio (one operator), scaling (dimension sweeps to CSV), xor
(game biases), darwinism (coefficient tables), verify (invariant suites).
Outputs are plain CSV or JSON with shortest round-trip float formatting
and fixed row/key order, so identical invocations produce byte-identical
files. Exit codes: 0 success, 2 validation error, 3 degenerate input,
4 verification-suite failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

from .darwinism import DarwinismParams, coefficient_sweep, diamond_bound_rhs
from .games import evaluate_game, random_game
from .linalg import DegenerateOperatorError
from .norms import SeeSawConfig, hiding_ratio
from .opfile import OperatorFileError, parse_game_file, parse_operator_file
from .states import stream
from .verify import GENERATOR_CODE, make_operator, run_seed, run_verification

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

_XOR_LABEL = 10


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text}")
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed_type, default=0, help="root seed (default 0)")
    parser.add_argument("--restarts", type=int, default=32, help="multistart budget (default 32)")
    parser.add_argument("--max-iters", type=int, default=500, help="see-saw iteration cap (default 500)")
    parser.add_argument("--tol", type=float, default=1e-10, help="relative stopping tolerance (default 1e-10)")
    parser.add_argument("--out", type=Path, default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="output format")


def _config(args: argparse.Namespace, seed: int | None = None) -> SeeSawConfig:
    return SeeSawConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        rel_tol=args.tol,
        seed=args.seed if seed is None else seed,
    )


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _emit_json(payload, out: Path | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_rows(rows: list[dict], columns, fmt: str, out: Path | None) -> None:
    if fmt == "json":
        _emit_json(rows, out)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in columns])
    _emit(buf.getvalue(), out)


def _estimate_payload(est) -> dict:
    return {
        "value": float(est.value),
        "is_lower_bound": True,  # every reported estimate is a lower bound
        "iterations_used": int(est.iterations_used),
        "converged": bool(est.converged),
        "restart_index": est.restart_index,
    }


def _scaling_row(args: argparse.Namespace, generator: str, op, report) -> dict:
    return {
        "seed": args.seed,
        "n_a": op.n_a,
        "n_b": op.n_b,
        "generator": generator,
        "trace_norm": float(report.trace_norm),
        "eps_estimate": float(report.eps_estimate.value),
        "restarts": args.restarts,
        "converged": bool(report.eps_estimate.converged),
        "ratio": float(report.ratio),
        "bound": float(report.bound),
        "margin": float(report.bound - report.ratio),
    }


def cmd_ratio(args: argparse.Namespace) -> int:
    if args.input is not None:
        op = parse_operator_file(args.input)
        generator = "file"
        rng = stream(args.seed, 99)
    else:
        if args.werner is not None:
            generator, d_a, d_b = "werner", args.werner, args.werner
        elif args.gue is not None:
            generator, (d_a, d_b) = "gue", args.gue
        else:
            generator, (d_a, d_b) = "induced", args.induced
        rng = stream(args.seed, GENERATOR_CODE[generator], d_a, d_b, 0)
        op = make_operator(generator, d_a, d_b, rng)

    report = hiding_ratio(op, _config(args, seed=run_seed(rng)))
    if (args.format or "json") == "csv":
        _emit_rows([_scaling_row(args, generator, op, report)], SCALING_COLUMNS, "csv", args.out)
        return EXIT_OK
    payload = {
        "command": "ratio",
        "generator": generator,
        "n_a": op.n_a,
        "n_b": op.n_b,
        "seed": args.seed,
        "restarts": args.restarts,
        "max_iters": args.max_iters,
        "rel_tol": args.tol,
        "trace_norm": float(report.trace_norm),
        "epsilon": _estimate_payload(report.eps_estimate),
        "ratio": float(report.ratio),
        "bound": float(report.bound),
        "satisfied": bool(report.satisfied),
        "margin": float(report.bound - report.ratio),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_scaling(args: argparse.Namespace) -> int:
    if args.dmin < 2 or args.dmax < args.dmin:
        raise ValueError(f"dimension sweep needs 2 <= dmin <= dmax, got {args.dmin}..{args.dmax}")
    if args.samples < 0:
        raise ValueError(f"samples must be >= 0, got {args.samples}")
    rows = []
    for d in range(args.dmin, args.dmax + 1):
        # The werner pair is deterministic: one row per dimension.
        per_dim = min(args.samples, 1) if args.generator == "werner" else args.samples
        for k in range(per_dim):
            rng = stream(args.seed, GENERATOR_CODE[args.generator], d, d, k)
            op = make_operator(args.generator, d, d, rng)
            report = hiding_ratio(op, _config(args, seed=run_seed(rng)))
            rows.append(_scaling_row(args, args.generator, op, report))
    _emit_rows(rows, SCALING_COLUMNS, args.format or "csv", args.out)
    return EXIT_OK


def _game_row(sample: int, n_a: int, n_b: int, num_states: int, report) -> dict:
    return {
        "sample": sample,
        "n_a": n_a,
        "n_b": n_b,
        "num_states": num_states,
        "beta_all": float(report.trace_norm),
        "beta_product": float(report.eps_estimate.value),
        "converged": bool(report.eps_estimate.converged),
        "ratio": None if report.ratio is None else float(report.ratio),
        "bound": float(report.bound),
        "satisfied": bool(report.satisfied),
    }


def cmd_xor(args: argparse.Namespace) -> int:
    if args.input is not None:
        game = parse_game_file(args.input)
        report = evaluate_game(game, _config(args))
        payload = {
            "command": "xor",
            "input": str(args.input),
            "n_a": game.n_a,
            "n_b": game.n_b,
            "num_states": game.num_states,
            "seed": args.seed,
            "restarts": args.restarts,
            "beta_all": float(report.trace_norm),
            "beta_product": _estimate_payload(report.eps_estimate),
            "ratio": None if report.ratio is None else float(report.ratio),
            "bound": float(report.bound),
            "satisfied": bool(report.satisfied),
        }
        if (args.format or "json") == "json":
            _emit_json(payload, args.out)
        else:
            _emit_rows([_game_row(0, game.n_a, game.n_b, game.num_states, report)], XOR_COLUMNS, "csv", args.out)
        return EXIT_OK

    if args.samples < 0:
        raise ValueError(f"samples must be >= 0, got {args.samples}")
    rows = []
    for k in range(args.samples):
        rng = stream(args.seed, _XOR_LABEL, args.na, args.nb, k)
        game = random_game(args.na, args.nb, num_states=args.states, seed=rng)
        report = evaluate_game(game, _config(args, seed=run_seed(rng)))
        rows.append(_game_row(k, args.na, args.nb, args.states, report))
    _emit_rows(rows, XOR_COLUMNS, args.format or "json", args.out)
    return EXIT_OK


def cmd_darwinism(args: argparse.Namespace) -> int:
    if args.r < 1 or args.q < 1:
        raise ValueError(f"fragment counts must be >= 1, got r={args.r}, q={args.q}")
    if len(args.da) > 0 and args.da[0] < 2:
        raise ValueError(f"observed-system dimension must be >= 2, got {args.da[0]}")
    rows = []
    if len(args.da) > 0 and len(args.dr) > 0:
        for entry in coefficient_sweep(args.da, args.dr):
            params = DarwinismParams(d_a=entry.d_a, d_r=entry.d_r, r_size=args.r, q_size=args.q)
            rows.append(
                {
                    "d_a": entry.d_a,
                    "d_r": entry.d_r,
                    "omega_new": entry.omega_new,
                    "omega_ranard": entry.omega_ranard,
                    "improvement_factor": entry.improvement_factor,
                    "diamond_bound": diamond_bound_rhs(params),
                }
            )
    _emit_rows(rows, DARWINISM_COLUMNS, args.format or "csv", args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError(f"samples must be >= 1, got {args.samples}")
    summary = run_verification(
        seed=args.seed,
        samples=args.samples,
        restarts=args.restarts,
        max_iters=args.max_iters,
        rel_tol=args.tol,
    )
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
    _add_common(p)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("scaling", help="ratio sweep over square dimensions, CSV by default")
    p.add_argument("--generator", choices=("werner", "gue", "induced"), required=True)
    p.add_argument("--dmin", type=int, default=2, help="first dimension (default 2)")
    p.add_argument("--dmax", type=int, default=4, help="last dimension (default 4)")
    p.add_argument("--samples", type=int, default=10, help="instances per dimension (default 10)")
    _add_common(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("xor", help="optimal biases of quantum XOR games")
    p.add_argument("--input", type=Path, help="game JSON file (otherwise random games)")
    p.add_argument("--na", type=int, default=3, help="local dimension of A for random games")
    p.add_argument("--nb", type=int, default=3, help="local dimension of B for random games")
    p.add_argument("--states", type=int, default=4, help="question states per random game (default 4)")
    p.add_argument("--samples", type=int, default=1, help="number of random games (default 1)")
    _add_common(p)
    p.set_defaults(func=cmd_xor)

    p = sub.add_parser("darwinism", help="objectivity coefficient tables")
    p.add_argument("--da", type=_range_type, default=range(2, 11), help="observed dims, N or MIN:MAX (default 2:10)")
    p.add_argument("--dr", type=_range_type, default=range(2, 11), help="fragment dims, N or MIN:MAX (default 2:10)")
    p.add_argument("--r", type=int, default=1, help="fragments addressed jointly (default 1)")
    p.add_argument("--q", type=int, default=1, help="fragments broadcast over (default 1)")
    _add_common(p)
    p.set_defaults(func=cmd_darwinism)

    p = sub.add_parser("verify", help="run the randomized invariant suites")
    p.add_argument("--samples", type=int, default=20, help="instances per suite scan (default 20)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateOperatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (OperatorFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
