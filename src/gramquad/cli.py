"""Command-line interface for generating weight tables, integrating sampled
data, and printing stability diagnostics.

Usage:
    gramquad weights --points 101 --format json
    gramquad weights --points 3 --output table.csv
    gramquad integrate --points 101 --builtin appendix-poly
    gramquad integrate --points 11 --samples values.txt --interval 0 2
    gramquad check --points 101
    gramquad compare --points 9

Exit codes: 0 success, 1 domain or data error, 2 usage error.

Sample files are UTF-8 text with one decimal real per line (one line per
node, trailing newline optional). All reals are written with enough
significant digits to round-trip bit-exactly.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .gram_basis import basis_rows, block_slices, build_recurrence
from .reference import newton_cotes_weights
from .weights import QuadratureRule, check_interval, compute_rule, integrate_on_interval

__all__ = ["BUILTIN_FUNCTIONS", "build_parser", "main", "render_csv", "render_json"]

BUILTIN_FUNCTIONS = {
    "one": lambda x: np.ones_like(x),
    "appendix-poly": lambda x: 9 * x**2 + 585 * x**3 + 16 * x**4,
}

# Diagnostic tolerances applied by the `check` command.
WEIGHT_SUM_TOLERANCE = 1e-12
ORTHONORMALITY_TOLERANCE = 1e-10
MONOMIAL_TOLERANCE = 1e-10


def _fmt(value: float) -> str:
    """Shortest decimal string that restores the double bit-exactly."""
    return repr(float(value))


def render_csv(rule: QuadratureRule) -> str:
    """Node/weight table as CSV: an ``x,w`` header, then one line per node."""
    lines = ["x,w"]
    lines.extend(f"{_fmt(x)},{_fmt(w)}" for x, w in zip(rule.nodes, rule.weights))
    return "\n".join(lines) + "\n"


def render_json(rule: QuadratureRule) -> str:
    """Node/weight table as a JSON object with keys points, degree, nodes, weights."""
    document = {
        "points": rule.p_points,
        "degree": rule.degree,
        "nodes": [float(x) for x in rule.nodes],
        "weights": [float(w) for w in rule.weights],
    }
    return json.dumps(document, indent=2) + "\n"


def _read_samples(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        values = [float(line) for line in handle if line.strip()]
    return np.asarray(values)


def cmd_weights(args: argparse.Namespace) -> int:
    rule = compute_rule(args.points, args.degree)
    text = render_csv(rule) if args.format == "csv" else render_json(rule)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def cmd_integrate(args: argparse.Namespace) -> int:
    a, b = args.interval
    check_interval(a, b)
    rule = compute_rule(args.points)
    if args.builtin is not None:
        mapped = 0.5 * (a + b) + 0.5 * (b - a) * rule.nodes
        samples = BUILTIN_FUNCTIONS[args.builtin](mapped)
    else:
        samples = _read_samples(args.samples)
        if samples.shape != (rule.p_points,):
            print(
                f"error: expected {rule.p_points} samples, found {samples.size} "
                f"in {args.samples}",
                file=sys.stderr,
            )
            return 1
    value = integrate_on_interval(rule, a, b, samples)
    print(_fmt(value))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    rule = compute_rule(args.points)
    rec = build_recurrence(args.points)
    gram = np.zeros((rec.max_degree + 1, rec.max_degree + 1))
    for block in block_slices(rec, rule.p_points):
        rows = basis_rows(rec, rule.nodes[block])
        gram += rows @ rows.T
        del rows  # free this block before the next one is built
    gram_residual = float(np.max(np.abs(gram - np.eye(rec.max_degree + 1))))
    weight_sum = float(rule.weights.sum())
    min_weight = float(rule.weights.min())
    residuals = []
    power = np.ones(rule.p_points)
    for d in range(rule.degree + 1):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        residuals.append(abs(float(np.dot(rule.weights, power)) - exact))
        power *= rule.nodes
    ok = (
        abs(weight_sum - 2.0) < WEIGHT_SUM_TOLERANCE
        and min_weight > 0.0
        and gram_residual < ORTHONORMALITY_TOLERANCE
        and max(residuals) < MONOMIAL_TOLERANCE
    )
    print(f"points: {rule.p_points}")
    print(f"degree: {rule.degree}")
    print(f"weight sum: {_fmt(weight_sum)}")
    print(f"min weight: {_fmt(min_weight)}")
    print(f"orthonormality residual: {_fmt(gram_residual)}")
    for d, residual in enumerate(residuals):
        print(f"monomial residual d={d}: {_fmt(residual)}")
    print(f"status: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_compare(args: argparse.Namespace) -> int:
    cotes = newton_cotes_weights(args.points)
    gram = compute_rule(args.points).weights
    print(f"points: {args.points}")
    print(f"{'rule':<14}{'min weight':<26}{'max weight':<26}")
    print(f"{'gram':<14}{_fmt(gram.min()):<26}{_fmt(gram.max()):<26}")
    print(f"{'newton-cotes':<14}{_fmt(cotes.min()):<26}{_fmt(cotes.max()):<26}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramquad",
        description="Stable quadrature on equidistant points over [-1, 1].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    weights = sub.add_parser("weights", help="write a node/weight table")
    weights.add_argument("--points", type=int, required=True, help="number of nodes")
    weights.add_argument("--degree", type=int, default=None, help="basis degree cap")
    weights.add_argument("--format", choices=("csv", "json"), default="csv")
    weights.add_argument("--output", default=None, help="output path (default stdout)")
    weights.set_defaults(func=cmd_weights)

    integ = sub.add_parser("integrate", help="integrate sampled or builtin data")
    integ.add_argument("--points", type=int, required=True, help="number of nodes")
    source = integ.add_mutually_exclusive_group(required=True)
    source.add_argument("--samples", help="file with one sample value per line")
    source.add_argument("--builtin", choices=sorted(BUILTIN_FUNCTIONS))
    integ.add_argument(
        "--interval",
        type=float,
        nargs=2,
        default=(-1.0, 1.0),
        metavar=("A", "B"),
        help="integration interval (default -1 1)",
    )
    integ.set_defaults(func=cmd_integrate)

    check = sub.add_parser("check", help="run stability diagnostics")
    check.add_argument("--points", type=int, required=True, help="number of nodes")
    check.set_defaults(func=cmd_check)

    compare = sub.add_parser("compare", help="contrast gram and newton-cotes weights")
    compare.add_argument("--points", type=int, required=True, help="number of nodes")
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: not enough memory for {args.points} points", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
