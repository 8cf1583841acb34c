"""Command line entry points.

Subcommands:

  dist        compute one weight distribution, emit CSV or JSON
  verify      run an identity suite, one PASS/FAIL line per identity per N
  wlln        rescaled summaries along a word family, CSV
  conjecture  cubic fit of the degree variance at level 2-4, JSON report
  render      SVG heatmap, degree histogram or covariance ellipse

Exit status: 0 on success (and all identities passing), 1 when a
verification fails, 2 for usage errors and unwritable --out paths.  All
configuration comes from flags; there are no config files or environment
variables.

A call imports only the modules its subcommand runs: this module loads
demazure and lattice, and each handler imports the rest itself (dist:
serialize; verify: verify; wlln and conjecture: asymptotics and serialize;
render: render, plus moments for --kind ellipse alone).  Building the
parser therefore imports no suite code, and verify's run_suite is the one
check of a --suite name.  HighestWeight, WeylWord and Ellipse are named
tuples, so building the parser, dist and render --kind heatmap|histogram
load no dataclasses (and none of the inspect, ast and dis it imports);
the other subcommands return dataclasses and load it.
"""

from __future__ import annotations

import argparse
import sys

from .demazure import WeylWord, weight_distribution
from .lattice import HighestWeight, degree_functional, finite_weight_functional


def _parse_n_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad length list {text!r}") from err


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demazure-sl2",
        description="Exact weight distributions of affine sl2 Demazure modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_hw(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", type=int, required=True, help="coefficient of the first fundamental weight")
        p.add_argument("--n", type=int, required=True, help="coefficient of the second fundamental weight")

    p = sub.add_parser("dist", help="compute one weight distribution")
    add_hw(p)
    p.add_argument("--N", dest="length", type=int, required=True, help="word length")
    p.add_argument("--first", type=int, choices=(0, 1), default=0, help="rightmost letter, applied first")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", default="all", help="suite to run, or all for every suite in turn; an unknown name lists them")
    p.add_argument("--max-N", dest="max_n", type=int, default=20,
                   help="largest word length; the conjecture suite needs it >= 10 and samples N = 2, 4, ..., 10")

    p = sub.add_parser("wlln", help="rescaled summaries along a word family")
    add_hw(p)
    p.add_argument("--N-list", dest="n_list", type=_parse_n_list, required=True,
                   help="comma separated, strictly increasing word lengths")
    p.add_argument("--first", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("conjecture", help="cubic fit of the degree variance, levels 2-4")
    p.add_argument("--m", type=int, required=True, help="level (2, 3 or 4); highest weight is m*L0")
    p.add_argument("--N-list", dest="n_list", type=_parse_n_list, default=[2, 4, 6, 8, 10],
                   help="comma separated even word lengths, at least 5")
    p.add_argument("--out", default=None)

    p = sub.add_parser("render", help="emit an SVG view of one distribution")
    add_hw(p)
    p.add_argument("--N", dest="length", type=int, required=True)
    p.add_argument("--first", type=int, choices=(0, 1), default=0)
    p.add_argument("--kind", choices=("heatmap", "histogram", "ellipse"), default="heatmap")
    p.add_argument("--samples", type=int, default=64, help="ellipse polyline vertex count, at least 3")
    p.add_argument("--out", default=None)

    return parser


def _emit(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_dist(args: argparse.Namespace) -> int:
    from .serialize import distribution_csv, distribution_json

    hw = HighestWeight(args.m, args.n)
    word = WeylWord(args.length, args.first)
    mu = weight_distribution(hw, word)
    text = distribution_json(mu, word) if args.fmt == "json" else distribution_csv(mu)
    _emit(args.out, text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import format_check, run_suite

    results = run_suite(args.suite, args.max_n)
    for r in results:
        print(format_check(r))
    failed = sum(1 for r in results if not r.passed)
    print(f"checked {len(results)} identities: {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0


def cmd_wlln(args: argparse.Namespace) -> int:
    from .asymptotics import wlln_series
    from .serialize import wlln_csv

    hw = HighestWeight(args.m, args.n)
    summaries = wlln_series(hw, args.n_list, args.first)
    _emit(args.out, wlln_csv(summaries))
    return 0


def cmd_conjecture(args: argparse.Namespace) -> int:
    from .asymptotics import FitMismatchError, conjecture_check
    from .serialize import conjecture_json

    try:
        report = conjecture_check(args.m, args.n_list)
    except FitMismatchError as err:
        print(f"error: {err}", file=sys.stderr)
        for n, got, predicted in err.witnesses:
            print(f"  N={n} computed={got} cubic-predicts={predicted}", file=sys.stderr)
        return 1
    _emit(args.out, conjecture_json(report))
    return 0 if report.table_match and report.max_degree_match else 1


def cmd_render(args: argparse.Namespace) -> int:
    from .render import Ellipse, degree_histogram, ellipse_document, heatmap

    hw = HighestWeight(args.m, args.n)
    word = WeylWord(args.length, args.first)
    mu = weight_distribution(hw, word)
    if args.kind == "heatmap":
        text = heatmap(mu)
    elif args.kind == "histogram":
        text = degree_histogram(mu)
    else:
        from .moments import raw_moments

        table = raw_moments(mu, 2)
        center = (table.expect(degree_functional()), table.expect(finite_weight_functional(hw)))
        text = ellipse_document(Ellipse(center, table.covariance_matrix(hw)), args.samples)
    _emit(args.out, text)
    return 0


_HANDLERS = {
    "dist": cmd_dist,
    "verify": cmd_verify,
    "wlln": cmd_wlln,
    "conjecture": cmd_conjecture,
    "render": cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as err:  # bad input, or an --out path that cannot be written
        print(f"error: {err}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
