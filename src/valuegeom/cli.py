"""Command-line front end.

Subcommands: tabulate, project, strata, fit, trends, eval, basis-check,
verify. Exit codes: 0 success, 1 verification failure, 2 usage error,
3 input error (malformed game JSON, unknown target, player count out of
range, a game beyond the memory budget, unreadable game path, a result too
large for a JSON float), 141 standard output closed by its reader (as in
``valuegeom tabulate --n 20 | head -1``; 128 + SIGPIPE, what a shell
reports for a writer the signal ends), with nothing printed to stderr.
All output is deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .fitting import gram_fit, mixture_profile
from .games import random_h_orthonormal_basis
from .geometry import projection_report
from .limits import MAX_TABULATE_PLAYERS, _require
from .reference import inner_L_general, inner_L_in_basis
from .serialize import fraction_str, load_game, rational_to_json
from .strata import stratified_coords, weighted_moments, weights
from .trends import trend_csv, trend_table
from .values import PROFILE_KINDS, GeneralLinearValueMap, evaluate, named_profile, profile_for_token
from .verification import run_all_checks

#: Exit code when the reader of standard output closes it early.
EXIT_BROKEN_PIPE = 141


def _print_json(obj) -> None:
    """Print as indented JSON; every `Fraction` is written by `rational_to_json`."""
    print(json.dumps(obj, indent=2, default=rational_to_json))


def _cell(x: Fraction) -> str:
    return f"{fraction_str(x)} ({float(x):.4g})"


def cmd_tabulate(args) -> int:
    n = args.n
    _require(n, MAX_TABULATE_PLAYERS)
    reports = [projection_report(named_profile(kind, n), kind) for kind in PROFILE_KINDS]
    if args.format == "json":
        _print_json({"n": n, "rows": [vars(r) for r in reports]})
        return 0
    header = ["target", "eps_star", "dist_sq", "proj_sq", "resid_sq", "r2"]
    render = fraction_str if args.format == "csv" else _cell
    rows = [[r.target, *(render(getattr(r, column)) for column in header[1:])] for r in reports]
    if args.format == "csv":
        for row in (header, *rows):
            print(",".join(row))
        return 0
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(header)]
    print(f"n = {n}")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0


def cmd_project(args) -> int:
    profile = profile_for_token(args.target, args.n)
    _print_json(vars(projection_report(profile, args.target)))
    return 0


def cmd_strata(args) -> int:
    profile = profile_for_token(args.target, args.n)
    coords = stratified_coords(profile)
    w = weights(args.n)
    moments = weighted_moments(coords, w)
    rep = projection_report(profile, args.target)
    _print_json(
        {
            "n": args.n,
            "target": args.target,
            "eps": coords.eps,
            "delta": coords.delta,
            "w": w.w,
            "top_dev_sq": coords.top_dev_sq,
            "mean": moments.mean,
            "second_moment": moments.second_moment,
            "variance": moments.variance,
            "r2": rep.r2,
        }
    )
    return 0


def cmd_fit(args) -> int:
    tokens = [t.strip() for t in args.directions.split(",") if t.strip()]
    if not tokens:
        raise ValueError("at least one direction token is required")
    target = profile_for_token(args.target, args.n)
    anchors = [profile_for_token(t, args.n) for t in tokens]
    fit = gram_fit(target, anchors, tokens)
    mixture = mixture_profile(fit)
    k = len(tokens)
    _print_json(
        {
            "n": args.n,
            "target": args.target,
            "directions": list(fit.names),
            "gram_size": k,
            "gram": [fit.gram[i][j] for i in range(k) for j in range(k)],
            "gram_det": fit.gram_det,
            "rhs": fit.rhs,
            "coeffs": fit.coeffs,
            "proj_sq": fit.proj_sq,
            "dist_sq": fit.dist_sq,
            "r2_u": fit.r2_u,
            "mixture": {
                "shapley_coeff": fit.shapley_coefficient,
                "alpha": mixture.alpha,
                "beta": mixture.beta,
            },
        }
    )
    return 0


def cmd_trends(args) -> int:
    tokens = [t.strip() for t in args.target.split(",") if t.strip()]
    if not tokens:
        raise ValueError("at least one target token is required")
    rows = trend_table(tokens, args.n, args.max_n)
    if args.format == "json":
        _print_json(
            {
                "rows": [
                    {
                        "n": r.n,
                        "target": r.target,
                        "eps_star": r.eps_star,
                        "r2": r.r2,
                        "one_minus_r2": r.one_minus_r2,
                    }
                    for r in rows
                ]
            }
        )
        return 0
    sys.stdout.write(trend_csv(rows))
    return 0


def cmd_eval(args) -> int:
    game = load_game(args.game)
    token = args.value if args.value is not None else args.target
    if token is None:
        raise ValueError("a value token is required (--value or --target)")
    profile = profile_for_token(token, game.n)
    payoffs = evaluate(profile, game)
    _print_json(
        {
            "n": game.n,
            "value": token,
            "payoffs": payoffs,
        }
    )
    return 0


def cmd_basis_check(args) -> int:
    basis = random_h_orthonormal_basis(args.n, args.seed)
    gram_ok = basis.gram_is_identity()
    pairs = (
        ("bz-sh", "bz-sh"),
        ("ed-sh", "bz-sh"),
        ("ed-sh", "ed-sh"),
    )
    sh = GeneralLinearValueMap.from_profile(named_profile("sh", args.n))
    maps = {
        f"{kind}-sh": GeneralLinearValueMap.from_profile(named_profile(kind, args.n)) - sh
        for kind in ("bz", "ed")
    }
    comparisons = []
    all_equal = gram_ok
    for left, right in pairs:
        direct = inner_L_general(maps[left], maps[right])
        in_basis = inner_L_in_basis(maps[left], maps[right], basis)
        equal = direct == in_basis
        all_equal = all_equal and equal
        comparisons.append(
            {
                "left": left,
                "right": right,
                "in_basis": in_basis,
                "direct": direct,
                "equal": equal,
            }
        )
    _print_json(
        {
            "n": args.n,
            "seed": args.seed,
            "provenance": basis.provenance,
            "gram_identity": gram_ok,
            "comparisons": comparisons,
            "all_equal": all_equal,
        }
    )
    return 0 if all_equal else 1


def cmd_verify(args) -> int:
    results = run_all_checks()
    failed = 0
    for res in results:
        if res.passed:
            print(f"PASS  {res.label}")
        else:
            failed += 1
            detail = f"  ({res.detail})" if res.detail else ""
            print(f"FAIL  {res.label}{detail}")
    print(f"{len(results)} checks: {len(results) - failed} passed, {failed} failed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valuegeom",
        description="Exact geometry of linear value maps on cooperative games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tabulate", help="projection summary for the five standard solutions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=cmd_tabulate)

    p = sub.add_parser("project", help="project one target onto the Shapley-to-equal-division line")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("strata", help="per-size coefficients, weights, and moments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("fit", help="multi-direction projection by the normal equations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--directions", required=True, help="comma-separated direction tokens, e.g. ed,bz")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("trends", help="exact trend rows over a range of player counts")
    p.add_argument("--target", default="bz,esd,so", help="comma-separated target tokens")
    p.add_argument("--n", type=int, default=2, help="smallest player count")
    p.add_argument("--max-n", type=int, default=12, help="largest player count")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_trends)

    p = sub.add_parser("eval", help="evaluate a value map on a game from a JSON file")
    p.add_argument("--game", required=True, help="path to the game JSON file")
    p.add_argument("--value", help="value token (sh, ed, bz, esd, so, f:<p>/<q>)")
    p.add_argument("--target", help="alias for --value")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("basis-check", help="verify basis invariance of the inner product")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=cmd_basis_check)

    p = sub.add_parser("verify", help="run the exact-equality check suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its message; keep --help at 0
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader stopped early; that is not an input error. Point stdout
        # at the null device so the flush at exit does not fail again.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
        return EXIT_BROKEN_PIPE
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
