"""Command-line driver: solve game files and fuzz against the oracle.

Exit codes: 0 success, 1 verification failure, 2 bad input or I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import gamedoc
from .oracle import (
    OracleError,
    brute_force_priced,
    check_equilibrium,
    generate_random,
    value_iteration_sptg,
)
from .priced_game import extended_dijkstra, strategy_iteration
from .ptg import solve_ptg
from .sptg import solve_sptg


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _sptg_verified(game, sol) -> bool:
    """The equilibrium check, then value iteration if that passed."""
    return check_equilibrium(game, sol).passed and value_iteration_sptg(game).values == sol.values


def _cmd_solve(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            doc = gamedoc.parse(fh.read())
        game = doc.to_game()
    except (OSError, ValueError) as exc:  # DocumentError is a ValueError
        print(f"input-error: {exc}", file=sys.stderr)
        return 2

    if doc.kind == "priced":
        values, profile = extended_dijkstra(game)
        out = gamedoc.emit_priced_result(doc, values)
        plot = None
        verify_ok = True
        if args.verify:
            si_values, _, _ = strategy_iteration(game, profile)
            verify_ok = si_values == values
            try:
                bf = brute_force_priced(game)
                verify_ok = verify_ok and bf == values
            except OracleError:
                pass
    elif doc.kind == "sptg":
        sol = solve_sptg(game)
        out = gamedoc.emit_sptg_result(doc, sol)
        plot = gamedoc.emit_plot(doc, sol.values)
        verify_ok = not args.verify or _sptg_verified(game, sol)
    else:
        res = solve_ptg(game)
        out = gamedoc.emit_ptg_result(doc, res)
        plot = gamedoc.emit_plot(doc, res.values)
        verify_ok = True
        if args.verify:
            for cert in res.trace:
                report = check_equilibrium(cert.sptg, cert.solution)
                verify_ok = verify_ok and report.passed

    try:
        _write(args.out, out)
        if args.plot is not None and plot is not None:
            _write(args.plot, plot)
    except OSError as exc:
        print(f"output-error: {exc}", file=sys.stderr)
        return 2
    if not verify_ok:
        print('{"verify": "failed"}', file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(args) -> int:
    disagreements = 0
    for i in range(args.count):
        seed = args.seed + i
        game = generate_random("sptg", args.size, 3, seed, allow_inf=(i % 4 == 0))
        sol = solve_sptg(game)
        if not _sptg_verified(game, sol):
            disagreements += 1
            print(f"seed {seed}: disagreement", file=sys.stderr)
    print(f"fuzz: {args.count - disagreements}/{args.count} agree")
    return 0 if disagreements == 0 else 1


def _positive_int(text) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not a positive integer")
    return n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptgsolve", description="Exact solver for one-clock priced timed games"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a game document")
    p_solve.add_argument("file")
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--plot", default=None)
    p_solve.add_argument("--verify", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_fuzz = sub.add_parser("fuzz", help="random games checked against the oracle")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--count", type=_positive_int, default=20)
    p_fuzz.add_argument("--size", type=_positive_int, default=4)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    args = parser.parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
