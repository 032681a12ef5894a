"""Command-line driver: solve game files and fuzz against the oracle.

Exit codes: 0 success, 1 verification failure, 2 bad input or I/O error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import gamedoc
from .numerics import DigitLimitError
from .oracle import (
    OracleError,
    brute_force_priced,
    check_equilibrium,
    generate_random,
    untimed_value_iteration,
    value_iteration_sptg,
)
from .priced_game import extended_dijkstra
from .ptg import solve_ptg
from .sptg import solve_sptg


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _oracle_passed(check) -> bool:
    """``check()``'s verdict.  An oracle that refuses the solution (a
    strategy that waits at the horizon, say) or runs out of its budget
    fails it, named on stderr."""
    try:
        return check()
    except OracleError as exc:
        print(f"verify: oracle error: {exc}", file=sys.stderr)
        return False


def _equilibrium_passed(game, sol) -> bool:
    return _oracle_passed(lambda: check_equilibrium(game, sol).passed)


def _sptg_verified(game, sol) -> bool:
    """The equilibrium check, then value iteration if that passed."""
    return _equilibrium_passed(game, sol) and _oracle_passed(
        lambda: value_iteration_sptg(game).values == sol.values
    )


def _cmd_solve(args) -> int:
    try:
        with open(args.file, "rb") as fh:
            doc = gamedoc.parse(fh.read())
        game = doc.to_game()
    except (OSError, ValueError) as exc:  # GameError is a ValueError
        print(f"input-error: {exc}", file=sys.stderr)
        return 2

    try:
        if doc.kind == "priced":
            values, _ = extended_dijkstra(game)
            out = gamedoc.emit_priced_result(doc, values)
            plot = None
            verify_ok = True
            if args.verify:
                verify_ok = untimed_value_iteration(game, game.state_actions) == values
                try:
                    bf = brute_force_priced(game)
                    verify_ok = verify_ok and bf == values
                except OracleError as exc:
                    print(f"verify: brute-force skipped: {exc}", file=sys.stderr)
        elif doc.kind == "sptg":
            sol = solve_sptg(game)
            out = gamedoc.emit_sptg_result(doc, sol)
            plot = None if args.plot is None else gamedoc.emit_plot(doc, sol.values)
            verify_ok = not args.verify or _sptg_verified(game, sol)
        else:
            res = solve_ptg(game)
            out = gamedoc.emit_ptg_result(doc, res)
            plot = None if args.plot is None else gamedoc.emit_plot(doc, res.values)
            verify_ok = True
            if args.verify:
                for cert in res.trace:
                    verify_ok = _equilibrium_passed(cert.sptg, cert.solution) and verify_ok
    except DigitLimitError as exc:
        print(f"output-error: {exc}", file=sys.stderr)
        return 2

    try:
        _write(args.out, out)
        if plot is not None:
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
        game = generate_random("sptg", args.size, 3, seed, allow_inf=(seed % 4 == 0))
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


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
