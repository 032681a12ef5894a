"""Golden instances with hand-computed expected outputs.

Each fixture records where its expectation comes from so test failures
can be traced to a derivation rather than to folklore.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numerics import F0, F1, INF, PwlFn
from .priced_game import PAction
from .ptg import Ptg, TAction
from .sptg import Sptg


@dataclass(frozen=True)
class Fixture:
    name: str
    game: object
    expected: dict
    source: str


def fixture_a() -> Fixture:
    """Three-state SPTG with a unique switch of the minimizer at 1/2.

    k1 (minimizer, rate 5) chooses between a free move to k2a and a
    half-unit move to k2b; both maximizer states (rates 2 and 1) hold a
    free exit they delay until time 1.
    """
    game = Sptg(
        owners=(1, 2, 2),
        rates=(Fraction(5), Fraction(2), Fraction(1)),
        actions=(
            PAction(0, 1, Fraction(0)),
            PAction(0, 2, Fraction(1, 2)),
            PAction(1, None, Fraction(0)),
            PAction(2, None, Fraction(0)),
        ),
    )
    h = Fraction(1, 2)
    expected = {
        "values": (
            PwlFn.from_segments(
                [(F0, h, Fraction(3, 2), Fraction(-1)), (h, F1, F1, Fraction(-2))]
            ),
            PwlFn.affine(F0, F1, Fraction(2), Fraction(-2)),
            PwlFn.affine(F0, F1, F1, Fraction(-1)),
        ),
        "event_points": 1,
        "event_point_at": h,
        # value of the k1 route through a2: action cost plus k2b's value
        "k2b_via_a2": PwlFn.affine(F0, F1, Fraction(3, 2), Fraction(-1)),
    }
    return Fixture(
        "fixture-a",
        game,
        expected,
        "hand backward induction, confirmed by value iteration",
    )


def delayed_exit_jump() -> Fixture:
    """Two-state timed game whose value jumps at time 0.

    State 1 (minimizer, rate 1) can move freely to state 2 (maximizer,
    rate 0), which holds a cost-1 exit usable only at time 0 and a free
    exit usable only at time 1.  Waiting any positive amount lets the
    minimizer dodge the expensive exit, so state 1 is worth 0 everywhere
    but only as a limit: no optimal strategy exists at time 0.
    """
    game = Ptg(
        owners=(1, 2),
        rates=(Fraction(1), Fraction(0)),
        actions=(
            TAction(0, 1, Fraction(0), F0, F1),
            TAction(1, None, Fraction(1), F0, F0),
            TAction(1, None, Fraction(0), F1, F1),
        ),
    )
    expected = {
        "values": (
            PwlFn.constant(F0, F1, F0),
            PwlFn.from_segments([(F0, F1, F0, F0)], point_overrides={F0: F1}),
        ),
        "jump_points": {0: [], 1: [F0]},
    }
    return Fixture(
        "delayed-exit-jump",
        game,
        expected,
        "worked example: the maximizer cashes the expensive exit only at time 0",
    )


def maximizer_reset_loop() -> Fixture:
    """Single maximizer state with a free resetting self-loop; looping
    forever drives the cost to infinity."""
    game = Ptg(
        owners=(2,),
        rates=(Fraction(1),),
        actions=(
            TAction(0, 0, Fraction(0), F0, F1, reset=True),
            TAction(0, None, Fraction(0), F1, F1),
        ),
    )
    expected = {"values": (PwlFn.constant(F0, F1, INF),), "layers": 2}
    return Fixture(
        "maximizer-reset-loop",
        game,
        expected,
        "pigeonhole on reset uses: unbounded reset repetition never terminates",
    )


ALL_FIXTURES = (fixture_a, delayed_exit_jump, maximizer_reset_loop)
