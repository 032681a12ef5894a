"""Metamorphic invariants: changes to a game that must leave its values
alone, or change them in a known way, checked by solving both games.

Relabelling permutes the states and the actions; each state keeps its
value function under its new number, or its document id.  Padding adds
a copy of one action, which offers nothing the original does not.
Cost scaling multiplies every cost and rate by c: every value, point
values included, is multiplied by c, and the strategies and jump points
stay.  An SPTG whose rates are all 0 is its untimed game at every clock
value, so its values are constant and equal the untimed ones (read off
untimed value iteration).  (An SPTG whose actions all span [0, 1] is
also a PTG with the same values: ``tests/test_ptg.py`` checks that.)
Horizon scaling multiplies every interval endpoint of a PTG by s and
divides every rate by s: the values are stretched along the clock,
``v'(s*x) = v(x)``.  Splitting cuts one action's interval at its
midpoint into two copies that share it: the values stay.  Both change
the widths of the interval games a PTG solve builds, which the other
invariants keep.  Moving an SPTG's clock domain from [0,1] to [lo, hi]
while its rates are multiplied by ``hi - lo`` stretches its values and
strategy runs along the clock, as the old rescaling of PTG intervals
did; the game on [lo, hi] must also pass the oracles.
"""

import dataclasses
import functools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from ptgsolve import cli, gamedoc
from ptgsolve.numerics import F0, F1, PwlFn, format_cost, is_inf, parse_cost
from ptgsolve.oracle import (
    check_equilibrium,
    generate_random,
    untimed_value_iteration,
    value_iteration_sptg,
)
from ptgsolve.ptg import Ptg, solve_ptg
from ptgsolve.sptg import Sptg, solve_sptg
from test_sweep_certificates import random_event_rich

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_INPUTS = sorted(p for p in GOLDEN.glob("*.json") if not p.name.endswith(".out.json"))

SOLVERS = {"sptg": solve_sptg, "ptg": solve_ptg}


def random_games(kind):
    return [
        generate_random(kind, n, 3, seed, allow_inf=seed % 2 == 0)
        for n in range(1, 6)
        for seed in range(60)
    ]


@functools.cache
def solution(game):
    """The solution of ``game``, computed once per equal game: several
    invariants compare against the same pools."""
    return SOLVERS["ptg" if isinstance(game, Ptg) else "sptg"](game)


def relabelled(game, rng):
    """``game`` with its states and its actions in a random order; old
    state k is new state ``perm[k]``.  Returns ``(game, perm)``."""
    n = game.num_states
    perm = list(range(n))
    rng.shuffle(perm)
    owners, rates = [None] * n, [None] * n
    for k in range(n):
        owners[perm[k]], rates[perm[k]] = game.owners[k], game.rates[k]
    actions = [
        dataclasses.replace(a, source=perm[a.source], dest=None if a.dest is None else perm[a.dest])
        for a in game.actions
    ]
    rng.shuffle(actions)
    return type(game)(tuple(owners), tuple(rates), tuple(actions)), perm


def padded(game, rng):
    """``game`` with a copy of one of its actions appended."""
    return dataclasses.replace(game, actions=game.actions + (rng.choice(game.actions),))


@pytest.mark.parametrize("kind", sorted(SOLVERS))
def test_relabelling_keeps_every_value(kind):
    solve = SOLVERS[kind]
    for i, game in enumerate(random_games(kind)):
        other, perm = relabelled(game, random.Random(i))
        want, got = solution(game).values, solve(other).values
        assert [got[perm[k]] for k in range(game.num_states)] == list(want), i


@pytest.mark.parametrize("kind", sorted(SOLVERS))
def test_padding_with_a_copy_keeps_every_value(kind):
    solve = SOLVERS[kind]
    for i, game in enumerate(random_games(kind)):
        assert solve(padded(game, random.Random(i))).values == solution(game).values, i


def golden_games(kind):
    games = [gamedoc.parse(p.read_bytes()).to_game() for p in GOLDEN_INPUTS]
    return [g for g in games if type(g) is kind]


def solved(tmp_path, body):
    """The result document of ``body``, solved by the command line."""
    game, out = tmp_path / "game.json", tmp_path / "out.json"
    game.write_text(json.dumps(body))
    assert cli.main(["solve", str(game), "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_shuffled_and_padded_document_keeps_its_result(tmp_path, path):
    """Shuffle a golden input's states and actions and add a copy of one
    action under a new id: every id keeps its values and jumps."""
    body = json.loads(path.read_text())
    want = solved(tmp_path, body)
    rng = random.Random(path.stem)
    ids = {a["id"] for a in body["actions"]}
    copy = dict(rng.choice(body["actions"]))
    copy["id"] = next(f"copy{i}" for i in range(len(ids) + 1) if f"copy{i}" not in ids)
    body["actions"].append(copy)
    rng.shuffle(body["states"])
    rng.shuffle(body["actions"])
    got = solved(tmp_path, body)
    assert got["values"] == want["values"]
    assert got.get("jumps") == want.get("jumps")


C = Fraction(3, 2)


def times(v, c):
    return v if is_inf(v) else v * c


def cost_scaled(game, c):
    """``game`` with every cost and every rate multiplied by ``c``."""
    actions = tuple(dataclasses.replace(a, cost=times(a.cost, c)) for a in game.actions)
    return dataclasses.replace(game, rates=tuple(r * c for r in game.rates), actions=actions)


def fn_times(fn, c):
    """``fn`` multiplied by ``c`` > 0, point values included."""
    return PwlFn(
        fn.breaks,
        tuple(times(v, c) for v in fn.seg_vals),
        tuple(s * c for s in fn.slopes),
        tuple(times(v, c) for v in fn.point_vals),
    )


def test_cost_scaling_scales_sptg_values_and_keeps_strategies():
    for i, game in enumerate(random_games("sptg")):
        want, got = solution(game), solve_sptg(cost_scaled(game, C))
        assert list(got.values) == [fn_times(f, C) for f in want.values], i
        assert got.strategy == want.strategy, i


def test_cost_scaling_scales_ptg_values_and_keeps_jumps():
    for i, game in enumerate(random_games("ptg")):
        want, got = solution(game), solve_ptg(cost_scaled(game, C))
        assert list(got.values) == [fn_times(f, C) for f in want.values], i
        assert [got.jump_points(k) for k in range(game.num_states)] == [
            want.jump_points(k) for k in range(game.num_states)
        ], i


def test_zero_rates_give_constant_untimed_values():
    games = random_games("sptg") + golden_games(Sptg)
    for i, game in enumerate(games):
        flat = dataclasses.replace(game, rates=(F0,) * game.num_states)
        untimed = untimed_value_iteration(flat, flat.state_actions)
        assert list(solve_sptg(flat).values) == [PwlFn.constant(F0, F1, v) for v in untimed], i


def horizon_scaled(game, s):
    """``game`` with every interval endpoint times ``s`` and every rate
    divided by ``s``."""
    actions = tuple(dataclasses.replace(a, lo=a.lo * s, hi=a.hi * s) for a in game.actions)
    return dataclasses.replace(game, rates=tuple(r / s for r in game.rates), actions=actions)


def stretched(fn, s):
    """``x -> fn(x / s)``: breakpoints times ``s``, slopes divided by ``s``."""
    return PwlFn(
        tuple(b * s for b in fn.breaks),
        fn.seg_vals,
        tuple(slope / s for slope in fn.slopes),
        fn.point_vals,
    )


def test_horizon_scaling_stretches_ptg_values():
    for i, game in enumerate(random_games("ptg") + golden_games(Ptg)):
        want = solution(game).values
        for s in (Fraction(2), Fraction(3, 2)):
            got = solve_ptg(horizon_scaled(game, s)).values
            assert list(got) == [stretched(f, s) for f in want], (i, s)


def split(game, j):
    """``game`` with action ``j``'s interval cut at its midpoint into two
    copies that both contain it; None if the interval is a point."""
    a = game.actions[j]
    if a.lo == a.hi:
        return None
    mid = (a.lo + a.hi) / 2
    halves = (
        dataclasses.replace(a, hi=mid, hi_closed=True),
        dataclasses.replace(a, lo=mid, lo_closed=True),
    )
    return dataclasses.replace(game, actions=game.actions[:j] + halves + game.actions[j + 1 :])


def test_splitting_an_interval_keeps_every_value():
    for i, game in enumerate(random_games("ptg") + golden_games(Ptg)):
        other = split(game, i % len(game.actions))
        if other is not None:
            assert solve_ptg(other).values == solution(game).values, i


NUMBER_FIELDS = ("value_at_left", "slope", "point_value_at_left", "value")


def text_times(text, c):
    """A document number times ``c``, as a document number."""
    return format_cost(times(parse_cost(text), c))


def result_times(values, c):
    """A result document's ``values`` with every value and slope times ``c``."""
    out = {}
    for sid, v in values.items():
        if isinstance(v, str):  # a priced game's value
            out[sid] = text_times(v, c)
        else:
            out[sid] = [
                {k: text_times(x, c) if k in NUMBER_FIELDS else x for k, x in row.items()}
                for row in v
            ]
    return out


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_cost_scaled_document_scales_its_values(tmp_path, path):
    """Multiply a golden input's costs and rates by c: its values scale
    by c, and the rest of the result (strategy, jumps, stats) stays."""
    body = json.loads(path.read_text())
    want = solved(tmp_path, body)
    for state in body["states"]:
        if "rate" in state:
            state["rate"] = text_times(state["rate"], C)
    for action in body["actions"]:
        action["cost"] = text_times(action["cost"], C)
    got = solved(tmp_path, body)
    assert got["values"] == result_times(want["values"], C)
    assert {**got, "values": None} == {**want, "values": None}


DOMAINS = ((F0, Fraction(1, 3)), (Fraction(2), Fraction(5)), (Fraction(3, 7), F1))


def remap(fn, lo, width):
    """Segments of x -> fn((x - lo) / width), for splicing into [lo,
    lo+width]: how PTG solves once mapped the solution of each interval
    game, rescaled to [0,1], back onto the interval."""
    return [
        (lo + s_lo * width, lo + s_hi * width, val, slope / width)
        for s_lo, s_hi, val, slope in fn.segments()
    ]


@functools.cache
def event_rich_games():
    games = [random_event_rich(seed) for seed in range(100)]
    assert sum(solution(g).stats.event_points for g in games) >= 100
    return games


@pytest.mark.parametrize("lo, hi", DOMAINS, ids=lambda x: str(x))
def test_domain_shift_stretches_sptg_solutions(lo, hi):
    """``Sptg(o, r, a, lo, hi)`` solves as ``Sptg(o, r*(hi - lo), a)`` on
    [0,1] remapped onto [lo, hi]: the same values, strategy runs and
    stats; value iteration and the equilibrium check accept it."""
    width = hi - lo
    for i, game in enumerate(random_games("sptg") + event_rich_games()):
        unit = solution(dataclasses.replace(game, rates=tuple(r * width for r in game.rates)))
        shifted = dataclasses.replace(game, lo=lo, hi=hi)
        got = solve_sptg(shifted)
        assert got.values == tuple(PwlFn.from_segments(remap(f, lo, width)) for f in unit.values), i
        clocks = tuple(lo + x * width for x in unit.strategy.clocks)
        assert got.strategy == dataclasses.replace(unit.strategy, clocks=clocks), i
        assert got.stats == unit.stats, i
        assert value_iteration_sptg(shifted).values == got.values, i
        assert check_equilibrium(shifted, got).passed, i
