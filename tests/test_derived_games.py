"""The games a PTG solve builds are derived from the checked ``Ptg``, with
no checks: each must be a game that the checking constructors accept and
build alike, in its fields and in its index, and the solve must run no
check at all."""

from pathlib import Path

from ptgsolve import gamedoc, priced_game, ptg, sptg
from ptgsolve.numerics import INF
from ptgsolve.oracle import generate_random
from ptgsolve.priced_game import PAction, PricedGame, extended_dijkstra
from ptgsolve.sptg import Sptg
from test_boundary_games import interval_games
from test_ptg import ladder_pool_games

GOLDEN = Path(__file__).parent / "golden"


def golden_ptgs() -> list:
    games = [
        gamedoc.parse(path.read_text()).to_game()
        for path in sorted(GOLDEN.glob("*.json"))
        if '"ptg"' in path.read_text() and not path.name.endswith(".out.json")
    ]
    assert len(games) == 4
    return games


def stops(values) -> tuple:
    return tuple(PAction(k, None, b) for k, b in enumerate(values or ()))


def assert_same_game(derived, checked):
    """``checked``, built through its type's constructor, is ``derived``:
    the same fields, and the same index and cost denominator."""
    assert type(checked) is type(derived)
    assert checked == derived
    assert checked.state_actions == derived.state_actions
    assert checked.incoming == derived.incoming
    assert checked.cost_denominator == derived.cost_denominator


def test_derived_games_are_the_checked_ones(monkeypatch):
    """Every interval game and its untimed game at hi, every moment game
    and every top game that ``solve_ptg`` derives is accepted, and built
    alike, by the checking constructors: on the golden PTGs, the
    ptg-ladder pools of seeds 1 and 7177, and 400 random reset PTGs with
    infinite costs.  So is the moment game of each ladder point that the
    certificate passes, built here as the solve would have built it, and
    its values are exactly the certified ones."""
    build_moment, certified = ptg.build_moment_game, ptg._certified
    moments = []

    def checked_certificate(game, pairs, reset_values, x, w):
        passed = certified(game, pairs, reset_values, x, w)
        if passed:
            moment = ptg.build_moment_game(game, w, ptg._untimed(pairs, reset_values))
            assert tuple(extended_dijkstra(moment)[0]) == w
        return passed

    def rebuilt_moment(game, v, actions):
        moment = build_moment(game, v, actions)
        assert_same_game(moment, PricedGame(game.owners, actions + stops(v)))
        moments.append(v is None)
        return moment

    monkeypatch.setattr(ptg, "build_moment_game", rebuilt_moment)
    monkeypatch.setattr(ptg, "_certified", checked_certificate)
    randoms = [generate_random("ptg", 2 + s % 4, 3, s, allow_inf=True) for s in range(400)]
    games = interval_games(golden_ptgs() + ladder_pool_games() + randoms)
    for g in games:
        checked = Sptg(g.owners, g.rates, g.actions, g.lo, g.hi, g.boundary)
        assert_same_game(g, checked)
        assert_same_game(g.at_hi, PricedGame(g.owners, g.actions + stops(g.boundary)))
        assert_same_game(g.at_hi, checked.at_hi)
    assert len(games) > 1300 and moments.count(True) > 500 and moments.count(False) > 1800
    assert any(b == INF for g in games for b in g.boundary)
    assert any(not g.state_actions[k] for g in games for k in range(g.num_states))


def test_a_solve_runs_no_graph_check(monkeypatch):
    """``check_graph`` runs once per document, as it is parsed into a
    game, and never inside ``solve_ptg``."""
    check_graph, calls = priced_game.check_graph, []

    def counted(owners, actions):
        calls.append(len(actions))
        return check_graph(owners, actions)

    for module in (priced_game, sptg, ptg):
        monkeypatch.setattr(module, "check_graph", counted, raising=False)
    games = ladder_pool_games()
    assert len(calls) == len(games) > 50
    calls.clear()
    for g in games:
        ptg.solve_ptg(g)
    assert calls == []
