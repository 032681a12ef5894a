"""Differential test of the interval games' boundary.

A PTG's interval game ends at its boundary: each state may stop at hi,
for its value there, and only at hi, as action m + k of the untimed
game there.  ``gadget_interval_sptg`` is the construction it replaced,
kept here as the reference: each state gets a stop action worth its
boundary value, and a minimizer's stop routes through a fresh maximizer
state of the top rate with a free exit, which prices stopping below hi
out of the optimum.  On the states they share, the boundary game must
give the reference's values, statistics and choices below hi, plainly
and instrumented, and the oracles must accept its solution.
"""

import random
from fractions import Fraction as Fr

from ptgsolve import ptg
from ptgsolve import sptg as sptg_module
from ptgsolve.numerics import F0, INF
from ptgsolve.oracle import check_equilibrium, generate_random, value_iteration_sptg
from ptgsolve.priced_game import PAction
from ptgsolve.sptg import WAIT, Sptg, solve_sptg
from test_ptg import ladder_pool_games
from test_sweep_certificates import random_event_rich


def gadget_interval_sptg(game, v_hi, lo, hi, actions) -> Sptg:
    """The interval game as it was built before it had a boundary: a
    stop action per state worth its entry of ``v_hi``, and an added
    maximizer of the top rate with a free exit, through which each
    minimizer's stop routes; a maximizer's stop goes to the terminal."""
    n = game.num_states
    max_state = n
    stops = tuple(
        PAction(k, max_state if game.owners[k] == 1 else None, v_hi[k])
        for k in range(n)
    )
    return Sptg(
        owners=game.owners + (2,),
        rates=game.rates + (max(game.rates, default=F0),),
        actions=actions + stops + (PAction(max_state, None, F0),),
        lo=lo,
        hi=hi,
    )


def checks_per_step(g, monkeypatch) -> tuple:
    """``solve_sptg(g, instrument=True)`` and the potential checks of
    each of its steps, right to left."""
    observer, counts = sptg_module._observer, []

    def counting(game, stats):
        observe = observer(game, stats)

        def count(pieces, x):
            before = stats.potential_checks
            observe(pieces, x)
            counts.append(stats.potential_checks - before)

        return count

    monkeypatch.setattr(sptg_module, "_observer", counting)
    sol = solve_sptg(g, instrument=True)
    monkeypatch.undo()
    return sol, counts


def below_hi(runs, m) -> tuple:
    """A reference state's runs with its stop, any choice from m on, read
    as waiting, and neighbours alike merged."""
    out = []
    for i, j in runs:
        j = WAIT if j is not WAIT and j >= m else j
        if not out or out[-1][1] != j:
            out.append((i, j))
    return tuple(out)


def assert_same_as_gadget(g: Sptg, monkeypatch):
    n, m = g.num_states, g.num_actions
    ref_game = gadget_interval_sptg(g, g.boundary, g.lo, g.hi, g.actions)
    sol, ref = solve_sptg(g), solve_sptg(ref_game)
    assert sol.values == ref.values[:n]
    assert sol.stats == ref.stats
    assert sol.strategy.clocks == ref.strategy.clocks
    # below hi a maximizer may take its stop in the reference, where it
    # ties with waiting; the boundary game has none to take
    assert sol.strategy.runs == tuple(below_hi(runs, m) for runs in ref.strategy.runs[:n])
    # at hi a minimizer's stop takes one hop, not two through the added
    # maximizer, so it may win a tie that an action won in the reference
    for k, (j, ref_j) in enumerate(zip(sol.strategy.at_hi, ref.strategy.at_hi)):
        assert j == ref_j or (g.owners[k] == 1 and j == m + k), k

    (inst, counts), (inst_ref, ref_counts) = (
        checks_per_step(game, monkeypatch) for game in (g, ref_game)
    )
    assert inst.values == sol.values
    assert (inst.stats.sweep_steps, inst.stats.event_points) == (
        sol.stats.sweep_steps,
        sol.stats.event_points,
    )
    assert inst.stats.potential_violations == inst_ref.stats.potential_violations == 0
    # the switches at hi that the reference makes from the added
    # maximizer's exit and from its minimizers' stops are gone; every
    # later step checks the same switches
    assert counts[1:] == ref_counts[1:]
    assert counts[0] <= ref_counts[0]

    assert check_equilibrium(g, sol).passed
    assert value_iteration_sptg(g).values == sol.values


def interval_games(games) -> list:
    """The interval games ``solve_ptg`` solves on ``games``, each once."""
    solved = {}
    for game in games:
        for cert in ptg.solve_ptg(game).trace:
            solved[id(cert.sptg)] = cert.sptg
    return list(solved.values())


class TestGadgetReference:
    def test_ptg_ladder_pools(self, monkeypatch):
        games = interval_games(ladder_pool_games())
        for g in games:
            assert g.boundary is not None
            assert_same_as_gadget(g, monkeypatch)
        assert len(games) > 500

    def test_random_reset_ptgs_with_infinite_costs(self, monkeypatch):
        ptgs = [generate_random("ptg", 2 + s % 4, 3, s, allow_inf=True) for s in range(400)]
        games = interval_games(ptgs)
        for g in games:
            assert_same_as_gadget(g, monkeypatch)
        assert any(p.reset_depth for p in ptgs)
        assert any(b == INF for g in games for b in g.boundary)
        assert any(not g.state_actions[k] for g in games for k in range(g.num_states))

    def test_event_rich_games_with_random_boundaries(self, monkeypatch):
        rng = random.Random(21)
        infinite = 0
        for seed in range(60):
            g = random_event_rich(seed)
            boundary = tuple(
                INF if rng.random() < 1 / 5 else Fr(rng.randint(0, 12), rng.randint(1, 3))
                for _ in g.owners
            )
            infinite += INF in boundary
            g = Sptg(g.owners, g.rates, g.actions, boundary=boundary)
            assert_same_as_gadget(g, monkeypatch)
        assert infinite > 10
        # boundary denominators that no cost or rate shares: the sweep
        # settles on the untimed game at hi, whose stops they price
        g = Sptg(
            (1, 2, 2),
            (Fr(5, 3), Fr(1, 3), Fr(4, 3)),
            (PAction(0, 1, F0), PAction(0, 2, F0)),
            boundary=(INF, Fr(3, 11), Fr(1, 7)),
        )
        assert_same_as_gadget(g, monkeypatch)
        assert solve_sptg(g).values[0].interior_breaks() == (Fr(67, 77),)
