"""Differential test of the sweep's crossing certificates.

``reference_sweep`` is the sweep without them: every step rebuilds the
snapshot game, rescans every action of every state for the next crossing
and emits one segment per state.  ``solve_sptg`` must give the same
values, strategy cells and stats, plainly and instrumented, on games
whose event points move choices and rates at many states.
"""

import random
from fractions import Fraction as Fr

import pytest

from ptgsolve.numerics import F0, F1, INF, PwlFn, is_inf
from ptgsolve.priced_game import PAction, potential_less, potential_matrix, rate_ladder_of
from ptgsolve.sptg import WAIT, SolveStats, Sptg, build_eps_game, solve_sptg, solve_untimed


def _rescan(game, profile, base, rate, x_hi):
    """Largest crossing below ``x_hi`` of any action's line with the
    chosen line of its state, over every action of every state."""

    def line(j):
        a = game.actions[j]
        if is_inf(a.cost):
            return None
        if a.dest is None:
            return (a.cost, a.wait_rate)
        if is_inf(base[a.dest]):
            return None
        return (a.cost + base[a.dest], rate[a.dest])

    best = F0
    for k, chosen in enumerate(profile):
        sigma = None if is_inf(base[k]) else line(chosen)
        if sigma is None:
            continue
        for j in game.state_actions[k]:
            cand = None if j == chosen else line(j)
            if cand is None or cand[1] == sigma[1]:
                continue
            xx = x_hi - (sigma[0] - cand[0]) / (cand[1] - sigma[1])
            if F0 <= xx < x_hi and xx > best:
                best = xx
    return best


def reference_sweep(sptg, instrument=False):
    """``(values, cells, stats)`` of the full-rescan sweep."""
    stats = SolveStats()
    n, m = sptg.num_states, sptg.num_actions
    ladder = rate_ladder_of(sptg.rates)

    def watch(game, before, j, after):
        stats.potential_checks += 1
        p_before, p_after = (potential_matrix(game, p, ladder) for p in (before, after))
        if not potential_less(p_after, p_before):
            stats.potential_violations += 1

    v1, profile = solve_untimed(sptg.core)
    segments = [[] for _ in range(n)]
    cells = [(F1, F1, tuple(profile))]
    x, v_at_x = F1, [v.payoff for v in v1]
    while x != F0:
        assert stats.sweep_steps <= sptg.event_bound()
        game = build_eps_game(sptg, v_at_x)
        vals, eps_profile = solve_untimed(game, profile if instrument else None, watch)
        base, rate = [v.payoff for v in vals], [v.rate for v in vals]
        assert base == v_at_x
        x_lo = _rescan(game, eps_profile, base, rate, x)
        v_at_x = [INF if is_inf(b) else b + r * (x - x_lo) for b, r in zip(base, rate)]
        for seg, b, r, v in zip(segments, base, rate, v_at_x):
            seg.append((x_lo, x, v, F0 if is_inf(b) else -r))
        cells.append((x_lo, x, tuple(WAIT if j >= m else j for j in eps_profile)))
        stats.sweep_steps += 1
        profile, x = eps_profile, x_lo
    fns = tuple(PwlFn.from_segments(segs[::-1]) for segs in segments)
    stats.event_points = len({b for f in fns for b in f.interior_breaks()})
    return fns, tuple(reversed(cells)), stats


def assert_same_sweep(g):
    for instrument in (False, True):
        sol = solve_sptg(g, instrument=instrument)
        values, cells, stats = reference_sweep(g, instrument)
        assert sol.values == values
        assert sol.strategy.cells == cells
        assert sol.stats == stats


def fan(k):
    """State 0 is a rate-(k+1) minimizer with free moves to k maximizer
    spokes; spoke i has rate i and a terminal exit of cost (k+1-i)^2/(2k)."""
    actions = [PAction(0, i, F0) for i in range(1, k + 1)]
    actions += [PAction(i, None, Fr((k + 1 - i) ** 2, 2 * k)) for i in range(1, k + 1)]
    rates = (Fr(k + 1),) + tuple(Fr(i) for i in range(1, k + 1))
    return Sptg((1,) + (2,) * k, rates, tuple(actions))


def nested_fan(centers, spokes, seed):
    """A minimizer hub moving to minimizer fan centers, each moving to
    its own maximizer spokes.  A center's event points change its rate
    and so the lines of the hub's actions, whether or not the hub's own
    choice changes."""
    rng = random.Random(seed)
    owners, rates, actions = [1], [Fr(spokes + 2)], []
    for c in range(centers):
        center = len(owners)
        owners.append(1)
        rates.append(Fr(spokes + 1))
        actions.append(PAction(0, center, Fr(rng.randint(0, 3), 4)))
        scale, offset = Fr(rng.randint(1, 4), 2), Fr(rng.randint(0, 3), 4)
        for i in range(1, spokes + 1):
            spoke = len(owners)
            owners.append(2)
            rates.append(Fr(i))
            actions.append(PAction(center, spoke, F0))
            exit_cost = offset + scale * Fr((spokes + 1 - i) ** 2, 2 * spokes)
            actions.append(PAction(spoke, None, exit_cost))
    return Sptg(tuple(owners), tuple(rates), tuple(actions))


def random_event_rich(seed):
    """Minimizer hubs over maximizer spokes whose lines cross inside
    [0,1], plus extra states of random owner that exit or move back; on
    every fourth seed some extra actions cost infinity."""
    rng = random.Random(seed)
    hubs, spokes, extra = 2, rng.randint(2, 4), 3
    n = hubs + spokes + extra
    owners = [1] * hubs + [2] * spokes + [rng.choice((1, 2)) for _ in range(extra)]
    spoke_rates = sorted(rng.sample(range(1, 9), spokes))
    rates = [9] * hubs + spoke_rates + [rng.randint(0, 4) for _ in range(extra)]
    exits = [Fr(rng.randint(1, 4))]
    for lo, hi in zip(spoke_rates[::-1][1:], spoke_rates[::-1]):
        exits.append(exits[-1] + (hi - lo) * Fr(rng.randint(1, 9), 10))
    exits.reverse()
    actions = []
    for h in range(hubs):
        price = Fr(rng.randint(0, 2))
        actions += [PAction(h, hubs + i, price) for i in range(spokes)]
    actions += [PAction(hubs + i, None, exits[i]) for i in range(spokes)]

    def cost(top):
        return INF if seed % 4 == 0 and rng.random() < 1 / 4 else Fr(rng.randint(0, top))

    for e in range(hubs + spokes, n):
        actions.append(PAction(e, None, Fr(rng.randint(1, 6))))
        actions.append(PAction(e, rng.randrange(hubs), cost(3)))
        actions.append(PAction(e, rng.choice([None] + list(range(n))), cost(5)))
    return Sptg(tuple(owners), tuple(Fr(r) for r in rates), tuple(actions))


@pytest.mark.parametrize("centers, spokes", [(2, 3), (3, 4), (4, 5)])
def test_nested_fans(centers, spokes):
    for seed in range(6):
        assert_same_sweep(nested_fan(centers, spokes, seed))


def test_nested_fans_keep_the_hub_choice_where_a_center_rate_changes():
    """The nested fans above exercise what plain fans do not: a step at
    which the hub keeps its choice while one of its destinations changes
    rate, so that only the rate change marks the hub for a rescan."""

    def hub_kept(g):
        sol = solve_sptg(g)
        dests = {a.dest for a in g.actions if a.source == 0}
        breaks = {b for d in dests for b in sol.values[d].interior_breaks()}
        cells = sol.strategy.cells
        return any(
            hi in breaks and left[0] == right[0]
            for (_, hi, left), (_, _, right) in zip(cells, cells[1:])
        )

    assert any(hub_kept(nested_fan(3, 4, seed)) for seed in range(6))


@pytest.mark.parametrize("k", range(1, 25))
def test_fans(k):
    assert_same_sweep(fan(k))


def test_random_event_rich():
    events = 0
    for seed in range(200):
        g = random_event_rich(seed)
        assert_same_sweep(g)
        events += solve_sptg(g).stats.event_points
    assert events >= 200
