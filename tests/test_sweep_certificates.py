"""Differential test of the sweep's crossing certificates.

``reference_sweep`` is the sweep without them: every step rebuilds the
snapshot game, rescans every action of every state for the next crossing
and emits one segment per state.  ``solve_sptg`` must give the same
values, strategy and stats, plainly and instrumented, on games
whose event points move choices and rates at many states.

A state's crossing is found by a scan of its action lines or, once its
lines have stayed put across a scan, from their envelope; the two must
agree on every line set.
"""

import random
from fractions import Fraction as Fr

import pytest

from ptgsolve import sptg as sptg_module
from ptgsolve.numerics import F0, F1, INF, PwlFn, is_inf
from ptgsolve.oracle import _cells, generate_random
from ptgsolve.priced_game import (
    PAction,
    evaluate_profile,
    extended_dijkstra,
    potential_less,
    potential_matrix,
    rate_ladder_of,
    single_switch_iteration,
)
from ptgsolve.sptg import (
    WAIT,
    SolveStats,
    Sptg,
    build_eps_game,
    solve_at_time_one,
    solve_sptg,
)
from strategy_cells import profile_of


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
    """``(values, cells, stats)`` of the full-rescan sweep.  Instrumented,
    each step also improves the previous step's profile one switch at a
    time, counting the potential checks, and must reach the values at
    the step's clock value."""
    stats = SolveStats()
    n, m = sptg.num_states, sptg.num_actions
    ladder = rate_ladder_of(sptg.rates)

    def watch(game, before, j, after):
        stats.potential_checks += 1
        p_before, p_after = (potential_matrix(game, p, ladder) for p in (before, after))
        if not potential_less(p_after, p_before):
            stats.potential_violations += 1

    v1, profile = extended_dijkstra(sptg)
    segments = [[] for _ in range(n)]
    cells = [(F1, F1, profile)]
    x, v_at_x = F1, list(v1)
    while x != F0:
        assert stats.sweep_steps <= sptg.event_bound()
        game = build_eps_game(sptg, v_at_x)
        if instrument:
            payoffs, _, _ = single_switch_iteration(game, profile, watch)
            assert payoffs == v_at_x
        vals, eps_profile = extended_dijkstra(game)
        base, rate = vals, [v.rate for v in evaluate_profile(game, eps_profile)]
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
        assert sol.strategy == profile_of(cells)
        assert sol.stats == stats


def fan(k):
    """State 0 is a rate-(k+1) minimizer with free moves to k maximizer
    spokes; spoke i has rate i and a terminal exit of cost (k+1-i)^2/(2k)."""
    actions = [PAction(0, i, F0) for i in range(1, k + 1)]
    actions += [PAction(i, None, Fr((k + 1 - i) ** 2, 2 * k)) for i in range(1, k + 1)]
    rates = (Fr(k + 1),) + tuple(Fr(i) for i in range(1, k + 1))
    return Sptg((1,) + (2,) * k, rates, tuple(actions))


def nested_fan(centers, spokes, seed, hub=1, center=1):
    """A hub moving to fan centers, each moving to its own maximizer
    spokes; ``hub`` and ``center`` are the owners.  A center's event
    points change its rate and so the lines of the hub's actions,
    whether or not the hub's own choice changes.  A minimizer center
    follows the lower envelope of its spokes' lines, a maximizer center
    the upper one, so the exit costs are convex or concave in the spoke
    index accordingly."""
    rng = random.Random(seed)
    # a minimizer never waits at the top rate, a maximizer never at rate 0
    owners, rates, actions = [hub], [Fr(spokes + 2) if hub == 1 else F0], []
    for c in range(centers):
        c_state = len(owners)
        owners.append(center)
        rates.append(Fr(spokes + 1) if center == 1 else F0)
        actions.append(PAction(0, c_state, Fr(rng.randint(0, 3), 4)))
        scale, offset = Fr(rng.randint(1, 4), 2), Fr(rng.randint(0, 3), 4)
        for i in range(1, spokes + 1):
            spoke = len(owners)
            owners.append(2)
            rates.append(Fr(i))
            actions.append(PAction(c_state, spoke, F0))
            if center == 1:
                shape = Fr((spokes + 1 - i) ** 2, 2 * spokes)
            else:
                shape = Fr(spokes, 2) - Fr(i * (i - 1), 2 * spokes)
            actions.append(PAction(spoke, None, offset + scale * shape))
    return Sptg(tuple(owners), tuple(rates), tuple(actions))


def coinciding_fan(seed):
    """Nested fans whose hub also reaches each center, and the spoke
    that center takes at 1, through relays and direct actions priced
    like the route through the center.  Several of the hub's actions
    then offer the same line: path length, then the lowest id, decides
    among them.  When the center leaves that spoke, a hub that had
    chosen the center may have to switch to one of the other routes.
    Owners are random, and the action order is shuffled."""
    rng = random.Random(seed)
    spokes, center = 3, rng.choice((1, 2))
    g = nested_fan(2, spokes, seed, hub=rng.choice((1, 2)), center=center)
    owners, rates, actions = list(g.owners), list(g.rates), list(g.actions)
    for a in g.actions:
        if a.source != 0:
            continue
        top = a.dest + (spokes if center == 1 else 1)
        for d in (a.dest, top):
            if rng.random() < 0.5:
                relay = len(owners)
                owners.append(rng.choice((1, 2)))
                rates.append(Fr(9) if owners[-1] == 1 else F0)
                actions.append(PAction(relay, d, F0))
                actions.append(PAction(0, relay, a.cost))
            if rng.random() < 0.5:
                actions.append(PAction(0, d, a.cost))
    rng.shuffle(actions)
    return Sptg(tuple(owners), tuple(rates), tuple(actions))


def fan_with_infinite_states(k):
    """fan(k) plus two infinite-valued states with actions into its hub:
    a minimizer whose only action costs infinity, and a maximizer that
    may also take an exit of infinite cost."""
    g = fan(k)
    actions = g.actions + (
        PAction(k + 1, 0, INF),
        PAction(k + 2, 0, F0),
        PAction(k + 2, None, INF),
    )
    return Sptg(g.owners + (1, 2), g.rates + (F1, F1), actions)


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


@pytest.mark.parametrize("hub, center", [(1, 2), (2, 1), (2, 2)])
def test_nested_fans_with_maximizers(hub, center):
    """A maximizer center is re-solved at its own event points, and a
    maximizer hub together with the centers it has actions into."""
    for centers, spokes in [(2, 3), (3, 4), (4, 5)]:
        for seed in range(6):
            assert_same_sweep(nested_fan(centers, spokes, seed, hub, center))


def test_coinciding_lines():
    for seed in range(60):
        assert_same_sweep(coinciding_fan(seed))


@pytest.mark.parametrize("k", [2, 5, 12])
def test_infinite_states_upstream_of_events(k):
    assert_same_sweep(fan_with_infinite_states(k))


def test_nested_fans_keep_the_hub_choice_where_a_center_rate_changes():
    """The nested fans above exercise what plain fans do not: a step at
    which the hub keeps its choice while one of its destinations changes
    rate, so that only the rate change marks the hub for a rescan."""

    def hub_kept(g):
        sol = solve_sptg(g)
        dests = {a.dest for a in g.actions if a.source == 0}
        breaks = {b for d in dests for b in sol.values[d].interior_breaks()}
        cells = _cells(sol.strategy)
        return any(
            hi in breaks and left[0] == right[0]
            for (_, hi, left), (_, _, right) in zip(cells, cells[1:])
        )

    assert any(hub_kept(nested_fan(3, 4, seed)) for seed in range(6))


@pytest.mark.parametrize("n", range(2, 7))
def test_random_with_infinite_costs(n):
    """Random games, every other one with infinite costs: the repair at 1
    leaves each infinite-valued state on the choice a full scan gives
    it, its first action that attains infinity."""
    for seed in range(150):
        assert_same_sweep(generate_random("sptg", n, 3, seed, allow_inf=seed % 2 == 0))


@pytest.mark.parametrize("k", [*range(1, 25), 32, 40])
def test_fans(k):
    assert_same_sweep(fan(k))


def test_random_event_rich():
    events = 0
    for seed in range(200):
        g = random_event_rich(seed)
        assert_same_sweep(g)
        events += solve_sptg(g).stats.event_points
    assert events >= 200


def test_sweep_functions_are_canonical():
    """``solve_sptg`` builds its value functions straight from the
    sweep's segments, with no merging pass, so each must already be the
    canonical function of its own segments: on fans, on event-rich games
    and on random games with infinite costs (the metamorphic SPTG
    pool)."""
    games = [fan(k) for k in range(8, 41)]
    games += [random_event_rich(seed) for seed in range(200)]
    games += [
        generate_random("sptg", n, 3, seed, allow_inf=seed % 2 == 0)
        for n in range(1, 6)
        for seed in range(60)
    ]
    kinked = infinite = 0
    for g in games:
        for f in solve_sptg(g).values:
            assert f == PwlFn.from_segments(list(f.segments())), g
            kinked += len(f.seg_vals) > 1
            infinite += f.is_constant_inf()
    assert kinked >= 500 and infinite >= 100


def exits_tied_at_one(seed):
    """States of both owners whose terminal exits tie, at 1, routes
    through a rate-0 state, through a relay to it and through a
    maximizer of rate 2; each also has an exit worse than the tie.  The
    repair at 1 offers a tied state no exit but its untimed choice, so
    that choice must already beat the others.  Rates, routes and the
    action order are random."""
    rng = random.Random(seed)
    # 0: the rate-0 state, 1: the relay to it, 2: the rate-2 maximizer
    owners, rates = [rng.choice((1, 2)), rng.choice((1, 2)), 2], [F0, F0, Fr(2)]
    actions = [PAction(0, None, F1), PAction(1, 0, F0), PAction(2, None, F1)]
    for owner in (1, 2, 1, 2):
        k = len(owners)
        owners.append(owner)
        rates.append(Fr(rng.randint(0, 3)))
        actions += [PAction(k, None, Fr(2)) for _ in range(rng.randint(1, 3))]
        actions.append(PAction(k, None, Fr(3) if owner == 1 else F1))
        actions += [PAction(k, d, F1) for d in rng.sample(range(3), rng.randint(0, 3))]
    rng.shuffle(actions)
    return Sptg(tuple(owners), tuple(rates), tuple(actions))


def test_exits_tied_at_one():
    for seed in range(40):
        assert_same_sweep(exits_tied_at_one(seed))


def count_crossing_work(monkeypatch):
    """Record the state of every linear crossing scan, and the actions
    of every envelope built, in the lists returned."""
    scanned, built = [], []
    crossing, envelope = sptg_module._crossing, sptg_module._Envelope

    def counted_crossing(sptg, pieces, k, x_hi):
        best = crossing(sptg, pieces, k, x_hi)
        if pieces.envelopes[k] is False:  # what a linear scan leaves
            scanned.append(k)
        return best

    class CountedEnvelope(envelope):
        __slots__ = ()

        def __init__(self, maximizer, lines):
            built.append(sorted(j for j, _ in lines))
            super().__init__(maximizer, lines)

    monkeypatch.setattr(sptg_module, "_crossing", counted_crossing)
    monkeypatch.setattr(sptg_module, "_Envelope", CountedEnvelope)
    return scanned, built


def test_fan_steps_re_solve_only_the_hub(monkeypatch):
    """The plain sweep of fan(40) builds no snapshot game and scans
    only the untimed game in full: the step at 1 repairs every state,
    and each later step re-solves the hub alone, the one state whose
    certificate fixed the event point.  The hub's lines stay put after
    1, so it scans them linearly once, after they move at 1, and then
    answers every later crossing query from one envelope."""
    builds, scans, settled = [], [], []
    build, scan, settle = (
        sptg_module.build_eps_game,
        sptg_module.extended_dijkstra,
        sptg_module._settle,
    )

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    def watched_settle(game, offers, pending, vals, profile):
        settled.append([k for k, v in enumerate(vals) if v is None])
        settle(game, offers, pending, vals, profile)

    monkeypatch.setattr(sptg_module, "build_eps_game", counted_build)
    monkeypatch.setattr(sptg_module, "extended_dijkstra", lambda g: scans.append(g) or scan(g))
    monkeypatch.setattr(sptg_module, "_settle", watched_settle)
    scanned, built = count_crossing_work(monkeypatch)
    g = fan(40)
    sol = solve_sptg(g)
    assert sol.stats.sweep_steps == 40
    assert builds == [] and len(scans) == 1
    assert settled == [list(range(41))] + [[0]] * 39
    assert built == [list(g.state_actions[0])]
    assert scanned.count(0) == 1


def fan_with_bystanders(k, b):
    """fan(k) plus b rate-1 minimizer bystanders, each with a free exit
    and an action of cost 100 into the hub."""
    g = fan(k)
    owners, rates, actions = list(g.owners), list(g.rates), list(g.actions)
    for s in range(k + 1, k + 1 + b):
        owners.append(1)
        rates.append(F1)
        actions += [PAction(s, None, F0), PAction(s, 0, Fr(100))]
    return Sptg(tuple(owners), tuple(rates), tuple(actions))


@pytest.mark.parametrize("k, b", [(20, 5), (80, 250)])
def test_fan_repairs_skip_the_bystanders(monkeypatch, k, b):
    """A state joins a repair only through its chosen action or one
    coinciding with it.  The bystanders exit freely, so after the step
    at 1, which repairs every state, each step repairs the hub alone:
    2k + b repairs in all, where any action into the hub would count
    every bystander at every step."""
    if k < 40:  # the full-rescan reference is slow on larger games
        assert_same_sweep(fan_with_bystanders(k, b))
    sizes, repair = [], sptg_module._repair

    def counted_repair(*args):
        repaired, picked = repair(*args)
        sizes.append(len(repaired))
        return repaired, picked

    monkeypatch.setattr(sptg_module, "_repair", counted_repair)
    sol = solve_sptg(fan_with_bystanders(k, b))
    assert sol.stats.sweep_steps == k
    assert sizes == [k + 1 + b] + [1] * (k - 1)
    assert sum(sizes) == 2 * k + b


def fans(f, k=40):
    """f disjoint copies of fan(k); copy i's exit costs are multiplied
    by 1 + i/(7f), so that the copies' event points differ."""
    owners, rates, actions = [], [], []
    for i in range(f):
        g, base, scale = fan(k), len(owners), 1 + Fr(i, 7 * f)
        owners += g.owners
        rates += g.rates
        actions += [
            PAction(a.source + base, None if a.dest is None else a.dest + base, a.cost * scale)
            for a in g.actions
        ]
    return Sptg(tuple(owners), tuple(rates), tuple(actions))


def test_profile_grows_with_choice_changes():
    """The strategy holds each state's runs and its choice at 1, so it
    grows with the choice changes, not with states times sweep steps:
    on 10 copies of fan(40), 775 runs and 410 point choices, against
    147,600 entries for one choice per state per step."""
    g = fans(10)
    sol = solve_sptg(g)
    n, steps, events = g.num_states, sol.stats.sweep_steps, sol.stats.event_points
    assert (n, events, steps) == (410, 358, 359)
    entries = sum(map(len, sol.strategy.runs)) + len(sol.strategy.at_hi)
    assert entries <= 2 * (n + events) < n * steps


def test_one_step_sweeps_build_no_envelope(monkeypatch):
    """A sweep of one step scans each state once, after the repair at 1,
    and never again: an envelope would not pay."""
    scanned, built = count_crossing_work(monkeypatch)
    actions = [PAction(k, d, F0) for k in range(3) for d in (None, *range(3)) if d != k]
    g = Sptg((1, 2, 1), (F1, F1, F1), tuple(actions))
    assert solve_sptg(g).stats.sweep_steps == 1
    assert built == [] and sorted(scanned) == [0, 1, 2]


def crossing_both_ways(owner, lines, chosen, c, s, x_hi):
    """``(best, coinciding, crossing)`` of one state's crossing query over
    the action lines ``lines`` (None for an infinite one), by the scan
    and from the envelope; ``(c, s)`` is the chosen line, and ``chosen``
    is ``len(lines)`` for the waiting exit, which is always scanned."""
    g = Sptg((owner,), (F0,), tuple(PAction(0, None, F0) for _ in lines))
    v1, profile = solve_at_time_one(g)
    pieces = sptg_module._Pieces(g, v1, profile)
    pieces.lines[:] = lines
    pieces.c[0], pieces.rate[0], pieces.choice[0] = c, s, chosen
    results = []
    for envelope in (None, False):
        pieces.envelopes[0] = envelope
        best = sptg_module._crossing(g, pieces, 0, x_hi)
        coinciding, crossing = pieces.tight[0]
        results.append((best, set(coinciding), set(crossing)))
    if chosen < len(lines):
        assert isinstance(pieces.envelopes[0], sptg_module._Envelope)
    else:
        assert pieces.envelopes[0] is False
    return results


def pieces_by_hand(n, exits=1, lo=Fr(1, 8)):
    """``(game, pieces)``: n minimizers with ``exits`` free exits each on
    [lo, 1], state k's i-th as action ``i*n + k``, and their sweep pieces
    as the untimed solve leaves them: each state chooses its first."""
    actions = tuple(PAction(k, None, F0) for _ in range(exits) for k in range(n))
    g = Sptg((1,) * n, (F0,) * n, actions, lo, F1)
    v1, profile = solve_at_time_one(g)
    return g, sptg_module._Pieces(g, v1, profile)


def test_next_event_point_takes_each_event_state_once():
    """The query that finds x also takes every state whose certificate
    is x off the heap, once however often it is listed, skips the
    outdated entries, and leaves the lower certificates."""
    g, pieces = pieces_by_hand(4)
    half, quarter = Fr(1, 2), Fr(1, 4)
    pieces.certs[:] = [half, half, quarter, half]
    # state 0 twice; state 2's entry at 3/4 and state 3's at 1/4 outdated
    entries = [
        (half, 0), (half, 0), (half, 1), (Fr(3, 4), 2), (quarter, 2), (quarter, 3), (half, 3)
    ]
    pieces.heap[:] = sorted((-x, k) for x, k in entries)
    assert sptg_module.next_event_point(g, pieces, (), F1) == (half, {0, 1, 3})
    assert pieces.heap == [(-quarter, 2), (-quarter, 3)]
    assert sptg_module.next_event_point(g, pieces, (), half) == (quarter, {2})
    assert sptg_module.next_event_point(g, pieces, (), quarter) == (g.lo, set())
    assert pieces.heap == []


def test_next_event_point_rescans_the_dirty_states():
    """States 0 and 1 choose the line 2 - 2t, which their other exit's
    line 1 crosses at 1/2; state 2's line 3 - 2t meets it at 1 only, so
    its certificate is the domain's lo and it stays off the heap.  The
    entries from before the rescan are all outdated."""
    g, pieces = pieces_by_hand(3, exits=2)
    pieces.certs[:] = [Fr(3, 4)] * 3
    pieces.heap[:] = [(-Fr(3, 4), k) for k in range(3)]
    pieces.c[:], pieces.rate[:] = [Fr(2), Fr(2), Fr(3)], [Fr(2)] * 3
    pieces.lines[:] = [(c, Fr(2)) for c in pieces.c] + [(F1, F0)] * 3
    assert sptg_module.next_event_point(g, pieces, {0, 1, 2}, F1) == (Fr(1, 2), {0, 1})
    assert pieces.certs == [Fr(1, 2), Fr(1, 2), g.lo] and pieces.heap == []
    assert sptg_module.next_event_point(g, pieces, (), Fr(1, 2)) == (g.lo, set())


def random_crossing_case(rng):
    """A minimizer's action lines and chosen line that it prefers at
    ``x_hi``: lines through points of the chosen line (at 0, at
    ``x_hi`` and inside), several through one point, duplicates,
    parallels, random lines and infinite ones.  Returns ``(lines,
    chosen, c, s, x_hi)``."""
    x_hi = rng.choice((F1, Fr(rng.randint(1, 7), 8)))
    s = Fr(rng.randint(0, 8), rng.choice((1, 2)))
    w_hi = Fr(rng.randint(0, 16), rng.choice((1, 2, 4)))
    c = w_hi + s * x_hi
    points = [F0, x_hi] + [Fr(rng.randint(1, 15), 16) * x_hi for _ in range(2)]
    lines = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.randrange(5)
        slope = Fr(rng.randint(0, 9), rng.choice((1, 2, 3)))
        if kind <= 1:  # through a point of the chosen line, often a shared one
            t0 = rng.choice(points)
            lines.append((c - s * t0 + slope * t0, slope))
        elif kind == 2 and lines:
            lines.append(rng.choice(lines))
        elif kind == 3 and lines:
            cj, sj = rng.choice(lines)
            lines.append((cj + Fr(rng.randint(1, 4), 2), sj))
        else:
            lines.append((Fr(rng.randint(0, 40), 2), slope))
    # the minimizer prefers the chosen line at x_hi: drop the lines it
    # does not beat there, lexicographically by value, then slope
    lines = [line for line in lines if (line[0] - line[1] * x_hi, line[1]) >= (w_hi, s)]
    for _ in range(rng.randint(0 if lines else 1, 2)):
        lines.insert(rng.randint(0, len(lines)), None)
    if rng.random() < 0.6:
        chosen = rng.randrange(len(lines) + 1)
        lines.insert(chosen, (c, s))
        if rng.random() < 0.3:
            lines.append((c, s))
    else:
        chosen = len(lines)  # waiting, off the envelope unless it coincides
    return lines, chosen, c, s, x_hi


@pytest.mark.parametrize("owner", [1, 2])
def test_envelope_answers_as_the_scan(owner):
    """Maximizer cases mirror the minimizer's through ``(K - C, R - S)``,
    which reverses the owner's order of lines and keeps every crossing."""
    rng = random.Random(owner)
    seen = {"concurrent": 0, "waiting_below": 0, "at_zero": 0, "coinciding": 0}
    for _ in range(3000):
        lines, chosen, c, s, x_hi = random_crossing_case(rng)
        if owner == 2:
            lines = [None if line is None else (40 - line[0], 10 - line[1]) for line in lines]
            c, s = 40 - c, 10 - s
        scan, envelope = crossing_both_ways(owner, lines, chosen, c, s, x_hi)
        assert envelope == scan, (lines, chosen, c, s, x_hi)
        best, coinciding, crossing = scan
        seen["concurrent"] += len({lines[j] for j in crossing}) >= 3
        seen["waiting_below"] += chosen == len(lines) and not coinciding and best > 0
        seen["coinciding"] += bool(coinciding)
        seen["at_zero"] += any(
            line is not None and line[1] != s and line[0] - line[1] * F0 == c for line in lines
        )
    assert min(seen.values()) >= 20, seen


def fan_with_waiting_state(k=12):
    """fan(k) plus a maximizer of rate 2 that waits from 1 down to 3/5,
    across several of the hub's event points, then moves to private
    waiting spokes of rates 3, 4 and 5 in turn; the lines of its actions
    stay put after 1."""
    g = fan(k)
    w = k + 1
    owners, rates, actions = list(g.owners), list(g.rates), list(g.actions)
    owners.append(2)
    rates.append(Fr(2))
    actions.append(PAction(w, None, Fr(2)))
    for rate, exit_cost in ((3, Fr(8, 5)), (4, Fr(21, 20)), (5, Fr(7, 20))):
        spoke = len(owners)
        owners.append(2)
        rates.append(Fr(rate))
        actions += [PAction(w, spoke, F0), PAction(spoke, None, exit_cost)]
    return Sptg(tuple(owners), tuple(rates), tuple(actions))


def test_state_waits_across_steps_while_its_lines_stay_put():
    g = fan_with_waiting_state()
    assert_same_sweep(g)
    w = 13
    cells = _cells(solve_sptg(g).strategy)[:-1]
    waiting = [lo for lo, _, choices in cells if choices[w] is WAIT]
    assert min(waiting) == Fr(3, 5) and len(waiting) >= 3
    to_spoke = [j for j, a in enumerate(g.actions) if a.source == w and a.dest is not None]
    taken = [choices[w] for _, _, choices in cells]
    assert sorted(set(taken), key=taken.index) == [*reversed(to_spoke), WAIT]


def hub_with_concurrent_lines():
    """A minimizer hub over waiting maximizer spokes whose lines are
    ``C - S*t`` for (C, S) = (11, 10), (39/5, 6), (34/5, 4), (63/10, 3)
    and (29/5, 2).  The hub takes the first, then the second from 4/5;
    the last three all meet it at 1/2, where the spoke of rate 2 moves
    to a spoke of rate 5.  That spoke is then in the repaired set, and
    the hub's best choice there is the line of slope 3, which touches
    the envelope of its lines at that one point."""
    spokes = ((10, Fr(1)), (6, Fr(9, 5)), (4, Fr(14, 5)), (3, Fr(33, 10)), (2, Fr(19, 5)))
    owners, rates, actions = [1], [Fr(11)], []
    for rate, exit_cost in spokes:
        spoke = len(owners)
        owners.append(2)
        rates.append(Fr(rate))
        actions += [PAction(0, spoke, F0), PAction(spoke, None, exit_cost)]
    owners.append(2)
    rates.append(Fr(5))
    actions += [PAction(5, 6, F0), PAction(6, None, Fr(23, 10))]
    return Sptg(tuple(owners), tuple(rates), tuple(actions))


def test_concurrent_lines_at_an_event_point_with_a_repaired_destination(monkeypatch):
    g = hub_with_concurrent_lines()
    assert_same_sweep(g)
    settled = []
    settle = sptg_module._settle

    def watched_settle(game, offers, pending, vals, profile):
        settled.append({k for k, v in enumerate(vals) if v is None})
        settle(game, offers, pending, vals, profile)

    monkeypatch.setattr(sptg_module, "_settle", watched_settle)
    cells = _cells(solve_sptg(g).strategy)
    assert [lo for lo, _, _ in cells] == [F0, Fr(1, 2), Fr(4, 5), F1]
    assert settled[-1] == {0, 5}
    to_spoke = {a.dest: j for j, a in enumerate(g.actions) if a.source == 0}
    assert [choices[0] for _, _, choices in cells] == [to_spoke[4], to_spoke[2], *[to_spoke[1]] * 2]
