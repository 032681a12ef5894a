import heapq
import math
import random
from fractions import Fraction as Fr
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptgsolve import priced_game, sptg
from ptgsolve.fixtures import fixture_a
from ptgsolve.numerics import F0, INF, is_inf
from ptgsolve.oracle import generate_random
from ptgsolve.priced_game import (
    INFINITE,
    PAction,
    PotentialMatrix,
    PricedGame,
    Valuation,
    evaluate_profile,
    extended_dijkstra,
    improving_switches,
    potential_less,
    potential_matrix,
    rate_ladder_of,
    single_switch_iteration,
    strategy_iteration,
)


def game(owners, *actions):
    return PricedGame(tuple(owners), tuple(PAction(*a) for a in actions))


class TestValidation:
    def test_empty_action_set_rejected(self):
        with pytest.raises(ValueError):
            game([1, 1], (0, None, Fr(1)))

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            game([1], (0, None, Fr(-1)))

    def test_bad_destination_rejected(self):
        with pytest.raises(ValueError):
            game([1], (0, 5, Fr(1)))


class TestValuation:
    """Snapshot costs: a payoff plus an infinitesimal rate, which is the
    ``wait_rate`` of the exit a play ends in (see ``Valuation``)."""

    def test_lexicographic_order(self):
        assert Valuation(Fr(1), Fr(1), 1) < Valuation(Fr(1), Fr(2), 1)
        assert Valuation(Fr(1), Fr(99), 1) < Valuation(Fr(2), F0, 1)
        assert Valuation(Fr(2), F0, 1) > Valuation(Fr(1), Fr(99), 1)
        assert Valuation(Fr(1), Fr(1), 9) < Valuation(Fr(1), Fr(2), 1)

    def test_componentwise_add(self):
        # a move of cost 1 into a wait exit of cost 3 and rate 4
        g = PricedGame((1, 1), (PAction(0, 1, Fr(1)), PAction(1, None, Fr(3), Fr(4))))
        assert evaluate_profile(g, (0, 1)) == [
            Valuation(Fr(4), Fr(4), 2),
            Valuation(Fr(3), Fr(4), 1),
        ]

    def test_infinity_absorbs(self):
        g = PricedGame((1, 1), (PAction(0, 1, INF), PAction(1, None, Fr(3), Fr(4))))
        assert evaluate_profile(g, (0, 1))[0] == INFINITE
        g = PricedGame((1, 1), (PAction(0, 1, Fr(1)), PAction(1, None, INF)))
        assert evaluate_profile(g, (0, 1)) == [INFINITE, INFINITE]

    def test_eps_normalised_at_infinity(self):
        assert INFINITE == Valuation(INF, F0, INF)
        # an infinite wait exit and a cycle both lose their rate
        g = PricedGame((1, 2), (PAction(0, None, INF, Fr(5)), PAction(1, 1, F0)))
        assert evaluate_profile(g, (0, 1)) == [INFINITE, INFINITE]

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.just(INF), st.fractions(min_value=0, max_denominator=20)),
                st.fractions(min_value=0, max_denominator=20),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=2,
            max_size=8,
        )
    )
    def test_total_order_sorting(self, triples):
        xs = [INFINITE if is_inf(p) else Valuation(p, r, h) for p, r, h in triples]
        ordered = sorted(xs)
        for a, b in zip(ordered, ordered[1:]):
            assert a <= b
            assert not b < a


class TestEvaluateProfile:
    def test_single_exit(self):
        g = game([1], (0, None, Fr(5)))
        vals = evaluate_profile(g, (0,))
        assert vals[0] == Valuation(Fr(5), Fr(0), 1)

    def test_self_loop_is_infinite(self):
        g = game([2], (0, 0, Fr(0)), (0, None, Fr(1)))
        vals = evaluate_profile(g, (0,))
        assert is_inf(vals[0].payoff) and is_inf(vals[0].hops)

    def test_chain_sums(self):
        g = game([1, 1], (0, 1, Fr(1)), (1, None, Fr(2)))
        vals = evaluate_profile(g, (0, 1))
        assert vals[0] == Valuation(Fr(3), Fr(0), 2)
        assert vals[1] == Valuation(Fr(2), Fr(0), 1)

    def test_waiting_rate_tracks_last_wait(self):
        g = PricedGame(
            (1, 2),
            (
                PAction(0, 1, Fr(1)),
                PAction(1, None, Fr(0), wait_rate=Fr(3)),
            ),
        )
        vals = evaluate_profile(g, (0, 1))
        assert vals[0].rate == Fr(3) and vals[1].rate == Fr(3)
        assert vals[0] == Valuation(Fr(1), Fr(3), 2)

    def test_foreign_action_rejected(self):
        # state 0 of fixture A owns actions 0 and 1 only
        with pytest.raises(ValueError, match="^profile picks a foreign action at state 0$"):
            evaluate_profile(fixture_a().game, (2, 2, 3))

    def test_infinite_payoff_iff_infinite_hops(self):
        for seed in range(40):
            g = generate_random("priced", 3, 3, seed, allow_inf=True)
            profile = tuple(js[0] for js in g.state_actions)
            for v in evaluate_profile(g, profile):
                assert is_inf(v.payoff) == is_inf(v.hops)


class TestImprovingSwitches:
    def test_free_self_loop_improves_for_maximizer(self):
        # one-step lookahead sees equal payoff but more hops, so the switch
        # improves only on path length; iterating from it still drives the
        # value to infinity
        g = game([2], (0, None, Fr(0)), (0, 0, Fr(0)))
        assert improving_switches(g, (0,), 2) == [1]
        values, _, _ = strategy_iteration(g, (0,))
        assert is_inf(values[0])

    def test_optimal_profile_has_none(self):
        g = game([1, 2], (0, 1, Fr(0)), (0, None, Fr(3)), (1, None, Fr(1)))
        _, profile = extended_dijkstra(g)
        assert improving_switches(g, profile, 1) == []
        assert improving_switches(g, profile, 2) == []

    def test_cheaper_exit_strongly_improves_for_minimizer(self):
        g = game([1], (0, None, Fr(3)), (0, None, Fr(1)))
        assert improving_switches(g, (0,), 1) == [1]


class TestExtendedDijkstra:
    def test_forced_exit(self):
        g = game([1], (0, None, Fr(5)))
        values, profile = extended_dijkstra(g)
        assert values == [Fr(5)] and profile == (0,)

    def test_maximizer_keeps_expensive_exit(self):
        g = game([2], (0, None, Fr(2)), (0, None, Fr(7)))
        values, profile = extended_dijkstra(g)
        assert values == [Fr(7)] and profile == (1,)

    def test_unreached_states_are_infinite(self):
        g = game([1, 1], (0, 1, Fr(0)), (1, 0, Fr(0)))
        values, _ = extended_dijkstra(g)
        assert all(is_inf(v) for v in values)

    def test_deterministic_tie_break(self):
        g = game([1], (0, None, Fr(1)), (0, None, Fr(1)))
        for _ in range(3):
            _, profile = extended_dijkstra(g)
            assert profile == (0,)

    def test_minimizer_prefers_the_shorter_of_equal_routes(self):
        # state 1 reaches payoff 1 through state 0 (action 1, two hops) or
        # by its own exit (action 2, one hop)
        g = game([1, 1], (0, None, Fr(1)), (1, 0, Fr(0)), (1, None, Fr(1)))
        values, profile = extended_dijkstra(g)
        assert values == [Fr(1), Fr(1)] and profile == (0, 2)
        assert evaluate_profile(g, profile)[1] == Valuation(Fr(1), Fr(0), 1)

    def test_maximizer_prefers_the_longer_of_equal_routes(self):
        g = game([1, 2], (0, None, Fr(1)), (1, None, Fr(1)), (1, 0, Fr(0)))
        values, profile = extended_dijkstra(g)
        assert values == [Fr(1), Fr(1)] and profile == (0, 2)
        assert evaluate_profile(g, profile)[1] == Valuation(Fr(1), Fr(0), 2)

    def test_equal_valuations_resolve_to_the_lowest_id(self):
        # state 1's actions lead through states 2 and 0 to equal exits;
        # state 0 settles first, but action 1 attains the same valuation
        g = game(
            [1, 1, 1],
            (0, None, Fr(1)),
            (1, 2, Fr(0)),
            (1, 0, Fr(0)),
            (2, None, Fr(1)),
        )
        _, profile = extended_dijkstra(g)
        assert profile == (0, 1, 3)

    def test_profile_attains_values(self):
        for seed in range(60):
            g = generate_random("priced", 4, 3, seed, allow_inf=(seed % 2 == 0))
            values, profile = extended_dijkstra(g)
            vals = evaluate_profile(g, profile)
            for k in range(4):
                assert vals[k].payoff == values[k] or (
                    is_inf(vals[k].payoff) and is_inf(values[k])
                )


class TestStrategyIteration:
    def test_fixed_point_start(self):
        g = game([1, 2], (0, 1, Fr(0)), (0, None, Fr(3)), (1, None, Fr(1)))
        values, profile = extended_dijkstra(g)
        values2, profile2, switches = strategy_iteration(g, profile)
        assert values2 == values
        assert profile2 == profile and switches == 0

    def test_matches_dijkstra_on_randoms(self):
        for seed in range(80):
            g = generate_random("priced", 3, 3, seed, allow_inf=(seed % 3 == 0))
            dv, _ = extended_dijkstra(g)
            start = tuple(js[0] for js in g.state_actions)
            sv, prof, _ = strategy_iteration(g, start)
            assert sv == dv, (seed, sv, dv)
            assert improving_switches(g, prof, 1) == []
            assert improving_switches(g, prof, 2) == []

    def test_minimizer_escapes_own_cycle(self):
        g = game([1, 1], (0, 1, Fr(1)), (1, 0, Fr(0)), (1, None, Fr(2)))
        values, _ = extended_dijkstra(g)
        assert values == [Fr(3), Fr(2)]
        sv, _, _ = strategy_iteration(g, (0, 1))
        assert sv == [Fr(3), Fr(2)]

    def test_maximizer_cycle_is_infinite(self):
        g = game([1, 2], (0, 1, Fr(1)), (1, 0, Fr(0)), (1, None, Fr(2)))
        values, _ = extended_dijkstra(g)
        assert all(is_inf(v) for v in values)

    def test_infinite_minimizer_takes_its_first_infinite_action(self):
        # the exit of infinite cost does not settle state 0: like every
        # infinite-valued state, it takes its first action attaining
        # infinity, here the move to the maximizer's self-loop
        g = game([1, 2], (0, 1, Fr(0)), (0, None, INF), (1, 1, Fr(0)))
        values, profile = extended_dijkstra(g)
        assert all(is_inf(v) for v in values)
        assert profile == (0, 2)


class TestSingleSwitchIteration:
    def test_hook_fires_on_nonoptimal_start(self):
        g = game([1], (0, None, Fr(3)), (0, None, Fr(1)))
        events = []
        single_switch_iteration(g, (0,), lambda *a: events.append(a))
        assert len(events) >= 1

    def test_switch_count_within_profile_bound(self):
        for seed in range(60):
            g = generate_random("priced", 3, 3, seed)
            start = tuple(js[0] for js in g.state_actions)
            _, _, switches = single_switch_iteration(g, start)
            assert switches <= g.profile_bound(), seed

    def test_one_state_bound(self):
        g = game([1], (0, None, Fr(4)), (0, None, Fr(2)), (0, None, Fr(1)))
        _, _, switches = single_switch_iteration(g, (0,))
        assert switches <= 3

    def test_agrees_with_dijkstra(self):
        for seed in range(40):
            g = generate_random("priced", 3, 3, seed, allow_inf=(seed % 2 == 1))
            dv, _ = extended_dijkstra(g)
            start = tuple(js[0] for js in g.state_actions)
            sv, _, _ = single_switch_iteration(g, start)
            assert sv == dv

    def test_one_evaluation_per_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            priced_game, "evaluate_profile", lambda g, p: calls.append(p) or evaluate_profile(g, p)
        )
        switched = 0
        for seed in range(40):
            g = generate_random("priced", 4, 3, seed, allow_inf=(seed % 2 == 1))
            start = tuple(js[0] for js in g.state_actions)
            # the switches of the public improving_switches, one at a time
            want, p = [], start
            while sw := improving_switches(g, p, 2) or improving_switches(g, p, 1):
                j = min(sw)
                k = g.actions[j].source
                want.append((p, j, p[:k] + (j,) + p[k + 1 :]))
                p = want[-1][2]
            seen = []
            calls.clear()
            hook = lambda game, before, j, after: seen.append((before, j, after))
            _, prof, switches = single_switch_iteration(g, start, hook)
            assert seen == want and switches == len(want) and prof == p, seed
            assert len(calls) == switches + 1, seed
            switched += switches
        assert switched > 0

    def test_untimed_solve_evaluates_the_final_profile_once(self, monkeypatch):
        calls = []
        counted = lambda g, p: calls.append(p) or evaluate_profile(g, p)
        monkeypatch.setattr(priced_game, "evaluate_profile", counted)
        for seed in range(40):
            g = generate_random("priced", 4, 3, seed, allow_inf=(seed % 2 == 1))
            calls.clear()
            start = tuple(js[0] for js in g.state_actions)
            payoffs, profile, _ = single_switch_iteration(g, start)
            assert calls.count(profile) == 1, seed
            assert payoffs == [v.payoff for v in evaluate_profile(g, profile)], seed
            # the scan's payoffs are read off the scan
            calls.clear()
            payoffs, profile = extended_dijkstra(g)
            assert calls == [], seed
            assert payoffs == [v.payoff for v in evaluate_profile(g, profile)], seed


class TestImprovingSetMonotonicity:
    def test_minimizer_sets_never_hurt(self):
        # applying a one-per-state improving set for the minimizer never
        # increases any valuation and strictly improves switched states
        for seed in range(80):
            g = generate_random("priced", 4, 3, seed)
            profile = tuple(js[0] for js in g.state_actions)
            sw = improving_switches(g, profile, 1)
            if not sw:
                continue
            picked = {}
            for j in sw:
                picked.setdefault(g.actions[j].source, j)
            after = tuple(picked.get(k, j) for k, j in enumerate(profile))
            before_v = evaluate_profile(g, profile)
            after_v = evaluate_profile(g, after)
            for k in range(g.num_states):
                assert not before_v[k] < after_v[k], (seed, k)
                if k in picked:
                    assert after_v[k] < before_v[k], (seed, k)


def _through(g, j, vals):
    """Valuation of taking action ``j``, then following ``vals``."""
    a = g.actions[j]
    if is_inf(a.cost):
        return INFINITE
    if a.dest is None:
        return Valuation(a.cost, a.wait_rate, 1)
    nxt = vals[a.dest]
    return INFINITE if is_inf(nxt.hops) else Valuation(a.cost + nxt.payoff, nxt.rate, nxt.hops + 1)


def assert_canonical(g, why):
    """The extended Dijkstra scan leaves no improving switch, reports its
    profile's payoffs, and picks the lowest-id optimal action at every
    state: an infinite-valued one takes its first action that attains
    infinity."""
    payoffs, profile = extended_dijkstra(g)
    vals = evaluate_profile(g, profile)
    assert payoffs == [v.payoff for v in vals], why
    assert improving_switches(g, profile, 1) == [], why
    assert improving_switches(g, profile, 2) == [], why
    for k, v in enumerate(vals):
        attaining = [j for j in g.state_actions[k] if _through(g, j, vals) == v]
        assert profile[k] == min(attaining), (why, k)


class TestCanonicalProfile:
    def test_every_small_two_state_game(self):
        outcomes = list(product((None, 0, 1), (Fr(0), Fr(1), INF)))
        per_state = [(o,) for o in outcomes] + list(product(outcomes, repeat=2))
        count = 0
        for owners in product((1, 2), repeat=2):
            for acts0, acts1 in product(per_state, repeat=2):
                actions = [(0, d, c) for d, c in acts0] + [(1, d, c) for d, c in acts1]
                assert_canonical(game(owners, *actions), (owners, actions))
                count += 1
        assert count == 32_400

    def test_random_priced_games(self):
        # free games tie every payoff, so path lengths decide
        variants = ({}, {"allow_inf": True}, {"rate_one_cost_zero": True})
        for n in range(3, 9):
            for seed in range(20):
                for kw in variants:
                    assert_canonical(generate_random("priced", n, 3, seed, **kw), (n, seed, kw))

    def test_sweep_snapshot_games(self):
        # each interval cell [lo, hi) was chosen in the snapshot game
        # whose waits cost the values at hi
        games = []
        for n in range(2, 6):
            for seed in range(50):
                g = generate_random("sptg", n, 3, seed, allow_inf=seed % 2 == 0)
                sol = sptg.solve_sptg(g)
                for hi in sol.strategy.clocks[1:]:
                    games.append(sptg.build_eps_game(g, [f.eval(hi) for f in sol.values]))
        assert len(games) > 200
        for i, g in enumerate(games):
            assert_canonical(g, i)


class TestPotential:
    def test_all_maximizer_one_hop(self):
        g = PricedGame(
            (2, 2, 2),
            tuple(PAction(k, None, Fr(0), wait_rate=Fr(1)) for k in range(3)),
        )
        ladder = rate_ladder_of([Fr(1)] * 3)
        p = potential_matrix(g, (0, 1, 2), ladder)
        assert p.rate_ladder == (Fr(0), Fr(1))
        assert p.entries[0] == (0, 3)
        assert all(row == (0, 0) for row in p.entries[1:])

    def test_all_cycles_give_zero_matrix(self):
        g = PricedGame((1, 2), (PAction(0, 1, Fr(0)), PAction(1, 0, Fr(0))))
        p = potential_matrix(g, (0, 1), rate_ladder_of([Fr(0)]))
        assert all(all(e == 0 for e in row) for row in p.entries)

    def test_irreflexive(self):
        p = PotentialMatrix(((0, 1), (2, 3)), (Fr(0), Fr(1)))
        assert not potential_less(p, p)

    def test_last_entry_decides(self):
        p = PotentialMatrix(((0, 1), (2, 3)), (Fr(0), Fr(1)))
        q = PotentialMatrix(((0, 1), (2, 4)), (Fr(0), Fr(1)))
        assert potential_less(p, q)
        assert not potential_less(q, p)

    def test_shape_mismatch_rejected(self):
        p = PotentialMatrix(((0,),), (Fr(0),))
        q = PotentialMatrix(((0, 1),), (Fr(0), Fr(1)))
        with pytest.raises(ValueError):
            potential_less(p, q)

    def test_lower_rate_column_dominates(self):
        p = PotentialMatrix(((0, 9), (0, 9)), (Fr(0), Fr(1)))
        q = PotentialMatrix(((1, -9), (0, -9)), (Fr(0), Fr(1)))
        assert potential_less(p, q)


# -- the integer-keyed scan against the Fraction-keyed one --------------------


def fraction_keyed_settle(game, offers, pending, vals, profile):
    """The scan of ``priced_game._settle`` as it compared payoffs before
    it keyed them by integers: every heap key holds the payoff itself."""
    owners, actions, incoming = game.owners, game.actions, game.incoming
    heap = []
    best_max = {}

    def offer(k, j, payoff, rate, hops):
        if is_inf(payoff):
            return
        if owners[k] == 1:
            heapq.heappush(heap, (payoff, rate, hops, k, j))
            return
        pending[k] -= 1
        best = best_max.get(k)
        if best is None or (payoff, rate, hops, -j) > best:
            best = best_max[k] = (payoff, rate, hops, -j)
        if pending[k] == 0:
            payoff, rate, hops, neg_j = best
            heapq.heappush(heap, (payoff, rate, hops, k, -neg_j))

    for cand in offers:
        offer(*cand)
    while heap:
        val, rate, hops, k, j = heapq.heappop(heap)
        if vals[k] is not None:
            continue
        vals[k] = Valuation(val, rate, hops)
        profile[k] = j
        for pj in incoming[k]:
            a = actions[pj]
            if vals[a.source] is None:
                offer(a.source, pj, a.cost + val, rate, hops + 1)


def fraction_keyed_dijkstra(g):
    """``extended_dijkstra`` on :func:`fraction_keyed_settle`; returns
    every state's full valuation and the profile."""
    n = g.num_states
    vals, profile = [None] * n, [None] * n
    pending = [len(g.state_actions[k]) if g.owners[k] == 2 else -1 for k in range(n)]
    exits = [(a.source, j, a.cost, a.wait_rate, 1) for j, a in enumerate(g.actions) if a.dest is None]
    fraction_keyed_settle(g, exits, pending, vals, profile)
    for k in range(n):
        if vals[k] is not None:
            continue
        vals[k] = INFINITE
        for j in g.state_actions[k]:
            a = g.actions[j]
            if is_inf(a.cost) or (
                a.dest is not None and (vals[a.dest] is None or is_inf(vals[a.dest].payoff))
            ):
                profile[k] = j
                break
    return vals, tuple(profile)


def integer_keyed_dijkstra(g, monkeypatch):
    """``extended_dijkstra``'s payoffs and profile, and the full
    valuations its scan wrote."""
    written = []
    settle = priced_game._settle

    def watched(game, offers, pending, vals, profile):
        written.append(vals)
        settle(game, offers, pending, vals, profile)

    with monkeypatch.context() as m:
        m.setattr(priced_game, "_settle", watched)
        payoffs, profile = extended_dijkstra(g)
    (vals,) = written
    return payoffs, profile, vals


def assert_same_scan(g, monkeypatch, why):
    payoffs, profile, vals = integer_keyed_dijkstra(g, monkeypatch)
    want_vals, want_profile = fraction_keyed_dijkstra(g)
    assert vals == want_vals, why
    assert profile == want_profile, why
    assert payoffs == [v.payoff for v in want_vals], why
    assert all(type(p) is Fr or is_inf(p) for p in payoffs), why
    assert all(type(v.payoff) is Fr or v == INFINITE for v in vals), why
    return profile


def primes_from(start, count):
    found, p = [], start
    while len(found) < count:
        if all(p % d for d in range(2, int(p**0.5) + 1)):
            found.append(p)
        p += 1
    return found


class TestIntegerKeyedScan:
    """``_settle`` keys payoffs by integers over one common denominator;
    it must settle every state as the Fraction-keyed scan did."""

    def test_random_priced_games(self, monkeypatch):
        variants = ({}, {"allow_inf": True}, {"rate_one_cost_zero": True})
        count = 0
        for n in range(2, 10):
            for seed in range(161):
                g = generate_random("priced", n, 3, seed, **variants[seed % 3])
                assert_same_scan(g, monkeypatch, (n, seed))
                count += 1
        assert count == 1288

    def test_equal_payoffs_split_by_rate_then_hops_then_action_id(self, monkeypatch):
        # every option pays 1 at state 0; it differs in the waiting rate
        # of the exit it reaches and in its hop count, or not at all
        options = list(product((Fr(1), Fr(2)), (1, 2, 3)))
        decided = {"rate": 0, "hops": 0, "id": 0}
        for owner in (1, 2):
            for first, second in product(options, repeat=2):
                owners, actions = [owner], []
                for rate, hops in (first, second):
                    if hops == 1:
                        actions.append((0, None, Fr(1), rate))
                        continue
                    head = len(owners)
                    actions.append((0, head, Fr(1, 2)))
                    for k in range(head, head + hops - 1):
                        owners.append(1)
                        last = k == head + hops - 2
                        actions.append((k, None, Fr(1, 2), rate) if last else (k, k + 1, F0))
                g = game(owners, *actions)
                profile = assert_same_scan(g, monkeypatch, (owner, first, second))
                pick = min if owner == 1 else max
                # the lowest id wins a tie of rate and hops
                want = 0 if pick(first, second) == first else g.state_actions[0][1]
                assert profile[0] == want, (owner, first, second)
                level = "rate" if first[0] != second[0] else "hops" if first != second else "id"
                decided[level] += 1
        assert decided == {"rate": 36, "hops": 24, "id": 12}

    def test_infinite_costs(self, monkeypatch):
        for seed in range(200):
            g = generate_random("priced", 2 + seed % 6, 3, seed, allow_inf=True)
            g = PricedGame(
                g.owners,
                tuple(
                    PAction(a.source, a.dest, INF if j % 5 == seed % 5 else a.cost)
                    for j, a in enumerate(g.actions)
                ),
            )
            assert_same_scan(g, monkeypatch, seed)
        # every cost infinite: no state settles, the denominator is 1
        g = game([1, 2], (0, None, INF), (1, 0, INF), (1, None, INF))
        assert g.cost_denominator == 1
        assert assert_same_scan(g, monkeypatch, "all infinite") == (0, 1)

    def test_integer_costs(self, monkeypatch):
        for seed in range(200):
            g = generate_random("priced", 2 + seed % 6, 3, seed, allow_inf=seed % 2 == 0)
            as_int = tuple(
                PAction(a.source, a.dest, a.cost if is_inf(a.cost) else int(a.cost))
                for a in g.actions
            )
            g = PricedGame(g.owners, as_int)
            assert any(type(a.cost) is int for a in g.actions)
            assert_same_scan(g, monkeypatch, seed)

    def test_costs_over_distinct_large_primes(self, monkeypatch):
        n, rng = 50, random.Random(50)
        primes = primes_from(10**6, 3 * n)
        owners = [rng.choice((1, 2)) for _ in range(n)]
        actions = []
        for j, p in enumerate(primes):
            dest = None if rng.random() < 0.3 else rng.randrange(n)
            actions.append((j // 3, dest, Fr(rng.randrange(1, 4 * p), p)))
        g = game(owners, *actions)
        assert g.cost_denominator == math.prod(primes)
        assert_same_scan(g, monkeypatch, "primes")

    def test_sweep(self, monkeypatch):
        def run(g):
            plain, checked = sptg.solve_sptg(g), sptg.solve_sptg(g, instrument=True)
            assert all(
                type(v) is Fr or is_inf(v) for f in plain.values for v in f.point_vals + f.seg_vals
            )
            return plain.values, plain.strategy, plain.stats, checked.stats

        games = [
            generate_random("sptg", 1 + seed % 6, 3, seed, allow_inf=seed % 2 == 0)
            for seed in range(600)
        ]
        got = [run(g) for g in games]
        monkeypatch.setattr(priced_game, "_settle", fraction_keyed_settle)
        monkeypatch.setattr(sptg, "_settle", fraction_keyed_settle)
        for seed, (g, solved) in enumerate(zip(games, got)):
            assert solved == run(g), seed
