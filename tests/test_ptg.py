import importlib.util
import itertools
import sys
from dataclasses import fields
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from ptgsolve import gamedoc, ptg
from ptgsolve.fixtures import delayed_exit_jump, maximizer_reset_loop
from ptgsolve.numerics import F0, F1, INF, PwlFn, is_inf
from ptgsolve.oracle import check_equilibrium, generate_random, simulate_ptg, value_iteration_sptg
from ptgsolve.priced_game import GameError, PAction, extended_dijkstra
from ptgsolve.ptg import (
    Ptg,
    PtgResult,
    PtgStats,
    TAction,
    _assemble,
    _availability,
    _reset_prices,
    _solve_layer,
    _untimed,
    build_interval_sptg,
    build_moment_game,
    solve_ptg,
)
from ptgsolve.sptg import WAIT, solve_sptg

GOLDEN_RESETS = Path(__file__).parent / "golden" / "ptg-resets.json"


def act(source, dest, cost, lo, hi, **kw):
    return TAction(source, dest, Fr(cost), Fr(lo), Fr(hi), **kw)


def simple(*actions, owners=(1,), rates=(1,)):
    return Ptg(tuple(owners), tuple(Fr(r) for r in rates), tuple(actions))


def untimed_at(game, x, reset_values=None):
    """The untimed actions of a step at ladder point or midpoint x."""
    return _untimed(_availability(game)[x], reset_values)


class TestValidation:
    def expect(self, code, *actions, owners=(1,), rates=(1,)):
        with pytest.raises(GameError) as exc:
            simple(*actions, owners=owners, rates=rates)
        assert exc.value.code == code

    def test_state_count(self):
        self.expect("state-count", act(0, None, 0, 0, 1), owners=(1,), rates=(1, 1))

    def test_bad_owner(self):
        self.expect("bad-owner", act(0, None, 0, 0, 1), owners=(3,))

    def test_negative_rate(self):
        self.expect("negative-rate", act(0, None, 0, 0, 1), rates=(-1,))

    def test_dangling_source(self):
        self.expect("dangling-reference", act(5, None, 0, 0, 1), act(0, None, 0, 0, 1))

    def test_dangling_dest(self):
        self.expect("dangling-reference", act(0, 5, 0, 0, 1), act(0, None, 0, 0, 1))

    def test_negative_cost(self):
        self.expect("negative-cost", act(0, None, -1, 0, 1))

    def test_interval_backwards(self):
        self.expect("bad-interval", act(0, None, 0, 1, 0))

    def test_interval_empty_open_point(self):
        self.expect(
            "bad-interval",
            act(0, None, 0, 1, 1, lo_closed=False),
            act(0, None, 0, 0, 1),
        )

    def test_reset_to_terminal(self):
        self.expect("dangling-reference", act(0, None, 0, 0, 1, reset=True))

    def test_no_actions(self):
        self.expect("no-actions")

    def test_degenerate_horizon(self):
        self.expect("degenerate-horizon", act(0, None, 0, 0, 0))

    def test_no_horizon_action(self):
        self.expect(
            "no-horizon-action",
            act(0, None, 0, 0, 1),
            act(1, None, 0, 0, 1, hi_closed=False),
            owners=(1, 1),
            rates=(1, 1),
        )

    def test_no_horizon_action_names_the_first_such_state(self):
        with pytest.raises(GameError) as exc:
            simple(
                act(0, None, 0, 0, 1),
                act(2, None, 0, 0, 1, hi_closed=False),
                act(1, None, 0, 0, 1, hi_closed=False),
                owners=(1, 1, 1),
                rates=(1, 1, 1),
            )
        assert str(exc.value) == "no-horizon-action at states[1]: state 1 has no action at time 1"

    def test_validation_passes_over_the_actions_a_fixed_number_of_times(self):
        """Validating a PTG takes time linear in its size: the passes over
        its actions do not grow with the number of states."""

        class Passes(tuple):
            count = 0

            def __iter__(self):
                self.count += 1
                return super().__iter__()

        n = 200
        actions = Passes(act(k, None, 0, 0, 1) for k in range(n))
        Ptg((1,) * n, (F1,) * n, actions)
        assert actions.count <= 4

    def test_availability_respects_open_ends(self):
        a = act(0, None, 0, 0, 1, lo_closed=False, hi_closed=False)
        assert not a.available_at(F0) and not a.available_at(F1)
        assert a.available_at(Fr(1, 2))


class TestMomentGame:
    def test_filters_by_availability_and_adds_stops(self):
        g = simple(
            act(0, None, 3, 0, 1),
            act(0, None, 7, 1, 1),
        )
        m = build_moment_game(g, [Fr(9)], untimed_at(g, Fr(1, 2)))
        assert [a.cost for a in m.actions] == [Fr(3), Fr(9)]
        assert m.actions[-1] == PAction(0, None, Fr(9))  # the stop
        m1 = build_moment_game(g, [Fr(9)], untimed_at(g, F1))
        assert [a.cost for a in m1.actions] == [Fr(3), Fr(7), Fr(9)]

    def test_top_game_has_no_stops(self):
        g = simple(act(0, None, 3, 0, 1), act(0, None, 7, 1, 1))
        top = build_moment_game(g, None, untimed_at(g, F1))
        assert [a.cost for a in top.actions] == [Fr(3), Fr(7)]


class TestIntervalSptg:
    def game(self):
        return Ptg(
            (1, 2),
            (Fr(2), Fr(3)),
            (
                act(0, 1, 1, 0, 1),
                act(1, None, 0, 1, 1),
                act(1, None, 5, 0, 1),
            ),
        )

    def test_width_one_fields(self):
        g = self.game()
        s = build_interval_sptg(g, (Fr(4), Fr(6)), F0, F1, untimed_at(g, Fr(1, 2)))
        assert (s.lo, s.hi) == (F0, F1)
        # the game's own states, and no other
        assert (s.owners, s.rates) == ((1, 2), (Fr(2), Fr(3)))
        # available actions survive, the point-[1,1] exit does not, and
        # nothing is added: the values at hi are the boundary
        assert s.actions == (PAction(0, 1, F1), PAction(1, None, Fr(5)))
        assert s.boundary == (Fr(4), Fr(6))
        # at hi each state k stops through action m + k, straight to the
        # terminal whatever its owner
        assert s.at_hi.actions == s.actions + (PAction(0, None, Fr(4)), PAction(1, None, Fr(6)))

    def test_rates_are_the_games_own_on_a_narrow_interval(self):
        """On [1/3, 2/3] the game keeps its clock: the rates, the actions
        and the boundary are those of a width-one interval."""
        g = self.game()
        wide = build_interval_sptg(g, (Fr(4), Fr(6)), F0, F1, untimed_at(g, Fr(1, 2)))
        s = build_interval_sptg(g, (Fr(4), Fr(6)), Fr(1, 3), Fr(2, 3), untimed_at(g, Fr(1, 2)))
        assert (s.lo, s.hi) == (Fr(1, 3), Fr(2, 3))
        assert s.rates == g.rates == (Fr(2), Fr(3))
        assert (s.owners, s.rates, s.actions, s.boundary) == (
            wide.owners, wide.rates, wide.actions, wide.boundary
        )
        # so the values are those of the wide game, shifted in the clock
        for narrow, full in zip(solve_sptg(s).values, solve_sptg(wide).values):
            for x in (Fr(1, 3), Fr(1, 2), Fr(2, 3)):
                assert narrow.eval(x) == full.eval(x + Fr(1, 3))

    def test_nonpositive_width_rejected(self):
        g = self.game()
        for lo, hi in [(F0, F0), (F1, Fr(1, 2))]:
            with pytest.raises(GameError) as exc:
                build_interval_sptg(g, [F0, F0], lo, hi, untimed_at(g, Fr(1, 2)))
            assert (exc.value.code, exc.value.where) == ("bad-interval", "domain")

    def test_reset_priced_as_exit(self):
        g = Ptg(
            (1,),
            (F1,),
            (act(0, 0, 2, 0, 1, reset=True), act(0, None, 0, 0, 1)),
        )
        deepest = build_interval_sptg(g, [F0], F0, F1, untimed_at(g, Fr(1, 2))).actions[0]
        assert deepest.source == 0 and deepest.dest is None and deepest.wait_rate == F0
        assert is_inf(deepest.cost)
        priced = build_interval_sptg(g, [F0], F0, F1, untimed_at(g, Fr(1, 2), [Fr(3)])).actions[0]
        assert priced == PAction(0, None, Fr(5))
        res = solve_ptg(maximizer_reset_loop().game)
        assert res.stats.layers == 2
        assert res.values == (PwlFn.constant(F0, F1, INF),)

    def point_exits(self, owner):
        """Exits at 1/4 and 3/4 only, at rate 2: the interval game on
        [1/4, 3/4] has no action, and a boundary of 0 at 3/4."""
        g = simple(act(0, None, 0, Fr(1, 4), Fr(1, 4)), act(0, None, 0, Fr(3, 4), Fr(3, 4)),
                   owners=(owner,), rates=(2,))
        s = build_interval_sptg(g, (F0,), Fr(1, 4), Fr(3, 4), untimed_at(g, Fr(1, 2)))
        assert (s.num_states, s.actions, s.boundary) == (1, (), (F0,))
        return s

    def assert_waits_then_stops(self, s):
        """The only play: wait at rate 2 until 3/4, then stop there, for 1
        at 1/4 falling to 0; the stop is action m + 0 = 0 at hi, as the
        wait is the choice below hi.  The oracles agree."""
        sol = solve_sptg(s)
        assert sol.values[0] == PwlFn.affine(Fr(1, 4), Fr(3, 4), F1, Fr(-2))
        assert sol.strategy.runs == (((0, WAIT),),) and sol.strategy.at_hi == (0,)
        assert check_equilibrium(s, sol).passed
        assert value_iteration_sptg(s).values == sol.values

    def test_minimizer_point_exit_prices_the_wait(self):
        self.assert_waits_then_stops(self.point_exits(1))

    def test_maximizer_point_exit_stays_terminal(self):
        s = self.point_exits(2)
        assert s.at_hi.actions == (PAction(0, None, F0),)
        self.assert_waits_then_stops(s)


class TestSolvePtg:
    def test_delayed_exit_jump(self):
        fx = delayed_exit_jump()
        res = solve_ptg(fx.game)
        assert res.values == fx.expected["values"]
        for k, pts in fx.expected["jump_points"].items():
            assert res.jump_points(k) == pts

    def test_maximizer_reset_loop_is_infinite(self):
        fx = maximizer_reset_loop()
        res = solve_ptg(fx.game)
        assert res.values == fx.expected["values"]
        assert res.stats.layers == fx.expected["layers"]

    def test_reset_free_game_uses_one_layer(self):
        g = simple(act(0, None, 0, 0, 1))
        res = solve_ptg(g)
        assert res.stats.layers == 1

    def test_dominated_reset_changes_nothing(self):
        with_reset = Ptg(
            (1, 1),
            (F1, F1),
            (
                act(0, None, 0, 0, 1),
                act(0, 1, 100, 0, 1, reset=True),
                act(1, None, 0, 0, 1),
            ),
        )
        without = Ptg(
            (1, 1),
            (F1, F1),
            (act(0, None, 0, 0, 1), act(1, None, 0, 0, 1)),
        )
        a = solve_ptg(with_reset)
        b = solve_ptg(without)
        assert a.values == b.values
        assert a.stats.layers == 2 and b.stats.layers == 1

    def test_long_horizon_scaling(self):
        g = Ptg((2,), (F1,), (act(0, None, 0, 2, 2),))
        res = solve_ptg(g)
        assert res.values[0] == PwlFn.affine(F0, Fr(2), Fr(2), Fr(-1))

    def test_full_span_game_matches_direct_sweep(self):
        for n in range(1, 6):
            for seed in range(60):
                core = generate_random("sptg", n, 3, seed, allow_inf=seed % 2 == 0)
                actions = tuple(TAction(a.source, a.dest, a.cost, F0, F1) for a in core.actions)
                g = Ptg(core.owners, core.rates, actions)
                res = solve_ptg(g)
                direct = solve_sptg(core)
                assert res.values == direct.values, (n, seed)

    def test_jump_points_lie_on_the_ladder(self):
        for seed in range(30):
            g = generate_random("ptg", 3, 3, seed)
            res = solve_ptg(g)
            for k in range(g.num_states):
                assert set(res.jump_points(k)) <= set(g.ladder)

    def test_interval_certificates_replay_exactly(self):
        for seed in range(20):
            g = generate_random("ptg", 3, 3, seed, resets=False)
            res = solve_ptg(g)
            for cert in res.trace:
                lo, hi = cert.sptg.lo, cert.sptg.hi
                for frac_x in (Fr(1, 7), Fr(1, 2), Fr(6, 7)):
                    x = lo + frac_x * (hi - lo)
                    for k in range(g.num_states):
                        assert res.values[k].eval(x) == cert.solution.values[k].eval(x)

    def test_solve_budget(self):
        for seed in range(30):
            g = generate_random("ptg", 3, 3, seed)
            res = solve_ptg(g)
            d = len(g.ladder) - 1
            assert res.stats.oracle_calls <= (g.reset_depth + 1) * d
            assert res.stats.oracle_calls + res.stats.reused_intervals == res.stats.solved_layers * d
            assert 1 <= res.stats.solved_layers <= res.stats.layers


def unfolding_layers(game, stats):
    """All ``stats.layers`` layers, deepest first, as ``(reset_values,
    point_vals, trace)``, with no early stop and no reuse: each layer
    gets a fresh memo."""
    reset_values = None
    for _ in range(stats.layers):
        point_vals, trace = _solve_layer(game, _availability(game), reset_values, stats, {})
        yield reset_values, point_vals, trace
        reset_values = point_vals[F0]


def full_unfolding(game):
    """The last of all ``reset_depth + 1`` layers (see ``unfolding_layers``)."""
    stats = PtgStats(layers=game.reset_depth + 1)
    *_, (_, point_vals, trace) = unfolding_layers(game, stats)
    return PtgResult(_assemble(game, point_vals, trace), tuple(trace), stats)


def reset_chain():
    """State 0 resets into 1, which resets into 2, which exits: the
    value 3 at state 0 appears only in the third layer."""
    return Ptg(
        (1, 1, 1),
        (F1, F1, F1),
        (
            act(0, 1, 1, 0, 1, reset=True),
            act(1, 2, 1, 0, 1, reset=True),
            act(2, None, 1, 0, 1),
        ),
    )


def fixpoint_games():
    games = [generate_random("ptg", 3, 3, seed) for seed in range(40)]
    games += [delayed_exit_jump().game, maximizer_reset_loop().game, reset_chain()]
    games.append(gamedoc.parse(GOLDEN_RESETS.read_text()).to_game())
    return games


class TestLayerFixpoint:
    def test_stopping_at_the_fixpoint_is_exact(self):
        stopped_early = reused = 0
        for g in fixpoint_games():
            res, full = solve_ptg(g), full_unfolding(g)
            assert res.values == full.values
            for k in range(g.num_states):
                assert res.jump_points(k) == full.jump_points(k)
            assert len(res.trace) == len(full.trace)
            for a, b in zip(res.trace, full.trace):
                assert (a.sptg.lo, a.sptg.hi) == (b.sptg.lo, b.sptg.hi)
                assert a.sptg == b.sptg
                assert a.solution.values == b.solution.values
                assert a.solution.strategy == b.solution.strategy
            assert full.stats.oracle_calls == res.stats.layers * (len(g.ladder) - 1)
            assert full.stats.reused_intervals == 0
            stopped_early += res.stats.solved_layers < res.stats.layers
            reused += res.stats.reused_intervals > 0
        assert stopped_early > 0 and reused > 0
        chain = solve_ptg(reset_chain())
        assert chain.stats.solved_layers == chain.stats.layers == 3
        assert [f.eval(F0) for f in chain.values] == [3, 2, 1]

    def test_golden_resets_game_reuses_intervals(self):
        g = gamedoc.parse(GOLDEN_RESETS.read_text()).to_game()
        res = solve_ptg(g)
        assert res.stats.reused_intervals > 0
        d = len(g.ladder) - 1
        assert res.stats.oracle_calls + res.stats.reused_intervals == res.stats.solved_layers * d


def random_ptgs(seeds):
    """Random PTGs of 2 to 5 states, with infinite costs on even seeds."""
    return [
        generate_random("ptg", n, 3, seed, allow_inf=seed % 2 == 0)
        for n in range(2, 6)
        for seed in seeds
    ]


def golden_resets_game():
    return gamedoc.parse(GOLDEN_RESETS.read_text()).to_game()


def midpoint_reference(game, point_vals, cert, reset_values):
    """The interval game of ``cert`` with stops worth the values of the
    moment game at the interval's midpoint instead of ``point_vals[hi]``."""
    lo, hi = cert.sptg.lo, cert.sptg.hi
    actions = untimed_at(game, (lo + hi) / 2, reset_values)
    v_mid = extended_dijkstra(build_moment_game(game, point_vals[hi], actions))[0]
    return build_interval_sptg(game, v_mid, lo, hi, actions)


class TestIntervalGameStops:
    def test_ladder_point_stops_solve_like_midpoint_moment_stops(self):
        """Stops worth the right ladder point's values give the interval
        game the solution it has with stops worth the midpoint moment
        game's values.  Only the point choices at hi may differ, and only
        where the reference picks a minimizer's stop: that stop is worth
        exactly its state's value at hi, tying with the action behind it."""
        intervals = 0
        for g in random_ptgs(range(150)) + [golden_resets_game()]:
            stats = PtgStats(layers=g.reset_depth + 1)
            for reset_values, point_vals, trace in unfolding_layers(g, stats):
                for cert in trace:
                    ref_game = midpoint_reference(g, point_vals, cert, reset_values)
                    ref, sol = solve_sptg(ref_game), cert.solution
                    assert sol.values == ref.values
                    assert sol.stats.sweep_steps == ref.stats.sweep_steps
                    assert sol.stats.event_points == ref.stats.event_points
                    assert sol.strategy.clocks == ref.strategy.clocks
                    assert sol.strategy.runs == ref.strategy.runs
                    got, want = sol.strategy.at_hi, ref.strategy.at_hi
                    for k, (a, b) in enumerate(zip(got, want)):
                        if a != b:
                            assert ref_game.owners[k] == 1
                            # stop k: action m + k of the untimed game at hi
                            assert b == ref_game.num_actions + k
                    intervals += 1
        assert intervals > 1500

    def test_moment_games_are_built_at_ladder_points_only(self, monkeypatch):
        """``solve_ptg`` builds no moment game at an interval's midpoint,
        and ``stats.priced_solves`` counts the moment games built, the
        top games included.  A build's clock value is read off the memo
        entry keyed by the very ``v`` it was given (a fresh tuple for
        each step below the top, None at the top), and it is given the
        untimed actions a fresh scan finds there under its layer's reset
        values.  Every lower ladder point a layer visits is checked by the
        certificate once, ``stats.certified_points`` counts those that
        pass, and none of their values is given to a build."""
        calls, memos, layer, checks = [], [], {}, []
        build_moment, solve_layer = ptg.build_moment_game, ptg._solve_layer
        certified = ptg._certified

        def recording_certificate(game, pairs, reset_values, x, w):
            passed = certified(game, pairs, reset_values, x, w)
            checks.append((w, passed))
            return passed

        def recording_build(game, v, actions):
            calls.append((v, actions, layer["reset_values"]))
            return build_moment(game, v, actions)

        def recording_layer(game, available, reset_values, stats, memo):
            memos.append(memo)
            layer["reset_values"] = reset_values
            return solve_layer(game, available, reset_values, stats, memo)

        monkeypatch.setattr(ptg, "build_moment_game", recording_build)
        monkeypatch.setattr(ptg, "_solve_layer", recording_layer)
        monkeypatch.setattr(ptg, "_certified", recording_certificate)
        built = passed = 0
        for g in random_ptgs(range(20)) + [golden_resets_game()]:
            calls.clear()
            memos.clear()
            checks.clear()
            res = solve_ptg(g)
            assert len(checks) == res.stats.solved_layers * (len(g.ladder) - 1)
            assert res.stats.certified_points == sum(ok for _, ok in checks)
            skipped = {id(w) for w, ok in checks if ok}
            assert not any(id(v) in skipped for v, _, _ in calls)
            passed += res.stats.certified_points
            assert all(m is memos[0] for m in memos)
            clock = {}
            for x, v, _ in memos[0]:
                clock.setdefault(id(v), set()).add(x)
            assert clock[id(None)] == {g.ladder[0]}
            assert res.stats.priced_solves == len(calls)
            for v, actions, reset_values in calls:
                (x,) = clock[id(v)]
                assert x in g.ladder
                assert actions == tuple(scan(g, x, reset_values))
            built += len(calls)
        assert built > 0 and passed > 0


class TestLadderCertificate:
    def test_a_new_zero_cost_maximizer_cycle_fails_the_certificate(self):
        """Two rate-0 maximizers exit for 5 and move to each other for
        free, A to B only up to clock 1.  Just above 1 both are worth 5,
        and A's move to B offers exactly 5: a maximizer's offer must fall
        strictly below its value, as at 1 the free cycle is worth INF."""
        g = simple(
            act(0, None, 5, 0, 2),
            act(1, None, 5, 0, 2),
            act(1, 0, 0, 0, 2),
            act(0, 1, 0, 0, 1),
            owners=(2, 2),
            rates=(0, 0),
        )
        res = solve_ptg(g)
        for f in res.values:
            assert [f.eval(Fr(t, 2)) for t in range(5)] == [INF, INF, INF, 5, 5]
        # solved at the top and at 1; certified at 0, where both are INF
        assert (res.stats.priced_solves, res.stats.certified_points) == (2, 1)

    def test_a_reset_is_certified_at_its_price(self):
        """A minimizer exits for 10 or, up to clock 1, resets for free
        into B, worth 1 at clock 0 and 20 from clock 1/2 on.  At clock 1
        the reset is worth its price 1, not 20, the value of B there."""
        g = simple(
            act(0, None, 10, 0, 2),
            act(0, 1, 0, 0, 1, reset=True),
            act(1, None, 1, 0, Fr(1, 2)),
            act(1, None, 20, 0, 2),
            owners=(1, 1),
            rates=(1, 0),
        )
        res = solve_ptg(g)
        assert [res.values[0].eval(Fr(t, 2)) for t in range(5)] == [1, 1, 1, 10, 10]
        assert res.values[1].eval(F1) == 20

    def test_most_ladder_pool_points_are_certified(self):
        """The certificate spares at least 70% of the lower ladder point
        visits of the ptg-ladder pools' solves, each pool on its own."""
        games = ladder_pool_games()
        half = len(games) // 2
        for pool in (games[:half], games[half:]):
            visits = certified = 0
            for g in pool:
                stats = solve_ptg(g).stats
                visits += stats.solved_layers * (len(g.ladder) - 1)
                certified += stats.certified_points
            assert certified >= 0.7 * visits, (certified, visits)


def scan(game, x, reset_values):
    """The untimed actions at x, converted afresh from ``game.actions``."""
    out = []
    for a in game.actions:
        if not a.available_at(x):
            continue
        if not a.reset:
            out.append(PAction(a.source, a.dest, a.cost))
            continue
        extra = INF if reset_values is None else reset_values[a.dest]
        cost = INF if is_inf(a.cost) or is_inf(extra) else a.cost + extra
        out.append(PAction(a.source, None, cost))
    return out


class TestActionMemo:
    def test_memo_equals_a_scan_in_every_layer(self):
        """Every step of a layer, one per ladder point and one per
        interval, is certified or memoized.  A memoized one is keyed by
        the prices of the resets a fresh scan finds at its clock value
        under the layer's reset values, and its entry converts to the
        untimed actions of that scan."""
        resets_seen = 0
        for seed in range(20):
            g = generate_random("ptg", 3, 3, seed)
            if not g.reset_depth:
                continue
            n = g.num_states
            available = _availability(g)
            layers = (
                None,
                tuple(Fr(k + 1) for k in range(n)),
                (INF,) + tuple(Fr(7, k + 2) for k in range(1, n)),
                None,
            )
            for reset_values in layers:
                memo, stats = {}, PtgStats()
                _solve_layer(g, available, reset_values, stats, memo)
                assert len(memo) + stats.certified_points == 2 * len(g.ladder) - 1, seed
                for x, _, prices in memo:
                    want = tuple(scan(g, x, reset_values))
                    resets = [a.reset for a in g.actions if a.available_at(x)]
                    assert prices == tuple(a.cost for a, r in zip(want, resets) if r), (seed, x)
                    assert _untimed(available[x], reset_values) == want, (seed, x, reset_values)
                    resets_seen += sum(resets)
        assert resets_seen > 0

    def test_reset_prices_separate_what_the_actions_separate(self):
        """At each clock value, two layers' reset prices are equal exactly
        when their untimed actions are, so a memo keyed by the prices
        hits and misses where one keyed by the actions would.  A reset of
        infinite cost is priced infinite whatever its destination's
        value, as its action is: different reset values can give equal
        keys, and then equal actions."""
        games = [
            g
            for g in (generate_random("ptg", 3, 3, seed, allow_inf=True) for seed in range(40))
            if g.reset_depth
        ]
        g = games[0]
        forever = TAction(0, 1, INF, F0, g.horizon, reset=True)
        games.append(Ptg(g.owners, g.rates, g.actions + (forever,)))
        layers = [None, *itertools.product((F0, F1, INF), repeat=3)]
        merged = 0
        for g in games:
            for x, pairs in _availability(g).items():
                keys = {}
                for reset_values in layers:
                    key = _reset_prices(pairs, reset_values)
                    keys.setdefault(key, set()).add(_untimed(pairs, reset_values))
                actions = set().union(*keys.values())
                assert all(len(a) == 1 for a in keys.values()), (g, x)
                assert len(keys) == len(actions), (g, x)
                merged += any(keys) and len(keys) < len(layers)
        for x, pairs in _availability(games[-1]).items():
            if forever.available_at(x):
                assert {_reset_prices(pairs, rv)[-1] for rv in layers} == {INF}
        assert merged > 0

    def test_solving_leaves_the_game_as_it_was(self):
        """A solve stores nothing on the game beyond its declared cached
        properties, so solving it again gives the same result."""
        for g in random_ptgs(range(10)) + [golden_resets_game()]:
            first, second = solve_ptg(g), solve_ptg(g)
            assert first == second
            cached = {"horizon", "ladder", "reset_depth", "state_actions"}
            declared = {f.name for f in fields(Ptg)} | cached
            assert set(vars(g)) == declared


def spliced_by_from_segments(game, point_vals, trace):
    """``_assemble`` as it spliced before it built functions directly:
    every segment through ``PwlFn.from_segments``, every ladder point an
    override."""
    fns = []
    for k in range(game.num_states):
        flat = [seg for cert in reversed(trace) for seg in cert.solution.values[k].segments()]
        fns.append(PwlFn.from_segments(flat, {t: vs[k] for t, vs in point_vals.items()}))
    return tuple(fns)


def ladder_pool_games():
    """The games of the benchmark's ptg-ladder pools, seeds 1 and 7177."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [
        gamedoc.parse(doc.text).to_game()
        for seed in (1, 7177)
        for doc in workloads.pool("ptg-ladder", seed)
    ]


class TestAssemble:
    def test_direct_splice_equals_from_segments(self, monkeypatch):
        golden = [
            gamedoc.parse(path.read_text()).to_game()
            for path in sorted(GOLDEN_RESETS.parent.glob("*.json"))
            if '"ptg"' in path.read_text() and not path.name.endswith(".out.json")
        ]
        assert len(golden) == 4
        randoms = [generate_random("ptg", 2 + s % 4, 3, s, allow_inf=True) for s in range(400)]
        seen = {"jumps": 0, "merged": 0, "kept": 0}

        def checked(game, point_vals, trace):
            fns = _assemble(game, point_vals, trace)
            assert fns == spliced_by_from_segments(game, point_vals, trace)
            # no solve here jumps between collinear or infinite
            # neighbours, so every inner ladder point gets a jump
            moved = {
                t: tuple(F0 if is_inf(v) else v + 1 for v in vs) if 0 < t < game.horizon else vs
                for t, vs in point_vals.items()
            }
            assert _assemble(game, moved, trace) == spliced_by_from_segments(game, moved, trace)
            for f in fns:
                seen["jumps"] += len(f.jumps())
                for t in game.ladder[1:-1]:
                    seen["merged" if t not in f.breaks else "kept"] += 1
            return fns

        monkeypatch.setattr(ptg, "_assemble", checked)
        for g in golden + ladder_pool_games() + randoms:
            solve_ptg(g)
        assert seen["jumps"] >= 400 and seen["merged"] >= 4000 and seen["kept"] >= 600, seen


class TestEpsilonOptimalPlay:
    def test_short_waits_approach_the_jump_value(self):
        fx = delayed_exit_jump()
        g = fx.game
        for delta in (Fr(1, 10), Fr(1, 100)):
            def chooser(k, x, resets, delta=delta):
                if k == 0:
                    return ("wait", delta) if x == F0 else ("move", 0)
                # the maximizer missed the expensive exit; only the free
                # horizon exit remains reachable
                return ("move", 2) if x == F1 else ("wait", F1 - x)

            play = simulate_ptg(g, chooser, (0, F0))
            assert play.terminal
            assert play.cost == delta  # within delta of the value 0

    def test_maximizer_cashes_at_zero_without_the_wait(self):
        g = delayed_exit_jump().game

        def chooser(k, x, resets):
            if k == 0:
                return ("move", 0)
            return ("move", 1) if x == F0 else ("move", 2)

        play = simulate_ptg(g, chooser, (0, F0))
        assert play.cost == F1  # the jump value at time 0
