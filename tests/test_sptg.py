from fractions import Fraction as Fr

import pytest

from ptgsolve.fixtures import fixture_a
from ptgsolve.numerics import F0, F1, INF, PwlFn, is_inf
from ptgsolve.oracle import _cells, generate_random
from ptgsolve.priced_game import GameError, PAction, PricedGame, check_graph, extended_dijkstra
from ptgsolve.sptg import (
    Sptg,
    TimedStrategyProfile,
    WAIT,
    build_eps_game,
    solve_at_time_one,
    solve_sptg,
)


def assert_same_solve(plain, inst, why=None):
    """The instrumented solve observes the plain sweep: the same values,
    strategy, sweep steps and event points."""
    assert plain.values == inst.values, why
    assert plain.strategy == inst.strategy, why
    assert plain.stats.sweep_steps == inst.stats.sweep_steps, why
    assert plain.stats.event_points == inst.stats.event_points, why


def sptg(owners, rates, *actions):
    return Sptg(
        tuple(owners),
        tuple(Fr(r) for r in rates),
        tuple(PAction(*a) for a in actions),
    )


class TestConstruction:
    def test_rate_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sptg([1], [1, 2], (0, None, Fr(0)))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            sptg([1], [-1], (0, None, Fr(0)))

    def test_wait_rate_rejected(self):
        """Only a snapshot game's waits carry a wait rate; an SPTG's own
        action with one would break the sweep's continuity check."""
        with pytest.raises(ValueError, match="wait rate"):
            sptg([1], [2], (0, None, Fr(3), Fr(1)))
        with pytest.raises(ValueError, match=r"wait-rate at actions\[1\]"):
            sptg([1], [0], (0, None, Fr(3)), (0, None, Fr(3), Fr(1, 2)))

    @pytest.mark.parametrize(
        "lo, hi",
        [(Fr(1, 2), Fr(1, 2)), (F1, Fr(1, 2)), (Fr(-1), F1), (Fr(-int("1" * 4000)), F1)],
        ids=["empty", "reversed", "negative", "long"],
    )
    def test_bad_domain_rejected(self, lo, hi):
        with pytest.raises(GameError) as exc:
            Sptg((1,), (F1,), (PAction(0, None, F0),), lo, hi)
        assert (exc.value.code, exc.value.where) == ("bad-interval", "domain")
        assert len(str(exc.value)) < 100  # a long number is not echoed whole

    def test_domain_defaults_to_the_unit_interval(self):
        g = sptg([2], [1], (0, None, Fr(0)))
        assert (g.lo, g.hi) == (F0, F1)
        # a maximizer waits until the domain's end
        shifted = Sptg(g.owners, g.rates, g.actions, Fr(2), Fr(5))
        assert solve_sptg(shifted).values == (PwlFn.affine(Fr(2), Fr(5), Fr(3), Fr(-1)),)

    def test_boundary_lets_a_state_have_no_action(self):
        """Without a boundary every state needs an action; with one, a
        state may have none and stop at hi, and the boundary must give a
        value to every state."""
        owners, rates, actions = (1, 2), (F1, F1), (PAction(0, None, F0),)
        with pytest.raises(GameError) as exc:
            Sptg(owners, rates, actions)
        assert (exc.value.code, exc.value.where) == ("no-actions", "states[1]")
        g = Sptg(owners, rates, actions, boundary=(F1, INF))
        assert g.state_actions == ((0,), ())
        assert solve_at_time_one(g) == ([F0, INF], (0, 2))
        with pytest.raises(GameError) as exc:
            Sptg(owners, rates, actions, boundary=(F1,))
        assert (exc.value.code, exc.value.where) == ("state-count", "boundary")

    def test_at_hi_without_boundary_is_the_game(self):
        g = fixture_a().game
        assert (g.at_hi.owners, g.at_hi.actions) == (g.owners, g.actions)
        assert solve_at_time_one(g) == extended_dijkstra(PricedGame(g.owners, g.actions))

    @pytest.mark.parametrize(
        "owners, actions",
        [
            ((1, 3), ((0, None, F0), (1, None, F0))),
            ((1, 2), ((0, None, F0), (1, 2, F0))),
            ((1, 2), ((0, None, F0), (-1, None, F0))),
            ((1, 2), ((0, None, F0), (1, None, Fr(-1)))),
            ((1, 2, 1), ((0, None, F0), (2, 0, F0))),
        ],
        ids=["bad-owner", "dangling-to", "dangling-from", "negative-cost", "no-actions"],
    )
    def test_graph_faults_are_those_of_check_graph(self, owners, actions):
        """Validated through its untimed game at hi, a game without a
        boundary breaks the rules as its owners and actions do."""
        actions = tuple(PAction(*a) for a in actions)
        with pytest.raises(GameError) as want:
            check_graph(owners, actions)
        with pytest.raises(GameError) as got:
            Sptg(owners, (F1,) * len(owners), actions)
        assert (got.value.code, got.value.where) == (want.value.code, want.value.where)
        assert str(got.value) == str(want.value)

    def test_event_bound(self):
        g = fixture_a().game
        # 3 states with 2, 1, 1 actions: profile bound (2+1)(1+1)(1+1) = 12
        assert g.profile_bound() == 12
        assert g.event_bound() == 12
        one = sptg([1], [1], (0, None, Fr(0)))
        assert one.event_bound() == 2


class TestEpsGame:
    def test_wait_actions_appended(self):
        g = fixture_a().game
        eg = build_eps_game(g, [Fr(1, 2), Fr(3), INF])
        m = g.num_actions
        assert len(eg.actions) == m + g.num_states
        waits = [(a.source, a.dest, a.cost, a.wait_rate) for a in eg.actions[m:]]
        assert waits == [
            (0, None, Fr(1, 2), Fr(5)),
            (1, None, Fr(3), Fr(2)),
            (2, None, INF, Fr(1)),
        ]

    def test_layout_matches_a_validated_build(self):
        g = fixture_a().game
        eg = build_eps_game(g, [Fr(1, 2), Fr(3), INF])
        fresh = PricedGame(g.owners, eg.actions)
        assert eg == fresh
        assert eg.state_actions == fresh.state_actions

    def test_negative_wait_cost_rejected(self):
        g = fixture_a().game
        with pytest.raises(ValueError, match=r"negative-cost at actions\[5\]: -1"):
            build_eps_game(g, [F0, Fr(-1), F0])

    def test_original_actions_are_eps_free(self):
        g = fixture_a().game
        eg = build_eps_game(g, [F0] * 3)
        assert eg.actions[: g.num_actions] == g.actions
        for j in range(g.num_actions):
            assert eg.actions[j].wait_rate == F0


class TestTimeOne:
    def test_fixture_a_all_zero_at_horizon(self):
        g = fixture_a().game
        values, profile = solve_at_time_one(g)
        assert values == [F0, F0, F0]
        # minimizer takes the free move, both maximizer states exit
        assert profile[0] == 0  # a1, the first action

    def test_trapped_state_is_infinite(self):
        g = sptg([1, 1], [1, 1], (0, 0, Fr(0)), (1, None, Fr(1)))
        values, _ = solve_at_time_one(g)
        assert is_inf(values[0]) and values[1] == Fr(1)


class TestSweep:
    @pytest.mark.parametrize("instrument", [False, True])
    def test_game_without_states_solves_to_nothing(self, instrument):
        sol = solve_sptg(Sptg((), (), ()), instrument=instrument)
        assert sol.values == ()
        assert sol.strategy == TimedStrategyProfile((F0, F1), (), ())
        assert sol.stats.sweep_steps == 1

    def test_fixture_a_values(self):
        fx = fixture_a()
        sol = solve_sptg(fx.game)
        assert sol.values == fx.expected["values"]

    def test_fixture_a_event_point(self):
        fx = fixture_a()
        sol = solve_sptg(fx.game)
        assert sol.values[0].interior_breaks() == (fx.expected["event_point_at"],)
        assert sol.stats.event_points == fx.expected["event_points"]
        # the sweep stops exactly at the switch point before reaching 0
        assert sol.strategy.clocks == (F0, Fr(1, 2), F1)

    def test_fixture_a_strategy_cells(self):
        g = fixture_a().game
        sol = solve_sptg(g)
        # a1 and a2 are actions 0 and 1
        assert sol.strategy.choice_at(0, Fr(1, 4)) == 1
        assert sol.strategy.choice_at(0, Fr(3, 4)) == 0
        assert sol.strategy.choice_at(0, F1) == 0
        # maximizer states wait on [0,1) and exit at the horizon
        for k in (1, 2):
            assert sol.strategy.choice_at(k, Fr(1, 2)) is WAIT
            assert sol.strategy.choice_at(k, F1) is not WAIT

    def test_zero_rates_give_untimed_values(self):
        g = sptg([1, 2], [0, 0], (0, 1, Fr(1)), (1, None, Fr(2)))
        sol = solve_sptg(g)
        assert sol.values == (PwlFn.constant(F0, F1, Fr(3)), PwlFn.constant(F0, F1, Fr(2)))
        assert sol.stats.event_points == 0

    def test_single_maximizer_collects_rate(self):
        g = sptg([2], [1], (0, None, Fr(0)))
        sol = solve_sptg(g)
        assert sol.values == (PwlFn.affine(F0, F1, F1, Fr(-1)),)
        assert sol.stats.event_points == 0
        assert sol.stats.sweep_steps == 1
        assert sol.strategy.choice_at(0, Fr(1, 2)) is WAIT

    def test_trapped_state_stays_infinite(self):
        g = sptg([1, 1], [1, 1], (0, 0, Fr(0)), (1, None, Fr(1)))
        sol = solve_sptg(g)
        assert sol.values[0].is_constant_inf()
        assert sol.values[1] == PwlFn.constant(F0, F1, Fr(1))

    def test_infinite_state_keeps_its_first_infinite_action(self):
        # state 0 is a maximizer with a free self-loop and state 1 a
        # minimizer whose only action leads to it: both are infinite, and
        # state 1 never waits, though its waiting exit is infinite too
        g = generate_random("sptg", 2, 3, 1)
        assert g.owners == (2, 1)
        assert [(a.source, a.dest) for a in g.actions] == [(0, 0), (1, 0)]
        for instrument in (False, True):
            sol = solve_sptg(g, instrument=instrument)
            assert all(f.is_constant_inf() for f in sol.values)
            assert sol.strategy.runs[1] == ((0, 1),) and sol.strategy.at_hi[1] == 1

    def test_a_solve_indexes_the_game_once(self):
        """The sweep reads the actions into each state, and settles, on
        the untimed game at hi, which shares the game's one index: the
        same ``incoming``, and the same ``state_actions`` without a
        boundary, each entry with its stop m + k appended with one.  The
        crossing scans read the game's own entries, without stops.  So
        no index is built twice, with a boundary or without."""
        g = fixture_a().game
        bounded = Sptg(g.owners, g.rates, g.actions, boundary=(Fr(1, 7), Fr(3, 11), INF))
        m = g.num_actions
        for game in (g, bounded):
            assert solve_sptg(game).stats.sweep_steps > 1
            assert "cost_denominator" not in vars(game)
            assert {"at_hi", "state_actions", "incoming"} <= set(vars(game))
            assert game.at_hi.incoming is game.incoming
            fresh = PricedGame(game.owners, game.at_hi.actions)
            assert game.at_hi.state_actions == fresh.state_actions
            assert game.at_hi.incoming == fresh.incoming
        assert g.at_hi.state_actions is g.state_actions
        assert bounded.at_hi.state_actions == tuple(
            js + (m + k,) for k, js in enumerate(bounded.state_actions)
        )
        assert all(j < m for js in bounded.state_actions for j in js)

    def test_inner_solvers_agree(self):
        for seed in range(40):
            g = generate_random("sptg", 3, 3, seed, allow_inf=(seed % 3 == 0))
            assert_same_solve(solve_sptg(g), solve_sptg(g, instrument=True), seed)

    def test_event_points_within_bound(self):
        for seed in range(40):
            g = generate_random("sptg", 4, 3, seed)
            sol = solve_sptg(g)
            assert sol.stats.event_points <= g.event_bound()
            assert sol.stats.sweep_steps <= g.event_bound() + 1

    def test_values_are_nonincreasing_with_bounded_slope(self):
        for seed in range(40):
            g = generate_random("sptg", 4, 3, seed, allow_inf=(seed % 2 == 0))
            sol = solve_sptg(g)
            top = max(g.rates)
            for f in sol.values:
                for _, _, val, slope in f.segments():
                    if is_inf(val):
                        continue
                    assert -top <= slope <= 0

    def test_one_player_reachability(self):
        for seed in range(20):
            g = generate_random("sptg", 4, 3, seed, one_player=True)
            assert_same_solve(solve_sptg(g), solve_sptg(g, instrument=True), seed)


class TestInstrumented:
    def test_potentials_strictly_decrease(self):
        checks = 0
        for seed in range(25):
            g = generate_random("sptg", 3, 3, seed)
            sol = solve_sptg(g, instrument=True)
            assert sol.stats.potential_violations == 0
            checks += sol.stats.potential_checks
        assert checks > 0

    def test_instrument_matches_plain_solve(self):
        for seed in range(15):
            g = generate_random("sptg", 3, 3, seed + 100)
            inst = solve_sptg(g, instrument=True)
            assert_same_solve(solve_sptg(g), inst, seed)
            assert inst.stats.potential_violations == 0


class TestStrategyProfile:
    def test_choice_outside_domain(self):
        sol = solve_sptg(fixture_a().game)
        with pytest.raises(ValueError):
            sol.strategy.choice_at(0, Fr(3, 2))

    @pytest.mark.parametrize(
        "clocks, runs, at_hi",
        [
            ((), (), ()),
            ((F0, F1), (((0, 0),),), ()),
            ((F0, Fr(1, 2), F1), (((1, 0),),), (0,)),
            ((F0, Fr(1, 2), Fr(1, 3), F1), (((0, 0),),), (0,)),
            ((F0, F0, F1), (((0, 0),),), (0,)),
            ((F0, Fr(1, 2), F1), (((0, 0), (2, 1)),), (0,)),
            ((F1, F0), (((0, 0),),), (0,)),
        ],
        ids=["empty", "no-point-cell", "gap", "overlap", "empty-cell",
             "two-point-cells", "point-cell-first"],
    )
    def test_cells_must_tile(self, clocks, runs, at_hi):
        """The clock values must increase from lo to hi, and each state
        needs a point choice and runs that start at lo and below hi."""
        with pytest.raises(ValueError):
            TimedStrategyProfile(clocks, runs, at_hi)

    def test_neighbouring_runs_must_differ(self):
        with pytest.raises(ValueError):
            TimedStrategyProfile((F0, Fr(1, 2), F1), (((0, 0), (1, 0)),), (0,))

    def test_cells_tile_their_own_span(self):
        """A profile may start after 0: its span runs from its first clock
        value to its last, and a clock value outside it has no choice.
        Only a game can say that the span is wrong (``evaluate_policy``)."""
        profile = TimedStrategyProfile((Fr(1, 2), F1), (((0, 0),),), (0,))
        assert profile.span == (Fr(1, 2), F1)
        assert profile.run_at(0, Fr(1, 2)) == (0, F1)
        with pytest.raises(ValueError):
            profile.run_at(0, Fr(1, 4))

    def test_run_at_matches_a_scan(self):
        for seed in range(20):
            profile = solve_sptg(generate_random("sptg", 3, 3, seed)).strategy
            cells = _cells(profile)
            probes = {Fr(i, 24) for i in range(25)}
            probes.update(profile.clocks)
            for x in probes:
                _, hi, choices = next(c for c in cells if c[0] <= x < c[1] or c[:2] == (x, x))
                for k, j in enumerate(choices):
                    # the run lasts while the state's cells make its choice
                    end = next((c[0] for c in cells if c[0] >= hi and c[2][k] != j), F1)
                    assert profile.run_at(k, x) == (j, end), (seed, x, k)
                    assert profile.choice_at(k, x) == j, (seed, x, k)

    def test_cells_tile_the_interval(self):
        for seed in range(20):
            g = generate_random("sptg", 3, 3, seed)
            profile = solve_sptg(g).strategy
            assert profile.span == (F0, F1)
            assert len(profile.runs) == len(profile.at_hi) == g.num_states
            for runs in profile.runs:
                starts = [i for i, _ in runs]
                assert starts[0] == 0 and starts == sorted(set(starts))
                assert starts[-1] < len(profile.clocks) - 1
