import dataclasses
import random
from fractions import Fraction as Fr

import pytest

from ptgsolve.fixtures import ALL_FIXTURES, fixture_a
from ptgsolve.numerics import F0, F1, INF, PwlFn, is_inf
from ptgsolve.oracle import (
    OracleError,
    brute_force_priced,
    check_equilibrium,
    generate_random,
    play_cost,
    probe_times,
    profile_payoffs,
    simulate,
    value_iteration_sptg,
)
from ptgsolve.priced_game import PAction, PricedGame, evaluate_profile, extended_dijkstra
from ptgsolve.ptg import Ptg, solve_ptg
from ptgsolve.sptg import Sptg, TimedStrategyProfile, WAIT, solve_sptg


def sptg(owners, rates, *actions):
    return Sptg(
        tuple(owners),
        tuple(Fr(r) for r in rates),
        tuple(PAction(*a) for a in actions),
    )


def fan(k):
    """fan(k): a minimizer of rate k+1 with free moves to k maximizers;
    maximizer i has rate i and an exit of cost (k+1-i)^2/(2k)."""
    return sptg(
        [1] + [2] * k,
        [k + 1] + list(range(1, k + 1)),
        *[(0, i, Fr(0)) for i in range(1, k + 1)],
        *[(i, None, Fr((k + 1 - i) ** 2, 2 * k)) for i in range(1, k + 1)],
    )


def solved_sptgs():
    """(game, solution) for random SPTGs and every fixture's SPTG pieces."""
    for seed in range(40):
        g = generate_random("sptg", 3, 3, seed, allow_inf=(seed % 4 == 0))
        yield g, solve_sptg(g)
    for make in ALL_FIXTURES:
        game = make().game
        if isinstance(game, Ptg):
            for cert in solve_ptg(game).trace:
                yield cert.sptg, cert.solution
        else:
            yield game, solve_sptg(game)


# the profiles of TestSimulate that break the rules of play
HORIZON_WAIT = (
    sptg([1], [0], (0, None, Fr(1))),
    TimedStrategyProfile(((F0, F1, (WAIT,)), (F1, F1, (WAIT,)))),
)
FOREIGN_ACTION = (
    sptg([1, 1], [0, 0], (0, None, Fr(1)), (1, None, Fr(1))),
    TimedStrategyProfile(((F0, F1, (1, 1)), (F1, F1, (1, 1)))),
)


class TestValueIteration:
    def test_single_maximizer_in_two_rounds(self):
        g = sptg([2], [1], (0, None, Fr(0)))
        res = value_iteration_sptg(g)
        assert res.values == (PwlFn.affine(F0, F1, F1, Fr(-1)),)
        assert res.iterations == 2

    def test_trapped_state_stays_infinite(self):
        g = sptg([1, 1], [1, 1], (0, 0, Fr(0)), (1, None, Fr(1)))
        res = value_iteration_sptg(g)
        assert res.values[0].is_constant_inf()
        assert res.values[1] == PwlFn.constant(F0, F1, Fr(1))

    def test_matches_fixture_a(self):
        fx = fixture_a()
        res = value_iteration_sptg(fx.game)
        assert res.values == fx.expected["values"]
        assert res.iterations <= fx.game.num_states * fx.game.core.profile_bound() + 1

    def test_cap_enforced(self):
        with pytest.raises(OracleError):
            value_iteration_sptg(fixture_a().game, cap=1)

    def test_matches_sweep_on_randoms(self):
        for seed in range(40):
            g = generate_random("sptg", 3, 3, seed, allow_inf=(seed % 4 == 0))
            assert value_iteration_sptg(g).values == solve_sptg(g).values, seed


class TestSimulate:
    def test_play_cost_equals_value(self):
        fx = fixture_a()
        sol = solve_sptg(fx.game)
        for k in range(3):
            for t in (F0, Fr(3, 10), Fr(1, 2), Fr(9, 10), F1):
                play = simulate(fx.game, sol.strategy, (k, t))
                assert play.terminal
                assert play.cost == sol.values[k].eval(t)

    def test_wait_steps_advance_to_cell_boundaries(self):
        fx = fixture_a()
        sol = solve_sptg(fx.game)
        play = simulate(fx.game, sol.strategy, (1, Fr(3, 10)))
        waits = [(s.time, s.delay) for s in play.steps if s.action is None]
        assert waits == [(Fr(3, 10), Fr(1, 5)), (Fr(1, 2), Fr(1, 2))]

    def test_revisit_certifies_infinity(self):
        g = sptg([1], [0], (0, 0, Fr(1)), (0, None, Fr(5)))
        loop = TimedStrategyProfile(((F0, F1, (0,)), (F1, F1, (0,))))
        play = simulate(g, loop, (0, Fr(1, 2)))
        assert not play.terminal and is_inf(play.cost)

    def test_waiting_at_the_horizon_rejected(self):
        g, stuck = HORIZON_WAIT
        with pytest.raises(OracleError):
            simulate(g, stuck, (0, F1))

    def test_foreign_action_rejected(self):
        g, bad = FOREIGN_ACTION
        with pytest.raises(OracleError):
            simulate(g, bad, (0, F0))


class TestPlayCost:
    def test_memoised_cost_equals_simulation(self):
        for g, sol in solved_sptgs():
            memo = {}
            for k in range(g.num_states):
                for t in probe_times(sol.strategy):
                    want = simulate(g, sol.strategy, (k, t)).cost
                    assert play_cost(g, sol.strategy, (k, t), memo) == want, (k, t)

    def test_revisit_is_infinite_on_every_configuration(self):
        g = sptg([1, 1], [0, 0], (0, 1, Fr(1)), (1, 0, Fr(1)))
        loop = TimedStrategyProfile(((F0, F1, (0, 1)), (F1, F1, (0, 1))))
        memo = {}
        assert is_inf(play_cost(g, loop, (0, F0), memo))
        assert set(memo) == {(0, F0), (1, F0)} and all(map(is_inf, memo.values()))
        assert is_inf(play_cost(g, loop, (1, F0), memo))


class TestCheckEquilibrium:
    def test_passes_on_fixture_a(self):
        fx = fixture_a()
        sol = solve_sptg(fx.game)
        report = check_equilibrium(fx.game, sol)
        assert report.passed and not report.probe_failures and not report.cell_failures

    def test_detects_tampered_values(self):
        fx = fixture_a()
        sol = solve_sptg(fx.game)
        fake = (PwlFn.constant(F0, F1, F0),) + sol.values[1:]
        bad = dataclasses.replace(sol, values=fake)
        report = check_equilibrium(fx.game, bad)
        assert not report.passed
        assert any(state == 0 for state, _, _, _ in report.probe_failures)

    def test_detects_tampered_strategy(self):
        fx = fixture_a()
        sol = solve_sptg(fx.game)
        # force the minimizer onto the expensive route everywhere
        cells = tuple(
            (lo, hi, (1,) + choices[1:]) for lo, hi, choices in sol.strategy.cells
        )
        bad = dataclasses.replace(sol, strategy=TimedStrategyProfile(cells))
        assert not check_equilibrium(fx.game, bad).passed

    def test_detects_longer_equal_cost_route_in_every_cell(self):
        # both states exit at cost 1; state 0 may also move freely to state 1
        g = sptg([1, 1], [1, 1], (0, None, Fr(1)), (0, 1, Fr(0)), (1, None, Fr(1)))
        sol = solve_sptg(g)
        assert check_equilibrium(g, sol).passed
        assert [choices[0] for _, _, choices in sol.strategy.cells] == [0, 0]
        cells = tuple((lo, hi, (1,) + choices[1:]) for lo, hi, choices in sol.strategy.cells)
        bad = dataclasses.replace(sol, strategy=TimedStrategyProfile(cells))
        report = check_equilibrium(g, bad)
        # the detour costs the same, so only the snapshot re-check sees it,
        # on the interval cell and on the point cell at 1
        assert not report.passed and not report.probe_failures
        assert sorted(report.cell_failures) == [(0, 1, 0), (1, 1, 0)]

    def test_passes_without_event_points(self):
        g = sptg([2], [1], (0, None, Fr(0)))
        sol = solve_sptg(g)
        assert sol.stats.event_points == 0
        assert check_equilibrium(g, sol).passed

    @pytest.mark.parametrize(
        "case", [HORIZON_WAIT, FOREIGN_ACTION], ids=["horizon-wait", "foreign-action"]
    )
    def test_rules_of_play_enforced(self, case):
        g, profile = case
        sol = dataclasses.replace(solve_sptg(g), strategy=profile)
        with pytest.raises(OracleError):
            check_equilibrium(g, sol)

    def test_one_cell_lookup_per_configuration(self, monkeypatch):
        g = fan(24)
        sol = solve_sptg(g)
        assert sol.stats.event_points == 23
        calls = []
        cell_at = TimedStrategyProfile.cell_at

        def counted(self, x):
            calls.append(x)
            return cell_at(self, x)

        monkeypatch.setattr(TimedStrategyProfile, "cell_at", counted)
        assert check_equilibrium(g, sol).passed
        bound = g.num_states * (len(probe_times(sol.strategy)) + len(sol.strategy.cells))
        assert 0 < len(calls) <= bound


class TestBruteForce:
    def test_single_minimizer(self):
        g = PricedGame((1,), (PAction(0, None, Fr(3)), PAction(0, None, Fr(1))))
        assert brute_force_priced(g) == [Fr(1)]

    def test_maximizer_loop_is_infinite(self):
        g = PricedGame((2,), (PAction(0, 0, Fr(0)), PAction(0, None, Fr(2))))
        assert is_inf(brute_force_priced(g)[0])

    def test_budget_refusal(self):
        g = PricedGame((1,), (PAction(0, None, Fr(3)), PAction(0, None, Fr(1))))
        with pytest.raises(OracleError):
            brute_force_priced(g, budget=1)

    def test_matches_dijkstra_on_randoms(self):
        for seed in range(40):
            g = generate_random("priced", 3, 2, seed, allow_inf=(seed % 2 == 0))
            bf = brute_force_priced(g)
            dv, _ = extended_dijkstra(g)
            assert bf == dv, seed


class TestProfilePayoffs:
    def test_matches_evaluate_profile(self):
        cycles = 0
        for seed in range(60):
            g = generate_random("priced", 5, 3, seed, allow_inf=(seed % 2 == 0))
            rng = random.Random(seed)
            for _ in range(10):
                prof = tuple(rng.choice(js) for js in g.state_actions)
                vals = evaluate_profile(g, prof)
                cycles += any(is_inf(v.hops) for v in vals)
                assert profile_payoffs(g, prof) == [v.payoff for v in vals], (seed, prof)
        assert cycles > 0

    def test_cycle_and_infinite_action(self):
        g = PricedGame(
            (1, 2, 1, 1),
            (
                PAction(0, 1, Fr(1)),
                PAction(1, 0, Fr(2)),
                PAction(2, 0, Fr(0)),
                PAction(3, None, INF),
            ),
        )
        assert all(map(is_inf, profile_payoffs(g, (0, 1, 2, 3))))


class TestGenerateRandom:
    def test_deterministic_per_seed(self):
        for kind in ("priced", "sptg", "ptg"):
            a = generate_random(kind, 4, 3, 7)
            b = generate_random(kind, 4, 3, 7)
            assert a == b

    def test_seeds_vary(self):
        games = {generate_random("sptg", 4, 3, s) for s in range(10)}
        assert len(games) > 1

    def test_one_player_flag(self):
        g = generate_random("sptg", 5, 3, 0, one_player=True)
        assert set(g.owners) == {1}

    def test_rate_one_cost_zero_flag(self):
        g = generate_random("ptg", 5, 3, 0, rate_one_cost_zero=True)
        assert set(g.rates) == {F1}
        assert all(a.cost == F0 for a in g.actions)

    def test_resets_flag(self):
        g = generate_random("ptg", 6, 3, 1, resets=False)
        assert g.reset_depth == 0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_random("chess", 3)
        with pytest.raises(ValueError):
            generate_random("sptg", 0)

    def test_instances_validate_and_solve(self):
        for seed in range(15):
            g = generate_random("ptg", 3, 3, seed)
            from ptgsolve.ptg import solve_ptg

            res = solve_ptg(g)
            assert len(res.values) == g.num_states
