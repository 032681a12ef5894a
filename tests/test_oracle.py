import dataclasses
import itertools
import random
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from ptgsolve import cli, oracle
from ptgsolve.fixtures import ALL_FIXTURES, fixture_a, maximizer_reset_loop
from ptgsolve.numerics import F0, F1, INF, PwlFn, is_inf, max_envelope, min_envelope, wait_closure
from ptgsolve.oracle import (
    OracleError,
    _cells,
    _step,
    brute_force_priced,
    check_equilibrium,
    evaluate_policy,
    generate_random,
    simulate,
    simulate_ptg,
    untimed_value_iteration,
    value_iteration_sptg,
)
from ptgsolve.priced_game import PAction, PricedGame, evaluate_profile, extended_dijkstra
from ptgsolve.ptg import Ptg, solve_ptg
from ptgsolve.sptg import Sptg, WAIT, solve_sptg
from strategy_cells import profile_of
from test_sweep_certificates import random_event_rich


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


def play_cost(sptg, profile, start, memo):
    """``simulate(sptg, profile, start).cost``, memoised per (state, clock)
    configuration in ``memo``, which calls on one game and profile share.
    Each configuration is stepped at most once per memo.  The reference
    the exact policy evaluation is tested against."""
    k, x = start
    x = Fr(x)
    chain = {}  # configuration -> step cost, in play order
    while k is not None and (k, x) not in memo and (k, x) not in chain:
        _, _, c, nk, nx = _step(sptg, profile, k, x)
        chain[k, x] = c
        k, x = nk, nx
    # a revisit makes every configuration of the play infinite
    acc = F0 if k is None else memo.get((k, x), INF)
    for conf, c in reversed(chain.items()):
        acc = INF if is_inf(c) or is_inf(acc) else c + acc
        memo[conf] = acc
    return acc



def profile_payoffs(game, profile):
    """Payoff of every state when both players follow the profile: the
    summed action costs of its play, infinite when the play cycles or
    takes an infinite-cost action."""
    n = game.num_states
    pay = {}
    for start in range(n):
        chain = {}  # state -> its action's cost, in play order
        k = start
        while k is not None and k not in pay and k not in chain:
            a = game.actions[profile[k]]
            chain[k] = a.cost
            k = a.dest
        # a state met again on its own chain lies on a cycle
        acc = F0 if k is None else pay.get(k, INF)
        for c, cost in reversed(chain.items()):
            acc = INF if is_inf(cost) or is_inf(acc) else cost + acc
            pay[c] = acc
    return [pay[k] for k in range(n)]


def full_enumeration(game):
    """Per-state value by playing every profile of both players: the max
    over the maximizer's strategies of the min over the minimizer's.  The
    reference ``brute_force_priced`` is tested against."""
    n = game.num_states
    p1_states = [k for k in range(n) if game.owners[k] == 1]
    p2_states = [k for k in range(n) if game.owners[k] == 2]
    best = [None] * n
    for picks2 in itertools.product(*(game.state_actions[k] for k in p2_states)):
        inner = [None] * n
        for picks1 in itertools.product(*(game.state_actions[k] for k in p1_states)):
            prof = [None] * n
            for k, j in zip(p2_states, picks2):
                prof[k] = j
            for k, j in zip(p1_states, picks1):
                prof[k] = j
            pay = profile_payoffs(game, prof)
            for k in range(n):
                if inner[k] is None or pay[k] < inner[k]:
                    inner[k] = pay[k]
        for k in range(n):
            if best[k] is None or inner[k] > best[k]:
                best[k] = inner[k]
    return best


def random_priced_games():
    """1,400 random priced games, n = 1..7: two-player and one-player,
    with and without infinite costs."""
    for n in range(1, 8):
        for seed in range(200):
            yield generate_random(
                "priced", n, 3, seed, one_player=seed % 4 == 1, allow_inf=seed % 2 == 0
            )


PRIMES = (2, 3, 5, 7, 11, 999_983, 1_000_003, 1_000_033, 1_000_037)


def fractional_priced_games():
    """240 random priced games, n = 1..6, each finite cost divided by a
    prime drawn for its action, some above 10**6, with infinite costs on
    even seeds: games whose costs share no denominator."""
    for n in range(1, 7):
        for seed in range(40):
            g = generate_random("priced", n, 3, seed, allow_inf=seed % 2 == 0)
            rng = random.Random(f"{n}/{seed}")
            actions = tuple(
                a if is_inf(a.cost) else dataclasses.replace(a, cost=a.cost / rng.choice(PRIMES))
                for a in g.actions
            )
            yield PricedGame(g.owners, actions)


def pinnings(g):
    """The allowed subsets brute force hands over: every maximizer state
    pinned to one action, every minimizer state free."""
    p2 = [k for k in range(g.num_states) if g.owners[k] == 2]
    for picks in itertools.product(*(g.state_actions[k] for k in p2)):
        allowed = list(g.state_actions)
        for k, j in zip(p2, picks):
            allowed[k] = (j,)
        yield allowed


def assert_exact(values):
    """Every finite value is a ``Fraction``, not an ``int``."""
    assert all(is_inf(v) or isinstance(v, Fr) for v in values), values


def probe_times(strategy, samples=50):
    """Clock values a sampling equilibrium check would probe, ascending:
    every cell's start and midpoint, and a grid of ``samples + 2`` points
    on the profile's span."""
    times = set()
    for a, b, _ in _cells(strategy):
        times.add(a)
        if a < b:
            times.add((a + b) / 2)
    lo, hi = strategy.span
    grid = samples + 1
    for i in range(grid + 1):
        times.add(lo + (hi - lo) * Fr(i, grid))
    return sorted(times)


def altered(f, a, b, bump):
    """``f`` plus ``bump`` strictly inside (a, b), and ``f`` itself
    elsewhere, at a and b included.  ``bump`` is linear on each half of
    [a, b]; ``f`` must be finite on [a, b] with no breakpoint inside."""
    c = (a + b) / 2
    grid = sorted(set(f.breaks) | {a, c, b})
    segs = []
    for u, v in zip(grid, grid[1:]):
        left, right = f.eval(u, "right"), f.eval(v, "left")
        if a <= u < b:
            left, right = left + bump(u), right + bump(v)
        segs.append((u, v, left, (right - left) / (v - u)))
    points = {x: f.eval(x) for x in (*f.breaks, a, b)}
    return PwlFn.from_segments(segs, {**points, c: f.eval(c) + bump(c)})


def dented(f, a, b):
    """``f`` less a tent that rises from 0 at ``a`` and falls back to 0 at ``b``."""
    c = (a + b) / 2
    return altered(f, a, b, lambda x: -Fr(1, 7) * (1 - abs(x - c) / (c - a)))


# values altered only inside an interval: a continuous dent, a lift with
# a jump at each end, and a tilt about the midpoint with a jump at each end
ALTERATIONS = {
    "dent": dented,
    "lift": lambda f, a, b: altered(f, a, b, lambda x: Fr(1, 5)),
    "tilt": lambda f, a, b: altered(f, a, b, lambda x: x - (a + b) / 2),
}


def gap_between_probes(sol):
    """A state of finite value and an interval (a, b) strictly between two
    consecutive probe times of ``sol``, or None."""
    times = probe_times(sol.strategy)
    for k, f in enumerate(sol.values):
        for t1, t2 in zip(times, times[1:]):
            if not is_inf(f.eval(t1)) and not is_inf(f.eval(t2)):
                return k, t1 + (t2 - t1) / 3, t1 + 2 * (t2 - t1) / 3
    return None


# the profiles of TestSimulate that break the rules of play
HORIZON_WAIT = (
    sptg([1], [0], (0, None, Fr(1))),
    profile_of(((F0, F1, (WAIT,)), (F1, F1, (WAIT,)))),
)
FOREIGN_ACTION = (
    sptg([1, 1], [0, 0], (0, None, Fr(1)), (1, None, Fr(1))),
    profile_of(((F0, F1, (1, 1)), (F1, F1, (1, 1)))),
)
# a profile that starts at 1/2, on a game over [0,1]
LATE_START = (
    sptg([1], [0], (0, None, Fr(1))),
    profile_of(((Fr(1, 2), F1, (0,)), (F1, F1, (0,)))),
)
# a stop, choice m + k = 1, is a choice at hi of a game with a boundary
BOUNDED = dataclasses.replace(sptg([1], [1], (0, None, Fr(3))), boundary=(Fr(2),))
EARLY_STOP = (BOUNDED, profile_of(((F0, F1, (1,)), (F1, F1, (1,)))))
STOP_WITHOUT_BOUNDARY = (
    sptg([1], [1], (0, None, Fr(3))),
    profile_of(((F0, F1, (WAIT,)), (F1, F1, (1,)))),
)


def full_rounds_sptg(g):
    """``value_iteration_sptg``'s values and round count, recomputing
    every state in every round: the reference its recompute rule is
    tested against."""
    n = g.num_states
    fns = (PwlFn.constant(F0, F1, INF),) * n
    for it in itertools.count(1):
        new = []
        for k in range(n):
            cands = [
                PwlFn.constant(F0, F1, a.cost) if a.dest is None else fns[a.dest].offset(a.cost)
                for a in (g.actions[j] for j in g.state_actions[k])
            ]
            envelope, side = (min_envelope, "min") if g.owners[k] == 1 else (max_envelope, "max")
            new.append(wait_closure(envelope(cands), g.rates[k], side))
        if tuple(new) == fns:
            return fns, it
        fns = tuple(new)


def full_rounds_untimed(game, allowed):
    """``untimed_value_iteration``, recomputing every state in every
    round: at most n rounds, stopping early at a fixpoint."""
    n = game.num_states
    pick = [min if o == 1 else max for o in game.owners]
    v = [INF] * n
    for _ in range(n):
        new = []
        for k in range(n):
            cands = []
            for a in (game.actions[j] for j in allowed[k]):
                if a.dest is None:
                    cands.append(a.cost)
                elif is_inf(a.cost) or is_inf(v[a.dest]):
                    cands.append(INF)
                else:
                    cands.append(a.cost + v[a.dest])
            new.append(pick[k](cands))
        if new == v:
            break
        v = new
    return v


def assert_full_rounds(g):
    res = value_iteration_sptg(g)
    assert (res.values, res.iterations) == full_rounds_sptg(g), g
    return res


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
        assert res.iterations <= fx.game.num_states * fx.game.profile_bound() + 1

    def test_cap_enforced(self):
        with pytest.raises(OracleError):
            value_iteration_sptg(fixture_a().game, cap=1)

    def test_matches_sweep_on_randoms(self):
        for seed in range(40):
            g = generate_random("sptg", 3, 3, seed, allow_inf=(seed % 4 == 0))
            assert value_iteration_sptg(g).values == solve_sptg(g).values, seed

    def test_recomputes_only_the_sources_of_changed_states(self, monkeypatch):
        # a chain 0 -> 1 -> ... -> n-1 -> terminal at cost 1 per move: one
        # state changes per round, from the terminal end, so after the
        # first round each round recomputes one state
        n = 60
        g = sptg([1] * n, [1] * n, *[(i, i + 1 if i + 1 < n else None, 1) for i in range(n)])
        calls = []
        plain = oracle.min_envelope
        monkeypatch.setattr(oracle, "min_envelope", lambda fs: calls.append(1) or plain(fs))
        res = value_iteration_sptg(g)
        assert res.values == tuple(PwlFn.constant(F0, F1, n - i) for i in range(n))
        assert res.iterations == n + 1
        assert len(calls) <= 2 * n - 1, len(calls)

    def test_matches_full_rounds_on_randoms(self):
        for seed in range(400):
            assert_full_rounds(generate_random("sptg", 1 + seed % 5, 3, seed, allow_inf=seed % 2 == 0))

    def test_matches_full_rounds_on_event_rich_games(self):
        breaks = 0
        for seed in range(100):
            res = assert_full_rounds(random_event_rich(seed))
            breaks += sum(len(f.interior_breaks()) for f in res.values)
        assert breaks >= 100


class TestSimulate:
    def test_play_cost_equals_value(self):
        fx = fixture_a()
        sol = solve_sptg(fx.game)
        for k in range(3):
            for t in (F0, Fr(3, 10), Fr(1, 2), Fr(9, 10), F1):
                play = simulate(fx.game, sol.strategy, (k, t))
                assert play.terminal
                assert play.cost == sol.values[k].eval(t)

    def test_wait_steps_advance_to_run_boundaries(self):
        # state 1 waits on [0, 1) in one run, though state 0 changes its
        # choice at 1/2
        fx = fixture_a()
        sol = solve_sptg(fx.game)
        assert [lo for lo, _, _ in _cells(sol.strategy)] == [F0, Fr(1, 2), F1]
        play = simulate(fx.game, sol.strategy, (1, Fr(3, 10)))
        waits = [(s.time, s.delay) for s in play.steps if s.action is None]
        assert waits == [(Fr(3, 10), Fr(7, 10))]

    def test_revisit_certifies_infinity(self):
        g = sptg([1], [0], (0, 0, Fr(1)), (0, None, Fr(5)))
        loop = profile_of(((F0, F1, (0,)), (F1, F1, (0,))))
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

    def test_a_stop_ends_the_play_at_hi_only(self):
        waits = profile_of(((F0, F1, (WAIT,)), (F1, F1, (1,))))
        play = simulate(BOUNDED, waits, (0, Fr(1, 4)))
        assert play.terminal and play.cost == Fr(3, 4) + 2
        assert [s.action for s in play.steps] == [None, 1]
        for g, bad in (EARLY_STOP, STOP_WITHOUT_BOUNDARY):
            with pytest.raises(OracleError, match="no action, no stop"):
                simulate(g, bad, (0, F0))


class TestSimulatePtg:
    """Plays of the maximizer reset loop: one rate-1 state with a free
    reset self-loop (action 0) and a free exit at 1 only (action 1)."""

    game = maximizer_reset_loop().game

    def test_reset_returns_the_clock_to_zero(self):
        def chooser(k, x, resets):
            if resets == 0:
                return ("move", 0)
            return ("wait", F1 - x) if x < F1 else ("move", 1)

        play = simulate_ptg(self.game, chooser, (0, Fr(1, 2)))
        assert play.terminal and play.cost == F1
        assert [(s.time, s.action, s.delay) for s in play.steps] == [
            (Fr(1, 2), 0, F0),
            (F0, None, F1),
            (F1, 1, F0),
        ]

    def test_a_zero_wait_revisits_its_configuration(self):
        play = simulate_ptg(self.game, lambda k, x, resets: ("wait", 0), (0, Fr(1, 2)))
        assert not play.terminal and is_inf(play.cost)
        assert len(play.steps) == 1

    @pytest.mark.parametrize(
        "choice, message",
        [
            (("wait", F1), "bad delay 1 at time 1/2"),
            (("move", 1), "action 1 unavailable at (0, 1/2)"),
        ],
        ids=["past-the-horizon", "exit-before-one"],
    )
    def test_an_unplayable_choice_is_rejected(self, choice, message):
        with pytest.raises(OracleError) as exc:
            simulate_ptg(self.game, lambda k, x, resets: choice, (0, Fr(1, 2)))
        assert str(exc.value) == message

    def test_endless_resets_exhaust_the_step_budget(self):
        # the reset count is part of the configuration, so a play that
        # resets forever never revisits one and only the budget ends it
        with pytest.raises(OracleError, match="^simulation step budget exceeded$"):
            simulate_ptg(self.game, lambda k, x, resets: ("move", 0), (0, F0))


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
        loop = profile_of(((F0, F1, (0, 1)), (F1, F1, (0, 1))))
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
            (lo, hi, (1,) + choices[1:]) for lo, hi, choices in _cells(sol.strategy)
        )
        bad = dataclasses.replace(sol, strategy=profile_of(cells))
        assert not check_equilibrium(fx.game, bad).passed

    def test_detects_longer_equal_cost_route_in_every_cell(self):
        # both states exit at cost 1; state 0 may also move freely to state 1
        g = sptg([1, 1], [1, 1], (0, None, Fr(1)), (0, 1, Fr(0)), (1, None, Fr(1)))
        sol = solve_sptg(g)
        assert check_equilibrium(g, sol).passed
        assert [choices[0] for _, _, choices in _cells(sol.strategy)] == [0, 0]
        cells = tuple((lo, hi, (1,) + choices[1:]) for lo, hi, choices in _cells(sol.strategy))
        bad = dataclasses.replace(sol, strategy=profile_of(cells))
        report = check_equilibrium(g, bad)
        # the detour costs the same, so only the snapshot re-check sees it,
        # on the interval cell and on the point cell at 1
        assert not report.passed and not report.probe_failures
        assert sorted(report.cell_failures) == [(0, 1, 0), (1, 1, 0)]

    def test_detects_a_switch_into_a_zero_time_cycle(self):
        # minimizer A exits at cost 1 or moves freely to maximizer B,
        # which exits at cost 1 or moves freely back to A; no rates
        g = sptg(
            [1, 2], [0, 0], (0, None, Fr(1)), (0, 1, Fr(0)), (1, None, Fr(1)), (1, 0, Fr(0))
        )
        sol = solve_sptg(g)
        assert value_iteration_sptg(g).values == sol.values
        # A -> B, B -> exit costs 1 from both states, their values
        cells = ((F0, F1, (1, 2)), (F1, F1, (1, 2)))
        bad = dataclasses.replace(sol, strategy=profile_of(cells))
        report = check_equilibrium(g, bad)
        assert report.probe_failures == []
        # B's switch back to A closes a cycle that takes no time and
        # costs infinity: only the snapshot re-check sees it, in both
        # cells; A's own exit (and in the interval cell its wait) is as
        # cheap in fewer hops
        failures = sorted(report.cell_failures)
        assert failures == [(0, 1, 0), (0, 1, 4), (0, 2, 3), (1, 1, 0), (1, 2, 3)]

    def test_names_a_point_value_that_differs_at_one(self):
        fx = fixture_a()
        sol = solve_sptg(fx.game)
        f = sol.values[1]
        raised = PwlFn.from_segments(list(f.segments()), {F1: f.eval(F1) + 1})
        bad = dataclasses.replace(sol, values=(sol.values[0], raised, sol.values[2]))
        assert check_equilibrium(fx.game, bad).probe_failures == [(1, F1, F0, F1)]

    def test_passes_without_event_points(self):
        g = sptg([2], [1], (0, None, Fr(0)))
        sol = solve_sptg(g)
        assert sol.stats.event_points == 0
        assert check_equilibrium(g, sol).passed

    @pytest.mark.parametrize(
        "case",
        [HORIZON_WAIT, FOREIGN_ACTION, LATE_START, EARLY_STOP, STOP_WITHOUT_BOUNDARY],
        ids=["horizon-wait", "foreign-action", "late-start", "early-stop", "unbounded-stop"],
    )
    def test_rules_of_play_enforced(self, case):
        g, profile = case
        sol = dataclasses.replace(solve_sptg(g), strategy=profile)
        with pytest.raises(OracleError):
            check_equilibrium(g, sol)

    def test_evaluation_work_is_bounded(self, monkeypatch):
        g = fan(24)
        sol = solve_sptg(g)
        assert sol.stats.event_points == 23
        calls = {"from_segments": 0, "lines": 0}
        from_segments = PwlFn.from_segments

        def counted(key, f):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return f(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(PwlFn, "from_segments", staticmethod(counted("from_segments", from_segments)))
        monkeypatch.setattr(oracle, "_through", counted("lines", oracle._through))
        monkeypatch.setattr(oracle, "_waiting", counted("lines", oracle._waiting))
        assert check_equilibrium(g, sol).passed
        assert calls["from_segments"] == g.num_states
        cells = _cells(sol.strategy)
        assert 0 < calls["lines"] <= g.num_states * len(cells)
        # lines are reused while choices hold: one per state at 1, then
        # about one per choice that changes from cell to cell
        changes = sum(x != y for c, d in zip(cells, cells[1:]) for x, y in zip(c[2], d[2]))
        assert calls["lines"] <= g.num_states + 2 * changes < g.num_states * len(cells) // 4


class TestEvaluatePolicy:
    def test_profile_must_span_the_games_domain(self):
        g, late = LATE_START
        with pytest.raises(OracleError, match=r"profile spans \[1/2, 1\], the game \[0, 1\]"):
            evaluate_policy(g, late)
        shifted = dataclasses.replace(g, lo=Fr(1, 2))
        assert evaluate_policy(shifted, late) == (PwlFn.constant(Fr(1, 2), F1, Fr(1)),)
        with pytest.raises(OracleError):
            evaluate_policy(shifted, solve_sptg(g).strategy)

    def test_equals_play_cost_at_probe_times(self):
        for g, sol in solved_sptgs():
            costs = evaluate_policy(g, sol.strategy)
            memo = {}
            for k in range(g.num_states):
                for t in probe_times(sol.strategy):
                    assert costs[k].eval(t) == play_cost(g, sol.strategy, (k, t), memo), (k, t)

    def test_equals_play_cost_under_random_profiles(self):
        # profiles no solve ships: random cells and choices, waits, cycles
        rng = random.Random(5)
        infinite = 0
        for seed in range(120):
            g = generate_random("sptg", 1 + seed % 5, 3, seed, allow_inf=True)
            cuts = sorted({Fr(rng.randint(1, 11), 12) for _ in range(rng.randint(0, 4))})
            bounds = [F0, *cuts, F1]
            cells = []
            for lo, hi in zip(bounds, bounds[1:]):
                cells.append((lo, hi, tuple(
                    rng.choice(list(js) + [WAIT]) for js in g.state_actions
                )))
            cells.append((F1, F1, tuple(rng.choice(js) for js in g.state_actions)))
            profile = profile_of(tuple(cells))
            costs = evaluate_policy(g, profile)
            memo = {}
            times = probe_times(profile, samples=23)
            for k in range(g.num_states):
                for t in times:
                    got = play_cost(g, profile, (k, t), memo)
                    infinite += is_inf(got)
                    assert costs[k].eval(t) == got, (seed, k, t)
        assert infinite > 0

    def test_zero_time_loop(self):
        g = sptg([1, 1], [0, 0], (0, 1, Fr(1)), (1, 0, Fr(1)))
        loop = profile_of(((F0, F1, (0, 1)), (F1, F1, (0, 1))))
        costs = evaluate_policy(g, loop)
        memo = {}
        for k in range(2):
            assert costs[k].is_constant_inf()
            for t in probe_times(loop):
                assert is_inf(play_cost(g, loop, (k, t), memo))

    def test_cycle_of_choices_inside_a_cell_is_infinite(self):
        # states 0 and 1 pass the turn to each other on [1/4, 1/2) and
        # otherwise wait (rate 2 and 3) or exit at cost 1
        g = sptg([1, 2], [2, 3], (0, 1, Fr(0)), (0, None, Fr(1)), (1, 0, Fr(0)), (1, None, Fr(1)))
        h, q = Fr(1, 2), Fr(1, 4)
        profile = profile_of((
            (F0, q, (WAIT, WAIT)),
            (q, h, (0, 2)),
            (h, F1, (1, 3)),
            (F1, F1, (1, 3)),
        ))
        costs = evaluate_policy(g, profile)
        assert costs[0] == PwlFn.from_segments([(F0, q, INF, F0), (q, h, INF, F0), (h, F1, Fr(1), F0)])
        assert costs[1] == PwlFn.from_segments([(F0, h, INF, F0), (h, F1, Fr(1), F0)])
        assert is_inf(costs[0].eval(Fr(3, 8))) and costs[0].eval(h) == 1


@pytest.mark.parametrize("alter", ALTERATIONS.values(), ids=ALTERATIONS.keys())
class TestAlteredBetweenProbes:
    """A value altered only between two probe times: no sampling check
    sees it, the exact check does."""

    def fails(self, g, sol, alter):
        k, a, b = gap_between_probes(sol)
        values = list(sol.values)
        values[k] = alter(values[k], a, b)
        assert values[k] != sol.values[k]
        assert all(values[k].eval(t) == sol.values[k].eval(t) for t in probe_times(sol.strategy))
        report = check_equilibrium(g, dataclasses.replace(sol, values=tuple(values)))
        assert not report.passed
        ((state, t, got, want),) = report.probe_failures
        assert state == k and a < t < b and got == sol.values[k].eval(t) != want

    def test_fixture(self, alter):
        fx = fixture_a()
        self.fails(fx.game, solve_sptg(fx.game), alter)

    def test_random_games(self, alter):
        altered_games = 0
        for seed in range(40):
            g = generate_random("sptg", 3, 3, seed, allow_inf=(seed % 4 == 0))
            sol = solve_sptg(g)
            if gap_between_probes(sol) is not None:
                self.fails(g, sol, alter)
                altered_games += 1
        assert altered_games > 20


class TestDentedCertificate:
    def test_ptg_interval_certificate_fails_verify(self, monkeypatch, capsys):
        game = Path(__file__).parent / "golden" / "ptg-resets.json"

        def solve_dented(g):
            res = solve_ptg(g)
            cert = res.trace[0]
            k, a, b = gap_between_probes(cert.solution)
            assert cert.sptg.lo < a < b < cert.sptg.hi
            values = list(cert.solution.values)
            values[k] = dented(values[k], a, b)
            solution = dataclasses.replace(cert.solution, values=tuple(values))
            trace = (dataclasses.replace(cert, solution=solution),) + res.trace[1:]
            return dataclasses.replace(res, trace=trace)

        assert cli.main(["solve", str(game), "--verify"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "solve_ptg", solve_dented)
        assert cli.main(["solve", str(game), "--verify"]) == 1
        assert capsys.readouterr().err == '{"verify": "failed"}\n'


def chain_game(n):
    """A minimizer chain 0 -> 1 -> ... -> n-1 -> terminal of free moves,
    each state also exiting directly at cost 1: state 0's best play takes
    exactly n moves."""
    return PricedGame(
        (1,) * n,
        tuple(
            a
            for k in range(n)
            for a in (PAction(k, k + 1 if k + 1 < n else None, F0), PAction(k, None, F1))
        ),
    )


class TestUntimedGames:
    """``untimed_value_iteration`` over every action, and
    ``brute_force_priced``, on games whose value needs a long play, a
    cycle left or avoided, or an infinite cost."""

    def values(self, g):
        vi = untimed_value_iteration(g, g.state_actions)
        assert brute_force_priced(g) == vi
        return vi

    def test_best_play_takes_n_moves(self):
        for n in range(1, 7):
            assert self.values(chain_game(n)) == [F0] * n, n

    def test_maximizer_pins_a_play_of_n_moves(self):
        # the maximizer at 1 prefers the chain on to 3, whose exit costs 1,
        # to its free exit; state 0's value then takes all four moves
        g = PricedGame(
            (1, 2, 1, 1),
            (
                PAction(0, 1, F0),
                PAction(0, None, Fr(3)),
                PAction(1, 2, F0),
                PAction(1, None, F0),
                PAction(2, 3, F0),
                PAction(2, None, Fr(3)),
                PAction(3, None, F1),
            ),
        )
        assert self.values(g) == [F1] * 4

    def test_zero_cost_cycle_is_left(self):
        g = PricedGame(
            (1, 1),
            (PAction(0, 1, F0), PAction(1, 0, F0), PAction(1, None, Fr(5))),
        )
        assert self.values(g) == [Fr(5), Fr(5)]

    def test_maximizer_traps_the_play_in_a_cycle(self):
        g = PricedGame(
            (2, 1),
            (PAction(0, None, Fr(3)), PAction(0, 1, F1), PAction(1, 0, F1)),
        )
        assert all(map(is_inf, self.values(g)))

    def test_infinite_action_left_as_the_only_one(self):
        # the maximizer shuts the finite exit, leaving the infinite one
        g = PricedGame(
            (1, 2),
            (PAction(0, 1, F0), PAction(1, None, INF), PAction(1, None, Fr(2))),
        )
        assert all(map(is_inf, self.values(g)))
        g = PricedGame((1,), (PAction(0, None, INF),))
        assert is_inf(self.values(g)[0])

    def test_costs_past_the_float_range(self):
        # 60 distinct prime denominators above 10**6: each cost scaled by
        # their lcm is an integer too large for a float, and a move into a
        # state still at infinity must stay infinite, not overflow
        primes = [p for p in range(10**6, 10**6 + 2000) if all(p % d for d in range(2, 1001))]
        p = primes[:60]
        g = PricedGame(
            (1, 2),
            (PAction(0, 1, Fr(1, p[0])), PAction(0, None, F1))
            + tuple(PAction(1, None, Fr(1, q)) for q in p[1:]),
        )
        assert self.values(g) == [Fr(1, p[0]) + Fr(1, p[1]), Fr(1, p[1])]
        assert g.cost_denominator > 10**308

    def test_value_iteration_matches_dijkstra_on_randoms(self):
        for g in random_priced_games():
            dv, _ = extended_dijkstra(g)
            assert untimed_value_iteration(g, g.state_actions) == dv, g

    def test_matches_full_rounds_with_pinned_maximizer_choices(self):
        for n in range(1, 7):
            for seed in range(30):
                g = generate_random("priced", n, 3, seed, allow_inf=seed % 2 == 0)
                for allowed in pinnings(g):
                    want = full_rounds_untimed(g, allowed)
                    assert untimed_value_iteration(g, allowed) == want, (g, allowed)

    def test_fractional_costs_match_full_rounds(self):
        # the rounds run over integers scaled by the costs' common
        # denominator, and hand back exact Fractions
        finite = infinite = 0
        for g in fractional_priced_games():
            for allowed in [g.state_actions, *pinnings(g)]:
                got = untimed_value_iteration(g, allowed)
                assert got == full_rounds_untimed(g, allowed), (g, allowed)
                assert_exact(got)
                finite += sum(not is_inf(v) and v.denominator > 10**6 for v in got)
                infinite += sum(map(is_inf, got))
        assert finite > 100 and infinite > 100

    def test_scaling_every_cost_scales_the_values(self):
        lam = Fr(7, 3)
        for g in fractional_priced_games():
            scaled = PricedGame(
                g.owners,
                tuple(
                    a if is_inf(a.cost) else dataclasses.replace(a, cost=a.cost * lam)
                    for a in g.actions
                ),
            )
            for values in (brute_force_priced, lambda h: untimed_value_iteration(h, h.state_actions)):
                want = [v if is_inf(v) else v * lam for v in values(g)]
                assert values(scaled) == want, g


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

    def test_matches_full_enumeration_on_randoms(self):
        infinite = 0
        for g in random_priced_games():
            want = full_enumeration(g)
            infinite += any(map(is_inf, want))
            assert brute_force_priced(g) == want, g
        assert infinite > 100

    def test_fractional_costs_match_full_enumeration(self):
        finite = infinite = 0
        for g in fractional_priced_games():
            got = brute_force_priced(g)
            assert got == full_enumeration(g), g
            assert_exact(got)
            finite += sum(not is_inf(v) and v.denominator > 10**6 for v in got)
            infinite += sum(map(is_inf, got))
        assert finite > 50 and infinite > 50


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
