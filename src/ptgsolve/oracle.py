"""Independent verification machinery.

Everything here recomputes results by routes disjoint from the sweep
solver: backward-induction value iteration over piecewise linear
functions, play simulation under explicit strategies, brute-force
enumeration for untimed games, and seeded random instance generation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .numerics import (
    F0,
    F1,
    INF,
    PwlFn,
    frac,
    is_inf,
    max_envelope,
    min_envelope,
    wait_closure,
)
from .priced_game import PAction, PricedGame, improving_switches
from .ptg import Ptg, TAction
from .sptg import WAIT, Sptg, SptgSolution, TimedStrategyProfile, build_eps_game


class OracleError(RuntimeError):
    pass


# -- value iteration --------------------------------------------------------


@dataclass(frozen=True)
class ValueIterationResult:
    values: tuple  # PwlFn per state
    iterations: int


def value_iteration_sptg(sptg: Sptg, cap: Optional[int] = None) -> ValueIterationResult:
    """Backward induction on the number of transitions taken.

    Starts from the all-infinite vector and applies one round of
    best-action envelopes followed by waiting closure per iteration,
    stopping at an exact fixpoint.  Raises when the cap is hit first.
    """
    n = sptg.num_states
    if cap is None:
        cap = n * sptg.core.profile_bound() + 1
    fns = tuple(PwlFn.constant(F0, F1, INF) for _ in range(n))
    for it in range(1, cap + 1):
        new = []
        for k in range(n):
            cands = []
            for j in sptg.core.state_actions[k]:
                a = sptg.actions[j]
                if is_inf(a.cost):
                    cands.append(PwlFn.constant(F0, F1, INF))
                elif a.dest is None:
                    cands.append(PwlFn.constant(F0, F1, a.cost))
                else:
                    cands.append(fns[a.dest].offset(a.cost))
            if sptg.owners[k] == 1:
                env = min_envelope(cands)
                new.append(wait_closure(env, sptg.rates[k], "min"))
            else:
                env = max_envelope(cands)
                new.append(wait_closure(env, sptg.rates[k], "max"))
        new = tuple(new)
        if new == fns:
            return ValueIterationResult(new, it)
        fns = new
    raise OracleError(f"no fixpoint within {cap} iterations")


# -- play simulation --------------------------------------------------------


@dataclass(frozen=True)
class PlayStep:
    state: int
    time: Fraction
    action: Optional[int]  # None = waiting
    delay: Fraction


@dataclass(frozen=True)
class Play:
    steps: tuple
    terminal: bool
    cost: object  # Fraction | INF


def _step(sptg: Sptg, profile: TimedStrategyProfile, k: int, x: Fraction):
    """One move of the profile's play from ``(k, x)``: waiting runs to the
    end of the clock's cell.  Returns ``(choice, delay, cost, k', x')``."""
    _, hi, choices = profile.cell_at(x)
    choice = choices[k]
    if choice is WAIT:
        if x == F1:
            raise OracleError(f"profile waits at the horizon in state {k}")
        delay = hi - x
        return choice, delay, sptg.rates[k] * delay, k, hi
    a = sptg.actions[choice]
    if a.source != k:
        raise OracleError(f"profile picks a foreign action at state {k}")
    return choice, F0, a.cost, a.dest, x


def simulate(sptg: Sptg, profile: TimedStrategyProfile, start) -> Play:
    """Deterministic play of both players following the profile from a
    (state, time) configuration.  A configuration revisit at equal time
    certifies an infinite play of infinite cost."""
    k, x = start
    x = frac(x)
    steps = []
    cost = F0
    seen = set()
    while k is not None:
        if (k, x) in seen:
            return Play(tuple(steps), False, INF)
        seen.add((k, x))
        choice, delay, c, nk, nx = _step(sptg, profile, k, x)
        steps.append(PlayStep(k, x, choice, delay))
        cost = cost + c
        k, x = nk, nx
    return Play(tuple(steps), True, cost if not is_inf(cost) else INF)


def play_cost(sptg: Sptg, profile: TimedStrategyProfile, start, memo: dict):
    """``simulate(sptg, profile, start).cost``, memoised per (state, clock)
    configuration in ``memo``, which calls on one game and profile share.
    Each configuration is stepped at most once per memo."""
    k, x = start
    x = frac(x)
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


def simulate_ptg(game: Ptg, chooser, start, max_steps: int = 10_000) -> Play:
    """Play a timed game under an explicit decision function.

    ``chooser(state, time, resets_used)`` returns ``("wait", delay)`` or
    ``("move", action_index)``.  A configuration revisit at equal time
    and reset count certifies cost infinity.
    """
    k, x = start
    x = frac(x)
    steps = []
    cost = F0
    resets = 0
    seen = set()
    for _ in range(max_steps):
        if k is None:
            return Play(tuple(steps), True, cost if not is_inf(cost) else INF)
        if (k, x, resets) in seen:
            return Play(tuple(steps), False, INF)
        seen.add((k, x, resets))
        kind, arg = chooser(k, x, resets)
        if kind == "wait":
            delay = frac(arg)
            if delay < 0 or x + delay > game.horizon:
                raise OracleError(f"bad delay {arg} at time {x}")
            cost = cost + game.rates[k] * delay
            steps.append(PlayStep(k, x, None, delay))
            x = x + delay
        else:
            a = game.actions[arg]
            if a.source != k or not a.available_at(x):
                raise OracleError(f"action {arg} unavailable at ({k}, {x})")
            cost = cost + a.cost
            steps.append(PlayStep(k, x, arg, F0))
            k = a.dest
            if a.reset:
                x = F0
                resets += 1
    raise OracleError("simulation step budget exceeded")


# -- equilibrium checking ---------------------------------------------------


@dataclass
class EquilibriumReport:
    passed: bool = True
    probe_failures: list = field(default_factory=list)  # (state, time, got, want)
    cell_failures: list = field(default_factory=list)  # (cell_index, player, action)

    def fail_probe(self, state, t, got, want):
        self.passed = False
        self.probe_failures.append((state, t, got, want))

    def fail_cell(self, idx, player, action):
        self.passed = False
        self.cell_failures.append((idx, player, action))


def probe_times(strategy: TimedStrategyProfile, samples: int = 50) -> list:
    """Clock values the equilibrium check probes, ascending: every cell's
    start and midpoint, and a grid of ``samples + 2`` points on [0,1]."""
    times = set()
    for lo, hi, _ in strategy.cells:
        times.add(lo)
        if lo < hi:
            times.add((lo + hi) / 2)
    times.add(F1)
    grid = samples + 1
    for i in range(grid + 1):
        times.add(Fraction(i, grid))
    return sorted(times)


def check_equilibrium(sptg: Sptg, sol: SptgSolution, samples: int = 50) -> EquilibriumReport:
    """Certify what a solve ships two ways: simulated play cost must equal
    the value function at every probed time, and no cell of the strategy
    may admit an improving switch for either player.  An interval cell
    [lo, hi) is played in the snapshot game whose waits cost the values
    at hi, with WAIT as the wait exit m + k; the point cell at 1 in the
    untimed game.  A cell failure names the cell by its index in
    ``sol.strategy.cells``."""
    report = EquilibriumReport()
    times = probe_times(sol.strategy, samples)
    memo = {}
    for k in range(sptg.num_states):
        for t in times:
            got = play_cost(sptg, sol.strategy, (k, t), memo)
            want = sol.values[k].eval(t)
            if got != want and not (is_inf(got) and is_inf(want)):
                report.fail_probe(k, t, got, want)
    m = sptg.num_actions
    for idx, (lo, hi, choices) in enumerate(sol.strategy.cells):
        if lo == hi:
            game, profile = sptg.core, choices
        else:
            game = build_eps_game(sptg, [f.eval(hi) for f in sol.values])
            profile = tuple(m + k if j is WAIT else j for k, j in enumerate(choices))
        for player in (1, 2):
            for j, _ in improving_switches(game, profile, player):
                report.fail_cell(idx, player, j)
    return report


# -- brute force ------------------------------------------------------------


def profile_payoffs(game: PricedGame, profile) -> list:
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


def brute_force_priced(game: PricedGame, budget: int = 10**6):
    """Per-state value by exhaustive strategy enumeration: the best the
    maximizer can guarantee against the minimizer's best response."""
    total = 1
    for js in game.state_actions:
        total *= len(js)
    if total > budget:
        raise OracleError(f"{total} profiles exceed the enumeration budget {budget}")
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
                u = pay[k]
                if inner[k] is None or u < inner[k]:
                    inner[k] = u
        for k in range(n):
            if best[k] is None or inner[k] > best[k]:
                best[k] = inner[k]
    return best


# -- random instances -------------------------------------------------------


def _rng(kind, n, max_actions, seed):
    return random.Random(f"{kind}/{n}/{max_actions}/{seed}")


def generate_random(
    kind: str,
    n: int,
    max_actions: int = 3,
    seed: int = 0,
    *,
    one_player: bool = False,
    allow_inf: bool = False,
    rate_one_cost_zero: bool = False,
    resets: bool = True,
):
    """Seed-deterministic random instance that always passes validation.

    Rates and costs are small integers; PTG intervals use at most three
    distinct endpoints and at most n reset actions.
    """
    if n < 1:
        raise ValueError("need at least one state")
    rng = _rng(kind, n, max_actions, seed)

    def owner():
        return 1 if one_player else rng.choice((1, 2))

    def rate():
        return F1 if rate_one_cost_zero else Fraction(rng.randint(0, 4))

    def cost():
        if rate_one_cost_zero:
            return F0
        if allow_inf and rng.random() < 1 / 8:
            return INF
        return Fraction(rng.randint(0, 4))

    def dest():
        # lean towards the terminal so most instances have finite values
        return None if rng.random() < 0.4 else rng.randrange(n)

    owners = tuple(owner() for _ in range(n))
    rates = tuple(rate() for _ in range(n))

    if kind in ("priced", "sptg"):
        actions = tuple(
            PAction(k, dest(), cost())
            for k in range(n)
            for _ in range(rng.randint(1, max_actions))
        )
        if kind == "priced":
            return PricedGame(owners, actions)
        return Sptg(owners, rates, actions)

    if kind == "ptg":
        horizon = Fraction(rng.choice((1, 2)))
        pool = [F0, horizon]
        if rng.random() < 0.7:
            pool.append(horizon * Fraction(rng.choice((1, 2, 3)), 4))
        pool = sorted(set(pool))
        reset_budget = n if resets else 0
        actions = []
        for k in range(n):
            count = rng.randint(1, max_actions)
            for idx in range(count):
                d = dest()
                if idx == 0:
                    lo, hi = rng.choice(pool), horizon
                    lo_c, hi_c = rng.random() < 0.8 or lo == hi, True
                else:
                    lo, hi = sorted(rng.sample(pool, 2)) if len(pool) > 1 else (F0, horizon)
                    lo = Fraction(lo)
                    hi = Fraction(hi)
                    lo_c = rng.random() < 0.8 or lo == hi
                    hi_c = rng.random() < 0.8 or lo == hi
                reset = False
                if d is not None and reset_budget > 0 and rng.random() < 0.2:
                    reset = True
                    reset_budget -= 1
                actions.append(
                    TAction(k, d, cost(), Fraction(lo), Fraction(hi), lo_c, hi_c, reset)
                )
        return Ptg(owners, rates, tuple(actions))

    raise ValueError(f"unknown kind {kind!r}")
