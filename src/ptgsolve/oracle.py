"""Independent verification machinery.

Results are recomputed here by routes apart from the sweep solver:
backward-induction value iteration over piecewise linear functions, exact
evaluation of a timed strategy profile's play costs, play simulation
under explicit strategies, value iteration for untimed games, a brute
force over the maximizer's strategies that answers each with the
minimizer's best response, and seeded random instance generation.  One
solver routine is still shared: the equilibrium check builds its cell
games itself and looks for switches in them with
``improving_switches``.  A game's boundary prices state k's stop, its
choice m + k at hi and never below, at its boundary value.
"""

from __future__ import annotations

import itertools
import math
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
from .sptg import WAIT, Sptg, SptgSolution, TimedStrategyProfile


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
    A boundary offers each state k waiting until hi to stop there,
    ``b_k + rate_k*(hi - x)``, which the waiting closure keeps as it is.

    A round's function for state k depends only on the functions of k's
    destinations in the previous round.  So the first round computes
    every state, and each later round recomputes only the sources of
    actions into a state whose function changed in the round before:
    every other state would get its function again.  The values after
    each round, and the round at which nothing changes, are those of
    recomputing every state in every round.
    """
    n = sptg.num_states
    if cap is None:
        cap = n * sptg.profile_bound() + 1
    sides = [(min_envelope, "min") if o == 1 else (max_envelope, "max") for o in sptg.owners]
    fns = [PwlFn.constant(sptg.lo, sptg.hi, INF)] * n
    lo, hi, boundary = sptg.lo, sptg.hi, sptg.boundary or ()
    stops = [PwlFn.affine(lo, hi, b + r * (hi - lo), -r) for b, r in zip(boundary, sptg.rates)]
    todo = range(n)
    for it in range(1, cap + 1):
        new = {}
        for k in todo:
            cands = stops[k : k + 1]
            for j in sptg.state_actions[k]:
                a = sptg.actions[j]
                if a.dest is None:
                    cands.append(PwlFn.constant(sptg.lo, sptg.hi, a.cost))
                else:
                    cands.append(fns[a.dest].offset(a.cost))
            envelope, side = sides[k]
            new[k] = wait_closure(envelope(cands), sptg.rates[k], side)
        changed = [k for k, f in new.items() if f != fns[k]]
        if not changed:
            return ValueIterationResult(tuple(fns), it)
        for k in changed:
            fns[k] = new[k]
        todo = {sptg.actions[j].source for k in changed for j in sptg.incoming[k]}
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


def _stop(sptg: Sptg, k: int, j: int, x) -> PAction:
    """State ``k``'s choice ``j`` past the actions at clock ``x``: its stop,
    an exit worth its boundary value, if ``j`` is m + k and ``x`` is hi."""
    if sptg.boundary is None or j != sptg.num_actions + k or x != sptg.hi:
        raise OracleError(f"profile picks {j} at state {k}, clock {x}: no action, no stop")
    return PAction(k, None, sptg.boundary[k])


def _step(sptg: Sptg, profile: TimedStrategyProfile, k: int, x: Fraction):
    """One move of the profile's play from ``(k, x)``: waiting runs to the
    end of the state's own run.  Returns ``(choice, delay, cost, k', x')``."""
    choice, end = profile.run_at(k, x)
    if choice is WAIT:
        if end == x:
            raise OracleError(f"profile waits at the horizon in state {k}")
        delay = end - x
        return choice, delay, sptg.rates[k] * delay, k, end
    a = sptg.actions[choice] if choice < sptg.num_actions else _stop(sptg, k, choice, x)
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
    return Play(tuple(steps), True, cost)


SIMULATION_STEPS = 10_000  # moves before :func:`simulate_ptg` gives up


def simulate_ptg(game: Ptg, chooser, start) -> Play:
    """Play a timed game under an explicit decision function.

    ``chooser(state, time, resets_used)`` returns ``("wait", delay)`` or
    ``("move", action_index)``.  A configuration revisit at equal time
    and reset count certifies cost infinity.  Raises after
    :data:`SIMULATION_STEPS` moves.
    """
    k, x = start
    x = frac(x)
    steps = []
    cost = F0
    resets = 0
    seen = set()
    for _ in range(SIMULATION_STEPS):
        if k is None:
            return Play(tuple(steps), True, cost)
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


# -- policy evaluation ------------------------------------------------------
#
# Within one strategy cell a state's play cost is a line ``C - S*x`` of the
# clock, held as the pair ``(C, S)``; None is the constant infinite line.


def _cells(profile: TimedStrategyProfile) -> list:
    """The profile's cells ``(lo, hi, choices)`` left to right: each
    region [lo, hi) between neighbouring change points of the union of
    every state's runs, with every state's choice there, then the point
    cell at hi."""
    clocks, starts = profile.clocks, {0: []}  # clock index -> (state, choice)
    for k, runs in enumerate(profile.runs):
        for i, j in runs:
            starts.setdefault(i, []).append((k, j))
    bounds = sorted(starts) + [len(clocks) - 1]
    choices, cells = [WAIT] * len(profile.runs), []
    for i, end in zip(bounds, bounds[1:]):
        for k, j in starts[i]:
            choices[k] = j
        cells.append((clocks[i], clocks[end], tuple(choices)))
    return cells + [(clocks[-1], clocks[-1], profile.at_hi)]


_ZERO = (F0, F0)  # the terminal: cost 0 at every clock value
_UNSEEN, _ON_CHAIN = object(), object()


def _at(line, x):
    """The value of a line at clock value ``x``."""
    return INF if line is None else line[0] - line[1] * x


def _through(cost, line):
    """The line of an action of the given cost into a state on ``line``."""
    if line is None or is_inf(cost):
        return None
    return (cost + line[0], line[1])


def _waiting(rate, hi, line):
    """The line of waiting at ``rate`` until ``hi``, then playing on
    ``line``: ``rate*(hi - x) + line(hi)``."""
    return None if line is None else (rate * hi + _at(line, hi), rate)


def evaluate_policy(sptg: Sptg, profile: TimedStrategyProfile) -> tuple:
    """Every state's play cost under the profile, exactly, on all of
    the game's domain: a ``PwlFn`` per state.

    The profile's cells are evaluated right to left.  In the point cell at
    the domain's end a state costs the untimed profile's payoff, a stop
    its state's boundary value.  In a cell [lo, hi) a
    waiting state costs ``rate*(hi - x) + P(hi)``, its own cost at hi,
    and an acting state the action's cost plus its destination's cost at
    the same clock value, resolved along the cell's chains of choices; a
    chain that closes a cycle takes no time and never ends, so it costs
    infinity.  A state keeps its line object while its choice and its
    successor's line are unchanged, so a piece of its cost spans every
    cell where its line holds.  Raises :class:`OracleError` on a profile
    whose span is not the game's domain, or that waits at its end, stops
    before it or picks an action of another state, as :func:`simulate`
    does."""
    if profile.span != (sptg.lo, sptg.hi):
        lo, hi = profile.span
        raise OracleError(f"profile spans [{lo}, {hi}], the game [{sptg.lo}, {sptg.hi}]")
    actions, rates, n, m = sptg.actions, sptg.rates, sptg.num_states, sptg.num_actions
    lines = prev = None  # the lines and choices of the cell to the right
    pieces = [[] for _ in range(n)]  # [lo, hi, line], right to left
    for lo, hi, choices in reversed(_cells(profile)):
        new = [_UNSEEN] * n
        for start in range(n):
            k, chain = start, []
            while new[k] is _UNSEEN:
                j = choices[k]
                if j is WAIT:
                    if lo == hi:
                        raise OracleError(f"profile waits at the horizon in state {k}")
                    # a state that keeps waiting keeps its line
                    new[k] = lines[k] if prev[k] is WAIT else _waiting(rates[k], hi, lines[k])
                    break
                a = actions[j] if j < m else _stop(sptg, k, j, lo)
                if a.source != k:
                    raise OracleError(f"profile picks a foreign action at state {k}")
                if a.dest is None:
                    new[k] = lines[k] if prev is not None and prev[k] == j else _through(a.cost, _ZERO)
                    break
                new[k] = _ON_CHAIN
                chain.append((k, j, a))
                k = a.dest
            line = None if new[k] is _ON_CHAIN else new[k]
            for k, j, a in reversed(chain):
                if prev is not None and prev[k] == j and lines[a.dest] is line:
                    line = lines[k]
                else:
                    line = _through(a.cost, line)
                new[k] = line
        if lo == hi:
            at_end = [_at(line, hi) for line in new]
        else:
            for piece, line in zip(pieces, new):
                if piece and piece[-1][2] is line:
                    piece[-1][0] = lo
                else:
                    piece.append([lo, hi, line])
        lines, prev = new, choices
    return tuple(
        PwlFn.from_segments(
            [
                (lo, hi, INF, F0) if line is None else (lo, hi, _at(line, lo), -line[1])
                for lo, hi, line in reversed(piece)
            ],
            {sptg.hi: v},
        )
        for piece, v in zip(pieces, at_end)
    )


# -- equilibrium checking ---------------------------------------------------


@dataclass
class EquilibriumReport:
    # (state, clock, got, want): per state, the first clock value where its
    # play cost and its value differ
    probe_failures: list = field(default_factory=list)
    cell_failures: list = field(default_factory=list)  # (cell_index, player, action)

    @property
    def passed(self) -> bool:
        return not (self.probe_failures or self.cell_failures)


def _first_difference(got: PwlFn, want: PwlFn):
    """The first clock value where two functions differ: a breakpoint of
    either, or the midpoint between two consecutive ones (a quarter point
    when two lines cross exactly there).  None when they agree."""
    grid = sorted(set(got.breaks) | set(want.breaks))
    for a, b in zip(grid, grid[1:]):
        mid = (a + b) / 2
        for t in (a, mid, (a + mid) / 2):
            if got.eval(t) != want.eval(t):
                return t
    return grid[-1] if got.eval(grid[-1]) != want.eval(grid[-1]) else None


def check_equilibrium(sptg: Sptg, sol: SptgSolution, samples: int = 50) -> EquilibriumReport:
    """Certify what a solve ships two ways.  Each state's exact play cost
    under ``sol.strategy`` (:func:`evaluate_policy`) must equal its
    value function on all of the game's domain, point values included; a
    failure names the first clock value where they differ.  And no cell
    of the strategy may admit an improving switch for either player.
    Each cell is played in a game built here: the actions, then state
    k's exit as m + k.  In an interval cell [lo, hi) that exit is the
    wait, WAIT, worth the state's value at hi and charged at its rate;
    in the point cell at hi it is a boundary's stop, and there is none
    without a boundary.  The cells lie between the change points of
    the strategy's runs, and a cell failure names a cell by its index,
    left to right.  ``samples`` is accepted and ignored: the check
    evaluates the strategy everywhere, so it samples no clock values."""
    report = EquilibriumReport()
    costs = evaluate_policy(sptg, sol.strategy)
    for k in range(sptg.num_states):
        got, want = costs[k], sol.values[k]
        if got != want:
            t = _first_difference(got, want)
            if t is not None:
                report.probe_failures.append((k, t, got.eval(t), want.eval(t)))
    m = sptg.num_actions
    for idx, (lo, hi, choices) in enumerate(_cells(sol.strategy)):
        if lo == hi:
            exits = [PAction(k, None, b) for k, b in enumerate(sptg.boundary or ())]
            profile = choices
        else:
            at_hi = [f.eval(hi) for f in sol.values]
            exits = [PAction(k, None, at_hi[k], r) for k, r in enumerate(sptg.rates)]
            profile = tuple(m + k if j is WAIT else j for k, j in enumerate(choices))
        game = PricedGame(sptg.owners, sptg.actions + tuple(exits))
        for player in (1, 2):
            for j in improving_switches(game, profile, player):
                report.cell_failures.append((idx, player, j))
    return report


# -- untimed games ----------------------------------------------------------


def untimed_value_iteration(game: PricedGame, allowed) -> list:
    """Value of every state of an untimed game in which state k may use
    only the actions ``allowed[k]``.

    Starts from the all-infinite vector and applies at most n rounds of
    min (minimizer) or max (maximizer) over ``cost + v[dest]``, stopping
    early at a fixpoint; an infinite-cost action is worth infinity.  After
    r rounds each state holds the value of the game in which a play that
    has not reached the terminal within r moves costs infinity.  n rounds
    suffice: costs are nonnegative, so the minimizer has an optimal
    positional strategy, and under it every play from a finite-valued
    state reaches the terminal within n moves: a cycle its choices left
    open would let the maximizer loop forever, at infinite cost.

    A round's value for state k depends only on the values of k's allowed
    destinations in the previous round, so after the first round only
    the states with an allowed move into a state that changed in the
    round before are recomputed; every other state would get its value
    again, and the rounds are those of recomputing every state."""
    n = game.num_states
    moves = [[(game.actions[j].cost, game.actions[j].dest) for j in js] for js in allowed]
    upstream = [set() for _ in range(n)]
    for k, ms in enumerate(moves):
        for _, dest in ms:
            if dest is not None:
                upstream[dest].add(k)
    pick = [min if o == 1 else max for o in game.owners]
    v = [INF] * n
    todo = range(n)
    for _ in range(n):
        new = {}
        for k in todo:
            cands = []
            for cost, dest in moves[k]:
                if dest is None:
                    cands.append(cost)
                elif is_inf(cost) or is_inf(v[dest]):
                    cands.append(INF)
                else:
                    cands.append(cost + v[dest])
            new[k] = pick[k](cands)
        changed = [k for k, x in new.items() if x != v[k]]
        if not changed:
            break
        for k in changed:
            v[k] = new[k]
        todo = {u for k in changed for u in upstream[k]}
    return v


def brute_force_priced(game: PricedGame, budget: int = 10**6):
    """Per-state value by exhaustive enumeration of the maximizer's
    positional strategies, each answered by the minimizer's best response:
    the best the maximizer can guarantee.

    The budget counts the profiles of both players, and the game is
    refused past it.  With the maximizer's states pinned to one strategy
    the minimizer faces a shortest-path problem with nonnegative costs,
    which :func:`untimed_value_iteration` solves exactly in n rounds: each
    state's least cost over plays that reach the terminal within n moves.
    A positional strategy attains it (the shortest-path tree with the
    fewest hops), and every positional play that never reaches the
    terminal costs infinity, so that is the minimum over all the
    minimizer's positional strategies."""
    total = math.prod(len(js) for js in game.state_actions)
    if total > budget:
        raise OracleError(f"{total} profiles exceed the budget {budget}")
    p2_states = [k for k in range(game.num_states) if game.owners[k] == 2]
    allowed = list(game.state_actions)
    best = None
    for picks in itertools.product(*[game.state_actions[k] for k in p2_states]):
        for k, j in zip(p2_states, picks):
            allowed[k] = (j,)
        inner = untimed_value_iteration(game, allowed)
        best = inner if best is None else [max(b, u) for b, u in zip(best, inner)]
    return best


# -- random instances -------------------------------------------------------


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
    rng = random.Random(f"{kind}/{n}/{max_actions}/{seed}")

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
                    lo_c = rng.random() < 0.8 or lo == hi
                    hi_c = rng.random() < 0.8 or lo == hi
                reset = False
                if d is not None and reset_budget > 0 and rng.random() < 0.2:
                    reset = True
                    reset_budget -= 1
                actions.append(TAction(k, d, cost(), lo, hi, lo_c, hi_c, reset))
        return Ptg(owners, rates, tuple(actions))

    raise ValueError(f"unknown kind {kind!r}")
