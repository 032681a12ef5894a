"""Simple priced timed games: one clock on [0,1], no resets or guards.

States accrue cost at a per-state rate while time advances; actions are
instantaneous priced transitions, always available.  Values as functions
of the clock are piecewise linear with rational breakpoints and are
computed exactly by a right-to-left sweep: solve the untimed game at
time 1, then repeatedly solve a snapshot game whose waiting option costs
the current value plus an infinitesimal rate charge, and extend the
value functions linearly down to the next point where some state's best
choice changes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .numerics import F0, F1, INF, PwlFn, frac, is_inf
from .priced_game import (
    PAction,
    PricedGame,
    evaluate_profile,
    extended_dijkstra,
    potential_less,
    potential_matrix,
    rate_ladder_of,
    single_switch_iteration,
    strategy_iteration,
)

WAIT = None  # strategy-cell marker for the waiting choice


@dataclass(frozen=True)
class Sptg:
    owners: tuple  # 1 (minimizer) or 2 (maximizer) per state
    rates: tuple  # nonnegative Fraction per state
    actions: tuple  # PAction with Fraction or infinite costs

    def __post_init__(self):
        if len(self.rates) != len(self.owners):
            raise ValueError("rates and owners disagree on the state count")
        for k, r in enumerate(self.rates):
            if is_inf(r) or r < 0:
                raise ValueError(f"state {k} has a bad rate")
        # structural checks (ownership, sources, costs) ride on the core
        self.core  # noqa: B018

    @property
    def num_states(self) -> int:
        return len(self.owners)

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    @cached_property
    def core(self) -> PricedGame:
        """The untimed game played when no time remains."""
        return PricedGame(self.owners, self.actions)

    def event_bound(self) -> int:
        """Bound on the number of event points of the value functions."""
        n = self.num_states
        return min(12**n, self.core.profile_bound())


@dataclass(frozen=True)
class TimedStrategyProfile:
    """Choices per clock region: cells [lo, hi) that tile [0,1) from left
    to right, then the point cell at 1.

    Each cell maps every state to an action index or WAIT.
    """

    cells: tuple  # (lo, hi, choices); lo == hi == 1 for the point cell

    def __post_init__(self):
        if len(self.cells) < 2 or self.cells[-1][:2] != (F1, F1):
            raise ValueError("strategy cells must end in the point cell (1, 1)")
        x = F0
        for lo, hi, _ in self.cells[:-1]:
            if lo != x or not lo < hi:
                raise ValueError(f"strategy cells do not tile [0,1] at {x}")
            x = hi
        if x != F1:
            raise ValueError("strategy cells do not reach 1")

    @cached_property
    def _los(self) -> tuple:
        return tuple(lo for lo, _, _ in self.cells)

    def cell_at(self, x):
        """The cell ``(lo, hi, choices)`` holding clock value ``x``."""
        x = frac(x)
        if not F0 <= x <= F1:
            raise ValueError(f"clock value {x} outside [0,1]")
        return self.cells[bisect_right(self._los, x) - 1]

    def choice_at(self, state: int, x):
        return self.cell_at(x)[2][state]


@dataclass
class SolveStats:
    sweep_steps: int = 0
    event_points: int = 0  # distinct interior breakpoints across all states
    switch_count: int = 0
    potential_checks: int = 0
    potential_violations: int = 0


@dataclass(frozen=True)
class SptgSolution:
    values: tuple  # PwlFn per state on [0,1]
    strategy: TimedStrategyProfile
    stats: SolveStats


def build_eps_game(sptg: Sptg, wait_costs) -> PricedGame:
    """Snapshot game at a clock value: the untimed game extended with a
    waiting exit per state whose cost is the state's current value and
    whose infinitesimal charge (``wait_rate``) is the state's rate."""
    waits = tuple(
        PAction(k, None, wait_costs[k], sptg.rates[k], f"wait{k}")
        for k in range(sptg.num_states)
    )
    return PricedGame(sptg.owners, sptg.actions + waits)


def solve_untimed(game: PricedGame, seed=None, on_switch: Optional[Callable] = None):
    """Valuations and a fully stabilised profile (no improving switch for
    either player, including the path-length tie-break) of an untimed
    game.  Returns ``(valuations, profile, switch_count)``.

    Without a seed: extended Dijkstra, then strategy iteration from its
    profile, which must keep Dijkstra's values and, state by state, the
    payoff and rate its profile attains.  With a seed profile: single
    switches from the seed, each reported to ``on_switch``.
    """
    if seed is not None:
        _, profile, switches = single_switch_iteration(game, seed, on_switch)
        return evaluate_profile(game, profile), profile, switches
    values, start = extended_dijkstra(game)
    payoffs, profile, switches = strategy_iteration(game, start)
    vals = evaluate_profile(game, profile)
    start_vals = vals if profile == start else evaluate_profile(game, start)
    if payoffs != values or any(
        (a.payoff, a.rate) != (b.payoff, b.rate) for a, b in zip(start_vals, vals)
    ):
        raise AssertionError("strategy iteration disagreed with Dijkstra's solution")
    return vals, profile, switches


def solve_at_time_one(sptg: Sptg):
    """Valuations and a fully stabilised profile of the untimed game."""
    return solve_untimed(sptg.core)


def _line(eps_game: PricedGame, j: int, base, rate):
    """Coefficients (A, S) of the snapshot-optimal line of action ``j``:
    its value at clock x'' is A + S*(x_hi - x'').  Returns None when the
    line is infinite."""
    a = eps_game.actions[j]
    if is_inf(a.cost):
        return None
    if a.dest is None:
        return (a.cost, a.wait_rate)
    if is_inf(base[a.dest]):
        return None
    return (a.cost + base[a.dest], rate[a.dest])


def next_event_point(sptg: Sptg, eps_game: PricedGame, profile, base, rate, x_hi):
    """Largest clock value strictly below ``x_hi`` where some available
    action's line meets the chosen action's line, given they differ at
    ``x_hi`` itself; 0 when no such crossing exists."""
    best = F0
    for k in range(sptg.num_states):
        if is_inf(base[k]):
            continue
        sigma = _line(eps_game, profile[k], base, rate)
        if sigma is None:
            continue
        for j in eps_game.state_actions[k]:
            if j == profile[k]:
                continue
            cand = _line(eps_game, j, base, rate)
            if cand is None or cand[1] == sigma[1]:
                continue
            # A_j + d*S_j = A_s + d*S_s with d = x_hi - x''; lines tied
            # at x_hi cross at d = 0 and fall to the strict inequality
            d = (sigma[0] - cand[0]) / (cand[1] - sigma[1])
            xx = x_hi - d
            if F0 <= xx < x_hi and xx > best:
                best = xx
    return best


def solve_sptg(
    sptg: Sptg,
    instrument: bool = False,
    on_switch: Optional[Callable] = None,
) -> SptgSolution:
    """Exact value functions and optimal strategies on [0,1].

    Each snapshot game is solved from scratch.  ``instrument=True``
    instead improves the previous snapshot's profile one switch at a time
    and verifies that every switch strictly decreases the potential
    matrix; ``on_switch(matrix_before, matrix_after)`` additionally
    observes each recorded pair.
    """
    stats = SolveStats()
    n = sptg.num_states
    m = sptg.num_actions
    hook = None
    if instrument:
        hook = _potential_watcher(rate_ladder_of(sptg.rates), stats, on_switch)

    v1, profile, sw = solve_at_time_one(sptg)
    stats.switch_count += sw
    segments = [[] for _ in range(n)]
    cells = [(F1, F1, tuple(profile))]

    x = F1
    v_at_x = [v.payoff for v in v1]
    budget = sptg.event_bound() + 2
    for _ in range(budget):
        if x == F0:
            break
        eps_game = build_eps_game(sptg, v_at_x)
        seed = profile if instrument else None
        vals, eps_profile, sw = solve_untimed(eps_game, seed, hook)
        stats.switch_count += sw

        # a snapshot valuation is the value at x plus its slope's rate
        base = [v.payoff for v in vals]
        rate = [v.rate for v in vals]
        for k in range(n):
            if base[k] != v_at_x[k]:  # INF == INF
                raise AssertionError(
                    f"snapshot value at state {k} broke continuity: "
                    f"{base[k]} != {v_at_x[k]}"
                )

        # each value at x_lo closes this segment and prices the next waits
        x_lo = next_event_point(sptg, eps_game, eps_profile, base, rate, x)
        v_at_x = [INF if is_inf(b) else b + r * (x - x_lo) for b, r in zip(base, rate)]
        for seg, b, r, v in zip(segments, base, rate, v_at_x):
            seg.append((x_lo, x, v, F0 if is_inf(b) else -r))
        cells.append((x_lo, x, tuple(WAIT if j >= m else j for j in eps_profile)))
        stats.sweep_steps += 1
        profile = eps_profile
        x = x_lo
    else:
        raise RuntimeError("sweep exceeded its event-point budget")

    fns = tuple(PwlFn.from_segments(list(reversed(segs))) for segs in segments)
    interior = set()
    for f in fns:
        interior.update(f.interior_breaks())
    stats.event_points = len(interior)
    strategy = TimedStrategyProfile(tuple(reversed(cells)))
    return SptgSolution(fns, strategy, stats)


def _potential_watcher(ladder, stats, on_switch):
    def watch(game, before, j, after):
        p_before = potential_matrix(game, before, ladder)
        p_after = potential_matrix(game, after, ladder)
        stats.potential_checks += 1
        if not potential_less(p_after, p_before):
            stats.potential_violations += 1
        if on_switch is not None:
            on_switch(p_before, p_after)

    return watch
