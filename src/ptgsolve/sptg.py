"""Simple priced timed games: one clock on [0,1], no resets or guards.

States accrue cost at a per-state rate while time advances; actions are
instantaneous priced transitions, always available.  Values as functions
of the clock are piecewise linear with rational breakpoints and are
computed exactly by a right-to-left sweep: solve the untimed game at
time 1, then repeatedly solve a snapshot game whose waiting option costs
the current value plus an infinitesimal rate charge, and extend the
value functions linearly down to the next point where some state's best
choice changes.  Every untimed solve is one lexicographic extended
Dijkstra scan, whose choices are switch-free by construction.

Each step solves its snapshot game in full, but keeps the bookkeeping
around it proportional to what changed.  Every snapshot game shares one
layout, cached on the Sptg, and only gets new waiting exits.  Every state
keeps a certificate, its largest crossing below the current clock value,
and only states whose certificate may have moved are rescanned: their
choice changed, an action of theirs leads to a state whose rate changed,
or their crossing fixed the current clock value.  Waiting actions are
never scanned, as their line meets the chosen one at the current clock
value itself.  A value function gets a new segment only where its state's
rate changes.
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
    extended_dijkstra,
    potential_less,
    potential_matrix,
    rate_ladder_of,
    single_switch_iteration,
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

    @cached_property
    def snapshot_layout(self) -> tuple:
        """``state_actions`` of every snapshot game: the core's, then the
        state's waiting exit, numbered after the Sptg's own actions."""
        m = self.num_actions
        return tuple(js + (m + k,) for k, js in enumerate(self.core.state_actions))

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
    whose infinitesimal charge (``wait_rate``) is the state's rate.

    Only the waiting exits are new: the rest was validated with the
    Sptg's core, so only their costs are checked, and the layout comes
    from :attr:`Sptg.snapshot_layout`.
    """
    m = sptg.num_actions
    waits = []
    for k in range(sptg.num_states):
        cost = wait_costs[k]
        if not is_inf(cost) and cost < 0:
            raise ValueError(f"action {m + k} has negative cost")
        waits.append(PAction(k, None, cost, sptg.rates[k], f"wait{k}"))
    # set the fields and the cached ``state_actions`` as PricedGame's own
    # constructor and cached_property would, without re-checking the core
    game = object.__new__(PricedGame)
    game.__dict__.update(
        owners=sptg.owners,
        actions=sptg.actions + tuple(waits),
        state_actions=sptg.snapshot_layout,
    )
    return game


def solve_untimed(game: PricedGame, seed=None, on_switch: Optional[Callable] = None):
    """Valuations and a switch-free profile (no improving switch for
    either player, including the path-length tie-break) of an untimed
    game.  Returns ``(valuations, profile)``.

    Without a seed: one lexicographic extended Dijkstra scan, whose
    choices are stable by construction.  With a seed profile: single
    switches from the seed, each reported to ``on_switch``, and the
    valuations of the iteration's final, switch-free pass.
    """
    if seed is not None:
        payoffs, profile, _ = single_switch_iteration(game, seed, on_switch)
    else:
        payoffs, profile = extended_dijkstra(game)
    return payoffs.valuations, profile


def solve_at_time_one(sptg: Sptg):
    """Valuations and a switch-free profile of the untimed game."""
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


def _crossing(sptg: Sptg, eps_game: PricedGame, k: int, chosen: int, base, rate, x_hi):
    """Largest clock value in [0, x_hi) where the line of one of state
    ``k``'s own (non-waiting) actions meets the line of ``chosen``; 0 when
    there is none."""
    if is_inf(base[k]):
        return F0
    sigma = _line(eps_game, chosen, base, rate)
    if sigma is None:
        return F0
    span = x_hi  # distance from x_hi to the largest crossing so far
    for j in sptg.core.state_actions[k]:
        if j == chosen:
            continue
        cand = _line(eps_game, j, base, rate)
        if cand is None or cand[1] == sigma[1]:
            continue
        # A_j + d*S_j = A_s + d*S_s with d = x_hi - x''; lines tied
        # at x_hi cross at d = 0 and fall to the strict inequality
        d = (sigma[0] - cand[0]) / (cand[1] - sigma[1])
        if F0 < d < span:
            span = d
    return x_hi - span


def next_event_point(sptg: Sptg, eps_game: PricedGame, profile, base, rate, x_hi, certs, dirty):
    """Largest clock value strictly below ``x_hi`` where some available
    action's line meets the chosen action's line, given they differ at
    ``x_hi`` itself; 0 when no such crossing exists.

    ``certs[k]`` caches state ``k``'s own largest such crossing, from an
    earlier step; only the states in ``dirty`` are rescanned, and the
    result is the largest certificate.  A cached crossing stays valid
    while the lines it compared stay put: values are continuous, so a
    line through a destination moves only when that destination's rate
    changes.  A waiting action is never scanned: its line starts at the
    state's value at ``x_hi``, which the chosen line also attains, so
    the two meet at ``x_hi`` itself or not at all.
    """
    for k in dirty:
        certs[k] = _crossing(sptg, eps_game, k, profile[k], base, rate, x_hi)
    return max(certs, default=F0)


def solve_sptg(
    sptg: Sptg,
    instrument: bool = False,
    on_switch: Optional[Callable] = None,
) -> SptgSolution:
    """Exact value functions and optimal strategies on [0,1].

    Each snapshot game is solved in full by one lexicographic extended
    Dijkstra scan.  It shares its layout with every other snapshot game
    and gets new waiting exits.  The next event point rescans only the
    states whose crossing certificate may have moved (see
    :func:`next_event_point`): those whose choice changed, those with an
    action into a state whose rate changed, and those whose certificate
    fixed the current clock value.
    A state's value function gets a new segment only where its rate
    changes.

    ``instrument=True`` instead improves the previous snapshot's profile
    one switch at a time and verifies that every switch strictly
    decreases the potential matrix; ``on_switch(matrix_before,
    matrix_after)`` additionally observes each recorded pair.
    """
    stats = SolveStats()
    n = sptg.num_states
    m = sptg.num_actions
    hook = None
    if instrument:
        hook = _potential_watcher(rate_ladder_of(sptg.rates), stats, on_switch)

    v1, profile = solve_at_time_one(sptg)
    cells = [(F1, F1, tuple(profile))]
    # states with a non-waiting action into each state
    preds = [set() for _ in range(n)]
    for a in sptg.actions:
        if a.dest is not None:
            preds[a.dest].add(a.source)

    x = F1
    v_at_x = [v.payoff for v in v1]
    # each state's segments so far, right to left, and its open piece's
    # right end and rate
    segments = [[] for _ in range(n)]
    top = [F1] * n
    piece_rate = None
    certs = [F0] * n
    budget = sptg.event_bound() + 2
    for _ in range(budget):
        if x == F0:
            break
        eps_game = build_eps_game(sptg, v_at_x)
        seed = profile if instrument else None
        vals, eps_profile = solve_untimed(eps_game, seed, hook)

        # a snapshot valuation is the value at x plus its slope's rate
        base = [v.payoff for v in vals]
        rate = [v.rate for v in vals]
        for k in range(n):
            if base[k] != v_at_x[k]:  # INF == INF
                raise AssertionError(
                    f"snapshot value at state {k} broke continuity: "
                    f"{base[k]} != {v_at_x[k]}"
                )

        if piece_rate is None:
            dirty = range(n)
        else:
            dirty = {k for k in range(n) if eps_profile[k] != profile[k] or certs[k] >= x}
            for k in range(n):
                if rate[k] != piece_rate[k]:
                    dirty.update(preds[k])
                    segments[k].append((x, top[k], v_at_x[k], -piece_rate[k]))
                    top[k] = x
        piece_rate = rate
        x_lo = next_event_point(sptg, eps_game, eps_profile, base, rate, x, certs, dirty)
        dx = x - x_lo
        v_at_x = [INF if is_inf(b) else b + r * dx for b, r in zip(base, rate)]
        cells.append((x_lo, x, tuple(WAIT if j >= m else j for j in eps_profile)))
        stats.sweep_steps += 1
        profile = eps_profile
        x = x_lo
    else:
        raise RuntimeError("sweep exceeded its event-point budget")

    for seg, hi, v, r in zip(segments, top, v_at_x, piece_rate):
        seg.append((F0, hi, v, -r))
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
