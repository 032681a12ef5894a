"""Untimed priced games: adversarial shortest paths with exact costs.

A priced game is a finite graph game where the minimizer steers play to
the terminal state as cheaply as possible while the maximizer obstructs.
Costs live in an ordered domain with an absorbing infinity: either plain
extended rationals or :class:`~ptgsolve.numerics.EpsCost` pairs carrying
an infinitesimal waiting-rate component.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

from .numerics import EPS_INF, EPS_ZERO, EpsCost, F0, INF, is_inf

TERMINAL = None  # destination sentinel for the terminal state


@dataclass(frozen=True)
class PAction:
    source: int
    dest: Optional[int]  # None = terminal
    cost: object  # Fraction | INF | EpsCost
    wait_rate: Optional[Fraction] = None  # set only on waiting actions
    label: Optional[str] = None


@dataclass(frozen=True)
class PricedGame:
    """States owned by player 1 (minimizer) or 2 (maximizer), plus actions."""

    owners: tuple  # owner per state, 1 or 2
    actions: tuple  # PAction

    def __post_init__(self):
        for k, o in enumerate(self.owners):
            if o not in (1, 2):
                raise ValueError(f"state {k} has owner {o}")
        for j, a in enumerate(self.actions):
            if not 0 <= a.source < self.num_states:
                raise ValueError(f"action {j} has bad source")
            if a.dest is not None and not 0 <= a.dest < self.num_states:
                raise ValueError(f"action {j} has bad destination")
            if self._cost_negative(a.cost):
                raise ValueError(f"action {j} has negative cost")
        for k in range(self.num_states):
            if not self.state_actions[k]:
                raise ValueError(f"state {k} has no actions")

    @staticmethod
    def _cost_negative(c) -> bool:
        if isinstance(c, EpsCost):
            return not is_inf(c.base) and c.base < 0
        return not is_inf(c) and c < 0

    @property
    def num_states(self) -> int:
        return len(self.owners)

    @cached_property
    def state_actions(self) -> tuple:
        per = [[] for _ in range(self.num_states)]
        for j, a in enumerate(self.actions):
            per[a.source].append(j)
        return tuple(tuple(js) for js in per)

    @cached_property
    def eps_domain(self) -> bool:
        return isinstance(self.actions[0].cost, EpsCost)

    @property
    def zero(self):
        return EPS_ZERO if self.eps_domain else F0

    @property
    def infinity(self):
        return EPS_INF if self.eps_domain else INF

    def cost_is_inf(self, c) -> bool:
        return is_inf(c.base) if isinstance(c, EpsCost) else is_inf(c)

    def profile_bound(self) -> int:
        """Product over states of (action count + 1); iteration budget."""
        out = 1
        for js in self.state_actions:
            out *= len(js) + 1
        return out


@dataclass(frozen=True, order=True)
class Valuation:
    """Payoff paired with path length, ordered lexicographically."""

    payoff: object
    hops: object  # int or INF


# A strategy profile is a tuple mapping each state to one of its actions.
Profile = tuple


def evaluate_profile(game: PricedGame, profile: Profile):
    """Payoff, path length, and final waiting rate of every state under
    the profile.  States on or leading into a cycle get infinite payoff
    and length.  Returns ``(valuations, rates)`` lists."""
    n = game.num_states
    for k in range(n):
        if profile[k] not in game.state_actions[k]:
            raise ValueError(f"profile picks a foreign action at state {k}")
    vals: list = [None] * n
    rates: list = [None] * n
    for start in range(n):
        if vals[start] is not None:
            continue
        chain = []
        pos = {}
        k = start
        while True:
            if k is TERMINAL or vals[k] is not None:
                break
            if k in pos:
                for c in chain[pos[k] :]:
                    vals[c] = Valuation(game.infinity, INF)
                    rates[c] = F0
                chain = chain[: pos[k]]
                break
            pos[k] = len(chain)
            chain.append(k)
            k = game.actions[profile[k]].dest
        # resolve the remaining prefix backwards
        for c in reversed(chain):
            if vals[c] is not None:
                continue
            act = game.actions[profile[c]]
            d = act.dest
            if d is TERMINAL:
                payoff, hops = act.cost, 1
                rate = act.wait_rate if act.wait_rate is not None else F0
            else:
                nxt, nrate = vals[d], rates[d]
                if is_inf(nxt.hops):
                    payoff, hops, rate = game.infinity, INF, F0
                else:
                    payoff, hops, rate = act.cost + nxt.payoff, nxt.hops + 1, nrate
            if game.cost_is_inf(payoff):
                payoff, hops, rate = game.infinity, INF, F0
            vals[c] = Valuation(payoff, hops)
            rates[c] = rate
    return vals, rates


def improving_switches(game: PricedGame, profile: Profile, player: int):
    """Actions whose one-step deviation lexicographically improves the
    owner's valuation.  Returns ``[(action, strongly_improving)]``."""
    vals, _ = evaluate_profile(game, profile)
    out = []
    for k in range(game.num_states):
        if game.owners[k] != player:
            continue
        cur = vals[k]
        for j in game.state_actions[k]:
            if j == profile[k]:
                continue
            act = game.actions[j]
            if act.dest is TERMINAL:
                cand = Valuation(act.cost, 1)
            else:
                nxt = vals[act.dest]
                if is_inf(nxt.hops):
                    cand = Valuation(game.infinity, INF)
                else:
                    cand = Valuation(act.cost + nxt.payoff, nxt.hops + 1)
            if game.cost_is_inf(cand.payoff):
                cand = Valuation(game.infinity, INF)
            if player == 1 and cand < cur:
                out.append((j, cand.payoff < cur.payoff))
            elif player == 2 and cur < cand:
                out.append((j, cur.payoff < cand.payoff))
    return out


def apply_switches(game: PricedGame, profile: Profile, switches) -> Profile:
    """Replace the profile's choice at each switched state."""
    chosen = {}
    for j in switches:
        k = game.actions[j].source
        if k in chosen:
            raise ValueError(f"two switches at state {k}")
        chosen[k] = j
    return tuple(chosen.get(k, profile[k]) for k in range(game.num_states))


def extended_dijkstra(game: PricedGame):
    """Values and an attaining profile via the adversarial Dijkstra scan.

    Minimizer candidates enter a priority queue keyed by
    ``(cost, state, action)``; a maximizer state is settled only once all
    of its successors are, taking the most expensive option.  States that
    are never settled keep value infinity.
    """
    n = game.num_states
    values: list = [None] * n
    profile: list = [None] * n
    pending = [len(game.state_actions[k]) if game.owners[k] == 2 else -1 for k in range(n)]
    best_max: list = [None] * n  # (valuation key, action) for maximizer states
    preds: list = [[] for _ in range(n)]  # incoming action ids per destination
    heap = []

    def value_of(dest):
        return game.zero if dest is TERMINAL else values[dest]

    for j, a in enumerate(game.actions):
        if a.dest is not None:
            preds[a.dest].append(j)
    for j, a in enumerate(game.actions):
        if game.owners[a.source] == 1 and a.dest is TERMINAL:
            heapq.heappush(heap, (a.cost, a.source, j))

    def offer_max(k, j, dest_value):
        cost = game.actions[j].cost + dest_value
        pending[k] -= 1
        if best_max[k] is None or (cost, -j) > (best_max[k][0], -best_max[k][1]):
            best_max[k] = (cost, j)
        if pending[k] == 0:
            heapq.heappush(heap, (best_max[k][0], k, best_max[k][1]))

    # Seed maximizer states whose actions all go straight to the terminal.
    for k in range(n):
        if game.owners[k] == 2:
            for j in game.state_actions[k]:
                if game.actions[j].dest is TERMINAL:
                    offer_max(k, j, game.zero)

    while heap:
        val, k, j = heapq.heappop(heap)
        if values[k] is not None:
            continue
        values[k] = val
        profile[k] = j
        for pj in preds[k]:
            src = game.actions[pj].source
            if values[src] is not None and game.owners[src] == 1:
                continue
            if game.owners[src] == 1:
                heapq.heappush(heap, (game.actions[pj].cost + val, src, pj))
            else:
                offer_max(src, pj, val)

    # Unsettled states have value infinity; give them a deterministic
    # choice that attains it (an action towards an unsettled/infinite
    # destination, or any action when everything is infinite).
    for k in range(n):
        if values[k] is not None:
            continue
        values[k] = game.infinity
        pick = None
        for j in game.state_actions[k]:
            d = game.actions[j].dest
            inf_dest = (
                d is not TERMINAL and (values[d] is None or game.cost_is_inf(values[d]))
            ) or game.cost_is_inf(game.actions[j].cost)
            if inf_dest:
                pick = j
                break
        profile[k] = pick if pick is not None else game.state_actions[k][0]
    return values, tuple(profile)


def _pick_switch_set(game: PricedGame, switches):
    """One switch per state: strongly improving preferred, then lowest id."""
    per_state = {}
    for j, strong in switches:
        k = game.actions[j].source
        cur = per_state.get(k)
        if cur is None or (strong, -j) > (cur[1], -cur[0]):
            per_state[k] = (j, strong)
    return [j for j, _ in per_state.values()]


def _pick_lowest(game: PricedGame, switches):
    """The single improving switch with the lowest action id."""
    return [min(j for j, _ in switches)]


def _iterate(game: PricedGame, profile: Profile, pick, on_switch=None):
    """Apply the picked improving switches, the maximizer's first, until
    neither player has one.  Each pass makes one switch step or returns.
    ``on_switch`` sees the first picked switch, so only single-switch
    callers pass one.

    The budget allows P*(n+1)+1 minimizer steps, each preceded by fewer
    than P maximizer steps, where P is :meth:`PricedGame.profile_bound`:
    between two minimizer steps the maximizer's switches visit distinct
    profiles.
    """
    bound = game.profile_bound()
    budget = bound * (bound * (game.num_states + 1) + 1) + 1
    switch_count = 0
    for _ in range(budget):
        sw = improving_switches(game, profile, 2) or improving_switches(game, profile, 1)
        if not sw:
            vals, _ = evaluate_profile(game, profile)
            return [v.payoff for v in vals], profile, switch_count
        picked = pick(game, sw)
        nxt = apply_switches(game, profile, picked)
        if on_switch is not None:
            on_switch(game, profile, picked[0], nxt)
        profile = nxt
        switch_count += len(picked)
    raise RuntimeError("strategy iteration exceeded its termination budget")


def strategy_iteration(game: PricedGame, profile: Profile):
    """Improve both players' choices until neither has an improving
    switch; the resulting profile is optimal and its payoffs are the game
    values.  Each step switches one action per state of one player, the
    maximizer's while it has any.  Returns ``(values, profile,
    switch_count)``."""
    return _iterate(game, profile, _pick_switch_set)


def single_switch_iteration(
    game: PricedGame,
    profile: Profile,
    on_switch: Optional[Callable] = None,
):
    """As :func:`strategy_iteration`, but one improving switch at a time,
    the lowest action id first.  ``on_switch(game, before, action,
    after)`` fires at every switch."""
    return _iterate(game, profile, _pick_lowest, on_switch)


# -- potential instrumentation ----------------------------------------------


@dataclass(frozen=True)
class PotentialMatrix:
    """Signed state counts indexed by (path length, waiting-rate rank)."""

    entries: tuple  # rows: length 1..n, columns: ascending rate rank
    rate_ladder: tuple  # ascending distinct rates, 0 first for the terminal

    @property
    def shape(self):
        return (len(self.entries), len(self.rate_ladder))


def rate_ladder_of(rates: Sequence[Fraction]) -> tuple:
    """Distinct waiting rates plus rate 0 for the terminal, ascending."""
    return tuple(sorted(set(rates) | {F0}))


def potential_matrix(game: PricedGame, profile: Profile, ladder: tuple) -> PotentialMatrix:
    n = game.num_states
    vals, rates = evaluate_profile(game, profile)
    rank = {r: i for i, r in enumerate(ladder)}
    rows = [[0] * len(ladder) for _ in range(n)]
    for k in range(n):
        if is_inf(vals[k].hops):
            continue
        col = rank[rates[k]]
        row = vals[k].hops - 1
        rows[row][col] += 1 if game.owners[k] == 2 else -1
    return PotentialMatrix(tuple(tuple(r) for r in rows), ladder)


def potential_less(p: PotentialMatrix, q: PotentialMatrix) -> bool:
    """The strict order where lower-rate columns dominate and, within a
    column, shorter path lengths dominate."""
    if p.shape != q.shape or p.rate_ladder != q.rate_ladder:
        raise ValueError("potential matrices have mismatched shape")
    rows, cols = p.shape
    for c in range(cols):
        for r in range(rows):
            if p.entries[r][c] != q.entries[r][c]:
                return p.entries[r][c] < q.entries[r][c]
    return False
