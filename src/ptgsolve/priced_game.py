"""Untimed priced games: adversarial shortest paths with exact costs.

A priced game is a finite graph game where the minimizer steers play to
the terminal state as cheaply as possible while the maximizer obstructs.
Costs are extended rationals with an absorbing infinity.  A play that
ends in a waiting action of a snapshot game (see
:func:`~ptgsolve.sptg.build_eps_game`) also pays an infinitesimal charge,
that action's ``wait_rate``; valuations compare it after the payoff,
and the path length after that.

One lexicographic extended Dijkstra scan (:func:`extended_dijkstra`)
solves a game and yields a profile that neither player can improve.
It keys payoffs by integers over one common denominator, the least
common multiple of the costs' and the starting payoffs' denominators:
scaling by a positive integer keeps the order and the ties of the
payoffs exactly, and integers compare far faster than fractions.
Strategy iteration improves a given profile instead, one switch at a
time; the instrumented sweep uses it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, NamedTuple, Optional, Sequence

from .numerics import F0, INF, is_inf


@dataclass(frozen=True)
class PAction:
    source: int
    dest: Optional[int]  # None = terminal
    cost: object  # Fraction | INF
    wait_rate: Fraction = F0  # infinitesimal charge; nonzero only on waiting exits


class GameError(ValueError):
    """A game, or a document describing one, that breaks a rule: a stable
    ``code``, and ``where``: ``states[k]`` or ``actions[j]``, which are
    also the document's positions, or the part at fault."""

    def __init__(self, code: str, where: str, message: str):
        self.code = code
        self.where = where
        super().__init__(f"{code} at {where}: {message}")


def clip(text: str) -> str:
    """``text`` cut to a fixed-length prefix, so that a diagnostic that
    echoes its input stays one short line."""
    return text if len(text) <= 40 else text[:40] + "…"


def check_graph(owners, actions) -> None:
    """The rules an untimed and a timed game share: owners 1 or 2, actions
    between existing states at a nonnegative cost, and at least one
    action at every state."""
    n = len(owners)
    for k, o in enumerate(owners):
        if type(o) is not int or o not in (1, 2):  # not bool: JSON true is no owner
            raise GameError("bad-owner", f"states[{k}]", f"owner {clip(repr(o))}")
    idle = set(range(n))
    for j, a in enumerate(actions):
        if not 0 <= a.source < n:
            raise GameError("dangling-reference", f"actions[{j}]", f"from {a.source}")
        if a.dest is not None and not 0 <= a.dest < n:
            raise GameError("dangling-reference", f"actions[{j}]", f"to {a.dest}")
        if not is_inf(a.cost) and a.cost < 0:
            raise GameError("negative-cost", f"actions[{j}]", clip(str(a.cost)))
        idle.discard(a.source)
    if idle:
        k = min(idle)
        raise GameError("no-actions", f"states[{k}]", f"state {k} has no actions")


class GameGraph:
    """What every game type derives from its ``owners`` and ``actions``:
    the actions leaving and entering each state.  The untimed solvers
    read a :class:`PricedGame`, or an SPTG as its untimed game at hi.

    A game type's constructor checks the game's rules.  A game that a
    solver builds from a checked game is :meth:`derived` instead, with no
    checks and, where it extends a game, with that game's index."""

    @classmethod
    def derived(cls, base: GameGraph | None = None, exits: tuple = (), **fields):
        """A game of parts that are valid already, built with no checks.

        ``fields`` are its fields.  Given a ``base`` game, it has base's
        owners and base's actions followed by ``exits``, none or one per
        state, state k's as action m + k, with m base's action count.
        Each exit is terminal, so the game reuses base's ``incoming`` as
        it is, and base's ``state_actions`` with m + k appended to state
        k's entry; with no exits, the same tuple.

        The caller vouches for the parts: a solver builds each game it
        derives from a checked game's actions and states, and from exits
        whose costs are values of that game or their sums with its costs,
        which are never negative.
        """
        game = object.__new__(cls)
        if base is not None:
            m, index = len(base.actions), base.state_actions
            fields.update(
                owners=base.owners,
                actions=base.actions + exits,
                state_actions=tuple(js + (m + k,) for k, js in enumerate(index)) if exits else index,
                incoming=base.incoming,
            )
        # one at a time, as a constructor sets them, so that the games
        # share their attribute keys (a filled __dict__ holds its own)
        for name, value in fields.items():
            object.__setattr__(game, name, value)
        return game

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
    def incoming(self) -> tuple:
        """The actions into each state."""
        into = [[] for _ in range(self.num_states)]
        for j, a in enumerate(self.actions):
            if a.dest is not None:
                into[a.dest].append(j)
        return tuple(tuple(js) for js in into)

    @cached_property
    def cost_denominator(self) -> int:
        """The least common multiple of the finite action costs'
        denominators."""
        return lcm(*(a.cost.denominator for a in self.actions if not is_inf(a.cost)))

    def profile_bound(self) -> int:
        """Product over states of (action count + 1); iteration budget."""
        out = 1
        for js in self.state_actions:
            out *= len(js) + 1
        return out


@dataclass(frozen=True)
class PricedGame(GameGraph):
    """States owned by player 1 (minimizer) or 2 (maximizer), plus actions."""

    owners: tuple  # owner per state, 1 or 2
    actions: tuple  # PAction

    def __post_init__(self):
        check_graph(self.owners, self.actions)


class Valuation(NamedTuple):
    """Payoff, the waiting rate of the exit reached, and path length,
    ordered lexicographically."""

    payoff: object  # Fraction or INF
    rate: Fraction
    hops: object  # int or INF


# Every play of infinite cost, whatever its rate and length.
INFINITE = Valuation(INF, F0, INF)

# A strategy profile is a tuple mapping each state to one of its actions.
Profile = tuple


def _through(game: GameGraph, j: int, vals) -> Valuation:
    """Valuation of taking action ``j``, then following ``vals``."""
    a = game.actions[j]
    if is_inf(a.cost):
        return INFINITE
    if a.dest is None:
        return Valuation(a.cost, a.wait_rate, 1)
    nxt = vals[a.dest]
    if is_inf(nxt.hops):
        return INFINITE
    return Valuation(a.cost + nxt.payoff, nxt.rate, nxt.hops + 1)


def evaluate_profile(game: GameGraph, profile: Profile) -> list:
    """Valuation of every state under the profile.  States on or leading
    into a cycle are :data:`INFINITE`."""
    n = game.num_states
    for k in range(n):
        if profile[k] not in game.state_actions[k]:
            raise ValueError(f"profile picks a foreign action at state {k}")
    vals: list = [None] * n
    for start in range(n):
        chain = []
        pos = {}
        k = start
        while k is not None and vals[k] is None:
            if k in pos:
                for c in chain[pos[k] :]:
                    vals[c] = INFINITE
                del chain[pos[k] :]
                break
            pos[k] = len(chain)
            chain.append(k)
            k = game.actions[profile[k]].dest
        # resolve the remaining prefix backwards
        for c in reversed(chain):
            vals[c] = _through(game, profile[c], vals)
    return vals


def improving_switches(game: GameGraph, profile: Profile, player: int):
    """Actions whose one-step deviation lexicographically improves the
    owner's valuation."""
    return _switches(game, profile, evaluate_profile(game, profile), player)


def _switches(game: GameGraph, profile: Profile, vals, player: int):
    """:func:`improving_switches` given the profile's valuations."""
    out = []
    for k in range(game.num_states):
        if game.owners[k] != player:
            continue
        cur = vals[k]
        for j in game.state_actions[k]:
            if j == profile[k]:
                continue
            cand = _through(game, j, vals)
            lo, hi = (cand, cur) if player == 1 else (cur, cand)
            if lo < hi:
                out.append(j)
    return out


def extended_dijkstra(game: GameGraph):
    """Values and an optimal profile via the adversarial Dijkstra scan.

    The scan is keyed by the whole :class:`Valuation` ``(payoff, rate,
    hops)``.  Minimizer candidates enter a priority queue keyed by
    ``(payoff, rate, hops, state, action)``; a maximizer state is settled
    only once all of its successors are, taking the greatest valuation.
    Ties go to the lowest action id.  Keys grow strictly along every
    action (costs are nonnegative and hops grow by one), so every state
    with a finite value settles on the lowest-id action that attains its
    lexicographic optimum, and neither player has an improving switch.
    No state settles on an infinite candidate: every infinite-valued
    state stays unsettled and takes its first action that attains
    infinity.  Returns ``(values, profile)``: the payoff of every state,
    as a list, and the profile.
    """
    n = game.num_states
    vals: list = [None] * n
    profile: list = [None] * n
    pending = [len(game.state_actions[k]) if game.owners[k] == 2 else -1 for k in range(n)]
    exits = [
        (a.source, j, a.cost, a.wait_rate, 1)
        for j, a in enumerate(game.actions)
        if a.dest is None
    ]
    _settle(game, exits, pending, vals, profile)

    # Unsettled states have value infinity.  Each takes its first action
    # that attains it: one of infinite cost or towards an unsettled or
    # infinite destination.  An unsettled minimizer has only actions into
    # unsettled states, and an unsettled maximizer at least one.
    for k in range(n):
        if vals[k] is not None:
            continue
        vals[k] = INFINITE
        for j in game.state_actions[k]:
            a = game.actions[j]
            if is_inf(a.cost) or (
                a.dest is not None and (vals[a.dest] is None or is_inf(vals[a.dest].payoff))
            ):
                profile[k] = j
                break
    return [v.payoff for v in vals], tuple(profile)


def _settle(game: GameGraph, offers, pending, vals, profile):
    """The scan of :func:`extended_dijkstra`, also run by the SPTG sweep
    on the states it repairs: settle the states of ``game`` whose
    ``vals`` entry is None, writing their valuations into ``vals`` and
    their choices into ``profile``.  ``profile`` and ``pending`` are
    only indexed by state, so the sweep passes dicts of the states it
    repairs.

    ``offers`` holds the candidates ``(state, action, payoff, rate,
    hops)`` known up front; the game's ``incoming[d]`` lists the actions
    offered when state ``d`` settles, each to its source unless that is
    settled already.  ``pending[k]`` counts the candidates maximizer
    ``k`` still awaits: it settles when the last one arrives.  An
    infinite candidate is dropped uncounted, so a minimizer ignores it
    and a maximizer that receives one never settles: a state settles
    only on a finite value.

    The scan keys payoffs by integers: ``den`` is the least common
    multiple of the game's cost denominators and the offered payoffs'
    denominators, a payoff ``p`` is keyed by the integer ``p * den``, and
    an action's cost is scaled the same way when it is offered.  Every
    payoff the scan sees is a sum of those, so its key is exact, and as
    ``den > 0`` keys order and tie exactly as the payoffs do; a settled
    payoff is ``Fraction(key, den)``.  Integers compare without the
    ``Fraction`` equality and order tests a tuple comparison would make.
    """
    owners, actions, incoming = game.owners, game.actions, game.incoming
    den = lcm(
        game.cost_denominator,
        *(payoff.denominator for _, _, payoff, _, _ in offers if not is_inf(payoff)),
    )
    heap = []
    best_max = {}  # (key, rate, hops, -action) per maximizer state

    def offer(k, j, key, rate, hops):
        if owners[k] == 1:
            heapq.heappush(heap, (key, rate, hops, k, j))
            return
        pending[k] -= 1
        best = best_max.get(k)
        if best is None or (key, rate, hops, -j) > best:
            best = best_max[k] = (key, rate, hops, -j)
        if pending[k] == 0:
            key, rate, hops, neg_j = best
            heapq.heappush(heap, (key, rate, hops, k, -neg_j))

    for k, j, payoff, rate, hops in offers:
        if not is_inf(payoff):
            offer(k, j, payoff.numerator * (den // payoff.denominator), rate, hops)
    while heap:
        key, rate, hops, k, j = heapq.heappop(heap)
        if vals[k] is not None:
            continue
        vals[k] = Valuation(Fraction(key, den), rate, hops)
        profile[k] = j
        for pj in incoming[k]:
            a = actions[pj]
            if vals[a.source] is None and not is_inf(a.cost):
                cost = a.cost.numerator * (den // a.cost.denominator)
                offer(a.source, pj, cost + key, rate, hops + 1)


def single_switch_iteration(game: PricedGame, profile: Profile, hook: Optional[Callable] = None):
    """Improve both players' choices one switch at a time until neither
    has an improving switch; the resulting profile is optimal and its
    payoffs are the game values.  Each step applies the improving switch
    with the lowest action id, the maximizer's while it has any, and
    ``hook(game, before, action, after)`` fires at every switch.
    Returns ``(values, profile, switch_count)``; ``values`` lists the
    payoff of every state.

    The budget allows P*(n+1)+1 minimizer steps, each preceded by fewer
    than P maximizer steps, where P is :meth:`GameGraph.profile_bound`:
    between two minimizer steps the maximizer's switches visit distinct
    profiles.
    """
    bound = game.profile_bound()
    budget = bound * (bound * (game.num_states + 1) + 1) + 1
    for switch_count in range(budget):
        vals = evaluate_profile(game, profile)
        sw = _switches(game, profile, vals, 2) or _switches(game, profile, vals, 1)
        if not sw:
            return [v.payoff for v in vals], profile, switch_count
        j = min(sw)
        k = game.actions[j].source
        nxt = profile[:k] + (j,) + profile[k + 1 :]
        if hook is not None:
            hook(game, profile, j, nxt)
        profile = nxt
    raise RuntimeError("strategy iteration exceeded its termination budget")


def strategy_iteration(game: PricedGame, profile: Profile):
    """:func:`single_switch_iteration` without a hook."""
    return single_switch_iteration(game, profile)


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
    rank = {r: i for i, r in enumerate(ladder)}
    rows = [[0] * len(ladder) for _ in range(n)]
    for k, v in enumerate(evaluate_profile(game, profile)):
        if is_inf(v.hops):
            continue
        rows[v.hops - 1][rank[v.rate]] += 1 if game.owners[k] == 2 else -1
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
