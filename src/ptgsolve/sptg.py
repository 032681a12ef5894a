"""Simple priced timed games: one clock on [lo, hi], no resets or guards.

States accrue cost at a per-state rate while time advances; actions are
instantaneous priced transitions, always available.  A game may have a
boundary: each state may stop at hi, and only there, for its boundary
value, so it needs no action.  Values as functions of the clock are
piecewise linear with rational breakpoints and are computed exactly by
a right-to-left sweep over event points.

The untimed game at hi, whose action m + k is state k's stop, is solved
by one lexicographic extended Dijkstra scan, whose choices are
switch-free by construction.  m + k is also k's waiting exit, and the
sweep reads a stop as waiting, which pays the same at hi.  At each event
point, the one at hi included, the sweep solves the snapshot game, whose
waiting exits cost the states' values there plus an infinitesimal rate
charge, without building it: :func:`_repair` re-solves, on ``at_hi``,
the states whose crossing fixed the event point and the finite-valued
states whose chosen action, or an action coinciding with it, leads into
those, and every other state keeps its choice.  At hi that is every
finite-valued state; an infinite-valued state keeps the untimed choice
throughout.

Each state's open piece is a line ``c - rate*t`` in absolute clock
coordinates, and each action caches the line it offers, refreshed only
when its destination's rate changes, which is also the only place a
value function gets a new segment.  Each state's certificate is the
largest clock value below the current one where one of its action lines
crosses its chosen line; the next event point is the largest
certificate, kept on a heap.  Only the states whose certificate may have
moved are rescanned: their choice changed, one of their lines moved, or
their certificate fixed the current clock value.  The first rescan after
a state's lines move reads them all; a later one reads the chosen line's
left vertex on their lower envelope (upper for a maximizer), kept until
one of them moves, in the manner of kinetic data structures (Basch,
Guibas and Hershberger, *Data structures for mobile data*, SODA 1997).
Waiting lines are never scanned: they meet the chosen line at the
current clock value itself.

The value functions are built from the sweep's segments as they stand,
with no merging pass, because those segments are already canonical.  A
state's segment ends only where its rate changes, so neighbouring
segments differ in slope and are never collinear.  Every event point
lies strictly below the one before, so every segment has positive
length.  And the values are continuous, as the repair checks at every
step, so each breakpoint's value is its segment's value there, and the
value at hi is the untimed payoff.  An infinite value never changes
rate, so it is one constant segment.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from .numerics import F0, F1, PwlFn, event_point_count, frac, is_inf
from .priced_game import (
    INFINITE,
    GameError,
    GameGraph,
    PAction,
    PricedGame,
    _settle,
    check_graph,
    clip,
    extended_dijkstra,
    potential_less,
    potential_matrix,
    rate_ladder_of,
    single_switch_iteration,
)

WAIT = None  # the waiting choice in a strategy run


def check_domain(lo, hi) -> None:
    """The rule of a clock domain [lo, hi]: 0 <= lo < hi."""
    if not F0 <= lo < hi:
        raise GameError("bad-interval", "domain", clip(f"[{lo}, {hi}]"))


def check_rates(owners, rates) -> None:
    """The rule a simple and a full timed game share: one finite,
    nonnegative rate per state."""
    if len(rates) != len(owners):
        raise GameError("state-count", "states", "rates and owners disagree")
    for k, r in enumerate(rates):
        if is_inf(r) or r < 0:
            raise GameError("negative-rate", f"states[{k}]", clip(str(r)))


@dataclass(frozen=True)
class Sptg(GameGraph):
    owners: tuple  # 1 (minimizer) or 2 (maximizer) per state
    rates: tuple  # nonnegative Fraction per state
    actions: tuple  # PAction with Fraction or infinite costs
    lo: Fraction = F0  # the clock domain [lo, hi], [0,1] unless given
    hi: Fraction = F1
    boundary: tuple | None = None  # per state: the cost of stopping at hi

    def __post_init__(self):
        check_domain(self.lo, self.hi)
        check_rates(self.owners, self.rates)
        # only snapshot waits (build_eps_game) carry a wait rate
        for j, a in enumerate(self.actions):
            if a.wait_rate:
                raise GameError("wait-rate", f"actions[{j}]", f"wait rate {a.wait_rate}")
        if self.boundary is not None and len(self.boundary) != len(self.owners):
            raise GameError("state-count", "boundary", "boundary and owners disagree")
        # checked as its untimed game at hi, in which a boundary lets every state stop
        check_graph(self.owners, self.actions + self._stops())

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    def _stops(self) -> tuple:
        """Given a boundary, each state's stop at hi, a terminal exit
        worth its boundary value."""
        return tuple(PAction(k, None, b) for k, b in enumerate(self.boundary or ()))

    @cached_property
    def at_hi(self) -> PricedGame:
        """The untimed game at hi: the actions, then, given a boundary,
        state k's stop as m + k.  It is derived from the game, which its
        constructor checked as this priced game, or which is derived and
        so valid by construction.  So it shares the game's index: the
        same ``state_actions`` without a boundary, each entry with its
        stop appended with one, and the same ``incoming``, as stops lead
        nowhere.  The sweep reads the actions into each state from it and
        settles every repair on it; the crossing scans and
        :meth:`event_bound` read the game's own ``state_actions``, without
        stops.  So a solve indexes the actions once."""
        return PricedGame.derived(self, self._stops())

    def event_bound(self) -> int:
        """Bound on the number of event points of the value functions."""
        n = self.num_states
        return min(12**n, self.profile_bound())


@dataclass(frozen=True)
class TimedStrategyProfile:
    """Each state's choice runs over the span [lo, hi), then its choice at hi.

    ``runs[k]`` lists state ``k``'s runs left to right as ``(i, choice)``:
    the choice, an action index or WAIT, holds from ``clocks[i]`` up to
    the next run's start, or to hi.  ``clocks`` increase from lo to hi.
    """

    clocks: tuple
    runs: tuple  # per state: ((i, choice), ...) from i = 0, neighbours unalike
    at_hi: tuple  # per state: the choice at hi

    def __post_init__(self):
        last = len(self.clocks) - 1
        if last < 1 or any(a >= b for a, b in zip(self.clocks, self.clocks[1:])):
            raise ValueError("strategy clocks must increase from lo to hi")
        if len(self.runs) != len(self.at_hi):
            raise ValueError("strategy runs and point choices disagree on the states")
        for k, runs in enumerate(self.runs):
            if not runs or runs[0][0] or len(runs) > 1 and not all(
                i < j < last and a != b for (i, a), (j, b) in zip(runs, runs[1:])
            ):
                raise ValueError(f"runs of state {k} do not tile the span")

    @property
    def span(self) -> tuple:
        """``(lo, hi)``: the first and the last clock value."""
        return self.clocks[0], self.clocks[-1]

    def run_at(self, state: int, x):
        """``(choice, end)`` of state's run holding clock value ``x``: its
        choice there, and the clock value where that run ends.  At hi
        this is the point choice, ending at hi."""
        x, (lo, hi) = frac(x), self.span
        if not lo <= x <= hi:
            raise ValueError(f"clock value {x} outside [{lo}, {hi}]")
        if x == hi:
            return self.at_hi[state], hi
        runs = self.runs[state]
        r = bisect_right(runs, bisect_right(self.clocks, x) - 1, key=itemgetter(0))
        return runs[r - 1][1], self.clocks[runs[r][0]] if r < len(runs) else hi

    def choice_at(self, state: int, x):
        return self.run_at(state, x)[0]


@dataclass
class SolveStats:
    sweep_steps: int = 0
    event_points: int = 0  # distinct interior breakpoints across all states
    potential_checks: int = 0
    potential_violations: int = 0


@dataclass(frozen=True)
class SptgSolution:
    values: tuple  # PwlFn per state on the game's domain
    strategy: TimedStrategyProfile
    stats: SolveStats


def build_eps_game(sptg: Sptg, wait_costs) -> PricedGame:
    """Snapshot game at a clock value: the untimed game extended with a
    waiting exit per state whose cost is the state's current value and
    whose infinitesimal charge (``wait_rate``) is the state's rate.  The
    sweep never builds one; its instrumented run does.

    It is derived from ``sptg``, whose index it extends by the waits,
    state k's as action m + k.  Their costs are the sweep's values, which
    the instrumented run checks, so a negative one is rejected as a
    priced game rejects a negative cost."""
    for k, cost in enumerate(wait_costs):
        if not is_inf(cost) and cost < 0:
            raise GameError("negative-cost", f"actions[{sptg.num_actions + k}]", clip(str(cost)))
    waits = tuple(
        PAction(k, None, cost, sptg.rates[k]) for k, cost in enumerate(wait_costs)
    )
    return PricedGame.derived(sptg, waits)


def solve_at_time_one(sptg: Sptg):
    """Values and a switch-free profile of the untimed game at hi."""
    return extended_dijkstra(sptg.at_hi)


def _line(a: PAction, c, rate):
    """``(C, S)`` of the line ``C - S*t`` that action ``a`` offers at
    clock ``t``: its cost plus its destination's piece.  None when that
    is infinite."""
    if is_inf(a.cost):
        return None
    if a.dest is None:
        return (a.cost, a.wait_rate)
    if is_inf(c[a.dest]):
        return None
    return (a.cost + c[a.dest], rate[a.dest])


class _Pieces:
    """The sweep's state between two event points, in absolute clock
    coordinates.

    State ``k``'s open piece is ``v_k(t) = c[k] - rate[k]*t``, reached
    through ``choice[k]`` (``m + k`` is its waiting exit), with the hop
    count of ``vals[k]``, its valuation when last settled.  ``lines[j]``
    caches :func:`_line` of action ``j``; it changes only when the
    action's destination starts a new piece.  ``certs[k]`` is state
    ``k``'s crossing certificate (see :func:`next_event_point`) and
    ``tight[k]`` the actions that its last crossing scan found
    coinciding with the chosen line and crossing it at the certificate.
    ``envelopes[k]`` is None when state ``k``'s lines have moved since
    its last crossing scan, False when one scan has seen them, and then
    their :class:`_Envelope`.  ``heap`` holds ``(-certificate, state)``
    entries, some outdated.  All of it persists from one event point to
    the next.

    The pieces start flat through the untimed ``payoffs`` at hi, with the
    untimed solve's choices, and every valuation starts infinite: the
    repair at hi settles every finite-valued state, giving it its first
    sloped piece, before any valuation is read, and an infinite-valued
    state is never settled.
    """

    def __init__(self, sptg: Sptg, payoffs, profile):
        n = sptg.num_states
        self.c = list(payoffs)
        self.rate = [F0] * n
        self.choice = list(profile)
        self.lines = [_line(a, self.c, self.rate) for a in sptg.actions]
        self.certs = [sptg.lo] * n
        self.tight = [((), ())] * n
        self.envelopes = [None] * n
        self.heap = []
        self.vals = [INFINITE] * n

    def at(self, k, x):
        """State ``k``'s value at ``x`` on its open piece."""
        c = self.c[k]
        return c if is_inf(c) else c - self.rate[k] * x


class _Envelope:
    """The lower envelope, over every real ``t``, of a minimizer's finite
    action lines ``C - S*t``; for a maximizer, the upper one.

    ``ids[i]`` lists the actions offering its ``i``-th line by slope,
    ``xs[i]`` is where that line meets the next one, and ``at[j]`` is
    the ``i`` of action ``j``'s line.  Every line that touches the
    envelope, even at a single point, is kept: a crossing at a vertex
    names every line through it.
    """

    __slots__ = ("ids", "xs", "at")

    def __init__(self, maximizer: bool, lines):
        """``lines`` holds ``(action, (C, S))`` pairs."""
        sign = -1 if maximizer else 1
        by_line = {}
        for j, (cj, sj) in lines:
            by_line.setdefault((sign * cj, sign * sj), []).append(j)
        hull, xs = [], []
        for cj, sj in sorted(by_line, key=lambda line: (line[1], line[0])):
            if hull and hull[-1][1] == sj:
                continue  # parallel to a lower line
            while hull:
                ct, st = hull[-1]
                x = (cj - ct) / (sj - st)
                if not xs or xs[-1] <= x:
                    xs.append(x)
                    break
                # the top line lies above the envelope at its left end
                hull.pop()
                xs.pop()
            hull.append((cj, sj))
        self.ids = [by_line[line] for line in hull]
        self.xs = xs
        self.at = {j: i for i, group in enumerate(self.ids) for j in group}

    def crossing(self, chosen, x_lo, x_hi):
        """``(best, coinciding, crossing)`` of :func:`_crossing` for action
        ``chosen``, whose line is on the envelope at ``x_hi``: its left
        vertex if that lies in (x_lo, x_hi), and the lines through it."""
        ids, xs = self.ids, self.xs
        p = self.at[chosen]
        coinciding = [j for j in ids[p] if j != chosen]
        t = xs[p - 1] if p else x_lo
        if not x_lo < t < x_hi:
            return x_lo, coinciding, []
        lo = p - 1
        while lo and xs[lo - 1] == t:
            lo -= 1
        return t, coinciding, [j for group in ids[lo:p] for j in group]


def _crossing(sptg: Sptg, pieces: _Pieces, k: int, x_hi):
    """Largest clock value in (lo, x_hi) where the line of one of state
    ``k``'s own (non-waiting) actions crosses its chosen line; the
    domain's ``lo`` when there is none.  Records the coinciding and
    crossing actions in ``pieces.tight[k]``.  Scans the lines the first
    time after they move and queries their :class:`_Envelope` later,
    unless the state waits.
    """
    c, s = pieces.c[k], pieces.rate[k]
    chosen, lines = pieces.choice[k], pieces.lines
    best, coinciding, crossing = sptg.lo, [], []
    envelope = pieces.envelopes[k]
    if envelope is not None and chosen < sptg.num_actions and not is_inf(c):
        if envelope is False:
            envelope = pieces.envelopes[k] = _Envelope(
                sptg.owners[k] == 2,
                [(j, lines[j]) for j in sptg.state_actions[k] if lines[j] is not None],
            )
        best, coinciding, crossing = envelope.crossing(chosen, sptg.lo, x_hi)
    elif not is_inf(c):
        pieces.envelopes[k] = False
        minimizer = sptg.owners[k] == 1
        for j in sptg.state_actions[k]:
            line = lines[j]
            if line is None or j == chosen:
                continue
            cj, sj = line
            if sj == s:
                if cj == c:
                    coinciding.append(j)
                continue
            # the chosen line is optimal at x_hi, so a line can overtake
            # it to the left only by rising more slowly for a minimizer,
            # or faster for a maximizer
            if (sj > s) == minimizer:
                continue
            t = (c - cj) / (s - sj)
            if sptg.lo < t < x_hi:
                if t > best:
                    best, crossing = t, [j]
                elif t == best:
                    crossing.append(j)
    pieces.tight[k] = (coinciding, crossing)
    return best


def next_event_point(sptg: Sptg, pieces: _Pieces, dirty, x_hi):
    """``(x, events)``: the largest clock value x strictly below ``x_hi``
    where some available action's line meets the chosen action's line,
    given they differ at ``x_hi`` itself, and the states whose
    certificate is x, taken off the heap; ``(lo, set())`` when no such
    crossing exists.

    ``pieces.certs[k]`` caches state ``k``'s own largest such crossing;
    only the states in ``dirty`` are rescanned.
    """
    certs, heap = pieces.certs, pieces.heap
    for k in dirty:
        cert = certs[k] = _crossing(sptg, pieces, k, x_hi)
        if cert != sptg.lo:
            heapq.heappush(heap, (-cert, k))
    top, events = None, set()
    while heap and (not events or heap[0][0] == top):
        key, k = heapq.heappop(heap)
        if certs[k] == -key:  # not an outdated entry
            top = key
            events.add(k)
    return (-top, events) if events else (sptg.lo, events)


def _repair(sptg: Sptg, pieces: _Pieces, x, events):
    """Re-solve the snapshot game at ``x`` on the repaired set R alone,
    settling ``sptg.at_hi`` into ``pieces.vals``; returns ``(R,
    picked)``: R as a dict from each of its states to that state's value
    at ``x`` on its open piece, and the choice picked at each of them.

    R is ``events`` closed under one rule: a finite-valued state enters
    R when its chosen action, or an action coinciding with it
    (``pieces.tight[k][0]``), leads into R.  Outside R each state keeps
    its choice, rate and hop count, and its payoff is its value at
    ``x``.  The values are continuous, so an action into R offers at
    ``x`` what its line offers there.  A state left outside R therefore
    finds each of its other actions into R strictly worse at ``x``, with
    one exception: an action whose line crosses the chosen line exactly
    at ``x``.  But that makes ``x`` the state's certificate, so the
    state is an event and in R anyway.

    A state in R is offered its waiting exit, its actions into R through
    the scan, and, among its other actions, only those whose lines meet
    its chosen line at ``x``: the chosen action, the actions coinciding
    with it and, for an event state, those crossing it there.  Every
    other candidate is strictly worse at ``x``, so the scan settles R as
    the full scan would.

    At hi no crossing has been scanned, R holds every finite-valued state,
    and the finite candidates left out are terminal exits.  None beats
    the untimed choice: a minimizer's is its lowest-id exit at its value
    if it has one, as one hop is the fewest, and a maximizer's is either
    that exit or an action into R, with a rate of at least 0 and at
    least two hops.  A stop has the highest id of its state's exits, so
    it is chosen only where no exit ties with it; then the waiting exit,
    at the stop's payoff, beats every exit left out.  The snapshot game
    has no stops: below hi, a state stops by waiting until hi.  Stops
    lead nowhere, so ``at_hi`` has the game's ``incoming`` and the scan
    offers none of them.
    """
    c, lines, m = pieces.c, pieces.lines, sptg.num_actions
    choice, tight = pieces.choice, pieces.tight
    actions, incoming = sptg.actions, sptg.at_hi.incoming
    repaired = dict.fromkeys(events)
    todo = list(events)
    while todo:
        for j in incoming[todo.pop()]:
            k = actions[j].source
            if k not in repaired and not is_inf(c[k]) and (j == choice[k] or j in tight[k][0]):
                repaired[k] = None
                todo.append(k)
    vals, pending, picked, offers = pieces.vals, {}, {}, []
    for k in repaired:
        vals[k] = None
        first = len(offers)
        at_x = repaired[k] = pieces.at(k, x)
        offers.append((k, m + k, at_x, sptg.rates[k], 1))
        coinciding, crossing = tight[k]
        for j in (choice[k], *coinciding, *(crossing if k in events else ())):
            if j >= m:
                continue  # the old waiting exit
            d = actions[j].dest
            if d not in repaired:
                cj, sj = lines[j]
                hops = 1 if d is None else pieces.vals[d].hops + 1
                offers.append((k, j, cj - sj * x, sj, hops))
        if sptg.owners[k] == 2:
            inside = sum(actions[j].dest in repaired for j in sptg.state_actions[k])
            pending[k] = len(offers) - first + inside
    _settle(sptg.at_hi, offers, pending, vals, picked)
    return repaired, picked


def solve_sptg(sptg: Sptg, instrument: bool = False) -> SptgSolution:
    """Exact value functions and optimal strategies on the game's domain.

    ``instrument=True`` also checks every step: it builds the snapshot
    game, improves the current choices in it one switch at a time,
    checks that every switch strictly decreases the potential matrix
    (``stats.potential_checks`` and ``potential_violations``), and raises
    AssertionError unless the iteration's payoffs are the sweep's values.
    """
    stats = SolveStats()
    n = sptg.num_states
    m = sptg.num_actions
    observe = _observer(sptg, stats) if instrument else None

    v_hi, profile = solve_at_time_one(sptg)
    pieces = _Pieces(sptg, v_hi, profile)
    c, rate, choice, lines = pieces.c, pieces.rate, pieces.choice, pieces.lines
    envelopes = pieces.envelopes
    events = {k for k in range(n) if not is_inf(c[k])}
    # each state's segments so far, right to left, and its open piece's
    # right end
    segments = [[] for _ in range(n)]
    top = [sptg.hi] * n
    # the sweep's clock values, right to left, and for each state whose
    # choice has changed, the runs so far, right to left, as (index in
    # clocks of the run's start, choice)
    clocks = [sptg.hi]
    changed = {}
    x = sptg.hi
    budget = sptg.event_bound() + 1
    for step in range(budget):
        if observe:
            observe(pieces, x)
        repaired, picked = _repair(sptg, pieces, x, events)
        dirty = events
        for k, at_x in repaired.items():
            val = pieces.vals[k]
            if val.payoff != at_x:
                raise AssertionError(
                    f"snapshot value at state {k} broke continuity: {val.payoff} != {at_x}"
                )
            if picked[k] != choice[k]:
                if step:  # the choice so far holds from x rightwards
                    changed.setdefault(k, []).append((step, choice[k] if choice[k] < m else WAIT))
                choice[k] = picked[k]
                dirty.add(k)
            if val.rate != rate[k]:
                if top[k] != x:
                    segments[k].append((x, top[k], at_x, -rate[k]))
                    top[k] = x
                rate[k] = val.rate
                c[k] = at_x + val.rate * x
                for j in sptg.at_hi.incoming[k]:
                    lines[j] = _line(sptg.actions[j], c, rate)
                    source = sptg.actions[j].source
                    dirty.add(source)
                    envelopes[source] = None

        x, events = next_event_point(sptg, pieces, dirty, x)
        clocks.append(x)
        stats.sweep_steps += 1
        if x == sptg.lo:
            break
    else:
        raise RuntimeError("sweep exceeded its event-point budget")

    for k, (segs, hi) in enumerate(zip(segments, top)):
        segs.append((sptg.lo, hi, pieces.at(k, sptg.lo), -rate[k]))
    fns = tuple(_value_fn(segs, v) for segs, v in zip(segments, v_hi))
    stats.event_points = event_point_count(fns)
    last = len(clocks) - 1
    runs = [((0, WAIT if j >= m else j),) for j in choice]  # the last choice holds from lo
    for k, state_runs in changed.items():
        runs[k] += tuple((last - i, j) for i, j in reversed(state_runs))
    strategy = TimedStrategyProfile(tuple(reversed(clocks)), tuple(runs), tuple(profile))
    return SptgSolution(fns, strategy, stats)


def _value_fn(segments, v_hi) -> PwlFn:
    """A state's value function from its sweep segments ``(lo, hi, value
    at lo, slope)``, right to left, and its untimed payoff ``v_hi``.

    The segments are canonical as they stand (see the module docstring),
    so the function is built directly, coercing as
    :meth:`PwlFn.constant` does; an infinite value is that constant.
    """
    if is_inf(v_hi):
        ((lo, hi, _, _),) = segments
        return PwlFn.constant(lo, hi, v_hi)
    segments.reverse()
    breaks = tuple(map(frac, (segments[0][0], *(hi for _, hi, _, _ in segments))))
    vals = tuple(frac(v) for _, _, v, _ in segments)
    slopes = tuple(frac(s) for _, _, _, s in segments)
    return PwlFn(breaks, vals, slopes, vals + (frac(v_hi),))


def _observer(sptg: Sptg, stats: SolveStats):
    """The instrumented sweep's check of each step at clock ``x``: single
    switches from the current choices in the snapshot game, each counted
    in ``stats`` and checked to decrease the potential matrix, must end
    on the sweep's values at ``x``."""
    ladder = rate_ladder_of(sptg.rates)

    def watch(game, before, j, after):
        p_before = potential_matrix(game, before, ladder)
        p_after = potential_matrix(game, after, ladder)
        stats.potential_checks += 1
        if not potential_less(p_after, p_before):
            stats.potential_violations += 1

    def observe(pieces: _Pieces, x):
        at_x = [pieces.at(k, x) for k in range(sptg.num_states)]
        game = build_eps_game(sptg, at_x)
        payoffs, _, _ = single_switch_iteration(game, tuple(pieces.choice), watch)
        if payoffs != at_x:
            raise AssertionError(f"snapshot solve at {x} disagrees with the sweep: {payoffs}")

    return observe
