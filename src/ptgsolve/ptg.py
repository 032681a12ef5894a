"""One-clock priced timed games over [0, M].

Actions carry existence intervals with independently open or closed
endpoints, and may reset the clock to 0.  Solving proceeds by three
reductions: resets are unfolded into layers counted by reset uses,
the time axis is cut at the interval endpoints into homogeneous pieces,
and each piece [lo, hi] is a simple priced timed game on that domain,
in the game's own clock, that ends at its boundary: each state may stop
at hi, and only there, for its value at hi.  The piece's sweep solves
its untimed game at hi, which is then the piece's moment game, so each
piece is solved once.
All layers share the one game: a reset is priced where its action is
converted to an untimed one, as a terminal exit worth the next layer's
clock-0 value at its destination.  A layer's result depends only on the
game and those clock-0 values, so the layer loop stops at the first
layer that reproduces its input.  A solve tables the actions available
at each ladder point and interval midpoint once.  A step of a layer
(the top game, an interval game, a lower ladder point) depends only on
its clock value, the values it starts from and the untimed actions its
entry converts to, and at a given clock value only the resets among
them change, with their prices.  So one memo keyed by the clock value,
the values and the reset prices serves the whole solve, a layer solves
only the steps whose inputs changed, and only a solved step converts
its entry to untimed actions.  The top game is the moment game with no
stops.  Below the top, a ladder point is first certified, before any
memo lookup: the values of the interval game just above it already meet
the Bellman inequality of every action available there but those whose
window closes there, so where each closing action meets it too, strictly
for a maximizer, those values are the point's and no moment game is
built (:func:`_certified`).  The piecewise-linear value functions are
assembled once, for the layer returned.

The game is validated once, as the ``Ptg`` is built.  Every game a solve
builds from it, the top and moment games and each interval game with its
untimed game at hi, is derived (:meth:`GameGraph.derived`) with no
checks, because each is valid by construction.  Its states are the
game's, with their owners and rates.  Its actions are the game's actions
available at one clock value, between the game's states at their
nonnegative or infinite costs, and resets converted to terminal exits
at such a cost plus a clock-0 value.  Its stops are terminal exits worth
values, and a value is a sum of costs and rates times durations, so it
is nonnegative or infinite too.  Every state can act: below the top, each
state has its stop, and at the top, its action at the horizon, which the
``Ptg`` checks.  An interval game's domain lies between consecutive
ladder points, so it is nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .numerics import F0, INF, PwlFn, is_inf
from .priced_game import (
    GameError, GameGraph, PAction, PricedGame, check_graph, clip, extended_dijkstra
)
from .sptg import Sptg, SptgSolution, check_domain, check_rates, solve_sptg


@dataclass(frozen=True)
class TAction:
    source: int
    dest: Optional[int]  # None = terminal
    cost: object  # Fraction | INF
    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True
    reset: bool = False

    def available_at(self, x) -> bool:
        if self.lo < x < self.hi:
            return True
        if x == self.lo and self.lo_closed:
            return True
        if x == self.hi and self.hi_closed:
            return True
        return False


@dataclass(frozen=True)
class Ptg(GameGraph):
    owners: tuple
    rates: tuple
    actions: tuple  # TAction

    def __post_init__(self):
        check_rates(self.owners, self.rates)
        check_graph(self.owners, self.actions)
        for j, a in enumerate(self.actions):
            if a.lo < 0 or a.lo > a.hi:
                raise GameError("bad-interval", f"actions[{j}]", clip(f"[{a.lo}, {a.hi}]"))
            if a.lo == a.hi and not (a.lo_closed and a.hi_closed):
                raise GameError("bad-interval", f"actions[{j}]", f"action {j} is empty")
            if a.reset and a.dest is None:
                raise GameError("dangling-reference", f"actions[{j}]", "reset to bot")
        if self.horizon == F0:
            raise GameError("degenerate-horizon", "actions", "no action extends past 0")
        for k, js in enumerate(self.state_actions):
            if not any(self.actions[j].available_at(self.horizon) for j in js):
                raise GameError(
                    "no-horizon-action",
                    f"states[{k}]",
                    f"state {k} has no action at time {self.horizon}",
                )

    @cached_property
    def horizon(self) -> Fraction:
        return max((a.hi for a in self.actions), default=F0)

    @cached_property
    def ladder(self) -> tuple:
        """Distinct interval endpoints plus 0, descending."""
        pts = {F0}
        for a in self.actions:
            pts.add(a.lo)
            pts.add(a.hi)
        return tuple(sorted(pts, reverse=True))

    @cached_property
    def reset_depth(self) -> int:
        """Distinct states that reset actions lead to."""
        return len({a.dest for a in self.actions if a.reset})


@dataclass(frozen=True)
class IntervalCert:
    """Provenance of the value functions on one open ladder interval, the
    domain of its game."""

    sptg: Sptg
    solution: SptgSolution


@dataclass
class PtgStats:
    """What a solve did.  A lower ladder point is either certified from
    the interval values just above it, counted in ``certified_points``,
    or its moment game is looked up in the memo and, on a miss, built
    and solved, counted in ``priced_solves`` with the top games."""

    oracle_calls: int = 0  # interval games solved
    reused_intervals: int = 0  # interval games taken from a deeper layer
    priced_solves: int = 0  # ladder-point games built and solved: the top and moment games
    certified_points: int = 0  # lower ladder points certified, no moment game built
    layers: int = 1  # layers of the unfolding: reset_depth + 1
    solved_layers: int = 0  # layers solved, up to the first that repeats its input


@dataclass(frozen=True)
class PtgResult:
    values: tuple  # PwlFn per state over [0, horizon]
    trace: tuple  # IntervalCert, right to left
    stats: PtgStats

    def jump_points(self, state: int):
        """Points where the value differs from a one-sided limit, in
        descending ladder order; they are all ladder points."""
        return self.values[state].jumps()[::-1]


def _availability(game: Ptg) -> dict:
    """Each ladder point and interval midpoint -> the actions available
    there, in ``actions`` order, as ``(TAction, PAction)`` pairs; a
    reset's ``PAction`` is None, as its price depends on the layer.

    Read off ranks in the ladder, with no clock comparisons: an action
    is available at the ladder points from its ``hi`` down to its
    ``lo``, each end only if closed, and at the midpoints between them.
    """
    ladder = game.ladder
    rank = {t: i for i, t in enumerate(ladder)}
    midpoints = tuple((hi + lo) / 2 for hi, lo in zip(ladder, ladder[1:]))
    at_point = [[] for _ in ladder]
    inside = [[] for _ in midpoints]
    for a in game.actions:
        pair = (a, None if a.reset else PAction(a.source, a.dest, a.cost))
        top, bottom = rank[a.hi], rank[a.lo]
        for i in range(top + (not a.hi_closed), bottom + a.lo_closed):
            at_point[i].append(pair)
        for i in range(top, bottom):
            inside[i].append(pair)
    return dict(zip(ladder + midpoints, at_point + inside))


def _price(a: TAction, reset_values):
    """A reset's cost as a terminal exit: its own cost plus its
    destination's entry of ``reset_values``, the next layer's clock-0
    values; infinite in the deepest layer, where ``reset_values`` is
    None."""
    extra = INF if reset_values is None else reset_values[a.dest]
    return INF if is_inf(a.cost) or is_inf(extra) else a.cost + extra


def _reset_prices(pairs, reset_values) -> tuple:
    """The prices of the resets among ``pairs``, in order: all that a
    step's untimed actions at a clock value depend on beyond it."""
    return tuple(_price(a, reset_values) for a, untimed in pairs if untimed is None)


def _untimed(pairs, reset_values) -> tuple:
    """A step's untimed actions: each pair's ``PAction``, a reset being a
    terminal exit at its price (see :func:`_price`)."""
    return tuple(
        PAction(a.source, None, _price(a, reset_values)) if untimed is None else untimed
        for a, untimed in pairs
    )


def build_moment_game(game: Ptg, v, actions) -> PricedGame:
    """Snapshot priced game at a ladder point: its untimed ``actions``
    plus a stop action per state collecting that state's entry of ``v``;
    where ``v`` is None (the top of the ladder), the actions alone.
    Derived, so valid by construction (see the module docstring); it
    indexes its own actions."""
    stops = tuple(PAction(k, None, b) for k, b in enumerate(v or ()))
    return PricedGame.derived(owners=game.owners, actions=actions + stops)


def build_interval_sptg(game: Ptg, v_hi, lo, hi, actions) -> Sptg:
    """One homogeneous availability interval as an SPTG on [lo, hi]: the
    untimed ``actions`` available inside it, and the values ``v_hi`` at
    hi as the boundary, so the untimed game at hi is the moment game at
    any interior point.  A state with no action there waits to stop.

    Derived, so valid by construction (see the module docstring), but for
    its domain, which is checked: consecutive ladder points always give a
    nonempty one.  It indexes its actions once, for itself and its
    untimed game at hi."""
    check_domain(lo, hi)
    return Sptg.derived(
        owners=game.owners, rates=game.rates, actions=actions, lo=lo, hi=hi, boundary=v_hi
    )


def _certified(game: Ptg, pairs, reset_values, x, w) -> bool:
    """Whether ``w``, the values at ladder point x of the interval game
    just above it, are the values of the moment game at x of ``pairs``,
    the actions available there, with stops worth ``w``.

    Only the actions closing at x (``a.hi == x``, point actions included)
    are checked; each offers its cost plus its destination's entry of
    ``w``, a terminal exit its cost alone and a reset its price
    (:func:`_price`).  A minimizer's offer must be at least its source's
    entry; a maximizer's must be finite and below it, unless that entry
    is infinite.  Every other action available at x is available just
    above x, in the interval game, so ``w`` already meets its Bellman
    inequality; with the closing ones, ``w`` is a fixed point of the
    moment game, each state's stop attaining it.  The strict test keeps
    every closing action below its maximizer's value, so a maximizer
    cycle of actions that attain ``w``, which would be worth infinity, is
    one the interval game has too, and the fixed point is the moment
    game's value.
    """
    owners = game.owners
    for a, untimed in pairs:
        if a.hi != x:
            continue
        if untimed is None:
            offer = _price(a, reset_values)
        elif a.dest is None:
            offer = a.cost
        else:
            extra = w[a.dest]
            offer = INF if is_inf(a.cost) or is_inf(extra) else a.cost + extra
        own = w[a.source]
        if owners[a.source] == 1:
            if offer < own:
                return False
        elif not (is_inf(own) or offer < own):
            return False
    return True


def _point_values(
    game: Ptg, available: dict, reset_values, x, v, stats: PtgStats, memo: dict
) -> tuple:
    """Values at ladder point x: of the moment game of the actions
    available there, with stops worth ``v`` (none at the top, where ``v``
    is None).

    Below the top, ``v`` holds the values at x of the interval game just
    above x, and where :func:`_certified` shows that they are the moment
    game's, they are returned as they are, counted in
    ``stats.certified_points``, with no memo key and no game built."""
    pairs = available[x]
    if v is not None and _certified(game, pairs, reset_values, x, v):
        stats.certified_points += 1
        return v
    key = (x, v, _reset_prices(pairs, reset_values))
    vals = memo.get(key)
    if vals is None:
        moment = build_moment_game(game, v, _untimed(pairs, reset_values))
        vals = memo[key] = tuple(extended_dijkstra(moment)[0])
        stats.priced_solves += 1
    return vals


def _solve_layer(game: Ptg, available: dict, reset_values, stats: PtgStats, memo: dict) -> tuple:
    """One reset layer, its resets priced by ``reset_values``: the values
    at the ladder points (clock value -> tuple per state) and the
    interval certificates, right to left.

    Each step is looked up in ``memo`` under its exact inputs, solved
    only on a miss: ``(x, v, prices)`` is the ladder point or open
    interval at x entered with values ``v`` (None at the top), with the
    prices of the resets available at x (:func:`_reset_prices`).  The
    other actions available at x are fixed by x, so the prices stand for
    the untimed actions that ``available[x]`` converts to in this layer,
    and only a miss converts them.
    """
    ladder = game.ladder
    top = ladder[0]
    point_vals = {top: _point_values(game, available, reset_values, top, None, stats, memo)}
    trace = []
    for hi, lo in zip(ladder, ladder[1:]):
        x = (hi + lo) / 2
        pairs = available[x]
        key = (x, point_vals[hi], _reset_prices(pairs, reset_values))
        cert = memo.get(key)
        if cert is None:
            actions = _untimed(pairs, reset_values)
            sptg = build_interval_sptg(game, point_vals[hi], lo, hi, actions)
            cert = memo[key] = IntervalCert(sptg, solve_sptg(sptg))
            stats.oracle_calls += 1
        else:
            stats.reused_intervals += 1
        trace.append(cert)
        lo_vals = tuple(f.point_vals[0] for f in cert.solution.values)
        point_vals[lo] = _point_values(game, available, reset_values, lo, lo_vals, stats, memo)
    return point_vals, trace


def _assemble(game: Ptg, point_vals: dict, trace) -> tuple:
    """Each state's value function over [0, horizon]: the interval
    solutions spliced, with the ladder-point values.

    Each interval's function is canonical, so only the joints at ladder
    points can merge or jump, and the function is built directly.  Two
    segments meeting at a ladder point merge when they are collinear, or
    both infinite, and the point's value is the right segment's value
    there; otherwise the point stays a breakpoint with its ladder-point
    value.
    """
    certs = trace[::-1]
    fns = []
    for k in range(game.num_states):
        first = certs[0].solution.values[k]
        breaks, seg_vals = list(first.breaks), list(first.seg_vals)
        slopes, points = list(first.slopes), list(first.point_vals)
        for cert in certs[1:]:
            fn = cert.solution.values[k]
            t, val = fn.lo, fn.seg_vals[0]
            p = point_vals[t][k]
            left, slope = seg_vals[-1], slopes[-1]
            if is_inf(left) or is_inf(val):
                collinear = is_inf(left) and is_inf(val)
            else:
                collinear = slope == fn.slopes[0] and left + slope * (t - breaks[-2]) == val
            if collinear and p == val:
                breaks.pop()
                points.pop()
                seg_vals += fn.seg_vals[1:]
                slopes += fn.slopes[1:]
            else:
                points[-1] = p
                seg_vals += fn.seg_vals
                slopes += fn.slopes
            breaks += fn.breaks[1:]
            points += fn.point_vals[1:]
        points[0], points[-1] = point_vals[F0][k], point_vals[game.horizon][k]
        fns.append(PwlFn(tuple(breaks), tuple(seg_vals), tuple(slopes), tuple(points)))
    return tuple(fns)


def solve_ptg(game: Ptg) -> PtgResult:
    """Exact value functions over [0, horizon].

    Reset layers are solved deepest first, all on the one game: each
    layer's clock-0 values price the previous layer's resets where its
    actions are converted to untimed ones.  A layer whose clock-0 values
    equal the ones it was priced with would be repeated by every later
    layer, so the loop returns it; ``stats.solved_layers`` counts the
    layers solved, out of ``stats.layers``.  One memo serves every layer:
    a step whose inputs a deeper layer already met (its untimed actions
    unchanged) reuses that layer's solution, counted in
    ``stats.reused_intervals`` for interval games and not in
    ``stats.oracle_calls``.  A lower ladder point whose interval values
    pass the certificate (:func:`_certified`) takes them as they are:
    they are exactly its moment game's values, so the game is neither
    built nor looked up, and the point is counted in
    ``stats.certified_points``, not in ``stats.priced_solves``.  The
    value functions are assembled once, for the layer returned.
    """
    stats = PtgStats(layers=game.reset_depth + 1)
    available = _availability(game)
    memo = {}
    reset_values = None
    for _ in range(stats.layers):
        point_vals, trace = _solve_layer(game, available, reset_values, stats, memo)
        stats.solved_layers += 1
        if point_vals[F0] == reset_values:
            break
        reset_values = point_vals[F0]
    return PtgResult(_assemble(game, point_vals, trace), tuple(trace), stats)
