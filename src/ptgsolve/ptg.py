"""One-clock priced timed games over [0, M].

Actions carry existence intervals with independently open or closed
endpoints, and may reset the clock to 0.  Solving proceeds by three
reductions: resets are unfolded into layers counted by reset uses,
the time axis is cut at the interval endpoints into homogeneous pieces,
and each piece is rescaled to a simple priced timed game over [0,1]
whose waiting exits are rerouted through an auxiliary maximizer state,
with stops worth the values at its right end; its sweep's untimed solve
at 1 is then the piece's moment game, so each piece is solved once.
All layers share the one game: a reset is priced where its action is
converted to an untimed one, as a terminal exit worth the next layer's
clock-0 value at its destination.  A layer's result depends only on the
game and those clock-0 values, so the layer loop stops at the first
layer that reproduces its input; and the game converts the actions
available at each clock value once, leaving each layer to price only
its resets.  Each step of a layer (the top game, an interval game, a
lower ladder point) depends only on its clock value, the values it
starts from and the prices of the resets available there, so one memo
keyed by those inputs serves the whole solve, and a layer solves only
the steps whose inputs changed.  The piecewise-linear value functions
are assembled once, for the layer returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .numerics import F0, INF, PwlFn, frac, is_inf
from .priced_game import PAction, PricedGame, extended_dijkstra
from .sptg import Sptg, SptgSolution, solve_sptg


class PtgValidationError(ValueError):
    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


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
    label: Optional[str] = None

    def available_at(self, x) -> bool:
        if self.lo < x < self.hi:
            return True
        if x == self.lo and self.lo_closed:
            return True
        if x == self.hi and self.hi_closed:
            return True
        return False


@dataclass(frozen=True)
class Ptg:
    owners: tuple
    rates: tuple
    actions: tuple  # TAction

    def __post_init__(self):
        n = len(self.owners)
        if len(self.rates) != n:
            raise PtgValidationError("state-count", "rates and owners disagree")
        for k, o in enumerate(self.owners):
            if o not in (1, 2):
                raise PtgValidationError("bad-owner", f"state {k} has owner {o}")
        for k, r in enumerate(self.rates):
            if is_inf(r) or r < 0:
                raise PtgValidationError("negative-rate", f"state {k}")
        for i, a in enumerate(self.actions):
            if not 0 <= a.source < n:
                raise PtgValidationError("dangling-reference", f"action {i} source")
            if a.dest is not None and not 0 <= a.dest < n:
                raise PtgValidationError("dangling-reference", f"action {i} dest")
            if not is_inf(a.cost) and a.cost < 0:
                raise PtgValidationError("negative-cost", f"action {i}")
            if a.lo < 0 or a.lo > a.hi:
                raise PtgValidationError("bad-interval", f"action {i}")
            if a.lo == a.hi and not (a.lo_closed and a.hi_closed):
                raise PtgValidationError("bad-interval", f"action {i} is empty")
            if a.reset and a.dest is None:
                raise PtgValidationError("reset-to-terminal", f"action {i}")
        if not self.actions:
            raise PtgValidationError("no-actions", "the game has no actions")
        if self.horizon == F0:
            raise PtgValidationError("degenerate-horizon", "no action extends past 0")
        for k in range(n):
            if not any(
                a.source == k and a.available_at(self.horizon) for a in self.actions
            ):
                raise PtgValidationError(
                    "no-horizon-action", f"state {k} has no action at time {self.horizon}"
                )

    @property
    def num_states(self) -> int:
        return len(self.owners)

    @cached_property
    def horizon(self) -> Fraction:
        return max(a.hi for a in self.actions)

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

    @cached_property
    def _untimed_at(self) -> dict:
        """Clock value -> the actions available there, in ``actions``
        order, as ``(TAction, PAction)`` pairs; a reset's ``PAction`` is
        None, as its price depends on the layer.  Filled by ``_available``."""
        return {}


@dataclass(frozen=True)
class IntervalCert:
    """Provenance of the value functions on one open ladder interval."""

    lo: Fraction
    hi: Fraction
    sptg: Sptg
    solution: SptgSolution


@dataclass
class PtgStats:
    oracle_calls: int = 0  # interval games solved
    reused_intervals: int = 0  # interval games taken from a deeper layer
    priced_solves: int = 0  # ladder-point games solved: the top game and the moment games
    layers: int = 1  # layers of the unfolding: reset_depth + 1
    solved_layers: int = 0  # layers solved, up to the first that repeats its input


@dataclass(frozen=True)
class PtgResult:
    values: tuple  # PwlFn per state over [0, horizon]
    ladder: tuple  # descending
    trace: tuple  # IntervalCert, right to left
    stats: PtgStats

    def jump_points(self, state: int):
        """Ladder points where the value differs from a one-sided limit."""
        f = self.values[state]
        out = []
        for t in self.ladder:
            i = f.breaks.index(t) if t in f.breaks else None
            if i is None:
                continue
            pv = f.point_vals[i]
            jump = False
            if i > 0 and f.eval(t, side="left") != pv:
                jump = True
            if i < len(f.seg_vals) and f.eval(t, side="right") != pv:
                jump = True
            if jump:
                out.append(t)
        return out


def _available(game: Ptg, x) -> list:
    """The ``(TAction, PAction)`` pairs of ``Ptg._untimed_at`` at x,
    converted on first use."""
    available = game._untimed_at.get(x)
    if available is None:
        available = game._untimed_at[x] = [
            (a, None if a.reset else PAction(a.source, a.dest, a.cost, label=a.label))
            for a in game.actions
            if a.available_at(x)
        ]
    return available


def _reset_price(a: TAction, reset_values):
    """A reset's cost plus its destination's entry of ``reset_values``,
    the next layer's clock-0 values; infinite in the deepest layer, where
    ``reset_values`` is None."""
    extra = INF if reset_values is None else reset_values[a.dest]
    return INF if (is_inf(a.cost) or is_inf(extra)) else a.cost + extra


def _actions_at(game: Ptg, x, reset_values) -> list:
    """The actions available at clock x as untimed actions, a reset
    being a terminal exit at its ``_reset_price``."""
    return [
        PAction(a.source, None, _reset_price(a, reset_values), label=a.label)
        if untimed is None
        else untimed
        for a, untimed in _available(game, x)
    ]


def _reset_prices(game: Ptg, x, reset_values) -> tuple:
    """The prices of the resets available at x: all a layer's untimed
    actions at x depend on."""
    return tuple(
        _reset_price(a, reset_values) for a, untimed in _available(game, x) if untimed is None
    )


def build_moment_game(game: Ptg, v, x, reset_values) -> PricedGame:
    """Snapshot priced game at clock x: the actions available at x plus
    a stop action per state collecting that state's entry of ``v``."""
    actions = _actions_at(game, x, reset_values)
    for k in range(game.num_states):
        actions.append(PAction(k, None, v[k], label=f"stop{k}"))
    return PricedGame(game.owners, tuple(actions))


def build_interval_sptg(game: Ptg, v_hi, x, width, reset_values) -> Sptg:
    """Rescale one homogeneous availability interval to an SPTG on [0,1].

    Actions available at the interior point x survive with their original
    destinations, resets priced as in ``_actions_at``; each state gains a
    stop action worth its entry of ``v_hi``, the values at the interval's
    right end, so the untimed game at 1 is the moment game at x.  For
    minimizer states the stop action routes through a fresh maximizer
    state with the top rate and a free exit, which prices early stopping
    out of the optimum; maximizer stop actions go to the terminal directly
    and pay no more than waiting until 1.  Rates scale by the width.
    """
    width = frac(width)
    if width <= 0:
        raise PtgValidationError("bad-interval", f"width {width}")
    n = game.num_states
    max_state = n
    top_rate = max(game.rates, default=F0) * width
    actions = _actions_at(game, x, reset_values)
    for k in range(n):
        dest = max_state if game.owners[k] == 1 else None
        actions.append(PAction(k, dest, v_hi[k], label=f"stop{k}"))
    actions.append(PAction(max_state, None, F0, label="exit-max"))
    return Sptg(
        owners=game.owners + (2,),
        rates=tuple(r * width for r in game.rates) + (top_rate,),
        actions=tuple(actions),
    )


def _remap(fn: PwlFn, lo, width) -> list:
    """Segments of x -> fn((x - lo) / width), for splicing into [lo, lo+width]."""
    return [
        (lo + s_lo * width, lo + s_hi * width, val, slope / width)
        for s_lo, s_hi, val, slope in fn.segments()
    ]


def _point_values(game: Ptg, v, x, reset_values, stats: PtgStats, memo: dict) -> tuple:
    """Values at ladder point x: of the moment game with stops worth
    ``v``, or, where ``v`` is None (the top), of the actions at x alone."""
    key = (x, v, _reset_prices(game, x, reset_values))
    vals = memo.get(key)
    if vals is None:
        if v is None:
            priced = PricedGame(game.owners, tuple(_actions_at(game, x, reset_values)))
        else:
            priced = build_moment_game(game, v, x, reset_values)
        vals = memo[key] = tuple(extended_dijkstra(priced)[0])
        stats.priced_solves += 1
    return vals


def _solve_layer(game: Ptg, reset_values, stats: PtgStats, memo: dict) -> tuple:
    """One reset layer, its resets priced by ``reset_values``: the values
    at the ladder points (clock value -> tuple per state) and the
    interval certificates, right to left.

    Each step is looked up in ``memo`` under its exact inputs, solved
    only on a miss: ``(x, v, prices)`` is the ladder point or open
    interval at x entered with values ``v`` (None at the top) and the
    prices of the resets available at x.
    """
    n = game.num_states
    ladder = game.ladder
    point_vals = {ladder[0]: _point_values(game, None, ladder[0], reset_values, stats, memo)}
    trace = []
    for hi, lo in zip(ladder, ladder[1:]):
        x = (hi + lo) / 2
        key = (x, point_vals[hi], _reset_prices(game, x, reset_values))
        cert = memo.get(key)
        if cert is None:
            sptg = build_interval_sptg(game, point_vals[hi], x, hi - lo, reset_values)
            cert = memo[key] = IntervalCert(lo, hi, sptg, solve_sptg(sptg))
            stats.oracle_calls += 1
        else:
            stats.reused_intervals += 1
        trace.append(cert)
        zero_vals = tuple(cert.solution.values[k].eval(F0) for k in range(n))
        point_vals[lo] = _point_values(game, zero_vals, lo, reset_values, stats, memo)
    return point_vals, trace


def _assemble(game: Ptg, point_vals: dict, trace) -> tuple:
    """Each state's value function over [0, horizon]: the interval
    solutions rescaled and spliced, with the ladder-point values."""
    fns = []
    for k in range(game.num_states):
        flat = [
            seg
            for cert in reversed(trace)
            for seg in _remap(cert.solution.values[k], cert.lo, cert.hi - cert.lo)
        ]
        fns.append(PwlFn.from_segments(flat, {t: vs[k] for t, vs in point_vals.items()}))
    return tuple(fns)


def solve_ptg(game: Ptg) -> PtgResult:
    """Exact value functions over [0, horizon].

    Reset layers are solved deepest first, all on the one game: each
    layer's clock-0 values price the previous layer's resets where its
    actions are converted to untimed ones.  A layer whose clock-0 values
    equal the ones it was priced with would be repeated by every later
    layer, so the loop returns it; ``stats.solved_layers`` counts the
    layers solved, out of ``stats.layers``.  One memo serves every layer:
    a step whose inputs a deeper layer already met (its reset prices
    unchanged) reuses that layer's solution, counted in
    ``stats.reused_intervals`` for interval games and not in
    ``stats.oracle_calls``.  The value functions are assembled once, for
    the layer returned.
    """
    stats = PtgStats(layers=game.reset_depth + 1)
    memo = {}
    reset_values = None
    for _ in range(stats.layers):
        point_vals, trace = _solve_layer(game, reset_values, stats, memo)
        stats.solved_layers += 1
        if point_vals[F0] == reset_values:
            break
        reset_values = point_vals[F0]
    return PtgResult(_assemble(game, point_vals, trace), game.ladder, tuple(trace), stats)
