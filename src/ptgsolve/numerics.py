"""Exact cost arithmetic and piecewise-linear function algebra.

All quantities are exact ``fractions.Fraction`` values.  Infinity is
represented by ``math.inf``, which compares exactly against rationals and
absorbs under addition, so finite arithmetic never touches floating point.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

INF = math.inf

F0 = Fraction(0)
F1 = Fraction(1)

# Each player's strict preference between two values.
BETTER = {"min": operator.lt, "max": operator.gt}


def frac(value) -> Fraction:
    """Coerce ints/strings/Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; use Fraction or a string")
    return Fraction(value)


def is_inf(value) -> bool:
    # INF is the only float in the package, so a type test suffices and
    # avoids the slow Fraction-against-float equality.
    return value.__class__ is float


# A number in a document: optional ASCII whitespace around "inf", or an
# optional sign and then digits, "p/q" or a decimal ("2.5", ".5", "1.").
_NUMBER = re.compile(r"\s*(?:(inf)|[+-]?(?:\d+(?:/\d+|\.\d*)?|\.\d+))\s*", re.ASCII)


def parse_cost(text):
    """Parse a string of the :data:`_NUMBER` grammar, or an integer, into
    an extended cost.  The grammar is ours: ``Fraction``'s own changed in
    Python 3.12, and every string of ours means the same to each version
    of it.  It has no exponents: ``Fraction("1eN")`` computes ``10**N``,
    so a short string could take unbounded time."""
    if type(text) is int:  # not bool: JSON true is no number
        return Fraction(text)
    match = _NUMBER.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"cannot parse cost {text!r}")
    return INF if match[1] else Fraction(text)


class DigitLimitError(ValueError):
    """A number whose numerator or denominator has more digits than the
    interpreter converts to a string (``sys.get_int_max_str_digits``)."""


def format_cost(value) -> str:
    if is_inf(value):
        return "inf"
    try:
        return str(frac(value))
    except ValueError:
        raise DigitLimitError(
            "too-many-digits: a result number has more than "
            f"{sys.get_int_max_str_digits()} digits in its numerator or denominator"
        ) from None


class DomainError(ValueError):
    """Raised when an argument lies outside a function's domain."""


class PwlError(ValueError):
    """Raised on malformed piecewise-linear data."""


@dataclass(frozen=True)
class PwlFn:
    """A piecewise-linear function on a closed rational interval.

    ``breaks`` are the strictly increasing breakpoints including both
    domain endpoints.  Segment ``i`` spans ``[breaks[i], breaks[i+1]]``;
    ``seg_vals[i]`` is its value at the left endpoint (as a right limit)
    and ``slopes[i]`` its slope.  A segment whose value is infinite is
    constant-infinity and carries slope 0.  ``point_vals[i]`` is the
    value at breakpoint ``i`` itself; it may differ from the one-sided
    segment limits, which marks a jump discontinuity (needed for priced
    timed game values; simple-game values are continuous).

    Instances are canonical: no zero-length segments, collinear adjacent
    segments merged, so equality of values is dataclass equality.
    """

    breaks: tuple
    seg_vals: tuple
    slopes: tuple
    point_vals: tuple

    @property
    def lo(self):
        return self.breaks[0]

    @property
    def hi(self):
        return self.breaks[-1]

    @staticmethod
    def from_segments(segments: Sequence[tuple], point_overrides=None) -> "PwlFn":
        """Build a canonical function from contiguous segments.

        Each segment is ``(lo, hi, value_at_lo, slope)``.  Point values
        default to continuity with the neighbouring segments; entries of
        ``point_overrides`` (a mapping ``x -> value``) install jumps.
        """
        if not segments:
            raise PwlError("no segments")
        segs = []
        for lo, hi, val, slope in segments:
            lo, hi = frac(lo), frac(hi)
            if hi <= lo:
                raise PwlError(f"zero-length or reversed segment [{lo}, {hi}]")
            if is_inf(val):
                segs.append((lo, hi, INF, F0))
            else:
                segs.append((lo, hi, frac(val), frac(slope)))
        for (_, h1, _, _), (l2, _, _, _) in zip(segs, segs[1:]):
            if h1 != l2:
                raise PwlError("segments do not tile the domain")
        overrides = point_overrides or {}
        # Merge collinear neighbours unless a jump separates them; only
        # neighbours of equal slope can be collinear.
        merged = [segs[0]]
        for seg in segs[1:]:
            lo, hi, val, slope = seg
            plo, phi, pval, pslope = merged[-1]
            if is_inf(pval) or is_inf(val):
                collinear = is_inf(pval) and is_inf(val)
            else:
                collinear = pslope == slope and pval + pslope * (phi - plo) == val
            if collinear and not (overrides and lo in overrides and overrides[lo] != val):
                merged[-1] = (plo, hi, pval, pslope)
            else:
                merged.append(seg)

        breaks = [merged[0][0]] + [s[1] for s in merged]
        seg_vals = tuple(s[2] for s in merged)
        slopes = tuple(s[3] for s in merged)
        lo, hi, val, slope = merged[-1]
        points = seg_vals + (INF if is_inf(val) else val + slope * (hi - lo),)
        if overrides:
            points = tuple(overrides.get(b, p) for b, p in zip(breaks, points))
        return PwlFn(tuple(breaks), seg_vals, slopes, points)

    @staticmethod
    def constant(lo, hi, value) -> "PwlFn":
        lo, hi = frac(lo), frac(hi)
        if hi <= lo:
            raise PwlError(f"zero-length or reversed segment [{lo}, {hi}]")
        value = INF if is_inf(value) else frac(value)
        return PwlFn((lo, hi), (value,), (F0,), (value, value))

    @staticmethod
    def affine(lo, hi, value_at_lo, slope) -> "PwlFn":
        return PwlFn.from_segments([(lo, hi, value_at_lo, slope)])

    # -- queries ---------------------------------------------------------

    def segments(self):
        for i in range(len(self.seg_vals)):
            yield self.breaks[i], self.breaks[i + 1], self.seg_vals[i], self.slopes[i]

    def is_constant_inf(self) -> bool:
        return len(self.seg_vals) == 1 and is_inf(self.seg_vals[0])

    def jumps(self) -> list:
        """The breakpoints, ascending, where the point value differs
        from a one-sided limit."""
        return [
            b
            for i, (b, p) in enumerate(zip(self.breaks, self.point_vals))
            if (i < len(self.seg_vals) and p != self.seg_vals[i])
            or (i > 0 and p != self._left_limit_at(i))
        ]

    def _left_limit_at(self, i):
        lo, hi = self.breaks[i - 1], self.breaks[i]
        val, slope = self.seg_vals[i - 1], self.slopes[i - 1]
        return INF if is_inf(val) else val + slope * (hi - lo)

    def eval(self, x, side: str = "at"):
        """Evaluate at ``x``: the point value, or a one-sided limit."""
        x = frac(x)
        if x < self.lo or x > self.hi:
            raise DomainError(f"{x} outside domain [{self.lo}, {self.hi}]")
        # breaks[i] <= x < breaks[i+1], or i is the last index at x == hi
        i = bisect_right(self.breaks, x) - 1
        at_break = self.breaks[i] == x
        if side == "at":
            if at_break:
                return self.point_vals[i]
        elif side == "left":
            if x == self.lo:
                raise DomainError("no left limit at the lower endpoint")
            if at_break:
                return self._left_limit_at(i)
        elif side == "right":
            if x == self.hi:
                raise DomainError("no right limit at the upper endpoint")
            if at_break:
                return self.seg_vals[i]
        else:
            raise ValueError(f"unknown side {side!r}")
        val = self.seg_vals[i]
        return INF if is_inf(val) else val + self.slopes[i] * (x - self.breaks[i])

    # -- arithmetic ------------------------------------------------------

    def offset(self, c) -> "PwlFn":
        """Pointwise ``f + c`` with an extended-cost constant."""
        if is_inf(c):
            return PwlFn.constant(self.lo, self.hi, INF)
        # a finite shift keeps every jump, kink and merge: still canonical
        c = frac(c)
        shift = lambda v: INF if is_inf(v) else v + c
        return PwlFn(
            self.breaks,
            tuple(map(shift, self.seg_vals)),
            self.slopes,
            tuple(map(shift, self.point_vals)),
        )

    def interior_breaks(self) -> tuple:
        return self.breaks[1:-1]


def event_point_count(fns) -> int:
    """L: the number of distinct interior breakpoints of ``fns``."""
    return len({b for f in fns for b in f.interior_breaks()})


def _samples(f: PwlFn, grid) -> list:
    """``f``'s left limit, point value and right limit at each point of
    ``grid``, an ascending list that holds every breakpoint of ``f``, in
    one forward walk over the breakpoints.  The left limit at the lower
    end and the right limit at the upper end are None."""
    breaks, vals = f.breaks, f.seg_vals
    out = []
    i = 0  # the next breakpoint of f at or after x
    for x in grid:
        if x == breaks[i]:
            left = f._left_limit_at(i) if i else None
            out.append((left, f.point_vals[i], vals[i] if i < len(vals) else None))
            i += 1
        else:  # inside segment i - 1
            v = vals[i - 1]
            v = INF if is_inf(v) else v + f.slopes[i - 1] * (x - breaks[i - 1])
            out.append((v, v, v))
    return out


def _merge(f: PwlFn, g: PwlFn, better) -> PwlFn:
    """The pointwise best of two functions on a common domain.

    Between consecutive breakpoints of either function both are affine,
    so their difference changes sign at most once there.  The function
    better at a piece's left end (by its right limit; a tie goes to the
    one better at the right end) wins the piece, up to the single
    crossing if the other is strictly better at the right end (by its
    left limit).  A constant-infinite piece is never strictly better at
    one end and worse at the other, so it never splits.  Every
    breakpoint takes the better point value, so jumps survive.
    """
    grid = sorted(set(f.breaks) | set(g.breaks))
    fs, gs = _samples(f, grid), _samples(g, grid)
    segs = []
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        fa, fb = fs[i][2], fs[i + 1][0]
        ga, gb = gs[i][2], gs[i + 1][0]
        if better(ga, fa) or (ga == fa and better(gb, fb)):
            fa, fb, ga, gb = ga, gb, fa, fb
        if better(gb, fb):
            # both finite here; f leads at a, g at b
            t = (ga - fa) / ((ga - fa) - (gb - fb))
            x = a + t * (b - a)
            segs.append((a, x, fa, (fb - fa) / (b - a)))
            segs.append((x, b, ga + t * (gb - ga), (gb - ga) / (b - a)))
        else:
            segs.append((a, b, fa, F0 if is_inf(fa) else (fb - fa) / (b - a)))
    overrides = {}
    for x, (_, fx, _), (_, gx, _) in zip(grid, fs, gs):
        overrides[x] = gx if better(gx, fx) else fx
    return PwlFn.from_segments(segs, overrides)


def _envelope(fs: Sequence[PwlFn], better) -> PwlFn:
    """The pointwise best of ``fs``: :func:`_merge` folded as a balanced
    tree, each round merging neighbours in pairs, so every function
    takes part in about log2(len(fs)) merges.  Each merge is exact and
    taking the better of two values is associative, so the fold is the
    envelope of all of ``fs``; results are canonical, so the order of
    the merges does not show."""
    if not fs:
        raise PwlError("empty function list")
    if any((f.lo, f.hi) != (fs[0].lo, fs[0].hi) for f in fs):
        raise DomainError("mismatched domains")
    while len(fs) > 1:
        pairs = [_merge(f, g, better) for f, g in zip(fs[::2], fs[1::2])]
        fs = pairs + fs[len(pairs) * 2 :]
    return fs[0]


def min_envelope(fs: Sequence[PwlFn]) -> PwlFn:
    """Pointwise minimum of functions on a common domain."""
    return _envelope(list(fs), BETTER["min"])


def max_envelope(fs: Sequence[PwlFn]) -> PwlFn:
    """Pointwise maximum of functions on a common domain."""
    return _envelope(list(fs), BETTER["max"])


def wait_closure(f: PwlFn, rate, player: str) -> PwlFn:
    """Close ``f`` under waiting at the given per-unit rate.

    For ``player="min"``: ``g(x) = inf over x' in [x, hi] of
    rate*(x'-x) + f(x')``; for ``"max"`` the supremum.  Computed exactly
    by a backward scan over segments.  ``f`` must be continuous.
    """
    rate = frac(rate)
    if rate < 0:
        raise ValueError("negative waiting rate")
    if player not in BETTER:
        raise ValueError(f"unknown player {player!r}")
    if f.is_constant_inf():
        return f
    if any(is_inf(v) for v in f.seg_vals):
        raise PwlError("wait closure requires a finite or constant-inf function")
    if f.jumps():
        raise PwlError("wait closure requires a continuous function")
    better = BETTER[player]

    # Work with F(x) = f(x) + rate*x; the closure of f is then the running
    # min (or max) of F from the right, minus rate*x.
    out = []  # segments of the closure of F, built right to left
    best = f.eval(f.hi) + rate * f.hi
    for lo, hi, val, slope in reversed(list(f.segments())):
        fval = val + rate * lo
        fslope = slope + rate
        f_hi = fval + fslope * (hi - lo)
        if better(fslope, F0):
            # F improves rightwards: the optimum over [x, hi] sits at hi,
            # and F is continuous there, so ``best`` already counts it
            out.append((lo, hi, best, F0))
        elif not better(best, f_hi):
            # the whole segment improves on the level from the right
            out.append((lo, hi, fval, fslope))
            best = fval
        elif not better(fval, best):
            out.append((lo, hi, best, F0))
        else:
            # F crosses the running level inside the segment
            x = lo + (best - fval) / fslope
            out.append((x, hi, best, F0))
            out.append((lo, x, fval, fslope))
            best = fval
    segs = [
        (lo, hi, v - rate * lo, s - rate)
        for lo, hi, v, s in reversed(out)
    ]
    return PwlFn.from_segments(segs)
