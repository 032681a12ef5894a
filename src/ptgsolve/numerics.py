"""Exact cost arithmetic and piecewise-linear function algebra.

All quantities are exact ``fractions.Fraction`` values.  Infinity is
represented by ``math.inf``, which compares exactly against rationals and
absorbs under addition, so finite arithmetic never touches floating point.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

INF = math.inf

F0 = Fraction(0)
F1 = Fraction(1)


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


def parse_cost(text):
    """Parse "p/q", an integer literal, a decimal, or "inf" into an
    extended cost.  Exponents are refused: ``Fraction("1eN")`` computes
    ``10**N``, so a short string could take unbounded time."""
    if type(text) is int:  # not bool: JSON true is no number
        return Fraction(text)
    if isinstance(text, str):
        if text.strip() == "inf":
            return INF
        if "e" in text or "E" in text:
            raise ValueError(f"exponent in cost {text!r}")
        return Fraction(text)
    raise ValueError(f"cannot parse cost {text!r}")


def format_cost(value) -> str:
    if is_inf(value):
        return "inf"
    return str(Fraction(value))


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
        overrides = dict(point_overrides or {})
        # Merge collinear neighbours unless a jump or kink separates them.
        merged = [segs[0]]
        for i in range(1, len(segs)):
            lo, hi, val, slope = segs[i]
            plo, phi, pval, pslope = merged[-1]
            joint = lo
            jump = joint in overrides and overrides[joint] != val
            prev_left = INF if is_inf(pval) else pval + pslope * (phi - plo)
            continuous = prev_left == val
            collinear = (is_inf(pval) and is_inf(val)) or (
                not is_inf(pval) and not is_inf(val) and pslope == slope and continuous
            )
            if collinear and not jump:
                merged[-1] = (plo, hi, pval, pslope)
            else:
                merged.append(segs[i])

        breaks = [merged[0][0]] + [s[1] for s in merged]
        seg_vals = tuple(s[2] for s in merged)
        slopes = tuple(s[3] for s in merged)
        points = []
        for i, b in enumerate(breaks):
            if b in overrides:
                points.append(overrides[b])
            elif i < len(merged):
                points.append(seg_vals[i])
            else:
                lo, hi, val, slope = merged[-1]
                points.append(INF if is_inf(val) else val + slope * (hi - lo))
        return PwlFn(tuple(breaks), seg_vals, slopes, tuple(points))

    @staticmethod
    def constant(lo, hi, value) -> "PwlFn":
        return PwlFn.from_segments([(lo, hi, value, 0)])

    @staticmethod
    def affine(lo, hi, value_at_lo, slope) -> "PwlFn":
        return PwlFn.from_segments([(lo, hi, value_at_lo, slope)])

    # -- queries ---------------------------------------------------------

    def segments(self):
        for i in range(len(self.seg_vals)):
            yield self.breaks[i], self.breaks[i + 1], self.seg_vals[i], self.slopes[i]

    @property
    def num_segments(self) -> int:
        return len(self.seg_vals)

    def is_constant_inf(self) -> bool:
        return len(self.seg_vals) == 1 and is_inf(self.seg_vals[0])

    def is_continuous(self) -> bool:
        for i in range(len(self.breaks)):
            if i < len(self.seg_vals) and self.point_vals[i] != self.seg_vals[i]:
                return False
            if i > 0 and self.point_vals[i] != self._left_limit_at(i):
                return False
        return True

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

    def _slope_at(self, x):
        if x < self.lo or x > self.hi:
            raise DomainError(str(x))
        i = bisect_right(self.breaks, x) - 1
        return self.slopes[min(i, len(self.slopes) - 1)]  # hi lies in the last segment

    # -- arithmetic ------------------------------------------------------

    def offset(self, c) -> "PwlFn":
        """Pointwise ``f + c`` with an extended-cost constant."""
        if is_inf(c):
            return PwlFn.constant(self.lo, self.hi, INF)
        c = frac(c)
        segs = [
            (lo, hi, INF if is_inf(v) else v + c, s) for lo, hi, v, s in self.segments()
        ]
        overrides = {
            b: (INF if is_inf(p) else p + c)
            for b, p in zip(self.breaks, self.point_vals)
        }
        return PwlFn.from_segments(segs, overrides)

    def interior_breaks(self) -> tuple:
        return self.breaks[1:-1]


def _require_same_domain(fs: Sequence[PwlFn]):
    if not fs:
        raise PwlError("empty function list")
    lo, hi = fs[0].lo, fs[0].hi
    for f in fs[1:]:
        if f.lo != lo or f.hi != hi:
            raise DomainError("mismatched domains")
    return lo, hi


def _envelope(fs: Sequence[PwlFn], pick) -> PwlFn:
    lo, hi = _require_same_domain(fs)
    cuts = set()
    for f in fs:
        cuts.update(f.breaks)
    # Pairwise crossings of finite segments refine the grid.
    for i, f in enumerate(fs):
        for g in fs[i + 1 :]:
            for flo, fhi, fv, fs_ in f.segments():
                if is_inf(fv):
                    continue
                for glo, ghi, gv, gs_ in g.segments():
                    if is_inf(gv):
                        continue
                    a, b = max(flo, glo), min(fhi, ghi)
                    if b <= a or fs_ == gs_:
                        continue
                    # f(x) = fv + fs_*(x-flo), g(x) = gv + gs_*(x-glo)
                    x = (gv - gs_ * glo - fv + fs_ * flo) / (fs_ - gs_)
                    if a < x < b:
                        cuts.add(x)
    grid = sorted(cuts)
    segs = []
    for a, b in zip(grid, grid[1:]):
        mid = (a + b) / 2
        best = None
        for f in fs:
            v = f.eval(mid)
            if best is None or pick(v, best[0]):
                lo_v = f.eval(a, "right")
                best = (v, lo_v, F0 if is_inf(lo_v) else f._slope_at(mid))
        segs.append((a, b, best[1], best[2]))
    overrides = {}
    for b in grid:
        vals = [f.eval(b) for f in fs]
        chosen = vals[0]
        for v in vals[1:]:
            if pick(v, chosen):
                chosen = v
        overrides[b] = chosen
    return PwlFn.from_segments(segs, overrides)


def min_envelope(fs: Sequence[PwlFn]) -> PwlFn:
    """Pointwise minimum of functions on a common domain."""
    return _envelope(list(fs), lambda a, b: a < b)


def max_envelope(fs: Sequence[PwlFn]) -> PwlFn:
    """Pointwise maximum of functions on a common domain."""
    return _envelope(list(fs), lambda a, b: a > b)


def wait_closure(f: PwlFn, rate, player: str) -> PwlFn:
    """Close ``f`` under waiting at the given per-unit rate.

    For ``player="min"``: ``g(x) = inf over x' in [x, hi] of
    rate*(x'-x) + f(x')``; for ``"max"`` the supremum.  Computed exactly
    by a backward scan over segments.  ``f`` must be continuous.
    """
    rate = frac(rate)
    if rate < 0:
        raise ValueError("negative waiting rate")
    if player not in ("min", "max"):
        raise ValueError(f"unknown player {player!r}")
    if f.is_constant_inf():
        return f
    if any(is_inf(v) for v in f.seg_vals):
        raise PwlError("wait closure requires a finite or constant-inf function")
    if not f.is_continuous():
        raise PwlError("wait closure requires a continuous function")
    minimize = player == "min"

    # Work with F(x) = f(x) + rate*x; the closure of f is then the running
    # min (or max) of F from the right, minus rate*x.
    out = []  # segments of the closure of F, built right to left
    best = f.eval(f.hi) + rate * f.hi
    for lo, hi, val, slope in reversed(list(f.segments())):
        fval = val + rate * lo
        fslope = slope + rate
        f_hi = fval + fslope * (hi - lo)
        inward = fslope >= 0 if minimize else fslope <= 0
        if not inward:
            # optimum over [x, hi] sits at the segment's right end
            cand = f_hi
            level = cand if (cand < best if minimize else cand > best) else best
            out.append((lo, hi, level, F0))
            best = level
            continue
        better = (lambda a, b: a < b) if minimize else (lambda a, b: a > b)
        if not better(best, f_hi):
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
