"""Strategy profiles written as cells, for tests.

A cell ``(lo, hi, choices)`` maps every state to its choice on the clock
region [lo, hi), and the last cell, with lo == hi, holds the choices at
the span's end.  Cells are the clearest way to write a profile by hand,
and to compare one with a sweep that records every state's choice at
every step.  ``oracle._cells`` reads a profile's cells back."""

from ptgsolve.sptg import TimedStrategyProfile


def profile_of(cells) -> TimedStrategyProfile:
    """The profile with one clock value per cell: each state's runs
    merge the neighbouring cells where its choice is the same."""
    *intervals, (at, end, at_hi) = cells
    assert at == end and intervals, "cells end in a point cell"
    for (_, hi, _), (lo, _, _) in zip(intervals, [*intervals[1:], (at, at, ())]):
        assert hi == lo, f"cells do not tile at {hi}"
    runs = [[] for _ in at_hi]
    for i, (_, _, choices) in enumerate(intervals):
        for k, j in enumerate(choices):
            if not runs[k] or runs[k][-1][1] != j:
                runs[k].append((i, j))
    clocks = tuple(lo for lo, _, _ in intervals) + (at,)
    return TimedStrategyProfile(clocks, tuple(map(tuple, runs)), tuple(at_hi))
