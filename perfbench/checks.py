"""Correctness checks on result documents, independent of the solver.

Nothing here imports ptgsolve: the checks read the emitted JSON and
recompute what they compare against with plain integers and Fractions.
Each check returns None when the result is accepted and a one-line
reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction


def check_result(doc, text: str):
    """Shape checks for every workload, plus the exact fan(k) check."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(out, dict) or out.get("kind") != doc.kind:
        return f"output kind is not {doc.kind!r}"
    values = out.get("values")
    if not isinstance(values, dict) or set(values) != set(doc.state_ids):
        return "output values do not cover exactly the document's states"
    if doc.kind != "priced":
        for sid, rows in values.items():
            if not rows or "at" not in rows[-1]:
                return f"value function of {sid} has no closing point"
    if doc.kind == "ptg" and set(out.get("jumps", ())) != set(doc.state_ids):
        return "output jumps do not cover exactly the document's states"
    if doc.fan is not None:
        return check_fan(doc.fan["k"], doc.fan["spoke"], out)
    return None


def fan_value_times_2kq(k: int, p: int, q: int) -> int:
    """2kq times the hub's value at clock x = 1 - p/q, where the value is
    min over i of (k+1-i)^2/(2k) + i(1-x); integers only."""
    return min((k + 1 - i) ** 2 * q + 2 * k * i * p for i in range(1, k + 1))


def _fan_value(k: int, x: Fraction) -> Fraction:
    d = 1 - x
    return Fraction(fan_value_times_2kq(k, d.numerator, d.denominator), 2 * k * d.denominator)


def _pieces(rows):
    """(left, right, value at left, value at right) per segment, and the
    closing point's (clock, value)."""
    segs = []
    for row in rows[:-1]:
        lo, hi = Fraction(row["left"]), Fraction(row["right"])
        v = Fraction(row["value_at_left"])
        segs.append((lo, hi, v, v + Fraction(row["slope"]) * (hi - lo)))
    last = rows[-1]
    return segs, (Fraction(last["at"]), Fraction(last["value"]))


def check_fan(k: int, spoke: dict, out: dict):
    """fan(k) in closed form.  The hub's event points lie at
    1 - (2k+1-2i)/(2k) for i = 1..k-1 and its value is
    min over i of (k+1-i)^2/(2k) + i(1-x); spoke i is worth
    (k+1-i)^2/(2k) + i(1-x) on all of [0,1]."""
    for sid, i in spoke.items():
        segs, (end, end_value) = _pieces(out["values"][sid])
        if end != 1:
            return f"value of {sid} does not end at clock 1"
        if i == 0:
            expect = {1 - Fraction(2 * k + 1 - 2 * j, 2 * k) for j in range(1, k)}
            got = {lo for lo, _, _, _ in segs[1:]}
            if got != expect:
                return f"fan({k}) event points differ at {sorted(got ^ expect)[:3]}"
            value = lambda x: _fan_value(k, x)  # noqa: E731
        else:
            c = Fraction((k + 1 - i) ** 2, 2 * k)
            value = lambda x, c=c, i=i: c + i * (1 - x)  # noqa: E731
        if not segs or segs[0][0] != 0 or segs[-1][1] != end:
            return f"value of {sid} does not span [0, 1]"
        if any(a[1] != b[0] for a, b in zip(segs, segs[1:])):
            return f"value of {sid} has a gap between segments"
        for lo, hi, v_lo, v_hi in segs:
            if v_lo != value(lo) or v_hi != value(hi):
                return f"fan({k}) value of {sid} is wrong on [{lo}, {hi}]"
        if end_value != value(end):
            return f"fan({k}) value of {sid} is wrong at clock 1"
    return None
