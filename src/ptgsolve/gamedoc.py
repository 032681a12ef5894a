"""Game-description documents and result serialization.

Documents are JSON with a fixed schema; every number is carried as an
exact rational string ("p/q"), an integer, or "inf".  Parsing checks
JSON types, ids and numbers, and :meth:`GameDocument.to_game` the game's
rules; either reports a diagnostic code and the offending location.

Serialization is canonical, so identical inputs yield byte-identical
outputs.  Results are written by :func:`_dump` in the bytes of
``json.dumps(obj, indent=1, sort_keys=True)`` plus a newline, without
calling it: ``indent`` makes ``json.dumps`` give up its C encoder.  Value
segments and strategy runs, the bulk of a result, have a fixed schema and
are written straight to text at their one depth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .numerics import F0, event_point_count, format_cost, is_inf, parse_cost
from .priced_game import GameError, PAction, PricedGame, clip
from .ptg import Ptg, PtgResult, TAction
from .sptg import WAIT, Sptg, SptgSolution

FORMAT_VERSION = 1


@dataclass(frozen=True)
class GameDocument:
    """A parsed game: the solver's own parts, and the document's ids.

    ``actions`` are ``TAction`` for a ptg and ``PAction`` otherwise, in
    document order, so ``action_ids[j]`` names ``actions[j]``; ``rates``
    are all 0 for a priced game.  Only :meth:`to_game` checks the rules.
    """

    kind: str  # priced | sptg | ptg
    state_ids: tuple
    action_ids: tuple
    owners: tuple
    rates: tuple
    actions: tuple

    def to_game(self):
        if self.kind == "ptg":
            return Ptg(self.owners, self.rates, self.actions)
        if self.kind == "sptg":
            return Sptg(self.owners, self.rates, self.actions)
        return PricedGame(self.owners, self.actions)


def _require(obj, field, where):
    if field not in obj:
        raise GameError("missing-field", where, f"expected {field!r}")
    return obj[field]


def _no_extras(obj, allowed, where):
    for key in obj:
        if key not in allowed:
            raise GameError("unknown-field", where, f"unexpected {clip(repr(key))}")


def _typed(value, kind, name, where):
    """``value`` when it has the JSON type ``name`` (Python ``kind``)."""
    if not isinstance(value, kind):
        raise GameError("bad-type", where, f"expected {name}, got {clip(repr(value))}")
    return value


def _number(raw, where, *, allow_inf=False):
    try:
        value = parse_cost(raw)
    except (ValueError, ZeroDivisionError, TypeError):
        raise GameError("bad-number", where, f"cannot parse {clip(repr(raw))}")
    if is_inf(value) and not allow_inf:
        raise GameError("bad-number", where, "inf not allowed here")
    return value


def parse(text: str | bytes) -> GameDocument:
    """The document in ``text``: a str, or UTF-8 bytes whose line ends
    are read as a text-mode file reads them."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameError("bad-json", f"line {exc.lineno}", exc.msg)
    except (ValueError, RecursionError) as exc:
        # undecodable bytes, an integer literal past Python's digit limit,
        # nesting past the recursion limit
        raise GameError("bad-json", "document", str(exc))
    if not isinstance(raw, dict):
        raise GameError("bad-json", "document", "expected an object")
    _no_extras(raw, {"format", "kind", "states", "actions"}, "document")
    version = _require(raw, "format", "document")
    if type(version) is not int or version != FORMAT_VERSION:
        raise GameError("bad-version", "document", f"unsupported format {clip(repr(version))}")
    kind = _require(raw, "kind", "document")
    if kind not in ("priced", "sptg", "ptg"):
        raise GameError("bad-kind", "document", f"unknown kind {clip(repr(kind))}")

    index = {}  # state id -> state number
    owners = []
    rates = []
    raw_states = _typed(_require(raw, "states", "document"), list, "a list", "states")
    for i, s in enumerate(raw_states):
        where = f"states[{i}]"
        _typed(s, dict, "an object", where)
        _no_extras(s, {"id", "owner", "rate"}, where)
        sid = _typed(_require(s, "id", where), str, "a string", where)
        if sid in index or sid == "bot":
            raise GameError("duplicate-id", where, clip(sid))
        index[sid] = i
        rate = F0
        if kind != "priced":
            rate = _number(_require(s, "rate", where), where)
        elif "rate" in s:
            raise GameError("unknown-field", where, "rate on a priced game")
        owners.append(_require(s, "owner", where))
        rates.append(rate)
    if not index:
        raise GameError("no-states", "states", "a game needs at least one state")

    action_ids = {}
    actions = []
    allowed = {"id", "from", "to", "cost"}
    if kind == "ptg":
        allowed |= {"interval", "reset"}
    raw_actions = _typed(_require(raw, "actions", "document"), list, "a list", "actions")
    for i, a in enumerate(raw_actions):
        where = f"actions[{i}]"
        _typed(a, dict, "an object", where)
        _no_extras(a, allowed, where)
        aid = _typed(_require(a, "id", where), str, "a string", where)
        if aid in action_ids:
            raise GameError("duplicate-id", where, clip(aid))
        action_ids[aid] = i
        src = _typed(_require(a, "from", where), str, "a string", where)
        if src not in index:
            raise GameError("dangling-reference", where, f"from {clip(repr(src))}")
        to = _typed(_require(a, "to", where), str, "a string", where)
        if to != "bot" and to not in index:
            raise GameError("dangling-reference", where, f"to {clip(repr(to))}")
        dest = index.get(to)  # None for "bot", the terminal
        cost = _number(_require(a, "cost", where), where, allow_inf=True)
        if kind != "ptg":
            actions.append(PAction(index[src], dest, cost))
            continue
        iv = _typed(_require(a, "interval", where), dict, "an object", where)
        _no_extras(iv, {"lo", "hi", "lo_closed", "hi_closed"}, where)
        lo = _number(_require(iv, "lo", where), where)
        hi = _number(_require(iv, "hi", where), where)
        lo_c = _typed(iv.get("lo_closed", True), bool, "a boolean", where)
        hi_c = _typed(iv.get("hi_closed", True), bool, "a boolean", where)
        reset = _typed(a.get("reset", False), bool, "a boolean", where)
        actions.append(TAction(index[src], dest, cost, lo, hi, lo_c, hi_c, reset))
    return GameDocument(
        kind, tuple(index), tuple(action_ids), tuple(owners), tuple(rates), tuple(actions)
    )


# -- serialization ----------------------------------------------------------


class _Row(str):
    """JSON text of one fixed-schema row, already written at its depth in
    the result: an item of the list under a state's id.  ``_dump`` copies
    it as it is."""


def _template(*keys) -> str:
    """The text of a row with ``keys``, given in sorted order, and a
    ``%s`` for each value."""
    return "{" + ",".join(f'\n    "{key}": %s' for key in keys) + "\n   }"


_SEGMENT = _template("left", "right", "slope", "value_at_left")
_SEGMENT_JUMP = _template(
    "left", "left_jump", "point_value_at_left", "right", "slope", "value_at_left"
)
_FINAL = _template("at", "value")
_FINAL_JUMP = _template("at", "jump", "value")
_RUN = _template("choice", "left", "right")
_RUN_END = _template("at", "choice")


def _dump(obj) -> str:
    """``obj`` as a JSON document: dicts with string keys, lists, strings,
    ints, booleans and :class:`_Row` text.  Any other type raises
    ``TypeError``.

    The text is byte for byte ``json.dumps(obj, indent=1, sort_keys=True)``
    plus a newline, the canonical form of a result: keys in sorted order,
    strings escaped to ASCII by the C routine that ``json`` itself uses,
    and each level one more space after a newline.  It is written here
    because ``indent`` makes ``json.dumps`` use its pure-Python encoder,
    which emits a fan-sweep result in about twice the time.
    """
    parts = []
    _write(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write(obj, nl, put):
    """Append the JSON text of ``obj``, at the depth after newline-and-
    indent ``nl``, through ``put``."""
    if isinstance(obj, str):
        put(obj if type(obj) is _Row else _quote(obj))
    elif obj is True:
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"result keys must be str, not {type(key).__name__}")
            put(sep + _quote(key) + ": ")
            _write(obj[key], inner, put)
            sep = "," + inner
        put(nl + "}")
    elif isinstance(obj, list):
        if not obj:
            put("[]")
            return
        inner = nl + " "
        sep = "[" + inner
        for item in obj:
            put(sep)
            _write(item, inner, put)
            sep = "," + inner
        put(nl + "]")
    else:
        raise TypeError(f"cannot write {type(obj).__name__} into a result")


def _num(value) -> str:
    """A number as a JSON string; ``format_cost`` text needs no escaping."""
    return '"' + format_cost(value) + '"'


def _fn_segments(fn) -> list:
    """A value function's rows: one per segment, then its value at the
    domain's end.  Each breakpoint is formatted once, though an interior
    one is a segment's ``right`` and the next one's ``left``."""
    rows = []
    bounds = [_num(b) for b in fn.breaks]
    point_vals = fn.point_vals
    for i, (val, slope) in enumerate(zip(fn.seg_vals, fn.slopes)):
        pv = point_vals[i]
        if pv == val:
            row = _SEGMENT % (bounds[i], bounds[i + 1], _num(slope), _num(val))
        else:
            row = _SEGMENT_JUMP % (
                bounds[i], "true", _num(pv), bounds[i + 1], _num(slope), _num(val)
            )
        rows.append(_Row(row))
    last = point_vals[-1]
    # the left limit at hi, read off the last segment
    end = val if is_inf(val) else val + slope * (fn.hi - fn.breaks[-2])
    if last == end:
        rows.append(_Row(_FINAL % (bounds[-1], _num(last))))
    else:
        rows.append(_Row(_FINAL_JUMP % (bounds[-1], "true", _num(last))))
    return rows


def _strategy_runs(doc: GameDocument, strategy) -> dict:
    """Each state's choice runs as the profile holds them: rows that tile
    its span ``[lo, hi)`` with no two neighbours alike, then its choice at
    ``hi``.  Each of the profile's clock values is formatted once."""
    bounds = [_num(x) for x in strategy.clocks]
    last = len(bounds) - 1

    def name(j):
        return '"wait"' if j is WAIT else _quote(doc.action_ids[j])

    out = {}
    for sid, runs, j_end in zip(doc.state_ids, strategy.runs, strategy.at_hi):
        ends = [i for i, _ in runs[1:]] + [last]
        rows = [_Row(_RUN % (name(j), bounds[i], bounds[end])) for (i, j), end in zip(runs, ends)]
        rows.append(_Row(_RUN_END % (bounds[last], name(j_end))))
        out[sid] = rows
    return out


def emit_priced_result(doc: GameDocument, values) -> str:
    body = {
        "format": FORMAT_VERSION,
        "kind": "priced",
        "values": {sid: format_cost(v) for sid, v in zip(doc.state_ids, values)},
    }
    return _dump(body)


def emit_sptg_result(doc: GameDocument, sol: SptgSolution) -> str:
    body = {
        "format": FORMAT_VERSION,
        "kind": "sptg",
        "values": {sid: _fn_segments(f) for sid, f in zip(doc.state_ids, sol.values)},
        "strategy": _strategy_runs(doc, sol.strategy),
        "stats": {
            "L": sol.stats.event_points,
            "sweep_steps": sol.stats.sweep_steps,
        },
    }
    return _dump(body)


def emit_ptg_result(doc: GameDocument, res: PtgResult) -> str:
    body = {
        "format": FORMAT_VERSION,
        "kind": "ptg",
        "values": {sid: _fn_segments(f) for sid, f in zip(doc.state_ids, res.values)},
        "jumps": {
            sid: [format_cost(t) for t in res.jump_points(k)]
            for k, sid in enumerate(doc.state_ids)
        },
        "stats": {
            "L": event_point_count(res.values),
            "sweep_steps": sum(c.solution.stats.sweep_steps for c in res.trace),
            "oracle_calls": res.stats.oracle_calls,
        },
    }
    return _dump(body)


def emit_plot(doc: GameDocument, values) -> str:
    """Tab-separated segment table: state, x_left, x_right, v_left, v_right.
    Each breakpoint, and each value where the function is continuous, is
    formatted once."""
    lines = ["state\tx_left\tx_right\tv_left\tv_right"]
    for sid, fn in zip(doc.state_ids, values):
        bounds = [format_cost(b) for b in fn.breaks]
        v_right = v_right_text = None
        for i, (lo, hi, val, slope) in enumerate(fn.segments()):
            v_left_text = v_right_text if val == v_right else format_cost(val)
            v_right = val if is_inf(val) else val + slope * (hi - lo)
            v_right_text = format_cost(v_right)
            lines.append("\t".join((sid, bounds[i], bounds[i + 1], v_left_text, v_right_text)))
    return "\n".join(lines) + "\n"
