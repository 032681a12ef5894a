"""Game-description documents and result serialization.

Documents are JSON with a fixed schema; every number is carried as an
exact rational string ("p/q"), an integer, or "inf".  Parsing reports a
diagnostic code and the offending location instead of raising bare
exceptions, and serialization is canonical so identical inputs yield
byte-identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .numerics import F0, format_cost, is_inf, parse_cost
from .priced_game import PAction, PricedGame
from .ptg import Ptg, PtgResult, TAction
from .sptg import WAIT, Sptg, SptgSolution

FORMAT_VERSION = 1


class DocumentError(ValueError):
    def __init__(self, code: str, where: str, message: str):
        self.code = code
        self.where = where
        super().__init__(f"{code} at {where}: {message}")


@dataclass(frozen=True)
class GameDocument:
    """A parsed game: the solver's own parts, and the document's ids.

    ``actions`` are ``TAction`` for a ptg and ``PAction`` otherwise, each
    labelled with its document id; ``rates`` are all 0 for a priced game.
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
        raise DocumentError("missing-field", where, f"expected {field!r}")
    return obj[field]


def _no_extras(obj, allowed, where):
    for key in obj:
        if key not in allowed:
            raise DocumentError("unknown-field", where, f"unexpected {key!r}")


def _typed(value, kind, name, where):
    """``value`` when it has the JSON type ``name`` (Python ``kind``)."""
    if not isinstance(value, kind):
        raise DocumentError("bad-type", where, f"expected {name}, got {value!r}")
    return value


def _number(raw, where, *, allow_inf=False):
    try:
        value = parse_cost(raw)
    except (ValueError, ZeroDivisionError, TypeError):
        raise DocumentError("bad-number", where, f"cannot parse {raw!r}")
    if is_inf(value) and not allow_inf:
        raise DocumentError("bad-number", where, "inf not allowed here")
    return value


def parse(text: str | bytes) -> GameDocument:
    """The document in ``text``: a str, or UTF-8 bytes whose line ends
    are read as a text-mode file reads them."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("bad-json", f"line {exc.lineno}", exc.msg)
    except (ValueError, RecursionError) as exc:
        # undecodable bytes, an integer literal past Python's digit limit,
        # nesting past the recursion limit
        raise DocumentError("bad-json", "document", str(exc))
    if not isinstance(raw, dict):
        raise DocumentError("bad-json", "document", "expected an object")
    _no_extras(raw, {"format", "kind", "states", "actions"}, "document")
    version = _require(raw, "format", "document")
    if type(version) is not int or version != FORMAT_VERSION:
        raise DocumentError("bad-version", "document", f"unsupported format {version!r}")
    kind = _require(raw, "kind", "document")
    if kind not in ("priced", "sptg", "ptg"):
        raise DocumentError("bad-kind", "document", f"unknown kind {kind!r}")

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
            raise DocumentError("duplicate-id", where, sid)
        index[sid] = i
        owner = _require(s, "owner", where)
        if type(owner) is not int or owner not in (1, 2):
            raise DocumentError("bad-owner", where, f"owner {owner!r}")
        rate = F0
        if kind != "priced":
            rate = _number(_require(s, "rate", where), where)
            if rate < 0:
                raise DocumentError("negative-rate", where, str(rate))
        elif "rate" in s:
            raise DocumentError("unknown-field", where, "rate on a priced game")
        owners.append(owner)
        rates.append(rate)
    if not index:
        raise DocumentError("no-states", "states", "a game needs at least one state")

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
            raise DocumentError("duplicate-id", where, aid)
        action_ids[aid] = i
        src = _typed(_require(a, "from", where), str, "a string", where)
        if src not in index:
            raise DocumentError("dangling-reference", where, f"from {src!r}")
        to = _typed(_require(a, "to", where), str, "a string", where)
        if to != "bot" and to not in index:
            raise DocumentError("dangling-reference", where, f"to {to!r}")
        dest = index.get(to)  # None for "bot", the terminal
        cost = _number(_require(a, "cost", where), where, allow_inf=True)
        if not is_inf(cost) and cost < 0:
            raise DocumentError("negative-cost", where, str(cost))
        if kind != "ptg":
            actions.append(PAction(index[src], dest, cost, label=aid))
            continue
        iv = _typed(_require(a, "interval", where), dict, "an object", where)
        _no_extras(iv, {"lo", "hi", "lo_closed", "hi_closed"}, where)
        lo = _number(_require(iv, "lo", where), where)
        hi = _number(_require(iv, "hi", where), where)
        lo_c = _typed(iv.get("lo_closed", True), bool, "a boolean", where)
        hi_c = _typed(iv.get("hi_closed", True), bool, "a boolean", where)
        if lo < 0 or lo > hi:
            raise DocumentError("bad-interval", where, f"[{lo}, {hi}]")
        reset = _typed(a.get("reset", False), bool, "a boolean", where)
        if reset and dest is None:
            raise DocumentError("dangling-reference", where, "reset to bot")
        actions.append(TAction(index[src], dest, cost, lo, hi, lo_c, hi_c, reset, aid))
    sources = {a.source for a in actions}
    for sid, k in index.items():
        if k not in sources:
            raise DocumentError("no-actions", f"states[{k}]", f"state {sid!r} has no actions")
    return GameDocument(
        kind, tuple(index), tuple(action_ids), tuple(owners), tuple(rates), tuple(actions)
    )


# -- serialization ----------------------------------------------------------


def _dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def emit_game(doc: GameDocument) -> str:
    states = [
        {"id": sid, "owner": owner}
        | ({} if doc.kind == "priced" else {"rate": format_cost(rate)})
        for sid, owner, rate in zip(doc.state_ids, doc.owners, doc.rates)
    ]
    actions = []
    for aid, a in zip(doc.action_ids, doc.actions):
        entry = {
            "id": aid,
            "from": doc.state_ids[a.source],
            "to": "bot" if a.dest is None else doc.state_ids[a.dest],
            "cost": format_cost(a.cost),
        }
        if doc.kind == "ptg":
            entry["interval"] = {
                "lo": format_cost(a.lo),
                "hi": format_cost(a.hi),
                "lo_closed": a.lo_closed,
                "hi_closed": a.hi_closed,
            }
            entry["reset"] = a.reset
        actions.append(entry)
    return _dump(
        {"format": FORMAT_VERSION, "kind": doc.kind, "states": states, "actions": actions}
    )


def document_for(game, kind: str) -> GameDocument:
    """Wrap an in-memory game back into a document with state ids ``s{k}``
    and action ids ``a{i}``."""
    n = game.num_states
    action_ids = tuple(f"a{i}" for i in range(len(game.actions)))
    return GameDocument(
        kind,
        tuple(f"s{k}" for k in range(n)),
        action_ids,
        game.owners,
        game.rates if kind != "priced" else (F0,) * n,
        tuple(replace(a, label=aid) for aid, a in zip(action_ids, game.actions)),
    )


def _fn_segments(fn):
    rows = []
    for i, (lo, hi, val, slope) in enumerate(fn.segments()):
        row = {
            "left": format_cost(lo),
            "right": format_cost(hi),
            "value_at_left": format_cost(val),
            "slope": format_cost(slope),
        }
        pv = fn.point_vals[i]
        if pv != val and not (is_inf(pv) and is_inf(val)):
            row["left_jump"] = True
            row["point_value_at_left"] = format_cost(pv)
        rows.append(row)
    last = fn.point_vals[-1]
    end = fn.eval(fn.hi, side="left")
    final = {"at": format_cost(fn.hi), "value": format_cost(last)}
    if last != end and not (is_inf(last) and is_inf(end)):
        final["jump"] = True
    rows.append(final)
    return rows


def _strategy_cells(doc: GameDocument, strategy) -> list:
    cells = []
    for lo, hi, choices in strategy.cells:
        cells.append(
            {
                "left": format_cost(lo),
                "right": format_cost(hi),
                "choices": {
                    sid: ("wait" if j is WAIT else doc.action_ids[j])
                    for sid, j in zip(doc.state_ids, choices)
                },
            }
        )
    return cells


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
        "strategy": _strategy_cells(doc, sol.strategy),
        "stats": {
            "L": sol.stats.event_points,
            "sweep_steps": sol.stats.sweep_steps,
            "switch_count": sol.stats.switch_count,
        },
    }
    return _dump(body)


def emit_ptg_result(doc: GameDocument, res: PtgResult) -> str:
    interior = set()
    for f in res.values:
        interior.update(f.interior_breaks())
    body = {
        "format": FORMAT_VERSION,
        "kind": "ptg",
        "values": {sid: _fn_segments(f) for sid, f in zip(doc.state_ids, res.values)},
        "jumps": {
            sid: [format_cost(t) for t in res.jump_points(k)]
            for k, sid in enumerate(doc.state_ids)
        },
        "stats": {
            "L": len(interior),
            "sweep_steps": sum(c.solution.stats.sweep_steps for c in res.trace),
            "switch_count": sum(c.solution.stats.switch_count for c in res.trace),
            "oracle_calls": res.stats.oracle_calls,
        },
    }
    return _dump(body)


def emit_plot(doc: GameDocument, values) -> str:
    """Tab-separated segment table: state, x_left, x_right, v_left, v_right."""
    lines = ["state\tx_left\tx_right\tv_left\tv_right"]
    for sid, fn in zip(doc.state_ids, values):
        for lo, hi, val, slope in fn.segments():
            v_right = val if is_inf(val) else val + slope * (hi - lo)
            lines.append(
                "\t".join(
                    (sid, format_cost(lo), format_cost(hi), format_cost(val), format_cost(v_right))
                )
            )
    return "\n".join(lines) + "\n"
