import dataclasses
import json
import os
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from ptgsolve import cli, gamedoc
from ptgsolve.fixtures import delayed_exit_jump, fixture_a
from ptgsolve.numerics import F0, F1, DigitLimitError, format_cost, is_inf
from ptgsolve.oracle import (
    EquilibriumReport,
    _cells,
    check_equilibrium,
    generate_random,
    value_iteration_sptg,
)
from ptgsolve.priced_game import GameError, PAction, PricedGame
from ptgsolve.ptg import solve_ptg
from ptgsolve.sptg import WAIT, solve_sptg
from test_sweep_certificates import fan, random_event_rich


def emit_game(doc: gamedoc.GameDocument) -> str:
    """The game document text of ``doc``, canonical as results are."""
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
    return gamedoc._dump(
        {"format": gamedoc.FORMAT_VERSION, "kind": doc.kind, "states": states, "actions": actions}
    )


def document_for(game, kind: str) -> gamedoc.GameDocument:
    """An in-memory game as a document with state ids ``s{k}`` and
    action ids ``a{i}``."""
    n = game.num_states
    return gamedoc.GameDocument(
        kind,
        tuple(f"s{k}" for k in range(n)),
        tuple(f"a{i}" for i in range(len(game.actions))),
        game.owners,
        game.rates if kind != "priced" else (F0,) * n,
        game.actions,
    )


def doc_text(game, kind):
    return emit_game(document_for(game, kind))


def priced_doc():
    g = PricedGame(
        (1, 2),
        (PAction(0, 1, Fr(0)), PAction(0, None, Fr(3)), PAction(1, None, Fr(1))),
    )
    return doc_text(g, "priced")


class TestParsing:
    def test_round_trip(self):
        for kind, game in (
            ("priced", generate_random("priced", 3, 3, 1)),
            ("sptg", generate_random("sptg", 3, 3, 1)),
            ("ptg", generate_random("ptg", 3, 3, 1)),
        ):
            doc = document_for(game, kind)
            text = emit_game(doc)
            assert gamedoc.parse(text) == doc
            assert emit_game(gamedoc.parse(text)) == text
            assert gamedoc.parse(text).to_game() == game

    def test_reconstructed_game_solves_identically(self):
        fx = fixture_a()
        doc = gamedoc.parse(doc_text(fx.game, "sptg"))
        assert solve_sptg(doc.to_game()).values == fx.expected["values"]

    def expect(self, code, text):
        with pytest.raises(GameError) as exc:
            gamedoc.parse(text).to_game()
        assert exc.value.code == code

    def base(self, **overrides):
        body = {
            "format": 1,
            "kind": "sptg",
            "states": [{"id": "s0", "owner": 1, "rate": "1"}],
            "actions": [{"id": "a0", "from": "s0", "to": "bot", "cost": "0"}],
        }
        body.update(overrides)
        return json.dumps(body)

    def test_bad_json(self):
        self.expect("bad-json", "{nope")

    def test_bad_version(self):
        self.expect("bad-version", self.base(format=99))

    def test_bad_kind(self):
        self.expect("bad-kind", self.base(kind="parity"))

    def test_missing_field(self):
        self.expect(
            "missing-field",
            self.base(actions=[{"id": "a0", "from": "s0", "cost": "0"}]),
        )

    def test_unknown_field(self):
        self.expect("unknown-field", self.base(extra=1))

    def test_duplicate_state_id(self):
        states = [{"id": "s0", "owner": 1, "rate": "1"}] * 2
        self.expect("duplicate-id", self.base(states=states))

    def test_reserved_terminal_id(self):
        self.expect(
            "duplicate-id",
            self.base(states=[{"id": "bot", "owner": 1, "rate": "1"}]),
        )

    def test_bad_owner(self):
        self.expect(
            "bad-owner", self.base(states=[{"id": "s0", "owner": 0, "rate": "1"}])
        )

    def test_negative_rate(self):
        self.expect(
            "negative-rate",
            self.base(states=[{"id": "s0", "owner": 1, "rate": "-1"}]),
        )

    def test_dangling_reference(self):
        self.expect(
            "dangling-reference",
            self.base(actions=[{"id": "a0", "from": "s0", "to": "ghost", "cost": "0"}]),
        )

    def test_bad_number(self):
        self.expect(
            "bad-number",
            self.base(actions=[{"id": "a0", "from": "s0", "to": "bot", "cost": "1/0"}]),
        )

    @pytest.mark.parametrize("cost", ["1e3", "2E-1"])
    def test_exponent_is_bad_number(self, cost):
        actions = [
            {"id": "a0", "from": "s0", "to": "bot", "cost": "2.5"},
            {"id": "a1", "from": "s0", "to": "bot", "cost": cost},
        ]
        with pytest.raises(GameError) as exc:
            gamedoc.parse(self.base(actions=actions))
        assert (exc.value.code, exc.value.where) == ("bad-number", "actions[1]")

    def test_negative_cost(self):
        self.expect(
            "negative-cost",
            self.base(actions=[{"id": "a0", "from": "s0", "to": "bot", "cost": "-2"}]),
        )

    def test_infinite_cost_allowed(self):
        doc = gamedoc.parse(
            self.base(actions=[{"id": "a0", "from": "s0", "to": "bot", "cost": "inf"}])
        )
        assert doc.actions[0].cost == float("inf")

    def test_bad_interval(self):
        body = json.loads(self.base(kind="ptg"))
        body["actions"][0]["interval"] = {"lo": "1", "hi": "0"}
        self.expect("bad-interval", json.dumps(body))


def ptg_body():
    # Value 5 at t=1 with a jump there, as the free exit is open at 1;
    # reading "hi_closed": "false" as closed would give 0 and no jump.
    return {
        "format": 1,
        "kind": "ptg",
        "states": [{"id": "s0", "owner": 1, "rate": "1"}],
        "actions": [
            {"id": "free", "from": "s0", "to": "bot", "cost": "0",
             "interval": {"lo": "0", "hi": "1", "hi_closed": False}},
            {"id": "paid", "from": "s0", "to": "bot", "cost": "5",
             "interval": {"lo": "0", "hi": "1"}},
        ],
    }


MISSING = object()  # as an edit's value: delete the field


def edit(body, path, value):
    """Set the field of ``body`` at ``path`` to ``value``, or delete it."""
    *parents, last = path
    for key in parents:
        body = body[key]
    if value is MISSING:
        del body[last]
    else:
        body[last] = value


@pytest.mark.parametrize(
    "path, value, code",
    [
        (("actions", 0, "interval", "hi_closed"), "false", "bad-type"),
        (("actions", 0, "interval", "lo_closed"), 0, "bad-type"),
        (("actions", 0, "reset"), "true", "bad-type"),
        (("states", 0, "owner"), True, "bad-owner"),
        (("states", 0, "owner"), 1.0, "bad-owner"),
        (("format",), True, "bad-version"),
        (("states",), 5, "bad-type"),
        (("states",), [5], "bad-type"),
        (("actions",), {"free": {}}, "bad-type"),
        (("actions",), ["free"], "bad-type"),
        (("actions", 0, "interval"), "[0,1)", "bad-type"),
        (("actions", 0, "cost"), True, "bad-number"),
        (("states", 0, "id"), 0, "bad-type"),
        (("actions", 0, "id"), 0, "bad-type"),
        (("actions", 0, "from"), ["s0"], "bad-type"),
        (("actions", 0, "to"), None, "bad-type"),
        (("actions", 0, "cost"), "1e3", "bad-number"),
        (("actions", 1, "cost"), "2E-1", "bad-number"),
        # Fraction reads these, the first from Python 3.12 on; the grammar does not
        (("actions", 1, "cost"), "1 / 2", "bad-number"),
        (("actions", 1, "cost"), "1_000", "bad-number"),
        (("states", 0, "rate"), "\u0661", "bad-number"),
    ],
)
def test_mistyped_document_exits_two_with_code(tmp_path, capsys, path, value, code):
    body = ptg_body()
    edit(body, path, value)
    game = tmp_path / "game.json"
    game.write_text(json.dumps(body))
    assert cli.main(["solve", str(game)]) == 2
    assert capsys.readouterr().err.startswith(f"input-error: {code}")


# One single-fault document per code a document can be rejected with, by
# case name: the code, the document (its text, or edits of ptg_body()),
# and where: a document position, or the part of it at fault.
REJECTIONS = {
    "bad-json": ("bad-json", '{"format": 1,\n nope}', "line 2"),
    "bad-version": ("bad-version", [(("format",), 2)], "document"),
    "bad-kind": ("bad-kind", [(("kind",), "parity")], "document"),
    "missing-field": ("missing-field", [(("actions", 0, "cost"), MISSING)], "actions[0]"),
    "unknown-field": ("unknown-field", [(("states", 0, "colour"), "red")], "states[0]"),
    "bad-type": ("bad-type", [(("actions", 1, "reset"), "true")], "actions[1]"),
    "bad-number": ("bad-number", [(("states", 0, "rate"), "1/0")], "states[0]"),
    "duplicate-id": ("duplicate-id", [(("actions", 1, "id"), "free")], "actions[1]"),
    "no-states": ("no-states", [(("states",), [])], "states"),
    "bad-owner": ("bad-owner", [(("states", 0, "owner"), 3)], "states[0]"),
    "negative-rate": ("negative-rate", [(("states", 0, "rate"), "-1")], "states[0]"),
    "dangling-to": ("dangling-reference", [(("actions", 1, "to"), "ghost")], "actions[1]"),
    "reset-to-bot": ("dangling-reference", [(("actions", 1, "reset"), True)], "actions[1]"),
    "negative-cost": ("negative-cost", [(("actions", 1, "cost"), "-5")], "actions[1]"),
    "reversed-interval": ("bad-interval", [(("actions", 1, "interval", "lo"), "2")], "actions[1]"),
    "negative-lo": ("bad-interval", [(("actions", 1, "interval", "lo"), "-1")], "actions[1]"),
    "empty-open-point": (
        "bad-interval",
        [(("actions", 0, "interval"), {"lo": "1", "hi": "1", "lo_closed": False})],
        "actions[0]",
    ),
    "no-actions": (
        "no-actions",
        [(("states",), [{"id": f"s{k}", "owner": 1, "rate": "1"} for k in (0, 1)])],
        "states[1]",
    ),
    "degenerate-horizon": (
        "degenerate-horizon",
        [(("actions", j, "interval"), {"lo": "0", "hi": "0"}) for j in (0, 1)],
        "actions",
    ),
    "no-horizon-action": (
        "no-horizon-action", [(("actions", 1, "interval", "hi_closed"), False)], "states[0]"
    ),
    # with the rest of the line: (code, document, where, message)
    "infinite-rate": (
        "bad-number", [(("states", 0, "rate"), "inf")], "states[0]", "inf not allowed here"
    ),
    "top-level-array": ("bad-json", "[]", "document", "expected an object"),
    "rate-on-priced": (
        "unknown-field", [(("kind",), "priced")], "states[0]", "rate on a priced game"
    ),
    "dangling-from": (
        "dangling-reference", [(("actions", 0, "from"), "zz")], "actions[0]", "from 'zz'"
    ),
}


@pytest.mark.parametrize("case", REJECTIONS.values(), ids=REJECTIONS)
def test_every_rejection_names_its_code_and_location(tmp_path, capsys, case):
    code, document, where, *message = case
    text = document
    if not isinstance(document, str):
        body = ptg_body()
        for path, value in document:
            edit(body, path, value)
        text = json.dumps(body)
    game = tmp_path / "game.json"
    game.write_text(text)
    assert cli.main(["solve", str(game)]) == 2
    err = capsys.readouterr().err
    line = f"input-error: {code} at {where}: "
    assert err.startswith(line)
    if message:
        assert err == line + message[0] + "\n"


BIG = "1" * 4000  # within the digits an integer converts to a string


@pytest.mark.parametrize(
    "path, value, code, where",
    [
        (("states", 0, "rate"), "1" * 5000, "bad-number", "states[0]"),
        (("states", 0, "id"), [1] * 5000, "bad-type", "states[0]"),
        (("actions", 1, "cost"), "-" + BIG, "negative-cost", "actions[1]"),
        (("states", 0, "rate"), "-" + BIG, "negative-rate", "states[0]"),
        (("actions", 1, "interval", "lo"), "-" + BIG, "bad-interval", "actions[1]"),
        (("actions", 1, "interval", "lo"), BIG, "bad-interval", "actions[1]"),
    ],
    ids=["rate", "id", "negative-cost", "negative-rate", "negative-lo", "reversed-interval"],
)
def test_long_input_is_not_echoed_whole(tmp_path, capsys, path, value, code, where):
    body = ptg_body()
    edit(body, path, value)
    game = tmp_path / "game.json"
    game.write_text(json.dumps(body))
    assert cli.main(["solve", str(game)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input-error: {code} at {where}: ")
    assert err.endswith("…\n") and len(err) < 120


@pytest.mark.parametrize("kind", ["priced", "sptg", "ptg"])
def test_state_without_actions_exits_two_with_code(tmp_path, capsys, kind):
    body = ptg_body()
    body["kind"] = kind
    body["states"].append({"id": "s1", "owner": 2, "rate": "1"})
    if kind != "ptg":
        for a in body["actions"]:
            del a["interval"]
    if kind == "priced":
        for s in body["states"]:
            del s["rate"]
    game = tmp_path / "game.json"
    game.write_text(json.dumps(body))
    assert cli.main(["solve", str(game)]) == 2
    assert capsys.readouterr().err.startswith("input-error: no-actions at states[1]")


@pytest.mark.parametrize("kind", ["priced", "sptg", "ptg"])
def test_game_without_states_exits_two_with_code(tmp_path, capsys, kind):
    game = tmp_path / "game.json"
    game.write_text(json.dumps({"format": 1, "kind": kind, "states": [], "actions": []}))
    assert cli.main(["solve", str(game)]) == 2
    assert capsys.readouterr().err.startswith("input-error: no-states at states")


@pytest.mark.parametrize(
    "data",
    [
        json.dumps(ptg_body()).replace('"s0"', '"s\xe9"').encode("latin-1"),
        b"[" * 100_000 + b"]" * 100_000,
        json.dumps(ptg_body()).replace('"format": 1', '"format": 1' + "0" * 4400).encode(),
    ],
    ids=["non-utf8", "deep-nesting", "long-integer"],
)
def test_undecodable_document_exits_two_with_code(tmp_path, capsys, data):
    game = tmp_path / "game.json"
    game.write_bytes(data)
    assert cli.main(["solve", str(game)]) == 2
    assert capsys.readouterr().err.startswith("input-error: bad-json at document: ")


def assert_runs_match_cells(doc, sol, strategy):
    """Every state's rows in ``strategy`` tile the profile's span [lo, hi)
    with no two neighbours alike, close at hi, and name the choice of
    every cell of ``sol.strategy`` they cover."""
    start, end = map(format_cost, sol.strategy.span)
    assert sorted(strategy) == sorted(doc.state_ids)
    for k, sid in enumerate(doc.state_ids):
        *rows, closing = strategy[sid]
        assert closing.keys() == {"at", "choice"} and closing["at"] == end
        assert all(row.keys() == {"left", "right", "choice"} for row in rows)
        assert rows[0]["left"] == start and rows[-1]["right"] == end
        for a, b in zip(rows, rows[1:]):
            assert a["right"] == b["left"] and a["choice"] != b["choice"], (sid, a, b)
        lefts = [Fr(row["left"]) for row in rows]
        for lo, hi, choices in _cells(sol.strategy):
            want = "wait" if choices[k] is WAIT else doc.action_ids[choices[k]]
            if lo == hi:
                assert closing["choice"] == want, sid
                continue
            row = rows[bisect_right(lefts, lo) - 1]
            assert hi <= Fr(row["right"]) and row["choice"] == want, (sid, lo, hi)


class TestEmission:
    def test_plot_matches_eval(self):
        fx = fixture_a()
        doc = document_for(fx.game, "sptg")
        sol = solve_sptg(fx.game)
        lines = gamedoc.emit_plot(doc, sol.values).strip().split("\n")[1:]
        ids = doc.state_ids
        for line in lines:
            sid, xl, xr, vl, vr = line.split("\t")
            k = ids.index(sid)
            assert sol.values[k].eval(Fr(xl), side="right") == Fr(vl)
            assert sol.values[k].eval(Fr(xr), side="left") == Fr(vr)

    def test_results_are_byte_deterministic(self):
        fx = fixture_a()
        doc = document_for(fx.game, "sptg")
        a = gamedoc.emit_sptg_result(doc, solve_sptg(fx.game))
        b = gamedoc.emit_sptg_result(doc, solve_sptg(fx.game))
        assert a == b

    def test_strategy_runs_are_faithful_and_canonical(self):
        golden = Path(__file__).parent / "golden"
        checked = 0
        for path in sorted(golden.glob("*.json")):
            if path.name.endswith(".out.json"):
                continue
            doc = gamedoc.parse(path.read_text())
            if doc.kind == "sptg":
                out = json.loads((golden / f"{path.stem}.out.json").read_text())
                assert_runs_match_cells(doc, solve_sptg(doc.to_game()), out["strategy"])
                checked += 1
        assert checked == 3
        events = 0
        for g in [fan(k) for k in range(5, 41)] + [random_event_rich(s) for s in range(100)]:
            doc = document_for(g, "sptg")
            sol = solve_sptg(g)
            out = json.loads(gamedoc.emit_sptg_result(doc, sol))
            assert_runs_match_cells(doc, sol, out["strategy"])
            events += sol.stats.event_points
        assert events >= 100

    def test_strategy_runs_span_the_games_domain(self):
        g = dataclasses.replace(fan(6), lo=Fr(1, 2), hi=Fr(3, 2))
        doc = document_for(g, "sptg")
        sol = solve_sptg(g)
        assert sol.stats.event_points > 0
        out = json.loads(gamedoc.emit_sptg_result(doc, sol))
        for sid in doc.state_ids:
            runs = out["strategy"][sid]
            assert runs[0]["left"] == "1/2" and runs[-1]["at"] == "3/2"
        assert_runs_match_cells(doc, sol, out["strategy"])

    def test_fan_strategy_rows_grow_linearly(self):
        """fan(k): k runs at the hub and one wait run per spoke, each
        state's closed by its choice at 1."""
        for k in range(5, 41):
            g = fan(k)
            out = json.loads(gamedoc.emit_sptg_result(document_for(g, "sptg"), solve_sptg(g)))
            assert sum(map(len, out["strategy"].values())) == 3 * k + 1, k
        g = fan(160)
        assert len(gamedoc.emit_sptg_result(document_for(g, "sptg"), solve_sptg(g))) < 100_000

    def test_jump_reported_in_ptg_result(self):
        fx = delayed_exit_jump()
        doc = document_for(fx.game, "ptg")
        out = json.loads(gamedoc.emit_ptg_result(doc, solve_ptg(fx.game)))
        assert out["jumps"]["s1"] == ["0"]
        assert out["jumps"]["s0"] == []


class TestMain:
    def write(self, tmp_path, text, name="game.json"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_solve_priced_with_verify(self, tmp_path, capsys):
        path = self.write(tmp_path, priced_doc())
        assert cli.main(["solve", path, "--verify"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["values"] == {"s0": "1", "s1": "1"}

    def past_budget(self, tmp_path):
        # 13 states with 3 actions each: 3**13 profiles, past the budget
        actions = []
        for k in range(13):
            actions += [PAction(k, None, Fr(k)), PAction(k, (k + 1) % 13, F1), PAction(k, k, F1)]
        g = PricedGame((1, 2) * 6 + (1,), tuple(actions))
        return self.write(tmp_path, doc_text(g, "priced"))

    SKIPPED = "verify: brute-force skipped: 1594323 profiles exceed the budget 1000000\n"

    def test_priced_verify_says_when_brute_force_is_skipped(self, tmp_path, capsys):
        assert cli.main(["solve", self.past_budget(tmp_path), "--verify"]) == 0
        captured = capsys.readouterr()
        assert captured.err == self.SKIPPED
        assert json.loads(captured.out)["values"]["s0"] == "0"

    def wrong_dijkstra(self, monkeypatch):
        """Make the priced solve ship one finite value that is 1 too high."""
        solve = cli.extended_dijkstra

        def wrong(game):
            values, profile = solve(game)
            values = list(values)
            k = next(k for k, v in enumerate(values) if not is_inf(v))
            values[k] += 1
            return values, profile

        monkeypatch.setattr(cli, "extended_dijkstra", wrong)

    def test_priced_verify_catches_a_wrong_value(self, tmp_path, monkeypatch, capsys):
        path = self.write(tmp_path, priced_doc())
        self.wrong_dijkstra(monkeypatch)
        assert cli.main(["solve", path, "--verify"]) == 1
        captured = capsys.readouterr()
        assert captured.err == '{"verify": "failed"}\n'
        assert json.loads(captured.out)["values"] == {"s0": "2", "s1": "1"}

    def test_priced_verify_past_budget_catches_a_wrong_value(
        self, tmp_path, monkeypatch, capsys
    ):
        path = self.past_budget(tmp_path)
        self.wrong_dijkstra(monkeypatch)
        assert cli.main(["solve", path, "--verify"]) == 1
        captured = capsys.readouterr()
        assert captured.err == self.SKIPPED + '{"verify": "failed"}\n'
        assert json.loads(captured.out)["values"]["s0"] == "1"

    def test_solve_sptg_writes_outputs(self, tmp_path):
        path = self.write(tmp_path, doc_text(fixture_a().game, "sptg"))
        out = tmp_path / "result.json"
        plot = tmp_path / "plot.tsv"
        assert cli.main(
            ["solve", path, "--verify", "--out", str(out), "--plot", str(plot)]
        ) == 0
        body = json.loads(out.read_text())
        assert body["stats"]["L"] == 1
        assert plot.read_text().startswith("state\t")

    def test_solve_ptg_with_verify(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(delayed_exit_jump().game, "ptg"))
        assert cli.main(["solve", path, "--verify"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["jumps"]["s1"] == ["0"]

    def test_bad_file_exits_two(self, tmp_path, capsys):
        path = self.write(tmp_path, "{broken")
        assert cli.main(["solve", path]) == 2
        assert cli.main(["solve", str(tmp_path / "missing.json")]) == 2

    def test_verification_failure_exits_one(self, tmp_path, monkeypatch, capsys):
        path = self.write(tmp_path, doc_text(fixture_a().game, "sptg"))
        monkeypatch.setattr(
            cli, "check_equilibrium", lambda *a, **k: EquilibriumReport(cell_failures=[(0, 1, 0)])
        )
        assert cli.main(["solve", path, "--verify"]) == 1

    def test_fuzz_agrees(self, capsys):
        assert cli.main(["fuzz", "--count", "5", "--size", "3"]) == 0
        assert "fuzz: 5/5 agree" in capsys.readouterr().out

    def test_fuzz_seed_replays_its_game(self, monkeypatch, capsys):
        """The game ``fuzz`` solves for a seed depends on the seed alone,
        not on its position in the run, so a reported seed replays."""
        games = {}

        def recorded(kind, n, max_actions, seed, **kw):
            games.setdefault(seed, []).append(generate_random(kind, n, max_actions, seed, **kw))
            return games[seed][-1]

        monkeypatch.setattr(cli, "generate_random", recorded)
        assert cli.main(["fuzz", "--seed", "0", "--count", "8"]) == 0
        assert cli.main(["fuzz", "--seed", "5", "--count", "1"]) == 0
        assert len(games[5]) == 2 and games[5][0] == games[5][1]

    @pytest.mark.parametrize("flag", ["--count", "--size"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_fuzz_rejects_nonpositive(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fuzz", flag, value])
        assert exc.value.code == 2
        assert "is not a positive integer" in capsys.readouterr().err

    def test_subcommands_are_solve_and_fuzz(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "{solve,fuzz}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--count", "2"])
        assert exc.value.code == 2

    def test_sptg_stats_are_computed_counts(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(fixture_a().game, "sptg"))
        assert cli.main(["solve", path]) == 0
        body = json.loads(capsys.readouterr().out)
        assert set(body["stats"]) == {"L", "sweep_steps"}

    def test_ptg_stats_are_computed_counts(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(delayed_exit_jump().game, "ptg"))
        assert cli.main(["solve", path]) == 0
        body = json.loads(capsys.readouterr().out)
        assert set(body["stats"]) == {"L", "sweep_steps", "oracle_calls"}
        assert "note" not in body

    def test_exact_output_carries_no_approximate_flag(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(fixture_a().game, "sptg"))
        assert cli.main(["solve", path]) == 0
        assert "approximate" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("flag", ["--out", "--plot"])
@pytest.mark.parametrize("target", ["missing-dir", "dir"])
def test_unwritable_output_exits_two(tmp_path, capsys, flag, target):
    game = tmp_path / "game.json"
    game.write_text(doc_text(fixture_a().game, "sptg"))
    path = tmp_path / "missing" / "x.out" if target == "missing-dir" else tmp_path
    assert cli.main(["solve", str(game), flag, str(path)]) == 2
    assert capsys.readouterr().err.startswith("output-error: ")


def test_too_long_result_number_exits_two_with_code(tmp_path, capsys):
    # Each cost parses, but the value of s0, their sum, has an
    # 8000-digit denominator: past the interpreter's string-conversion limit.
    big = 10**3999
    body = {
        "format": 1,
        "kind": "sptg",
        "states": [{"id": "s0", "owner": 1, "rate": "1"}, {"id": "s1", "owner": 1, "rate": "1"}],
        "actions": [
            {"id": "a0", "from": "s0", "to": "s1", "cost": f"1/{big + 1}"},
            {"id": "a1", "from": "s1", "to": "bot", "cost": f"1/{big + 3}"},
        ],
    }
    game = tmp_path / "game.json"
    game.write_text(json.dumps(body))
    out, plot = tmp_path / "out.json", tmp_path / "plot.tsv"
    assert cli.main(["solve", str(game), "--out", str(out), "--plot", str(plot)]) == 2
    assert capsys.readouterr().err.startswith("output-error: too-many-digits: ")
    assert not out.exists() and not plot.exists()


def test_plot_is_ignored_for_a_priced_game(tmp_path, capsys):
    # a priced result has no value functions to plot, so no plot is
    # written, not even to a path that could not be written
    game = tmp_path / "game.json"
    game.write_text(priced_doc())
    for plot in (tmp_path / "plot.tsv", tmp_path / "missing" / "plot.tsv"):
        assert cli.main(["solve", str(game), "--plot", str(plot)]) == 0
        assert not plot.exists()
        assert capsys.readouterr().err == ""


def test_plot_is_built_only_when_asked_for(tmp_path, monkeypatch, capsys):
    built = []
    emit_plot = gamedoc.emit_plot
    monkeypatch.setattr(gamedoc, "emit_plot", lambda *a: built.append(a) or emit_plot(*a))
    for kind, game in (("sptg", fixture_a().game), ("ptg", delayed_exit_jump().game)):
        path = tmp_path / f"{kind}.json"
        path.write_text(doc_text(game, kind))
        assert cli.main(["solve", str(path), "--out", str(tmp_path / "out.json")]) == 0
        assert not built
        plot = tmp_path / "plot.tsv"
        assert cli.main(["solve", str(path), "--plot", str(plot)]) == 0
        assert len(built) == 1 and plot.read_text().startswith("state\t")
        built.clear()
    capsys.readouterr()


def test_too_long_plot_number_fails_only_with_plot(tmp_path, monkeypatch, capsys):
    # a plot may print a number the result does not, such as the left
    # limit before a jump; it fails the run only when the plot is asked for
    def emit_plot(*args):
        raise DigitLimitError("too-many-digits: a plot number")

    monkeypatch.setattr(gamedoc, "emit_plot", emit_plot)
    for kind, game in (("sptg", fixture_a().game), ("ptg", delayed_exit_jump().game)):
        path = tmp_path / f"{kind}.json"
        path.write_text(doc_text(game, kind))
        out, plot = tmp_path / f"{kind}.out.json", tmp_path / f"{kind}.tsv"
        assert cli.main(["solve", str(path), "--out", str(out)]) == 0
        assert out.exists() and capsys.readouterr().err == ""
        out.unlink()
        assert cli.main(["solve", str(path), "--out", str(out), "--plot", str(plot)]) == 2
        assert capsys.readouterr().err == "output-error: too-many-digits: a plot number\n"
        assert not out.exists() and not plot.exists()


def test_verify_checks_every_reused_interval_certificate(tmp_path, monkeypatch, capsys):
    game = Path(__file__).parent / "golden" / "ptg-resets.json"
    results, checked = [], []

    def solve(g):
        results.append((g, solve_ptg(g)))
        return results[-1][1]

    def check(sptg, solution):
        checked.append((sptg, solution))
        return check_equilibrium(sptg, solution)

    monkeypatch.setattr(cli, "solve_ptg", solve)
    monkeypatch.setattr(cli, "check_equilibrium", check)
    assert cli.main(["solve", str(game), "--verify", "--out", str(tmp_path / "out.json")]) == 0
    assert capsys.readouterr() == ("", "")
    ((g, res),) = results
    assert res.stats.reused_intervals > 0
    assert len(res.trace) == len(g.ladder) - 1
    assert [(c.sptg, c.solution) for c in res.trace] == checked


def waiting_at_one(sol):
    """``sol`` with state 0 waiting at 1, a strategy the equilibrium
    check refuses to play."""
    at_hi = (WAIT, *sol.strategy.at_hi[1:])
    return dataclasses.replace(sol, strategy=dataclasses.replace(sol.strategy, at_hi=at_hi))


def test_refused_strategy_fails_verification(tmp_path, monkeypatch, capsys):
    refused = "verify: oracle error: profile waits at the horizon in state 0\n"
    failed = '{"verify": "failed"}\n'
    sptg_game, ptg_game = tmp_path / "sptg.json", tmp_path / "ptg.json"
    sptg_game.write_text(doc_text(fixture_a().game, "sptg"))
    ptg_game.write_text(doc_text(delayed_exit_jump().game, "ptg"))

    def solve_ptg_refused(g):
        res = solve_ptg(g)
        trace = [dataclasses.replace(c, solution=waiting_at_one(c.solution)) for c in res.trace]
        return dataclasses.replace(res, trace=tuple(trace))

    monkeypatch.setattr(cli, "solve_sptg", lambda g: waiting_at_one(solve_sptg(g)))
    monkeypatch.setattr(cli, "solve_ptg", solve_ptg_refused)
    for game in (sptg_game, ptg_game):
        out = tmp_path / "out.json"
        assert cli.main(["solve", str(game), "--verify", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.endswith(failed) and set(err.splitlines(keepends=True)) == {refused, failed}
        assert out.exists()
    assert cli.main(["fuzz", "--count", "2", "--size", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "fuzz: 0/2 agree\n"
    assert captured.err == "".join(f"{refused}seed {seed}: disagreement\n" for seed in (0, 1))


def test_value_iteration_out_of_rounds_fails_verification(tmp_path, monkeypatch, capsys):
    """Value iteration that hits its round cap fails ``solve --verify``
    and counts as a ``fuzz`` disagreement, with the reason on stderr."""
    out_of_rounds = "verify: oracle error: no fixpoint within 1 iterations\n"
    monkeypatch.setattr(cli, "value_iteration_sptg", lambda g: value_iteration_sptg(g, cap=1))
    game, out = tmp_path / "sptg.json", tmp_path / "out.json"
    game.write_text(doc_text(fixture_a().game, "sptg"))
    assert cli.main(["solve", str(game), "--verify", "--out", str(out)]) == 1
    assert capsys.readouterr().err == out_of_rounds + '{"verify": "failed"}\n'
    assert out.exists()
    # seed 1 on: seed 0's game is infinite everywhere, a fixpoint in one round
    assert cli.main(["fuzz", "--seed", "1", "--count", "2", "--size", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "fuzz: 0/2 agree\n"
    assert captured.err == "".join(f"{out_of_rounds}seed {seed}: disagreement\n" for seed in (1, 2))


def test_module_runs_as_a_script(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(priced_doc())
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def run(path):
        return subprocess.run(
            [sys.executable, "-m", "ptgsolve.cli", "solve", str(path), "--verify"],
            capture_output=True, text=True, env=env, timeout=60,
        )

    ok = run(good)
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["values"] == {"s0": "1", "s1": "1"}
    failed = run(bad)
    assert failed.returncode == 2
    assert failed.stderr.startswith("input-error: bad-json")
