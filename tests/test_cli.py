import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from ptgsolve import cli, gamedoc
from ptgsolve.fixtures import delayed_exit_jump, fixture_a
from ptgsolve.gamedoc import DocumentError
from ptgsolve.numerics import F0, F1
from ptgsolve.oracle import EquilibriumReport, generate_random
from ptgsolve.priced_game import PAction, PricedGame
from ptgsolve.sptg import solve_sptg


def doc_text(game, kind):
    return gamedoc.emit_game(gamedoc.document_for(game, kind))


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
            doc = gamedoc.document_for(game, kind)
            text = gamedoc.emit_game(doc)
            assert gamedoc.parse(text) == doc
            assert gamedoc.emit_game(gamedoc.parse(text)) == text
            labelled = tuple(
                dataclasses.replace(a, label=f"a{i}") for i, a in enumerate(game.actions)
            )
            assert gamedoc.parse(text).to_game() == dataclasses.replace(game, actions=labelled)

    def test_reconstructed_game_solves_identically(self):
        fx = fixture_a()
        doc = gamedoc.parse(doc_text(fx.game, "sptg"))
        assert solve_sptg(doc.to_game()).values == fx.expected["values"]

    def expect(self, code, text):
        with pytest.raises(DocumentError) as exc:
            gamedoc.parse(text)
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
        with pytest.raises(DocumentError) as exc:
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
    ],
)
def test_mistyped_document_exits_two_with_code(tmp_path, capsys, path, value, code):
    body = ptg_body()
    *parents, last = path
    target = body
    for key in parents:
        target = target[key]
    target[last] = value
    game = tmp_path / "game.json"
    game.write_text(json.dumps(body))
    assert cli.main(["solve", str(game)]) == 2
    assert capsys.readouterr().err.startswith(f"input-error: {code}")


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


class TestEmission:
    def test_plot_matches_eval(self):
        fx = fixture_a()
        doc = gamedoc.document_for(fx.game, "sptg")
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
        doc = gamedoc.document_for(fx.game, "sptg")
        a = gamedoc.emit_sptg_result(doc, solve_sptg(fx.game))
        b = gamedoc.emit_sptg_result(doc, solve_sptg(fx.game))
        assert a == b

    def test_jump_reported_in_ptg_result(self):
        from ptgsolve.ptg import solve_ptg

        fx = delayed_exit_jump()
        doc = gamedoc.document_for(fx.game, "ptg")
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
            cli, "check_equilibrium", lambda *a, **k: EquilibriumReport(passed=False)
        )
        assert cli.main(["solve", path, "--verify"]) == 1

    def test_fuzz_agrees(self, capsys):
        assert cli.main(["fuzz", "--count", "5", "--size", "3"]) == 0
        assert "fuzz: 5/5 agree" in capsys.readouterr().out

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
        assert set(body["stats"]) == {"L", "sweep_steps", "switch_count"}

    def test_ptg_stats_are_computed_counts(self, tmp_path, capsys):
        path = self.write(tmp_path, doc_text(delayed_exit_jump().game, "ptg"))
        assert cli.main(["solve", path]) == 0
        body = json.loads(capsys.readouterr().out)
        assert set(body["stats"]) == {"L", "sweep_steps", "switch_count", "oracle_calls"}
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
