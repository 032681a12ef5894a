"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import registry
import run
import workloads
from tracer import Probe, Tracer

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    first = [(d.name, d.text) for d in workloads.pool(workload, 3)]
    again = [(d.name, d.text) for d in workloads.pool(workload, 3)]
    other = [(d.name, d.text) for d in workloads.pool(workload, 4)]
    assert first == again
    assert first != other
    assert len(first) > 20  # enough documents for a tail percentile


def _solved_fan(cli, tmp_path, k=6):
    doc = workloads.fan_doc("fan", k, random.Random(1))
    path, out = tmp_path / "fan.json", tmp_path / "fan.out"
    path.write_text(doc.text)
    assert run.solve(cli, doc, path, out) is None
    return doc, json.loads(out.read_text())


def test_fan_checker_accepts_the_solver(cli, tmp_path):
    doc, out = _solved_fan(cli, tmp_path)
    assert checks.check_result(doc, json.dumps(out)) is None


def test_fan_checker_rejects_a_moved_event_point(cli, tmp_path):
    doc, out = _solved_fan(cli, tmp_path)
    hub = next(sid for sid, i in doc.fan["spoke"].items() if i == 0)
    rows = out["values"][hub]
    moved = str(Fraction(rows[1]["left"]) + Fraction(1, 1000))
    rows[0]["right"] = rows[1]["left"] = moved
    assert "event points" in checks.check_result(doc, json.dumps(out))


def test_fan_checker_rejects_a_wrong_value(cli, tmp_path):
    doc, out = _solved_fan(cli, tmp_path)
    spoke = next(sid for sid, i in doc.fan["spoke"].items() if i == 2)
    row = out["values"][spoke][0]
    row["value_at_left"] = str(Fraction(row["value_at_left"]) + Fraction(1, 1000))
    assert "value" in checks.check_result(doc, json.dumps(out))


def test_random_sptgs_have_event_points(cli):
    from ptgsolve import gamedoc
    from ptgsolve.sptg import solve_sptg

    for seed in range(10):
        doc = workloads.random_sptg_doc("r", 3 + seed % 3, random.Random(seed))
        assert solve_sptg(gamedoc.parse(doc.text).to_game()).stats.event_points > 0


def test_tracer_survives_missing_targets(cli):
    tracer = Tracer()
    tracer.install([
        Probe("ptgsolve.sptg:no_such_function", "gone.fn"),
        Probe("ptgsolve.sptg:NoSuchClass.method", "gone.cls"),
        Probe("ptgsolve.sptg:Sptg.no_such_method", "gone.method"),
        Probe("ptgsolve.no_such_module:f", "gone.module"),
        Probe("ptgsolve.sptg:solve_sptg", "sptg.solve", only=("ptgsolve.no_such_module",)),
    ])
    tracer.restore()
    assert set(tracer.missing) == {
        "gone.fn", "gone.cls", "gone.method", "gone.module", "sptg.solve"
    }
    metrics, notes, _ = run.per_layer(tracer, 1.0, 1.0)
    assert "sptg.sweep_steps" not in metrics
    assert notes["sptg.sweep_steps"].startswith("absent: ")
    assert "priced_game.dijkstra_calls" in metrics


def test_tracer_restores_every_binding(cli):
    from ptgsolve import cli as cli_mod, numerics, oracle, priced_game, sptg

    before = (
        sptg.extended_dijkstra,
        oracle.improving_switches,
        numerics.PwlFn.__dict__["from_segments"],
        cli_mod.main,
    )
    tracer = Tracer()
    tracer.install(registry.PROBES)
    assert tracer.missing == {}
    assert sptg.extended_dijkstra is priced_game.extended_dijkstra is not before[0]
    assert priced_game.improving_switches is before[1]  # only the oracle's binding
    tracer.restore()
    after = (
        sptg.extended_dijkstra,
        oracle.improving_switches,
        numerics.PwlFn.__dict__["from_segments"],
        cli_mod.main,
    )
    assert after == before


def test_fan_sweep_self_times_add_up_to_traced_wall(cli, tmp_path):
    rng = random.Random(5)
    docs = [workloads.fan_doc(f"fan-{k}", k, rng) for k in (6, 10, 14)]
    runner = run.Runner(cli, docs, tmp_path)
    tracer = Tracer()
    tracer.install(registry.PROBES)
    try:
        wall = runner.one_pass(tracer)
    finally:
        tracer.restore()
    assert runner.failed == 0
    summary = tracer.summary()
    self_sum = sum(row["self"] for row in summary.values())
    roots = sum(end - start for name, start, end, parent, _ in tracer.spans if parent < 0)
    assert self_sum == pytest.approx(roots, rel=1e-9)
    assert self_sum == pytest.approx(wall, rel=0.02)
    assert summary["sptg.solve"]["calls"] == 3
    assert tracer.counts["sptg.sweep_steps"] == 6 + 10 + 14


def test_tail_percentile():
    assert run.tail_percentile(40) == 75
    assert run.percentile(range(40), 75) == 29
    assert run.tail_percentile(21) is None
    assert run.tail_percentile(22) > 50


def test_benchmark_json_matches_registry():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    gated = [m for m in registry.END_TO_END if m.gated]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in gated
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in registry.PER_LAYER
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(str(registry.HELD_OUT_SEED) in w["why"] for w in bench["workloads"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fan-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
