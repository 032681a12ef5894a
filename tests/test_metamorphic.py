"""Metamorphic invariants: changes to a game that must leave its values
alone, checked without an oracle.

Relabelling permutes the states and the actions; each state keeps its
value function under its new number, or its document id.  Padding adds
a copy of one action, which offers nothing the original does not.
"""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from ptgsolve import cli
from ptgsolve.oracle import generate_random
from ptgsolve.ptg import solve_ptg
from ptgsolve.sptg import solve_sptg

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_INPUTS = sorted(p for p in GOLDEN.glob("*.json") if not p.name.endswith(".out.json"))

SOLVERS = {"sptg": solve_sptg, "ptg": solve_ptg}


def random_games(kind):
    return [
        generate_random(kind, n, 3, seed, allow_inf=seed % 2 == 0)
        for n in range(1, 6)
        for seed in range(60)
    ]


def relabelled(game, rng):
    """``game`` with its states and its actions in a random order; old
    state k is new state ``perm[k]``.  Returns ``(game, perm)``."""
    n = game.num_states
    perm = list(range(n))
    rng.shuffle(perm)
    owners, rates = [None] * n, [None] * n
    for k in range(n):
        owners[perm[k]], rates[perm[k]] = game.owners[k], game.rates[k]
    actions = [
        dataclasses.replace(a, source=perm[a.source], dest=None if a.dest is None else perm[a.dest])
        for a in game.actions
    ]
    rng.shuffle(actions)
    return type(game)(tuple(owners), tuple(rates), tuple(actions)), perm


def padded(game, rng):
    """``game`` with a copy of one of its actions appended."""
    return dataclasses.replace(game, actions=game.actions + (rng.choice(game.actions),))


@pytest.mark.parametrize("kind", sorted(SOLVERS))
def test_relabelling_keeps_every_value(kind):
    solve = SOLVERS[kind]
    for i, game in enumerate(random_games(kind)):
        other, perm = relabelled(game, random.Random(i))
        want, got = solve(game).values, solve(other).values
        assert [got[perm[k]] for k in range(game.num_states)] == list(want), i


@pytest.mark.parametrize("kind", sorted(SOLVERS))
def test_padding_with_a_copy_keeps_every_value(kind):
    solve = SOLVERS[kind]
    for i, game in enumerate(random_games(kind)):
        assert solve(padded(game, random.Random(i))).values == solve(game).values, i


def solved(tmp_path, body):
    """The result document of ``body``, solved by the command line."""
    game, out = tmp_path / "game.json", tmp_path / "out.json"
    game.write_text(json.dumps(body))
    assert cli.main(["solve", str(game), "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_shuffled_and_padded_document_keeps_its_result(tmp_path, path):
    """Shuffle a golden input's states and actions and add a copy of one
    action under a new id: every id keeps its values and jumps."""
    body = json.loads(path.read_text())
    want = solved(tmp_path, body)
    rng = random.Random(path.stem)
    ids = {a["id"] for a in body["actions"]}
    copy = dict(rng.choice(body["actions"]))
    copy["id"] = next(f"copy{i}" for i in range(len(ids) + 1) if f"copy{i}" not in ids)
    body["actions"].append(copy)
    rng.shuffle(body["states"])
    rng.shuffle(body["actions"])
    got = solved(tmp_path, body)
    assert got["values"] == want["values"]
    assert got.get("jumps") == want.get("jumps")
