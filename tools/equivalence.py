#!/usr/bin/env python3
"""Check that two source trees write the same bytes for the same games.

    python tools/equivalence.py --against REV

exports git revision REV with ``git archive`` into a temporary directory
and runs ``ptgsolve solve`` of each tree on the same 928 runs: every
document of the benchmark pools for seeds 1, 2, 3 and 7177, and the
golden inputs in ``tests/golden``, each with and without ``--verify``.
Each tree also solves the random pools in memory: 600 SPTGs and 400
PTGs from ``generate_random``, with infinite costs on even seeds.  Each
tree runs in its own subprocess, from its own ``src`` directory.

A run's outcome is its exit code, stdout, stderr and the bytes of its
``--out`` and ``--plot`` files.  Both trees solve the documents of this
tree: the pools come from this tree's ``perfbench/workloads.py`` and the
golden inputs from its ``tests/golden``, so a difference is the
program's, not its inputs'.  A random game's outcome is canonical text
(:func:`game_text`): its result document, its solve statistics and, for
a PTG, the result document of each interval game, since in-memory types
may change between the trees where their meaning does not.

The tool prints the first difference of each document and of the first
differing random game, then a summary line.  It exits 1 when a document
or a game differs, and 2 when REV cannot be exported or a tree's run
fails.

``tests/test_golden.py`` uses :func:`pool_documents`, :func:`outcome`
and :func:`digest` for its pool digests, ``tests/golden/pools.sha256``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
import tarfile
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SEEDS = (1, 2, 3, 7177)
PARTS = ("exit code", "stdout", "stderr", "--out", "--plot")


def pool_documents(seeds) -> list:
    """``(name, text)`` of every document of every benchmark workload for
    each seed, named ``workload/seed/document``.  ``perfbench/`` is loaded
    by path, so that it stays a directory of scripts."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [
        (f"{workload}/{seed}/{doc.name}.json", doc.text)
        for workload in workloads.WORKLOADS
        for seed in seeds
        for doc in workloads.pool(workload, seed)
    ]


def golden_documents() -> list:
    """``(name, text)`` of every golden input."""
    return [
        (f"golden/{p.name}", p.read_text())
        for p in sorted(GOLDEN.glob("*.json"))
        if not p.name.endswith(".out.json")
    ]


def run_id(name: str, verify: bool) -> str:
    return name + " --verify" * verify


def outcome(game: Path, verify: bool, scratch: Path) -> tuple:
    """``ptgsolve solve GAME --out --plot [--verify]`` run in this process
    by the ``ptgsolve`` on ``sys.path``: its exit code, stdout, stderr,
    and the bytes of ``--out`` and ``--plot``, None where it wrote none."""
    from ptgsolve import cli

    out, plot = scratch / "out.json", scratch / "plot.tsv"
    argv = ["solve", str(game), "--out", str(out), "--plot", str(plot)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv + ["--verify"] * verify)
        except Exception:
            code = "raised"
            traceback.print_exc()
    files = []
    for path in (out, plot):
        files.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return (code, stdout.getvalue(), stderr.getvalue(), *files)


def random_games() -> list:
    """``(name, game)`` of the random pools: SPTGs with 2 to 7 states and
    PTGs with 2 to 5, 100 seeds each, with infinite costs on even seeds.
    Each tree generates them with its own ``generate_random``."""
    from ptgsolve.oracle import generate_random

    return [
        (f"{kind}/{n}/{seed}", generate_random(kind, n, 3, seed, allow_inf=seed % 2 == 0))
        for kind, sizes in (("sptg", range(2, 8)), ("ptg", range(2, 6)))
        for n in sizes
        for seed in range(100)
    ]


def _document(kind: str, game):
    """``game`` as a document with state ids ``s{k}`` and action ids
    ``a{j}``.  An interval game of a PTG ends at its boundary: its point
    choices at hi may name a state's stop there, action m + k, which is
    named ``stop``."""
    from ptgsolve.gamedoc import GameDocument

    # an SPTG of the other tree may have no boundary field at all
    stops = () if getattr(game, "boundary", None) is None else ("stop",) * game.num_states
    return GameDocument(
        kind,
        tuple(f"s{k}" for k in range(game.num_states)),
        tuple(f"a{j}" for j in range(len(game.actions))) + stops,
        game.owners,
        game.rates,
        game.actions,
    )


def _stats(stats) -> str:
    """One ``Class.field value`` line per field of a statistics record."""
    name = type(stats).__name__
    return "".join(f"{name}.{f.name} {getattr(stats, f.name)}\n" for f in dataclasses.fields(stats))


def game_text(name: str, game) -> str:
    """The canonical text of a random game's solve, as :func:`random_games`
    names it.  An SPTG's is its result document and the statistics of a
    plain and an instrumented solve; a PTG's is its result document, its
    statistics and each interval game's result document, right to left.
    A solve that raises gives its exception's type and message."""
    from ptgsolve.gamedoc import emit_ptg_result, emit_sptg_result
    from ptgsolve.ptg import solve_ptg
    from ptgsolve.sptg import solve_sptg

    try:
        if name.startswith("sptg/"):
            sol, instrumented = solve_sptg(game), solve_sptg(game, instrument=True)
            text = emit_sptg_result(_document("sptg", game), sol)
            return text + _stats(sol.stats) + _stats(instrumented.stats)
        res = solve_ptg(game)
        return "".join(
            [emit_ptg_result(_document("ptg", game), res), _stats(res.stats)]
            + [emit_sptg_result(_document("sptg", c.sptg), c.solution) for c in res.trace]
        )
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}\n"


def digest(parts: tuple) -> str:
    """SHA-256 over the parts of an outcome, each prefixed by its length,
    so that no two different outcomes share one byte string."""
    h = hashlib.sha256()
    for part in parts:
        if part is None:
            h.update(b"none\n")
            continue
        data = part if isinstance(part, bytes) else str(part).encode()
        h.update(b"%d\n" % len(data) + data)
    return h.hexdigest()


def solve_all(docs: Path, runs: Path, result: Path):
    """Run every ``[name, verify]`` listed in ``runs`` on the document
    ``docs/name``, and solve every random game, and write the outcomes to
    ``result`` as JSON: ``{"runs": ..., "games": ...}``, with bytes
    decoded as latin-1 so that they round-trip."""
    scratch = result.parent / (result.stem + "-scratch")
    scratch.mkdir()
    outcomes = {}
    for name, verify in json.loads(runs.read_text()):
        parts = outcome(docs / name, verify, scratch)
        outcomes[run_id(name, verify)] = [
            p.decode("latin-1") if isinstance(p, bytes) else p for p in parts
        ]
    games = {name: game_text(name, game) for name, game in random_games()}
    result.write_text(json.dumps({"runs": outcomes, "games": games}))


def _worker(tree: Path, docs: Path, runs: Path, result: Path) -> subprocess.Popen:
    """A subprocess that imports ``ptgsolve`` from ``tree/src`` only and
    runs :func:`solve_all`."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(tree / 'src')!r}, {str(ROOT / 'tools')!r}]\n"
        "import equivalence, ptgsolve\n"
        f"assert ptgsolve.__file__.startswith({str(tree / 'src')!r}), ptgsolve.__file__\n"
        "from pathlib import Path\n"
        f"equivalence.solve_all(Path({str(docs)!r}), Path({str(runs)!r}), Path({str(result)!r}))\n"
    )
    return subprocess.Popen([sys.executable, "-I", "-c", code], cwd=result.parent)


def _export(rev: str, dest: Path):
    git = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True
    )
    if git.returncode != 0:
        print(f"equivalence: git archive {rev}: {git.stderr.decode().strip()}", file=sys.stderr)
        raise SystemExit(2)
    with tarfile.open(fileobj=io.BytesIO(git.stdout)) as archive:
        archive.extractall(dest, filter="data")


def first_difference(theirs: tuple, ours: tuple, parts=PARTS) -> str | None:
    """The first part in which two outcomes differ, and its first
    differing line, or None when they are equal."""
    for part, a, b in zip(parts, theirs, ours):
        if a == b:
            continue
        if not isinstance(a, str) or not isinstance(b, str):
            return f"{part}: {a!r} -> {b!r}"
        la, lb = a.split("\n"), b.split("\n")
        line = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
        x = la[line] if line < len(la) else "<end>"
        y = lb[line] if line < len(lb) else "<end>"
        return f"{part} line {line + 1}: {x[:160]!r} -> {y[:160]!r}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--against", required=True, metavar="REV", help="git revision to compare with"
    )
    args = parser.parse_args(argv)

    documents = pool_documents(SEEDS) + golden_documents()
    runs = [[name, verify] for name, _ in documents for verify in (False, True)]
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        tmp = Path(tmp)
        _export(args.against, tmp / "rev")
        for name, text in documents:
            path = tmp / "docs" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        (tmp / "runs.json").write_text(json.dumps(runs))
        trees = {"rev": tmp / "rev", "here": ROOT}
        workers = {
            side: _worker(tree, tmp / "docs", tmp / "runs.json", tmp / f"{side}.json")
            for side, tree in trees.items()
        }
        failed = [side for side, worker in workers.items() if worker.wait() != 0]
        if failed:
            print(f"equivalence: the {' and '.join(failed)} tree's worker failed", file=sys.stderr)
            return 2
        rev, here = (json.loads((tmp / f"{side}.json").read_text()) for side in trees)

    differing = 0
    for name, _ in documents:
        for verify in (False, True):
            run = run_id(name, verify)
            diff = first_difference(tuple(rev["runs"][run]), tuple(here["runs"][run]))
            if diff is not None:
                print(f"DIFF {run}: {diff}")
                differing += 1
                break
    games = [name for name in here["games"] if rev["games"].get(name) != here["games"][name]]
    if games:
        name = games[0]
        diff = first_difference((rev["games"].get(name),), (here["games"][name],), ("text",))
        print(f"DIFF random {name}: {diff}")
    print(
        f"{len(runs)} runs over {len(documents)} documents and {len(here['games'])} random games, "
        f"{args.against} -> working tree: {differing} documents and {len(games)} random games "
        "differ"
    )
    return 1 if differing or games else 0


if __name__ == "__main__":
    sys.exit(main())
