"""Golden documents: ``ptgsolve solve --out --plot`` must reproduce the
committed result and plot bytes of every game in ``tests/golden``, and
``--verify`` must accept each game.  The benchmark pools of seeds 1 and
7177 are held to ``tests/golden/pools.sha256``: one digest of each run's
exit code, stdout, stderr, result and plot, with and without
``--verify``.

A change that means to alter the documents rewrites the expected files
and the digests with ``python tests/test_golden.py`` and commits the
diff.
"""

import importlib.util
import sys
import tempfile
from pathlib import Path

import pytest

from ptgsolve import cli, priced_game
from ptgsolve.oracle import generate_random
from ptgsolve.ptg import solve_ptg
from ptgsolve.sptg import solve_sptg

GOLDEN = Path(__file__).parent / "golden"
GAMES = sorted(p for p in GOLDEN.glob("*.json") if not p.name.endswith(".out.json"))
POOL_DIGESTS = GOLDEN / "pools.sha256"
POOL_SEEDS = (1, 7177)

_spec = importlib.util.spec_from_file_location(
    "equivalence", Path(__file__).parent.parent / "tools" / "equivalence.py"
)
equivalence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(equivalence)


def solve(game: Path, out_dir: Path, *extra) -> tuple:
    """Exit code, result path and plot path of one solve."""
    out = out_dir / (game.stem + ".out.json")
    plot = out_dir / (game.stem + ".plot.tsv")
    code = cli.main(["solve", str(game), "--out", str(out), "--plot", str(plot), *extra])
    return code, out, plot


def test_golden_set_is_present():
    assert len(GAMES) == 8


@pytest.mark.parametrize("game", GAMES, ids=lambda p: p.stem)
def test_documents_are_byte_identical(game, tmp_path, capsys):
    code, out, plot = solve(game, tmp_path)
    assert code == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()
    want_plot = GOLDEN / plot.name
    assert plot.exists() == want_plot.exists()
    if want_plot.exists():
        assert plot.read_bytes() == want_plot.read_bytes()


@pytest.mark.parametrize("game", GAMES, ids=lambda p: p.stem)
def test_verify_accepts(game, tmp_path, capsys):
    code, out, _ = solve(game, tmp_path, "--verify")
    assert code == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


def pool_digests(scratch: Path) -> list:
    """``digest  run`` of every pool run of ``POOL_SEEDS``."""
    lines = []
    game = scratch / "game.json"
    for name, text in equivalence.pool_documents(POOL_SEEDS):
        game.write_text(text)
        for verify in (False, True):
            parts = equivalence.outcome(game, verify, scratch)
            lines.append(f"{equivalence.digest(parts)}  {equivalence.run_id(name, verify)}")
    return lines


def test_pool_runs_match_their_digests(tmp_path):
    want = POOL_DIGESTS.read_text().splitlines()
    assert len(want) == 456
    got = pool_digests(tmp_path)
    changed = [line.split("  ")[1] for line, old in zip(got, want) if line != old]
    assert got == want, f"{len(changed)} runs changed: {changed[:5]}"


class IterationCalled(Exception):
    pass


def test_plain_solves_run_no_strategy_iteration(tmp_path, monkeypatch, capsys):
    """Only ``--verify`` and the instrumented sweep improve profiles by
    strategy iteration; every plain solve is one scan per untimed game."""

    def refuse(*args, **kwargs):
        raise IterationCalled

    for name in ("strategy_iteration", "single_switch_iteration"):
        original = getattr(priced_game, name)
        for module in list(sys.modules.values()):
            if module and module.__name__.startswith("ptgsolve"):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, refuse)
    for game in GAMES:
        code, out, plot = solve(game, tmp_path)
        assert code == 0, game.stem
        assert out.read_bytes() == (GOLDEN / out.name).read_bytes(), game.stem
    assert capsys.readouterr() == ("", "")
    solve_ptg(generate_random("ptg", 3, 3, 0))
    sptg = generate_random("sptg", 3, 3, 0)
    solve_sptg(sptg)
    with pytest.raises(IterationCalled):
        solve_sptg(sptg, instrument=True)


if __name__ == "__main__":
    for game in GAMES:
        for stale in (GOLDEN / (game.stem + ".out.json"), GOLDEN / (game.stem + ".plot.tsv")):
            stale.unlink(missing_ok=True)
        solve(game, GOLDEN)
    with tempfile.TemporaryDirectory() as scratch:
        POOL_DIGESTS.write_text("".join(line + "\n" for line in pool_digests(Path(scratch))))
