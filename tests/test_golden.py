"""Golden documents: ``ptgsolve solve --out --plot`` must reproduce the
committed result and plot bytes of every game in ``tests/golden``, and
``--verify`` must accept each game.

A change that means to alter the documents rewrites the expected files
with ``python tests/test_golden.py`` and commits the diff.
"""

from pathlib import Path

import pytest

from ptgsolve import cli

GOLDEN = Path(__file__).parent / "golden"
GAMES = sorted(p for p in GOLDEN.glob("*.json") if not p.name.endswith(".out.json"))


def solve(game: Path, out_dir: Path, *extra) -> tuple:
    """Exit code, result path and plot path of one solve."""
    out = out_dir / (game.stem + ".out.json")
    plot = out_dir / (game.stem + ".plot.tsv")
    code = cli.main(["solve", str(game), "--out", str(out), "--plot", str(plot), *extra])
    return code, out, plot


def test_golden_set_is_present():
    assert len(GAMES) == 7


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


if __name__ == "__main__":
    for game in GAMES:
        for stale in (GOLDEN / (game.stem + ".out.json"), GOLDEN / (game.stem + ".plot.tsv")):
            stale.unlink(missing_ok=True)
        solve(game, GOLDEN)
