"""Every name a ``ptgsolve`` module imports, and every function it
defines inside another, is used by that module."""

import ast
from pathlib import Path

import pytest

import ptgsolve

SOURCES = sorted(Path(ptgsolve.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # re-exports: names listed in a module-level __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []



FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_local_functions(tree: ast.Module) -> list:
    """Nested ``def``s never referenced inside their enclosing function."""
    out = []
    for outer in ast.walk(tree):
        if not isinstance(outer, FUNCTIONS):
            continue
        used = {node.id for node in ast.walk(outer) if isinstance(node, ast.Name)}
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, FUNCTIONS) and inner.name not in used:
                out.append(f"{outer.name}.{inner.name}")
    return sorted(set(out))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_local_functions(path):
    assert unused_local_functions(ast.parse(path.read_text())) == []


# What the oracle may still take from the solver modules.  ROADMAP item 3
# shrinks this list to data types; a new solver routine fails the test.
ORACLE_SOLVER_IMPORTS = {
    "priced_game": {"PAction", "PricedGame", "improving_switches"},
    "sptg": {"WAIT", "Sptg", "SptgSolution", "TimedStrategyProfile", "build_eps_game"},
}


def test_oracle_solver_imports_within_allow_list():
    tree = ast.parse((Path(ptgsolve.__file__).parent / "oracle.py").read_text())
    imported = {module: set() for module in ORACLE_SOLVER_IMPORTS}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        names = {alias.name.rpartition(".")[2] for alias in node.names}
        assert not names & imported.keys(), f"whole solver module imported: {names}"
        module = (getattr(node, "module", None) or "").rpartition(".")[2]
        if module in imported:
            imported[module] |= names
    for module, names in imported.items():
        assert not names - ORACLE_SOLVER_IMPORTS[module], module

