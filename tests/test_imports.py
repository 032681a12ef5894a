"""Every name a ``ptgsolve`` module imports, and every function it
defines inside another, is used by that module; every function and
class the package defines is used by the package."""

import ast
from pathlib import Path

import pytest

import ptgsolve
import ptgsolve.priced_game

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


# What the oracle may still take from the solver modules: data types, and
# one solver routine, ``improving_switches``.  ROADMAP item 3 shrinks this
# list to data types; a new solver routine fails the test.  The routine
# stays shared until the benchmark change of ROADMAP item 15, as do the
# four names in UNREFERENCED_BUT_PINNED below: the benchmark's self-test
# of its tracer reads ``oracle.improving_switches`` and installs the
# probe bound only in ``ptgsolve.oracle``.
ORACLE_SOLVER_IMPORTS = {
    "priced_game": {"PAction", "PricedGame", "improving_switches"},
    "sptg": {"WAIT", "Sptg", "SptgSolution", "TimedStrategyProfile"},
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


def test_oracle_never_derives():
    """The oracle builds every game it checks through the checking
    constructors: it never names ``GameGraph.derived``, the solvers' way
    to build a game with no checks."""
    tree = ast.parse((Path(ptgsolve.__file__).parent / "oracle.py").read_text())
    name = ptgsolve.priced_game.GameGraph.derived.__name__
    for node in ast.walk(tree):
        assert name not in (
            getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "value", None)
        ), f"line {node.lineno}"


# Defined in the package but used only from outside it.  Each is pinned
# until ROADMAP item 15 retires the pin, and then goes.
UNREFERENCED_BUT_PINNED = {
    "choice_at",  # probed by perfbench/registry.py (oracle.choice_lookups)
    "simulate",  # probed by perfbench/registry.py (oracle.simulate)
    "simulate_ptg",  # probed by perfbench/registry.py (oracle.simulate)
    "strategy_iteration",  # acceptance criterion 4, and a perfbench/registry.py probe
}

DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def unreferenced_definitions(trees: dict) -> list:
    """Functions and classes, methods included, whose name no module
    mentions outside their own body: as a name or an attribute, not in
    an import or an ``__all__`` string, so a re-export does not count.
    Dunder methods are called by Python itself and are skipped."""
    defs = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                defs.setdefault(node.name, []).append(node)
    mentions = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentions.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                mentions.setdefault(node.attr, []).append(node)
    out = []
    for name, nodes in defs.items():
        inside = {id(n) for d in nodes for n in ast.walk(d)}
        if not any(id(m) not in inside for m in mentions.get(name, ())):
            out.append(name)
    return sorted(out)


def test_every_definition_is_used_by_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert unreferenced_definitions(trees) == sorted(UNREFERENCED_BUT_PINNED)
