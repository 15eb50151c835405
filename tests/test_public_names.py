"""Every name the benchmark and the demos take from monobound exists.

The scripts under ``bench/`` and ``demos/`` are parsed, not run: each
``from monobound[.module] import X`` and each attribute read off a name
bound to a monobound module (``mb.X``, ``monobound.X``, ``transform.X``)
must resolve.  A deletion from the package that strands one of them fails
here instead of in a benchmark run.  ``__all__`` lists exactly the names
``__init__`` imports.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import monobound

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def _is_monobound(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "monobound"


def monobound_references(tree: ast.AST) -> list[tuple[str, str, int]]:
    """(module, name, line) for every name the source takes from monobound."""
    modules = {}  # local name -> the monobound module it is bound to
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_monobound(alias.name):
                    modules[alias.asname or "monobound"] = alias.name if alias.asname else "monobound"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and _is_monobound(node.module):
            for alias in node.names:
                refs.append((node.module, alias.name, node.lineno))
                if _is_submodule(node.module, alias.name):
                    modules[alias.asname or alias.name] = f"monobound.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            refs.append((modules[node.value.id], node.attr, node.lineno))
    return refs


def _resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` succeeds: an attribute or a submodule."""
    return hasattr(importlib.import_module(module), name) or _is_submodule(module, name)


def _is_submodule(module: str, name: str) -> bool:
    return module == "monobound" and importlib.util.find_spec(f"monobound.{name}") is not None


def test_scripts_exist():
    assert any(p.parent.name == "bench" for p in SCRIPTS)
    assert any(p.parent.name == "demos" for p in SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_monobound_name_resolves(script):
    refs = monobound_references(ast.parse(script.read_text(), filename=str(script)))
    missing = [
        f"line {line}: {module}.{name}"
        for module, name, line in refs
        if not _resolves(module, name)
    ]
    assert missing == []


def test_the_benchmark_uses_the_package():
    bench = [p for p in SCRIPTS if p.parent.name == "bench"]
    refs = {name for p in bench for _, name, _ in monobound_references(ast.parse(p.read_text()))}
    assert {"bound_report", "riemann_sum_left", "adaptive_quadrature", "pit_identity_check"} <= refs


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((ROOT / "src" / "monobound" / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(set(monobound.__all__)) == len(monobound.__all__)
    assert sorted(monobound.__all__) == sorted(imported)
    assert all(hasattr(monobound, name) for name in monobound.__all__)
