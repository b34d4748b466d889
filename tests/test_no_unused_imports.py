"""Every name a module of the package imports is used by it.

A name counts as used when the module reads it (string annotations
included), when the module is a package ``__init__`` that re-exports it, or
when ``benchmarks/tracing.py`` rebinds it on the module to trace the calls
made through it (``WRAPPED``).
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nematicflow"
# an ``__init__`` imports to re-export, so only the other modules are checked
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, nested ones included."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """Names the module reads, including those inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _read(ast.parse(node.value, mode="eval"))
    return used


def _reexported() -> dict[str, set[str]]:
    """Module -> names a package ``__init__`` imports from it."""
    out: dict[str, set[str]] = {}
    for init in PACKAGE.rglob("__init__.py"):
        package = ".".join(("nematicflow", *init.parent.relative_to(PACKAGE).parts))
        for node in ast.walk(ast.parse(init.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out.setdefault(f"{package}.{node.module}", set()).update(a.name for a in node.names)
    return out


def _rebound_by_tracer(monkeypatch) -> dict[str, set[str]]:
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    tracing = importlib.import_module("tracing")
    rebound: dict[str, set[str]] = {}
    for owner, attr, *_ in tracing.WRAPPED:
        rebound.setdefault(owner.__name__, set()).add(attr)
    return rebound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_import_is_used(path, monkeypatch):
    tree = ast.parse(path.read_text())
    module = "nematicflow." + ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
    allowed = _read(tree) | _reexported().get(module, set())
    allowed |= _rebound_by_tracer(monkeypatch).get(module, set())
    unused = {name: line for name, line in _imported(tree).items() if name not in allowed}
    assert not unused, f"{module} imports names it does not use: {unused}"
