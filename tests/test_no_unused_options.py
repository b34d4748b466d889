"""Every argument default of the package is passed by some call in it.

A parameter with a default is an option.  One that no call in ``src/``
passes, by keyword or by position, is a knob that only tests turn, or nobody:
it belongs in a module constant, which a test can monkeypatch.  A call is
matched to a function by its bare name (``f(...)`` and ``mod.f(...)``), to a
class's ``__init__`` by the class name or by ``cls(...)`` inside the class.
The few options on ``ALLOWED`` are set from outside the package, each for
the reason given.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nematicflow"
MODULES = sorted(PACKAGE.rglob("*.py"))

# (function, parameter) -> why no call in src/ passes it
ALLOWED = {
    ("Forcing", "director_source_values"): "the manufactured source of ROADMAP item 3",
    ("comparison_check", "c_star"): "a held-out C*, ROADMAP item 12",
    ("comparison_check", "y0"): "the start of a held-out majorant, ROADMAP item 12",
    ("main", "argv"): "the console entry point; the command line comes from outside",
    ("_OnRead.__get__", "owner"): "the descriptor protocol passes it",
}


class _Scan(ast.NodeVisitor):
    """Options (parameters with a default) and calls of one module."""

    def __init__(self):
        self.classes: list[str] = []
        self.methods: set[int] = set()
        # (qualified name, callee name, parameter, positional index or None, line)
        self.options: list[tuple[str, str, str, int | None, int]] = []
        # (callee name, positional arguments before any *args, keyword names)
        self.calls: list[tuple[str | None, int, set[str]]] = []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        for item in node.body:
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in getattr(item, "decorator_list", ()))
            if isinstance(item, ast.FunctionDef) and not static:
                self.methods.add(id(item))
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        args = node.args
        positional = args.posonlyargs + args.args
        qualname = callee = node.name
        if id(node) in self.methods:
            positional = positional[1:]  # self or cls
            qualname = f"{self.classes[-1]}.{node.name}"
            if node.name == "__init__":
                qualname = callee = self.classes[-1]
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            self.options.append((qualname, callee, arg.arg, index, node.lineno))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self.options.append((qualname, callee, arg.arg, None, node.lineno))
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name == "cls" and self.classes:
            name = self.classes[-1]
        starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
        n_positional = starred[0] if starred else len(node.args)
        self.calls.append((name, n_positional, {k.arg for k in node.keywords if k.arg}))
        self.generic_visit(node)


@functools.lru_cache(maxsize=None)
def _scan(path: Path) -> _Scan:
    scan = _Scan()
    scan.visit(ast.parse(path.read_text()))
    return scan


def _calls() -> list[tuple[str | None, int, set[str]]]:
    return [call for path in MODULES for call in _scan(path).calls]


def _unset(options, calls) -> list[tuple[str, str, int]]:
    """(qualified name, parameter, line) of each option that no call passes."""
    return [
        (qualname, param, line)
        for qualname, callee, param, index, line in options
        if not any(
            name == callee and (param in keywords or (index is not None and index < n))
            for name, n, keywords in calls
        )
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_option_is_set_by_a_caller(path):
    unset = _unset(_scan(path).options, _calls())
    unset = [(name, param, line) for name, param, line in unset if (name, param) not in ALLOWED]
    assert not unset, f"options that no call in src/ passes (function, parameter, line): {unset}"


def test_every_allowed_option_exists_and_is_unset():
    # an entry whose option is gone, or that a call now passes, is stale
    options = [option for path in MODULES for option in _scan(path).options]
    unset = {(name, param) for name, param, _ in _unset(options, _calls())}
    assert set(ALLOWED) <= unset, set(ALLOWED) - unset
