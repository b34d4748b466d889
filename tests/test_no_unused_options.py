"""Every argument default of the package is passed by some call in it.

A parameter with a default is an option.  One that no call in ``src/``
passes, by keyword or by position, is a knob that only tests turn, or nobody:
it belongs in a module constant, which a test can monkeypatch.  A call is
resolved through its module: a bare ``f(...)`` goes to the ``f`` that the
calling module defines or imports, ``mod.f(...)`` to module ``mod``'s ``f``,
and ``cls(...)`` inside a class to that class's ``__init__``; an import of
an import is followed to the definition.  A call that cannot be resolved,
such as a method call, is matched by its bare name.  The few options on
``ALLOWED`` are set from outside the package, each for the reason given.

Likewise every top-level function and class is reached from the package: a
module refers to it by name, another module through an import of it or as
an attribute of its module, or a package ``__init__`` re-exports it.  One
that only tests reach belongs in the tests.  The few names on
``ALLOWED_UNREACHED`` are used from outside the package, each for the
reason given.
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

# (module, top-level name) -> why nothing in src/ refers to it
ALLOWED_UNREACHED = {
    ("nematicflow.linsolve", "clear_cache"): "the benchmark's cold start",
    ("nematicflow.harness.io", "read_snapshot"): "the reader of the snapshot output format",
}


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


class _Scan(ast.NodeVisitor):
    """Options (parameters with a default), imports and calls of one module."""

    def __init__(self, module: str, is_package: bool, modules: frozenset[str]):
        self.module = module
        self.is_package = is_package
        # what a relative import of level 1 starts from
        self.package = module if is_package else module.rpartition(".")[0]
        self.modules = modules
        self.classes: list[str] = []
        self.methods: set[int] = set()
        self.depth = 0  # of function definitions
        self.top_level: set[str] = set()  # functions and classes of the module
        # local name -> (module, name), or (module, None) for a module itself
        self.imports: dict[str, tuple[str, str | None]] = {}
        # (key, callee name, parameter, positional index or None, qualified name,
        # line); the key is (module, name) for a top-level function or class,
        # None for a method or a nested function, which only a bare name matches
        self.options: list[tuple] = []
        # (how the callee is named, positional arguments before any *args,
        # keyword names); resolved once the whole module is read
        self.raw_calls: list[tuple[tuple, int, set[str]]] = []
        # every name read, and every attribute read off a name: (name,) or
        # (name, attribute)
        self.reads: set[tuple[str, ...]] = set()

    def visit_Import(self, node):
        for alias in node.names:  # import a.b binds a, import a.b as c binds a.b
            module = alias.name if alias.asname else alias.name.partition(".")[0]
            self.imports[alias.asname or module] = (module, None)

    def visit_ImportFrom(self, node):
        base = node.module or ""
        if node.level:
            package = self.package.split(".")
            package = package[: len(package) - node.level + 1]
            base = ".".join(package + ([node.module] if node.module else []))
        for alias in node.names:
            submodule = f"{base}.{alias.name}"
            target = (submodule, None) if submodule in self.modules else (base, alias.name)
            self.imports[alias.asname or alias.name] = target

    def visit_ClassDef(self, node):
        if self.depth == 0 and not self.classes:
            self.top_level.add(node.name)
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
        key = (self.module, node.name) if self.depth == 0 and not self.classes else None
        if key:
            self.top_level.add(node.name)
        if id(node) in self.methods:
            positional = positional[1:]  # self or cls
            qualname = f"{self.classes[-1]}.{node.name}"
            if node.name == "__init__":
                qualname = callee = self.classes[-1]
                if len(self.classes) == 1 and self.depth == 0:
                    key = (self.module, callee)
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            self.options.append((key, callee, arg.arg, index, qualname, node.lineno))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self.options.append((key, callee, arg.arg, None, qualname, node.lineno))
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.reads.add((node.id,))

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name):
            self.reads.add((node.value.id, node.attr))
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "cls" and self.classes:
            how = ("defined", self.classes[-1])
        elif isinstance(func, ast.Name):
            how = ("name", func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            how = ("attribute", func.value.id, func.attr)
        else:
            how = ("bare", getattr(func, "attr", None))
        starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
        n_positional = starred[0] if starred else len(node.args)
        self.raw_calls.append((how, n_positional, {k.arg for k in node.keywords if k.arg}))
        self.generic_visit(node)


def _scan_sources(sources: dict[str, tuple[str, bool]]) -> dict[str, _Scan]:
    """Scan each module, ``{module name: (source, is package)}``."""
    modules = frozenset(sources)
    scans = {}
    for name, (source, is_package) in sources.items():
        scans[name] = _Scan(name, is_package, modules)
        scans[name].visit(ast.parse(source))
    return scans


def _definition(scans, module: str, name: str) -> tuple[str, str]:
    """Follow imports of imports to the module that defines ``name``."""
    seen = set()
    while module in scans and name not in scans[module].top_level and (module, name) not in seen:
        seen.add((module, name))
        target = scans[module].imports.get(name)
        if target is None or target[1] is None:
            break
        module, name = target
    return module, name


def _calls(scans) -> list[tuple[tuple[str, str] | None, str | None, int, set[str]]]:
    """(resolved target or None, bare name, positional count, keywords) of
    every call in the scanned modules."""
    out = []
    for scan in scans.values():
        for (kind, *names), n, keywords in scan.raw_calls:
            target = None
            if kind == "defined" or (kind == "name" and names[0] in scan.top_level):
                target = (scan.module, names[0])
            elif kind in ("name", "attribute") and names[0] in scan.imports:
                module, name = scan.imports[names[0]]
                if kind == "name" and name is not None:  # an imported f(...)
                    target = _definition(scans, module, name)
                elif kind == "attribute" and name is None:  # mod.f(...)
                    target = _definition(scans, module, names[1])
            out.append((target, names[-1], n, keywords))
    return out


def _unset(options, calls) -> list[tuple[str, str, int]]:
    """(qualified name, parameter, line) of each option that no call passes."""
    return [
        (qualname, param, line)
        for key, callee, param, index, qualname, line in options
        if not any(
            (target == key if target is not None else name == callee)
            and (param in keywords or (index is not None and index < n))
            for target, name, n, keywords in calls
        )
    ]


def _unreached(scans) -> list[tuple[str, str]]:
    """(module, name) of each top-level function or class that no module
    refers to and no package ``__init__`` re-exports."""
    reached = set()
    for scan in scans.values():
        for name, *attribute in scan.reads:
            if not attribute and name in scan.top_level:
                reached.add((scan.module, name))
            elif name in scan.imports:
                module, imported = scan.imports[name]
                if imported is not None:  # f, imported from its module
                    reached.add(_definition(scans, module, imported))
                elif attribute:  # mod.f
                    reached.add(_definition(scans, module, attribute[0]))
        if scan.is_package:
            reached.update(_definition(scans, module, name)
                           for module, name in scan.imports.values() if name is not None)
    return sorted((scan.module, name) for scan in scans.values() for name in scan.top_level
                  if (scan.module, name) not in reached)


@functools.lru_cache(maxsize=None)
def _package() -> tuple[dict[str, _Scan], tuple]:
    root = PACKAGE.parent
    sources = {_module_name(p, root): (p.read_text(), p.name == "__init__.py") for p in MODULES}
    scans = _scan_sources(sources)
    return scans, tuple(_calls(scans))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_option_is_set_by_a_caller(path):
    scans, calls = _package()
    unset = _unset(scans[_module_name(path, PACKAGE.parent)].options, calls)
    unset = [(name, param, line) for name, param, line in unset if (name, param) not in ALLOWED]
    assert not unset, f"options that no call in src/ passes (function, parameter, line): {unset}"


def test_every_allowed_option_exists_and_is_unset():
    # an entry whose option is gone, or that a call now passes, is stale
    scans, calls = _package()
    options = [option for scan in scans.values() for option in scan.options]
    unset = {(name, param) for name, param, _ in _unset(options, calls)}
    assert set(ALLOWED) <= unset, set(ALLOWED) - unset


def test_every_top_level_definition_is_reached_from_the_package():
    scans, _ = _package()
    unreached = [key for key in _unreached(scans) if key not in ALLOWED_UNREACHED]
    assert not unreached, f"functions and classes that nothing in src/ reaches: {unreached}"


def test_every_allowed_unreached_name_exists_and_is_unreached():
    # an entry whose definition is gone, or that src/ now reaches, is stale
    unreached = set(_unreached(_package()[0]))
    assert set(ALLOWED_UNREACHED) <= unreached, set(ALLOWED_UNREACHED) - unreached


@pytest.mark.parametrize("source, unreached", [
    ("", ["helper", "unused"]),
    ("from .lib import helper as h\nh(1)\n", ["unused"]),  # an aliased import
    ("from . import lib\nlib.helper(1)\n", ["unused"]),  # a module attribute
    ("def helper(x):\n    return x\n\n\nhelper(1)\n", ["helper", "unused"]),  # another module's own
])
def test_reached_through_imports_attributes_and_reexports(source, unreached):
    sources = {
        "pkg": ("from .lib import Public\n", True),  # a re-export reaches Public
        "pkg.lib": ("class Public:\n    pass\n\n\ndef helper(x):\n    return x\n\n\n"
                    "def unused():\n    return 0\n", False),
        "pkg.caller": (source, False),
    }
    scans = _scan_sources(sources)
    assert [name for module, name in _unreached(scans) if module == "pkg.lib"] == unreached


SYNTHETIC = {
    "pkg": ("", True),
    "pkg.solver": ("def solve(x, tol=1e-8):\n    return x\n\n\nsolve(1.0)\n", False),
    # another module's own solve is passed tol: that sets nothing in pkg.solver
    "pkg.other": (
        "def solve(x, tol):\n    return x\n\n\nsolve(1.0, tol=1e-3)\n", False
    ),
}


def _synthetic_unset(extra: dict[str, str]) -> list[tuple[str, str, int]]:
    """Unset options of pkg.solver, with the modules ``extra`` added to pkg."""
    scans = _scan_sources({**SYNTHETIC, **{f"pkg.{k}": (v, False) for k, v in extra.items()}})
    return _unset(scans["pkg.solver"].options, _calls(scans))


def test_same_named_function_elsewhere_does_not_set_the_option():
    assert _synthetic_unset({}) == [("solve", "tol", 1)]


@pytest.mark.parametrize("source", [
    "from .solver import solve as s\ns(1.0, 1e-3)\n",  # an aliased import, by position
    "from . import solver\nsolver.solve(1.0, tol=1e-3)\n",  # a module attribute
    "from .reexport import solve\nsolve(1.0, tol=1e-3)\n",  # an import of an import
    "class A:\n    def run(self):\n        return self.solve(tol=1)\n",  # a method: bare name
])
def test_calls_resolved_through_imports_set_the_option(source):
    assert _synthetic_unset({"caller": source, "reexport": "from .solver import solve\n"}) == []
