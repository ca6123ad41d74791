"""Source hygiene of the package, checked on the syntax tree of each module.

A module-level import that no code of its module reads, an ``__all__``
entry that names nothing, and a private function or class that no code of
the package names are all left behind when code is deleted.
``__init__.py`` imports only to re-export, and ``from __future__`` imports
are directives, so neither counts.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "spintail").glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _module_imports(tree):
    """``(bound name, line)`` of every import at module level."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _all_entries(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = _parse(path)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= set(_all_entries(tree))  # re-exported
    unused = [f"{name} (line {line})" for name, line in _module_imports(tree) if name not in read]
    assert unused == [], f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_entries_resolve(path):
    name = "spintail" if path.stem == "__init__" else f"spintail.{path.stem}"
    module = importlib.import_module(name)
    missing = [entry for entry in _all_entries(_parse(path)) if not hasattr(module, entry)]
    assert missing == [], f"{path.name}: __all__ names {missing}"


def test_checks_catch_what_they_name():
    tree = ast.parse("import os\nfrom x import y as z\n__all__ = ['z', 'w']\nos.sep\n")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name, _ in _module_imports(tree) if name not in read] == ["z"]
    assert _all_entries(tree) == ["z", "w"]


def _private_definitions(tree):
    """Names of the module-level private functions and classes of ``tree``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in tree.body if isinstance(node, kinds)
            and node.name.startswith("_") and not node.name.startswith("__")]


def _named(tree):
    """Every name ``tree`` reads, loads as an attribute or imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_no_orphaned_private_definitions():
    # a private helper that no code names is left behind when its caller goes
    trees = {path.name: _parse(path) for path in SOURCES}
    named = set().union(*map(_named, trees.values()))
    orphans = [f"{name}: {fn}" for name, tree in trees.items()
               for fn in _private_definitions(tree) if fn not in named]
    assert orphans == [], f"private definitions no code names: {orphans}"


def test_orphan_check_catches_an_unnamed_helper():
    tree = ast.parse(
        "def _used(): pass\ndef _unused(): pass\nclass _Kept: pass\n"
        "def __dunder__(): pass\ndef public(): return _used() or x._Kept\n"
    )
    assert _private_definitions(tree) == ["_used", "_unused", "_Kept"]
    assert [fn for fn in _private_definitions(tree) if fn not in _named(tree)] == ["_unused"]


# The one sequence protocol is ``eval(n, region=None)``: every ``eval`` a
# sequence kind defines accepts ``region``, so an estimator may pass it to any.
SEQUENCE_MODULES = [path for path in MODULES if path.stem in ("sequences", "classical")]


def _evals_without_region(tree):
    """Names of the classes whose ``eval`` takes no ``region`` parameter."""
    out = []
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "eval":
                params = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
                if "region" not in params:
                    out.append(cls.name)
    return out


@pytest.mark.parametrize("path", SEQUENCE_MODULES, ids=lambda p: p.name)
def test_every_eval_accepts_region(path):
    assert len(SEQUENCE_MODULES) == 2
    missing = _evals_without_region(_parse(path))
    assert missing == [], f"{path.name}: eval without region in {missing}"


def test_region_check_catches_a_missing_region():
    tree = ast.parse(
        "class A:\n    def eval(self, n, region=None): pass\n"
        "class B:\n    def eval(self, n): pass\n"
        "class C:\n    def other(self, n): pass\n"
    )
    assert _evals_without_region(tree) == ["B"]


# A run is expanded site by site only where a dense matrix is built; every other
# operation on a sitewise product reads its ranges.  These are the expanding
# calls, and the functions (by qualified name) that may make them.
EXPANDING = {"each_site", "pieces", "_pieces"}
MAY_EXPAND = {"Run.pieces", "_pieces", "_assemble", "_compile_plan", "LocalOperator.support"}


def _scoped_calls(tree):
    """``(function, name, call)`` for each call in ``tree``, with the qualified name
    of the function or class body making it (empty at module level)."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", getattr(func, "id", None))
                out.append((".".join(scope), name, child))
            visit(child, scope)

    visit(tree, [])
    return out


def _expanding_calls(tree):
    """``(function, name)`` for each call of an expanding name."""
    return [(fn, name) for fn, name, _ in _scoped_calls(tree) if name in EXPANDING]


def test_runs_are_expanded_only_where_a_dense_matrix_is_built():
    walks = [f"{path.name}: {fn or '<module>'} calls {name}" for path in SOURCES
             for fn, name in _expanding_calls(_parse(path)) if fn not in MAY_EXPAND]
    assert walks == [], f"site walks outside a dense build: {walks}"


def test_expansion_check_catches_a_site_walk():
    tree = ast.parse(
        "class Run:\n    def pieces(self):\n        return self.each_site()\n"
        "def _assemble(blocks):\n    return _pieces(blocks)\n"
        "def relabel(op):\n    return [b.each_site() for b in op.blocks]\n"
        "class Other:\n    def pieces(self):\n        return x.pieces()\n"
    )
    assert _expanding_calls(tree) == [
        ("Run.pieces", "each_site"), ("_assemble", "_pieces"),
        ("relabel", "each_site"), ("Other.pieces", "pieces"),
    ]
    assert [fn for fn, _ in _expanding_calls(tree) if fn not in MAY_EXPAND] == [
        "relabel", "Other.pieces"]


# Every config object is read by one function, ``cli._fields``: only it tests
# whether a value is an object and reports the keys its rows do not read.
# ``parse_config`` refuses a non-object top level once, before any is read.
CLI = next(path for path in SOURCES if path.name == "cli.py")
OBJECT_READS = {("_fields", "isinstance"): 1, ("_fields", "_unknown_keys"): 1,
                ("parse_config", "isinstance"): 1}


def _object_reads(tree):
    """``(function, name)`` for each call of ``_unknown_keys`` and each
    ``isinstance`` test against ``dict``, alone or in a tuple of types."""
    out = []
    for fn, name, call in _scoped_calls(tree):
        types = call.args[1:2]
        if types and isinstance(types[0], ast.Tuple):
            types = types[0].elts
        if name == "_unknown_keys" or (
            name == "isinstance" and any(getattr(t, "id", None) == "dict" for t in types)
        ):
            out.append((fn, name))
    return out


def _extra_object_reads(tree):
    reads = Counter(_object_reads(tree))
    return sorted(f"{fn or '<module>'} calls {name}" for (fn, name), count in reads.items()
                  if count > OBJECT_READS.get((fn, name), 0))


def test_config_objects_are_read_by_one_function():
    extra = _extra_object_reads(_parse(CLI))
    assert extra == [], f"config objects read outside cli._fields: {extra}"


def test_object_read_check_catches_a_second_reader():
    tree = ast.parse(
        "def _fields(spec, rows):\n"
        "    if not isinstance(spec, dict): return None\n"
        "    _unknown_keys(spec, rows)\n"
        "def parse_config(raw):\n"
        "    if not isinstance(raw, dict): raise ValueError\n"
        "    if isinstance(raw.get('x'), dict): pass\n"
        "def _parse_state(spec):\n"
        "    if isinstance(spec, (list, dict)): _unknown_keys(spec, ('rho',))\n"
        "    return isinstance(spec, list)\n"
    )
    assert _object_reads(tree) == [
        ("_fields", "isinstance"), ("_fields", "_unknown_keys"),
        ("parse_config", "isinstance"), ("parse_config", "isinstance"),
        ("_parse_state", "isinstance"), ("_parse_state", "_unknown_keys"),
    ]
    assert _extra_object_reads(tree) == [
        "_parse_state calls _unknown_keys", "_parse_state calls isinstance",
        "parse_config calls isinstance",
    ]
