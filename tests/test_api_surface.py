"""Every top-level function and class of the package, and every public
method, is used by some pipeline stage: referenced somewhere in src/ or
bench/ outside its own definition.  Helpers only the tests need live in the
tests' reference modules instead.

A top-level function or class is used only through its own name: a bare
name, module.name under any import alias of a package module (such as
rngmod.stream), or a "gapclique.module:name" string (the benchmark's tracer
names the functions it wraps that way).  An attribute of any other object
(piece.agreement) does not count.  A public method is called on objects the
scan cannot resolve, so any attribute or identifier inside a string other
than a docstring counts for it.  Imports and docstrings never count.
"""

import ast
import os
import re
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gapclique")
ALLOWED = {"main"}  # the console entry point, named in pyproject.toml


def _sources(*dirs):
    for d in dirs:
        for dirpath, _, files in os.walk(d):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _docstrings(tree):
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr)
    }


def _references(tree):
    """Counter of the identifiers a syntax tree references; docstrings do
    not count."""
    out, docs = Counter(), _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


MODULES = {name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py")}


def _module_aliases(tree):
    """The dotted names an import binds to a package module in a tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.asname or a.name for a in node.names
                       if a.name.startswith("gapclique.") and a.name.split(".", 1)[1] in MODULES)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "gapclique"):
            if node.module in (None, "gapclique"):
                out.update(a.asname or a.name for a in node.names if a.name in MODULES)
    return out


def _uses(tree, aliases):
    """Counter of the names a syntax tree uses by their own name (see the
    module docstring), given the tree's module aliases."""
    out, docs = Counter(), _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in aliases:
            out[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            out.update(re.findall(r"gapclique\.\w+:(\w+)", node.value))
    return out


def _definitions(tree):
    """(qualified name, name, node) of the module's top-level functions and
    classes and of their classes' public methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item


def _trees():
    trees = {}
    for path in _sources(PACKAGE, os.path.join(ROOT, "bench")):
        with open(path) as fh:
            trees[path] = ast.parse(fh.read(), path)
    return trees


TREES = _trees()
TOTAL = sum((_references(t) for t in TREES.values()), Counter())
USES = sum((_uses(t, _module_aliases(t)) for t in TREES.values()), Counter())
DEFINED = [
    (f"{os.path.basename(path)[:-3]}.{qualname}", name, node)
    for path, tree in TREES.items()
    if os.path.dirname(path) == PACKAGE
    for qualname, name, node in _definitions(tree)
    if name not in ALLOWED
]


def test_scan_sees_the_package():
    names = {qualname for qualname, _, _ in DEFINED}
    assert {"reduction.build_gamma", "lintest.FunctionTable.coordinate",
            "cli.build_parser"} <= names


def test_only_a_name_of_its_own_uses_a_top_level_definition():
    tree = ast.parse(
        "from . import rng as rngmod\nimport gapclique.cli\nfrom gapclique import lintest\n"
        "rngmod.stream(0, 'x'); gapclique.cli.main(); lintest.list_decode_scalar.q\n"
        "build_gamma(); piece.agreement; layer = 'gapclique.experiments:sample_g'\n"
        "other = 'verify_clique'; agreement: int = 0\n"
    )
    uses = _uses(tree, _module_aliases(tree))
    names = ("stream", "main", "list_decode_scalar", "build_gamma", "sample_g")
    assert all(uses[name] == 1 for name in names)
    assert uses["agreement"] == uses["verify_clique"] == 0


@pytest.mark.parametrize("qualname,name,node", DEFINED, ids=[d[0] for d in DEFINED])
def test_definition_is_used(qualname, name, node):
    # a definition's own body (a recursive call, by its bare name) does not count
    if qualname.count(".") == 1:
        outside = USES[name] - _uses(node, set())[name]
    else:
        outside = TOTAL[name] - _references(node)[name]
    assert outside > 0, f"{qualname} is referenced nowhere in src/ or bench/"
