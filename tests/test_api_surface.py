"""Every top-level function and class of the package, and every public
method, is used by some pipeline stage: referenced somewhere in src/ or
bench/ outside its own definition.  Helpers only the tests need live in the
tests' reference modules instead.

A reference is a name, an attribute, or an identifier inside a string other
than a docstring (the benchmark's tracer names the functions it wraps as
"module:attr" strings).  Imports do not count.
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


@pytest.mark.parametrize("qualname,name,node", DEFINED, ids=[d[0] for d in DEFINED])
def test_definition_is_used(qualname, name, node):
    # a definition's own body (a recursive call) does not count
    outside = TOTAL[name] - _references(node)[name]
    assert outside > 0, f"{qualname} is referenced nowhere in src/ or bench/"
