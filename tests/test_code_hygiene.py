"""Source checks over the package and the tests, with the stdlib ``ast``.

* Package code that only tests call belongs in the tests: every top-level
  ``def``/``class`` of ``img2table_ray/`` must be named somewhere in the
  engine (``img2table_ray/``, ``perfbench/``, ``bench.py``,
  ``__ray_entry__.py``), not only under ``tests/``.  ``api.py``'s public
  names are the library user's surface and are exempt.
* No module of ``img2table_ray/`` or ``tests/`` imports a name it never
  uses.
"""

from __future__ import annotations

import ast
import os
import re

from tests.conftest import REPO

_IDENT = re.compile(r"[A-Za-z_]\w*")


def _py_files(*roots: str) -> list[str]:
    out = []
    for root in roots:
        path = os.path.join(REPO, root)
        if path.endswith(".py"):
            out.append(path)
            continue
        for d, _, files in os.walk(path):
            out += [os.path.join(d, f) for f in files if f.endswith(".py")]
    return sorted(out)


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring constants of a module and its defs."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _mentions(tree: ast.Module) -> set[str]:
    """Every name a module refers to: loads, attributes, imported names,
    and the identifiers inside its string constants (``perfbench``
    names what it wraps as strings); docstrings and comments do not
    count."""
    docs = _docstrings(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            out.update(_IDENT.findall(node.value))
    return out


def test_no_package_code_that_only_tests_call():
    engine = set()
    for path in _py_files("img2table_ray", "perfbench", "bench.py",
                          "__ray_entry__.py"):
        engine |= _mentions(_parse(path))
    tests = set()
    for path in _py_files("tests"):
        tests |= _mentions(_parse(path))
    api = os.path.join(REPO, "img2table_ray", "api.py")
    test_only = []
    for path in _py_files("img2table_ray"):
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if path == api and not node.name.startswith("_"):
                continue
            if node.name in tests and node.name not in engine:
                test_only.append(f"{os.path.relpath(path, REPO)}:"
                                 f"{node.lineno} {node.name}")
    assert not test_only, ("package code only tests call; move it into "
                           "the tests that use it: " + ", ".join(test_only))


def _imported(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name.split(".")[0]), node.lineno)
                    for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names
                    if a.name != "*"]
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names loaded, listed in ``__all__``, or named in a string
    annotation."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            out |= {e.value for e in ast.walk(node.value)
                    if isinstance(e, ast.Constant)}
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            for e in ast.walk(ann) if ann is not None else ():
                if isinstance(e, ast.Constant) and isinstance(e.value, str):
                    out |= {n.id for n in ast.walk(ast.parse(e.value,
                                                             mode="eval"))
                            if isinstance(n, ast.Name)}
    return out


def test_no_unused_imports():
    unused = []
    for path in _py_files("img2table_ray", "tests"):
        if os.path.basename(path) == "__init__.py":
            continue
        tree = _parse(path)
        used = _used(tree)
        unused += [f"{os.path.relpath(path, REPO)}:{line} {name}"
                   for name, line in _imported(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)
