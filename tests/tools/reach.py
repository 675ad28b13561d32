"""Which functions of ``img2table_ray/`` a pytest selection never runs.

    python tests/tools/reach.py [PYTEST ARGS ...]

With no arguments it runs tier-1 (``tests/ -q
--continue-on-collection-errors -p no:cacheprovider``).  The selection runs
in a child pytest whose ``PYTHONPATH`` starts with a temporary directory
holding a ``sitecustomize.py``.  Every Python process that inherits that
environment, Ray's worker processes included, loads it at start-up; it
sets a ``sys.settrace`` hook (and ``threading.settrace`` for new threads)
that sees each code object's first call and returns at once, so no line
events are traced.  A first call inside the package is appended to that
process's own file the moment it happens (one ``os.write`` on an
``O_APPEND`` descriptor): Ray kills actor processes without running
``atexit``, so a record kept in memory and written at exit would be lost.

The report lists, per file, every ``def`` of the package (methods and
nested functions included) whose code never ran, with its line and its
length in lines (decorators to the last line of the body), and the
totals.  Bodies that do nothing but ``raise NotImplementedError`` (after
an optional docstring) are abstract stubs; they are listed apart and not
counted as unreached.  Tier-1 under the hook takes about twice its
untraced time.  The pytest exit status is printed at the end; the tool
exits with it.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
PACKAGE = "img2table_ray"
TIER1 = ["tests/", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]

# loaded by every traced process; REACH_DIR names the record directory and
# REACH_PACKAGE the package directory name whose code objects are recorded
SITECUSTOMIZE = '''\
import os
import sys
import threading

_dir = os.environ.get("REACH_DIR")
if _dir:
    _part = os.sep + os.environ["REACH_PACKAGE"] + os.sep
    _seen = set()
    _fd = []

    def _hook(frame, event, arg):
        code = frame.f_code
        if code in _seen:
            return None
        _seen.add(code)
        if _part in code.co_filename:
            if not _fd:
                _fd.append(os.open(os.path.join(_dir, "%d.txt" % os.getpid()),
                                   os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644))
            os.write(_fd[0], ("%s\\t%d\\n" % (code.co_filename,
                                             code.co_firstlineno)).encode())
        return None

    sys.settrace(_hook)
    threading.settrace(_hook)
'''


def _relative(filename: str) -> str | None:
    """The path below the package directory, or None outside it."""
    part = os.sep + PACKAGE + os.sep
    at = filename.rfind(part)
    return None if at < 0 else filename[at + len(part):]


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def package_functions(root: str) -> list[tuple[str, int, str, int, bool]]:
    """(relative path, first line, qualified name, lines, stub) of every
    ``def`` under ``root``.  The first line is the one Python reports as
    the code object's ``co_firstlineno``: the first decorator's, if any."""
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fname in sorted(filenames):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), filename=path)

            def visit(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        first = min([child.lineno]
                                    + [d.lineno for d in child.decorator_list])
                        name = prefix + child.name
                        out.append((rel, first, name,
                                    child.end_lineno - first + 1, _is_stub(child)))
                        visit(child, name + ".")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, prefix + child.name + ".")
                    else:
                        visit(child, prefix)

            visit(tree, "")
    return out


def reached(record_dir: str) -> set[tuple[str, int]]:
    """(relative path, first line) of every code object some process
    recorded."""
    seen = set()
    for fname in os.listdir(record_dir):
        with open(os.path.join(record_dir, fname), encoding="utf-8") as f:
            for line in f:
                filename, _, lineno = line.rstrip("\n").rpartition("\t")
                rel = _relative(filename)
                if rel is not None and lineno.isdigit():
                    seen.add((rel, int(lineno)))
    return seen


def report(functions, seen) -> list[str]:
    never = defaultdict(list)
    stubs = []
    for rel, first, name, n_lines, stub in functions:
        if (rel, first) in seen:
            continue
        if stub:
            stubs.append(f"  {rel}:{first} {name} ({n_lines} lines)")
        else:
            never[rel].append((first, name, n_lines))
    lines = []
    for rel in sorted(never):
        total = sum(n for _, _, n in never[rel])
        lines.append(f"{rel}: {len(never[rel])} functions, {total} lines")
        for first, name, n_lines in never[rel]:
            lines.append(f"  {first:5d} {name} ({n_lines} lines)")
    n_never = sum(len(v) for v in never.values())
    n_lines = sum(n for v in never.values() for _, _, n in v)
    lines.append(f"never ran: {n_never} of {len(functions)} functions, "
                 f"{n_lines} lines")
    if stubs:
        lines.append(f"abstract stubs (body only raises NotImplementedError), "
                     f"not counted: {len(stubs)}")
        lines.extend(stubs)
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pytest_args", nargs=argparse.REMAINDER,
                    help="pytest arguments (default: tier-1)")
    args = ap.parse_args()
    pytest_args = args.pytest_args or TIER1

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        site_dir = os.path.join(tmp, "site")
        record_dir = os.path.join(tmp, "records")
        os.mkdir(site_dir)
        os.mkdir(record_dir)
        with open(os.path.join(site_dir, "sitecustomize.py"), "w") as f:
            f.write(SITECUSTOMIZE)
        env = dict(os.environ, REACH_DIR=record_dir, REACH_PACKAGE=PACKAGE)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (site_dir, env.get("PYTHONPATH")) if p)
        status = subprocess.call([sys.executable, "-m", "pytest", *pytest_args],
                                 cwd=REPO, env=env)
        seen = reached(record_dir)

    for line in report(package_functions(os.path.join(REPO, PACKAGE)), seen):
        print(line)
    print(f"pytest exit status: {status}")
    return status


if __name__ == "__main__":
    sys.exit(main())
