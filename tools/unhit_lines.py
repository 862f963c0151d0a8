"""List the statements of the plconvex package that a run never executes.

Runs pytest in this process under sys.settrace, tracing only frames whose
file is under src/plconvex, then optionally `plconvex check` on each given
file, and prints per module the first lines of the statements that never
ran.  A statement counts when it is an ast statement other than a
docstring, an import, or a def or class header (their bodies count).  It
ran when a line of its own span ran (for a compound statement, its header
lines) or when any statement nested in it ran.

A full tier-1 run under the tracer takes minutes, so no test runs it; rerun
it before deleting a branch as unreachable.

Usage: PYTHONPATH=src python tools/unhit_lines.py [--check FILE ...]
           [-- PYTEST_ARGS ...]
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef,
        ast.ClassDef)


def _child_statements(node: ast.AST) -> list[ast.stmt]:
    """Statements nested directly in node, through handlers and cases."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            out.append(child)
        elif not isinstance(child, ast.expr):
            out.extend(_child_statements(child))
    return out


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def unhit_statements(source: str, executed: set[int]) -> list[int]:
    """First lines of the counted statements of source that never ran,
    given the set of its lines that ran."""
    unhit = []

    def visit(node: ast.stmt, parent: ast.AST) -> bool:
        children = _child_statements(node)
        hits = [visit(child, node) for child in children]
        last = children[0].lineno - 1 if children else node.end_lineno
        ran = any(hits) or not executed.isdisjoint(
            range(node.lineno, max(last, node.lineno) + 1))
        if not (ran or isinstance(node, SKIP) or _is_docstring(node, parent)):
            unhit.append(node.lineno)
        return ran

    tree = ast.parse(source)
    for node in tree.body:
        visit(node, tree)
    return sorted(unhit)


def trace_lines(root: Path, run) -> dict[str, set[int]]:
    """{real path: lines that ran} for the files under root while run()
    runs, in this thread and in threads it starts."""
    prefix = os.path.realpath(root) + os.sep
    executed = defaultdict(set)
    inside = {}

    def local(frame, event, arg):
        if event == "line":
            executed[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            real = os.path.realpath(name)
            inside[name] = real if real.startswith(prefix) else None
        return local if inside[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return executed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", nargs="*", default=[], metavar="FILE",
                        help="also run `plconvex check` on each file")
    parser.add_argument("pytest_args", nargs="*",
                        help="arguments for pytest, after --")
    args = parser.parse_args(argv)
    package = ROOT / "src" / "plconvex"

    def run():
        import pytest

        pytest.main(["-q", "-p", "no:cacheprovider", *args.pytest_args])
        from plconvex import cli

        for path in args.check:
            cli.main(["check", path])

    executed = trace_lines(package, run)
    for path in sorted(package.glob("*.py")):
        lines = unhit_statements(path.read_text(encoding="utf-8"),
                                 executed[os.path.realpath(path)])
        if lines:
            print(f"{path.name}: {', '.join(map(str, lines))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
