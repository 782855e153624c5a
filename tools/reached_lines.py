"""The function-body lines of `src/leonard/` that no call of tools/output_digests.py reaches.

    python3 tools/reached_lines.py SRC

SRC is the `src/` directory of the tree under test.  Every call of tools/output_digests.py runs, in its order (its
`main`, with the digest lines it prints discarded), under `sys.settrace`, which records each line executed in a
module of SRC/leonard.  A body line is the first line of a statement inside a function, except the function's
docstring and the statements that run no code of their own (`try:`, `global`, `nonlocal`); a nested `def` is a
statement of the function around it.  A statement is reached when any of its lines runs: for a compound statement
(if, for, while, with, def) those before its body, for any other all of its lines.  For each module, in file order,
it prints "<module>: <unreached> of <body lines> body lines unreached" and then each unreached line as
"<module>:<line>: <source>".  About 10 s on a shared 2-vCPU Xeon, against 3 s for the digests untraced.  Report
only: the exit status is 0 whatever it finds.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import output_digests  # noqa: E402

SILENT = (ast.Try, getattr(ast, "TryStar", ast.Try), ast.Global, ast.Nonlocal)
BLOCKS = ("body", "orelse", "finalbody", "handlers", "cases")  # the fields that hold nested statements


def _children(node) -> list:
    """The statement lists nested in node: its blocks, and those of its except handlers and match cases."""
    out = []
    for field in BLOCKS:
        for item in getattr(node, field, ()):
            out.extend(item.body if isinstance(item, (ast.ExceptHandler, ast.match_case)) else [item])
    return out


def body_lines(source: str) -> dict:
    """line -> the lines whose execution reaches the statement that starts there, for every body line of source."""
    out = {}

    def visit(stmts, in_function: bool):
        for k, node in enumerate(stmts):
            children = _children(node)
            docstring = k == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, str)
            if in_function and not docstring and not isinstance(node, SILENT):
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                last = min(c.lineno for c in children) - 1 if children else node.end_lineno
                out[node.lineno] = range(first, max(last, node.lineno) + 1)
            # a class body runs where the class statement does; a function body is a body wherever it is
            visit(children, in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(source).body, False)
    return dict(sorted(out.items()))


def reached(src: str) -> dict:
    """filename -> the lines executed in it, for each module of src/leonard, over every call of the digests."""
    prefix, hits = os.path.join(os.path.abspath(src), "leonard") + os.sep, defaultdict(set)

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename.startswith(prefix) else None)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            output_digests.main([src])
    finally:
        sys.settrace(None)
    return hits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src/ directory of the tree under test")
    args = parser.parse_args(argv)
    hits = reached(args.src)
    package = os.path.join(os.path.abspath(args.src), "leonard")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text, lines = source.splitlines(), body_lines(source)
        missed = [n for n, span in lines.items() if not hits[path].intersection(span)]
        print(f"{name}: {len(missed)} of {len(lines)} body lines unreached")
        for n in missed:
            print(f"{name}:{n}: {text[n - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
