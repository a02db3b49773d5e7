"""Every library statement that no CLI run executes.

    python tests/reach_lines.py

runs the configs of `tests/test_surface.py::RUNS`, plus a ``demkov`` run
with ``half_width``, in this one process under the standard library's
`trace` module, and prints each statement inside a function of
``src/sqstates`` that none of them executed, as ``path:line function:
source``, then their count.  ``raise`` statements are left out, because
a run that succeeds reaches none of them, and so are ``global`` and
``nonlocal``, which compile to nothing.  The exit status is 1 if a run
fails and 0 otherwise.

A statement that no run reaches is a candidate for removal, or for a
move to ``tests/oracles.py`` if only the tests read it.  Two kinds of
dead weight do not show here and must still be read by hand: a return
value that every caller throws away, and an argument kind (an array
where every run passes a scalar, a float where every run passes an
integer) that no run passes.

Pytest does not collect this file, because its name does not start with
``test_``.  ``os.sched_getaffinity`` is made to report one CPU, so the
grid files of `sqstates._csv.run_tasks` are written in this process,
where the tracer sees them; the forked-worker half of `run_tasks`
therefore shows as unreached.
"""

import ast
import json
import os
import sys
import tempfile
import trace
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "sqstates"
sys.path[:0] = [str(ROOT / "src"), str(TESTS)]

#: the one subcommand option that `RUNS` leaves unset
HALF_WIDTH_RUN = ("demkov", {"channel": {"beta0": 0.5, "delta0": 0.3},
                             "times": [0.0, 0.7], "points": 9,
                             "half_width": 4.0})


def run_all(out):
    """Run every config through `sqstates.cli.main`; their exit codes."""
    # imported here, so that what runs at import time is traced too
    from sqstates.cli import main
    from test_surface import RUNS

    codes = []
    for i, (command, config) in enumerate(RUNS + [HALF_WIDTH_RUN]):
        path = os.path.join(out, "config%d.json" % i)
        with open(path, "w") as handle:
            json.dump(config, handle)
        codes.append(main([command, "--config", path,
                           "--out", os.path.join(out, str(i))]))
    return codes


def _own_lines(node):
    """The lines of a statement that are not lines of a statement inside it."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    inner = [child.lineno for field in ("body", "orelse", "finalbody",
                                        "handlers")
             for child in getattr(node, field, [])
             if isinstance(child, (ast.stmt, ast.excepthandler))]
    last = min(inner) - 1 if inner else node.end_lineno
    return range(first, max(first, last) + 1)


def _statements(body):
    """The statements of a function body, into compound statements."""
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue            # a nested body is its own function's
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(node, field, []))
        for handler in getattr(node, "handlers", []):
            yield from _statements(handler.body)


def unreached(counts):
    """(path, line, function, source) of each statement no run executed."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        hit = {line for (name, line) in counts if name == str(path)}
        for fn in ast.walk(ast.parse(text)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = fn.body
            if ast.get_docstring(fn) is not None:
                body = body[1:]
            for node in _statements(body):
                if isinstance(node, (ast.Raise, ast.Global, ast.Nonlocal)):
                    continue
                if hit.isdisjoint(_own_lines(node)):
                    found.append((path.relative_to(ROOT), node.lineno,
                                  fn.name, lines[node.lineno - 1].strip()))
    return sorted(found)


def main():
    if hasattr(os, "sched_getaffinity"):
        os.sched_getaffinity = lambda pid: {0}
    tracer = trace.Trace(count=1, trace=0,
                         ignoredirs=[sys.prefix, sys.exec_prefix])
    with tempfile.TemporaryDirectory() as out:
        codes = tracer.runfunc(run_all, out)
    if any(codes):
        print("runs exited with %s" % codes)
        return 1
    found = unreached(tracer.results().counts)
    for path, line, name, source in found:
        print("%s:%d %s: %s" % (path, line, name, source))
    print("%d statements unreached" % len(found))
    return 0


if __name__ == "__main__":
    sys.exit(main())
