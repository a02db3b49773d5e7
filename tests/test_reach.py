"""Every library statement is executed by a CLI run, and every dataclass
field is read by one, or it is listed with a reason.

A route that no run takes is a test reference in ``tests/oracles.py``,
or it goes.  `RUNS` run in a fresh interpreter under `trace`, with one
CPU so that `_csv.run_tasks` writes every file there; each statement of
a ``src/sqstates`` function that none runs (by its first line; not
``raise``, ``try``, ``global`` or ``nonlocal``) must be in `UNREACHED`,
as ``module.function: source``, or as ``module.function`` if none of the
function's statements runs, and each entry there must be unreached.
The same runs count the reads of each field and property of every
``sqstates`` dataclass, not counting those in its ``__post_init__``;
each that none reads must be in `UNREAD`, as ``module.Class.name``, and
each entry there must be unread.
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sqstates
import test_cli as cli
from conftest import subprocess_env
from test_fockexp import ITEM_7_P0

PACKAGE = Path(sqstates.__file__).parent

#: (exit code, command, config, extra flags...) of each run; a str config
#: is the raw text of the file
RUNS = [
    (0, "evolve", cli.evolve_config(5) | {"params": cli.MOVING}),
    (0, "statistics", {"mode": "poisson", "delta0": 0.5, "epsilon0": 0.2}),
    (0, "statistics", {"mode": "pascal-even", "sigma_sum": 1.5}),
    (0, "statistics", {"mode": "pascal-odd", "sigma_sum": 1.5}),
    # 4 alpha^2 underflows: the orbit of (alpha, 1) is the point itself
    (0, "statistics", {"mode": "full-expansion", "truncation": 32,
                       "params": dict(cli.GROUND, alpha=1e-170)}),
    (0, "wigner", {"params": cli.MOVING, "times": [0.5], "state": {
        "kind": "tcs", "zeta": [0.3, -0.1]}}, "--grid", "9,11"),
    (0, "wigner", cli.terms_config((0, [0.6, 0.0]), (2, [0.0, 0.8]))
     | {"params": cli.MOVING, "rotation_check": True}),
    # descending levels, both at least 2, far enough apart that
    # specfun._binom rescales its running product
    (0, "wigner", cli.terms_config((90, [0.6, 0.0]), (40, [0.0, 0.8]))),
    (0, "wigner", cli.WIGNER_FOCK | {"state": {"kind": "fock", "level": 3.0},
                                     "points": 5}),
    (0, "demkov", {"channel": {"beta0": 0.5, "delta0": 0.3},
                   "times": [0.0, 0.7], "points": 9, "half_width": 4.0}),
    (0, "demkov", cli.DEMKOV_UNIT | {"points": 9}),
    # tail masses above TAIL_WARN_LIMIT, then above TAIL_HARD_LIMIT
    (0, "expand", cli.SHORT_TABLE | {"truncation": 12}),
    (0, "expand", cli.SHORT_TABLE),
    (0, "expand", {"params": cli.GROUND, "columns": [1], "truncation": 4}),
    (0, "verify", None, "--seed", str(2 ** 128)),
    (2, "wigner", cli.WIGNER_FOCK, "--grid", "7"),
    (2, "verify", None, "--seed", "-1"),
    (3, "evolve", cli.evolve_config(2), "--out", os.devnull),
    (2, "statistics", cli.UNKNOWN_MODE),
    # ROADMAP item 7: a legal table that the cross-check refuses
    (2, "expand", {"params": dataclasses.asdict(ITEM_7_P0), "columns": [0],
                   "truncation": 64}),
] + [(2, "evolve", config) for config in (
    cli.MALFORMED, cli.TOO_DEEP, cli.NOT_AN_OBJECT, cli.UNKNOWN_FIELD,
    cli.raw_text(*cli.ODD_KEY_OVERFLOW), cli.NEGATIVE_BETA,
    cli.MISSING_TIMES, cli.LATEST_STOP, cli.TINY_BETA, cli.EVOLVE_HUGE_ALPHA,
    cli.EVOLVE_PRODUCT)
] + [(2, "wigner", config) for config in (
    cli.TIMES_NOT_A_LIST, cli.TOO_MANY_TIMES, cli.EARLIEST_TIME,
    cli.FOCK_200, cli.SQUARE_OVERFLOW, cli.TCS_ROTATION,
    cli.OVERFLOWING_TERMS, cli.ZERO_SPREAD, cli.FAR_ZETA, cli.FAR_ORBIT)
] + [(2, "expand", config) for config in (
    cli.NO_COLUMNS, cli.DUPLICATE_COLUMNS, cli.COLUMN_BEYOND)]

#: What no run reaches, under the reason it stays; one statement (or one
#: whole function) a line
UNREACHED = {
    "worker: one CPU runs each task in process, as where no fork is": """
        _csv._width: return 1
        _csv.run_tasks: return _fork_each(names, calls, width)
        _csv._work
        _csv._start
        _csv._outcome
        _csv._fork_each""",
    "kept: psi at a scalar x, moyal at m > n, m_matrix at (0, 1)": """
        states._shape_like: return values.reshape(-1)[0]
        phasespace.moyal: return complex(np.conj(moyal(n, m, p0, pt, t)))
        fockexp.m_matrix: return _readonly(np.diag(diag.astype(complex)))""",
    "refusal: the schema bounds every time the flow takes": """
        ermakov._times: for x in t.tolist():
        ermakov._times: _check_time(x)  # raises at the first bad time""",
    "refusal: the schema checks each integer the library takes": """
        specfun._check_int: bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        """,
    "refusal: each handler reports arithmetic through `_blame`": """
        cli.main: print("config error: arithmetic failure (%s: %s)"
        cli.main: return EXIT_CONFIG""",
    "refusal: no seed fails a check, raises or degenerates a spectrum": """
        cli.cmd_verify: failed = [e["name"] for e in report["checks"] if not e["passed"]]
        cli.cmd_verify: print("FAILED checks: %s (seed %d)" % (", ".join(failed), report["seed"]))
        cli.cmd_verify: return ["verify_report.json"], EXIT_VERIFY
        verify.run_verification: errors = [math.nan]
        verify.run_verification: failure = "%s: %s" % (type(exc).__name__, exc)
        verify.run_verification: entries[-1]["error"] = failure
        operators.energy_levels: k = int(np.argmin(gaps))""",
    "drawn: Lemire rejects under 5e-9 of verify's 32-bit draws": """
        _pcg64.integers: product = self._next_uint32() * bound""",
}

#: Each field or property that no run reads, under the reason it stays
UNREAD = {
    "kept: acceptance criterion 1 reads the time of the largest product": """
        states.UncertaintyExtrema.t_max""",
}

#: runs the argument lists in the file argv[1] through `sqstates.cli.main`
#: under `trace`, counting reads of the fields and properties of every
#: `sqstates` dataclass; writes their exit codes, the lines run and the
#: read counts to argv[2]
CHILD = """
import dataclasses, json, os, sys, trace
os.sched_getaffinity = lambda pid: {0}
reads = {}
def counted(key, fget, fset=None):
    reads[key] = 0
    def get(obj):
        if sys._getframe(1).f_code.co_name != "__post_init__":
            reads[key] += 1
        return fget(obj)
    return property(get, fset)
def count_reads():
    for module in [module for name, module in sys.modules.items()
                   if name.startswith("sqstates.")]:
        for cls in vars(module).values():
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                continue
            where = "%s.%s." % (module.__name__.split(".")[-1], cls.__name__)
            for name, prop in list(vars(cls).items()):
                if isinstance(prop, property):
                    setattr(cls, name, counted(where + name, prop.fget))
            # a field becomes a property over the instance's __dict__
            for name in (f.name for f in dataclasses.fields(cls)):
                setattr(cls, name, counted(
                    where + name, lambda obj, n=name: vars(obj)[n],
                    lambda obj, value, n=name: vars(obj).update({n: value})))
def run(argvs):
    from sqstates.cli import main   # what runs at import time is traced
    count_reads()
    return [main(argv) for argv in argvs]
tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix,
                                                   sys.exec_prefix])
with open(sys.argv[1]) as fh:
    codes = tracer.runfunc(run, json.load(fh))
with open(sys.argv[2], "w") as fh:
    json.dump([codes, list(tracer.results().counts), reads], fh)
"""


def _statements(body):
    """The statements of a function body, into compound statements."""
    for node in body:
        if not isinstance(node, (ast.Raise, ast.Try, ast.Global,
                                 ast.Nonlocal)):
            yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue            # a nested body is its own function's
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(node, field, []))
        for handler in getattr(node, "handlers", []):
            yield from _statements(handler.body)


def unreached(hit):
    """The name of each statement whose first line is not among ``hit``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        here = {line for name, line in hit if name == str(path)}
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(_statements(
                fn.body[ast.get_docstring(fn) is not None:]))
            missed = [node for node in nodes if node.lineno not in here]
            where = "%s.%s" % (path.stem, fn.name)
            if missed and missed == nodes:
                found.append(where)
            else:
                found += ["%s: %s" % (where, lines[node.lineno - 1].strip())
                          for node in missed]
    return found


def listed(entries):
    """The entries of `UNREACHED` or `UNREAD`, one a line, counted."""
    return Counter(line.strip() for block in entries.values()
                   for line in block.strip().splitlines())


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    """The lines run and the read counts of `RUNS` in `CHILD`, whose exit
    codes it checks."""
    tmp_path = tmp_path_factory.mktemp("reach")
    argvs = []
    for i, (_, command, config, *flags) in enumerate(RUNS):
        argv = [command, "--out", str(tmp_path / str(i)), *flags]
        if config is not None:
            argv += ["--config", cli.write_config(tmp_path, config,
                                                  "config%d.json" % i)]
        argvs.append(argv)
    runs, result = tmp_path / "runs.json", tmp_path / "result.json"
    runs.write_text(json.dumps(argvs))
    proc = subprocess.run([sys.executable, "-c", CHILD, runs, result],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    codes, hit, reads = json.loads(result.read_text())
    assert codes == [run[0] for run in RUNS], proc.stderr
    return hit, reads


def test_every_statement_is_reached_or_listed(child):
    hit, _ = child
    found = Counter(unreached({tuple(entry) for entry in hit}))
    new, stale = found - listed(UNREACHED), listed(UNREACHED) - found
    assert (sorted(new), sorted(stale)) == ([], [])


def test_every_field_is_read_or_listed(child):
    _, reads = child
    found = Counter(key for key, count in reads.items() if count == 0)
    new, stale = found - listed(UNREAD), listed(UNREAD) - found
    assert (sorted(new), sorted(stale)) == ([], [])
