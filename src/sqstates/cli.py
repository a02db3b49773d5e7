"""Command-line front end for the squeezed-state toolkit.

Subcommands
-----------
evolve
    Parameter flow and second moments over a time range -> one CSV.
wigner
    Phase-space portraits of packets and superpositions -> one CSV
    grid per requested time, plus an optional rotation-law report.
statistics
    Number-basis probability tables (Poisson, even/odd Pascal, or the
    full expansion pipeline) -> CSV table plus a JSON moment summary.
expand
    Basis expansion coefficient columns -> CSV plus a JSON table.
demkov
    Focusing-channel density snapshots and focus metrics -> CSVs.
verify
    Run the invariant suite of `sqstates.verify` -> JSON report; the
    process exits 0 only if every check passes.

Every command reads a single JSON config file (``--config``) that is
validated against a schema *before* any computation: unknown keys are
rejected, numbers that are not finite as floats (``Infinity``, ``NaN``,
or a literal such as ``1e400`` that overflows a double) are rejected,
and nothing is written when validation fails.  The schema rules and
messages are JSON Schema Draft 2020-12's, checked by `sqstates._schema`.
Outputs are plain CSV (comma separator, ``.`` decimal point, LF line
endings, mandatory header row) and strict JSON (no ``NaN``).  All
floating-point values are formatted with 17 significant digits, so the
same config (plus ``--seed`` where randomness is involved) reproduces
its CSV output byte for byte.

Exit codes: 0 success, 1 verification failure, 2 usage or config
error, 3 I/O error.  A config that passes the schema but whose numbers
make a computation fail (an ``ArithmeticError``: a ``ZeroDivisionError``
or a `sqstates.states.ScaleRangeError` from an underflowed scale, an
overflowing overlap matrix, or an internal cross-check lost to roundoff)
also exits 2, with a one-line message that
names the config field or block behind it, and no traceback.  Grids
and flow tables are computed, checked and written one block of rows at
a time, so a check that spans a whole grid ends after its file is
written.  So `main`, the one owner of a run, validates the subcommand's
top-level schema, opens one staging directory (`sqstates._csv.staged`),
and calls the subcommand's handler, which writes only there and returns
its file names.  Only when the whole run has succeeded does `main` move
the files into ``--out`` and print a ``wrote`` line for each, in the
handler's order (``verify`` prints its summary first): a failure leaves
no output behind, and files already in ``--out`` stay.  Staging starts
before the handler runs, so an ``--out`` that is, or lies under, a file
exits 3 before any config check made in a handler, and before anything
is computed.  ``wigner`` and ``demkov`` write their grid
files side by side, one forked worker per file
(`sqstates._csv.run_tasks`); the error reported is the one a
file-by-file loop would raise first, and a worker that dies without a
result is an I/O error (exit 3) that names its file.  Staging and
fan-out are decided here only: each grid task calls a library writer
that writes one file to the path it is given.  Each warning a run
raises, here or in a worker, is one stderr line,
``warning: <category>: <message>``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings

import numpy as np

from . import _schema, verify
from ._csv import BLOCK_ROWS, fields, run_tasks, staged, write_csv
from .channel import (
    ChannelParameters,
    _channel_norm,
    focus_metrics,
    write_snapshot_csv,
)
from .ermakov import MAX_TIME, ErmakovParameters, classical_trajectory, evolve
from .fockexp import (
    PhotonStatistics,
    _M_MAX,
    expansion_table,
    pascal_even,
    pascal_odd,
    poisson_statistics,
    table_to_dict,
    write_statistics_csv,
)
from .phasespace import (
    _check_coeffs,
    default_grid,
    tcs_center,
    write_superposition_csv,
    write_tcs_csv,
)
from .specfun import MAX_DEGREE
from .states import ScaleRangeError, TCSState, covariance

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3

#: Seed used by ``verify`` when neither the config nor --seed gives one.
DEFAULT_SEED = 20240817
#: The values of the config fields ``points``, ``truncation``, ``spread``
#: and ``levels`` if unset.
DEFAULT_POINTS, DEFAULT_TRUNCATION = 201, 128
DEFAULT_SPREAD, DEFAULT_LEVELS = 5.0, 64

class ConfigError(ValueError):
    """A config file failed validation; the message names the field."""


# ----------------------------------------------------------------------
# config schemas
# ----------------------------------------------------------------------

_NUMBER = {"type": "number"}
#: A scale, a spread or a width.
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}


def _closed(properties: dict, *required: str) -> dict:
    """An object schema that takes only ``properties`` and needs ``required``.

    The keyword order is part of the messages: `_schema.best_match`
    breaks a tie between failures at one path in keyword order, so a
    missing key is reported before an unknown one.
    """
    return {"type": "object", "properties": properties,
            "required": list(required), "additionalProperties": False}


# Size caps; larger requests are config errors, not allocation failures
# or runs of unbounded length.  Grids and tables are written in row
# blocks, so the largest admissible runs peak near 40 MB (16 frames of
# 1001 x 1001 with the rotation check, or a million evolve rows; see
# README.md for the measurements).
MAX_ROWS = 1_000_000
MAX_POINTS = 1001
MAX_TIMES = 16
# A superposition costs terms^2 cross-function evaluations per mesh cell.
MAX_TERMS = 16

_POINTS = {"type": "integer", "minimum": 2, "maximum": MAX_POINTS}
_LEVEL = {"type": "integer", "minimum": 0, "maximum": MAX_DEGREE}
_TRUNCATION = {"type": "integer", "minimum": 2, "maximum": MAX_DEGREE}

_PARAM_BLOCK = _closed({
    "alpha": _NUMBER,
    "beta": _POSITIVE,
    "gamma": _NUMBER,
    "delta": _NUMBER,
    "epsilon": _NUMBER,
    "kappa": _NUMBER,
}, "alpha", "beta", "gamma", "delta", "epsilon", "kappa")

_TIME_LIST = {"type": "array", "items": _NUMBER, "minItems": 1,
              "maxItems": MAX_TIMES}

# A time at which the parameter flow is evaluated (see ermakov.MAX_TIME).
_FLOW_TIME = {"type": "number", "minimum": -MAX_TIME, "maximum": MAX_TIME}

_PAIR = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}

#: The ``kind`` or ``mode`` key of a variant block: `_validate_variant`
#: matches it to a schema before it checks the block.
_VARIANT = {}

_EVOLVE_SCHEMA = _closed({
    "params": _PARAM_BLOCK,
    "times": _closed({
        "start": _FLOW_TIME,
        "stop": _FLOW_TIME,
        "count": {"type": "integer", "minimum": 1, "maximum": MAX_ROWS},
    }, "start", "stop", "count"),
}, "params", "times")

_WIGNER_SCHEMA = _closed({
    "params": _PARAM_BLOCK,
    "state": {"type": "object"},
    "times": _TIME_LIST | {"items": _FLOW_TIME},
    "points": _POINTS,
    "spread": _POSITIVE,
    "rotation_check": {"type": "boolean"},
}, "params", "state", "times")

_STATE_SCHEMAS = {
    "fock": _closed({"kind": _VARIANT, "level": _LEVEL}, "kind", "level"),
    "tcs": _closed({"kind": _VARIANT, "zeta": _PAIR}, "kind", "zeta"),
    "superposition": _closed({
        "kind": _VARIANT,
        "terms": {
            "type": "array",
            "minItems": 1,
            "maxItems": MAX_TERMS,
            "items": _closed({"level": _LEVEL, "amplitude": _PAIR},
                             "level", "amplitude"),
        },
    }, "kind", "terms"),
}

def _levels_schema(mode: str) -> dict:
    return {"type": "integer", "minimum": 1, "maximum": _M_MAX[mode]}


def _pascal_schema(mode: str) -> dict:
    return _closed({
        "mode": _VARIANT,
        "sigma_sum": {"type": "number", "minimum": 1},
        "levels": _levels_schema(mode),
    }, "mode", "sigma_sum")


_STATISTICS_SCHEMAS = {
    "poisson": _closed({
        "mode": _VARIANT,
        "delta0": _NUMBER,
        "epsilon0": _NUMBER,
        "levels": _levels_schema("poisson"),
    }, "mode", "delta0", "epsilon0"),
    "pascal-even": _pascal_schema("pascal-even"),
    "pascal-odd": _pascal_schema("pascal-odd"),
    "full-expansion": _closed({
        "mode": _VARIANT,
        "params": _PARAM_BLOCK,
        "truncation": _TRUNCATION,
    }, "mode", "params"),
}

_EXPAND_SCHEMA = _closed({
    "params": _PARAM_BLOCK,
    "columns": {
        "type": "array",
        "minItems": 1,
        "items": {"type": "integer", "minimum": 0,
                  "maximum": MAX_DEGREE - 1},
    },
    "truncation": _TRUNCATION,
}, "params", "columns")

_DEMKOV_SCHEMA = _closed({
    "channel": _closed({"beta0": _POSITIVE, "delta0": _NUMBER}, "beta0"),
    "times": _TIME_LIST,
    "points": _POINTS,
    "half_width": _POSITIVE,
}, "channel", "times")

_VERIFY_SCHEMA = _closed({"seed": {"type": "integer", "minimum": 0}})


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------

def _load_config(path) -> dict:
    """Read and parse a JSON config; parse failures become ConfigError.

    A config nested deeper than the interpreter's recursion limit, which
    ``json.loads`` or `_nonfinite` cannot descend, is one such failure.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
        bad = _nonfinite(data, ()) if isinstance(data, dict) else None
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc) from exc
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply to read: %s"
                          % exc) from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    if bad is not None:
        raise ConfigError("%s: non-finite number is not allowed in a config "
                          "(Infinity, NaN, or a literal beyond the range of "
                          "a double)" % _schema.json_path("config", bad))
    return data


def _nonfinite(value, path):
    """Path of the first number whose float value is not finite, or None.

    ``json.loads`` reads ``Infinity`` and ``NaN``, turns a literal such as
    ``1e400`` into ``inf``, and keeps a 400-digit integer exact.
    """
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            found = _nonfinite(item, path + (key,))
            if found is not None:
                return found
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return None if math.isfinite(value) else path
    except OverflowError:  # an integer beyond the float range
        return path


def _validate(instance, schema, where: str = "config") -> None:
    """Schema-check a block; the error message names the offending field."""
    error = _schema.best_match(instance, schema)
    if error is not None:
        path, message = error
        raise ConfigError("%s: %s" % (_schema.json_path(where, path), message))


def _validate_variant(block: dict, key: str, schemas: dict, where: str) -> str:
    """Schema-check a block against the variant its ``key`` names.

    Returns the variant's name; a ``key`` that names none of ``schemas``
    is a config error.
    """
    variant = block.get(key)
    if not isinstance(variant, str) or variant not in schemas:
        raise ConfigError("%s.%s must be one of %s, got %r"
                          % (where, key, sorted(schemas), variant))
    _validate(block, schemas[variant], where)
    return variant


def _params_of(block: dict) -> ErmakovParameters:
    return ErmakovParameters(**{k: float(v) for k, v in block.items()})


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("--grid expects two comma-separated counts, NX,NP")
    try:
        nx, np_ = (int(s) for s in parts)
    except ValueError as exc:
        raise ConfigError("--grid counts must be integers: %s" % text) from exc
    low, high = _POINTS["minimum"], _POINTS["maximum"]
    if not (low <= nx <= high and low <= np_ <= high):
        raise ConfigError("--grid counts must be in [%d, %d], got %s"
                          % (low, high, text))
    return nx, np_


@contextlib.contextmanager
def _blame(block: str, scale: str | None = None,
           nonfinite: str | None = None):
    """Report an ArithmeticError raised inside as a config error.

    The message names ``scale`` for a ZeroDivisionError or a
    ScaleRangeError (the one field whose derived scale can leave the
    float range, to a zero divisor or a zero second moment),
    ``nonfinite`` for a FloatingPointError (a grid block that is not
    finite), and the config ``block`` for every other arithmetic failure.
    """
    try:
        yield
    except ArithmeticError as exc:
        field = block
        if scale and isinstance(exc, (ZeroDivisionError, ScaleRangeError)):
            field = scale
        elif nonfinite and isinstance(exc, FloatingPointError):
            field = nonfinite
        raise ConfigError("%s: arithmetic failure (%s: %s)"
                          % (field, type(exc).__name__, exc)) from exc


def _show_warning(message, category, filename, lineno, file=None,
                  line=None) -> None:
    """Show a warning as one stderr line, without its source location."""
    print("warning: %s: %s" % (category.__name__, message), file=sys.stderr)


def _write_text(path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _json_dumps(payload) -> str:
    # a NaN or an infinity would be written as bare NaN/Infinity, not JSON
    return json.dumps(payload, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

_EVOLVE_HEADER = ("t,alpha,beta,gamma,delta,epsilon,kappa,"
                  "sigma_p,sigma_x,sigma_px,product,x_mean,p_mean")


#: Flow rows evaluated, checked, formatted and written together.  A flow
#: row costs far less than a mesh row, so the per-block cost of the
#: array route is spread over more rows.
FLOW_ROWS = 32 * BLOCK_ROWS


def _flow_columns(p0: ErmakovParameters, ts: np.ndarray) -> tuple:
    """The columns of ``evolve.csv`` at ``ts``; a non-finite row raises."""
    p = evolve(p0, ts)
    cov = covariance(p)
    x_mean, p_mean = classical_trajectory(p0, ts)
    columns = (ts, p.alpha, p.beta, p.gamma, p.delta, p.epsilon, p.kappa,
               cov.sigma_p, cov.sigma_x, cov.sigma_px,
               cov.sigma_p * cov.sigma_x, x_mean, p_mean)
    finite = np.logical_and.reduce([np.isfinite(c) for c in columns])
    if not finite.all():
        raise FloatingPointError("non-finite flow value at t = %r"
                                 % ts[np.argmin(finite)].item())
    return columns


def _flow_rows(p0: ErmakovParameters, ts: np.ndarray):
    """The rows of ``evolve.csv`` at the times ``ts``, as row tuples.

    The block is checked whole; if it fails, it is evaluated again one
    time at a time: a block of one raises the scalar error of its time.
    """
    try:
        columns = _flow_columns(p0, ts)
    except (ArithmeticError, ValueError):
        for i in range(len(ts)):
            _flow_columns(p0, ts[i:i + 1])
        raise
    # as Python floats a few rows at a time: a whole block of them
    # raised the process's peak by about 0.4 MB
    return (row for i in range(0, len(ts), BLOCK_ROWS)
            for row in zip(*[c[i:i + BLOCK_ROWS].tolist() for c in columns]))


def cmd_evolve(config: dict, args, stage: str) -> tuple[list, int]:
    """Tabulate the parameter flow and its second moments over a range."""
    p0 = _params_of(config["params"])
    block = config["times"]
    ts = np.linspace(float(block["start"]), float(block["stop"]),
                     int(block["count"]))
    row = fields(13) + "\n"

    def lines():
        for i0 in range(0, len(ts), FLOW_ROWS):
            yield from map(row.__mod__, _flow_rows(p0, ts[i0:i0 + FLOW_ROWS]))

    # covariance divides by beta(t)^2, which underflows for a tiny beta;
    # the rows are computed as they are written, and numpy's overflow
    # warnings are silenced because every block is checked to be finite
    with _blame("config.params", scale="config.params.beta"), \
            np.errstate(all="ignore"):
        write_csv(os.path.join(stage, "evolve.csv"), _EVOLVE_HEADER, lines())
    return ["evolve.csv"], EXIT_OK


def cmd_wigner(config: dict, args, stage: str) -> tuple[list, int]:
    """Write one phase-space grid per requested time.

    The state block selects a packet (``tcs``), a single basis state
    (``fock``), or a normalized superposition; grids are sized from the
    state's own second moments.  With ``rotation_check`` the evolved
    portrait is also compared against the rigidly rotated initial one
    and the largest deviation per time goes into a JSON report.
    """
    state = config["state"]
    kind = _validate_variant(state, "kind", _STATE_SCHEMAS, "config.state")

    p0 = _params_of(config["params"])
    points = int(config.get("points", DEFAULT_POINTS))
    shape = _parse_grid(args.grid) if args.grid else (points, points)
    spread = float(config.get("spread", DEFAULT_SPREAD))
    want_rotation = bool(config.get("rotation_check", False))
    times = [float(t) for t in config["times"]]

    if kind == "tcs" and want_rotation:
        raise ConfigError("config.rotation_check: the rotation report "
                          "needs a basis-state superposition")
    if kind == "fock":
        coeffs = [(1.0 + 0.0j, int(state["level"]))]
    elif kind == "superposition":
        coeffs = [(complex(term["amplitude"][0], term["amplitude"][1]),
                   int(term["level"])) for term in state["terms"]]
        try:
            _check_coeffs(coeffs)
        except ValueError as exc:
            raise ConfigError("config.state.terms: %s" % exc) from exc
    names = ["wigner_t%d.csv" % i for i in range(len(times))]
    levels = (0,) if kind == "tcs" else tuple(n for _, n in coeffs)

    def grid(t, center=None):
        try:
            return default_grid(p0, t, levels, shape, spread, center)
        except ValueError as exc:
            raise ConfigError("%s: %s" % (collapsed_by(t, center), exc)) \
                from exc

    def collapsed_by(t, center):
        # an axis collapses where its spacing is lost against its centre:
        # a spread too small for the mesh shows even at the origin; else
        # the centre is too far out, put there by a packet's displacement
        # zeta or by the classical orbit of the params
        def builds(at):
            try:
                default_grid(p0, t, levels, shape, spread, at)
            except ValueError:
                return False
            return True

        if not builds((0.0, 0.0)):
            return "config.spread"
        if center is not None and builds(None):
            return "config.state.zeta"
        return "config.params"

    def frame(path, t):
        # one worker task per time: size the grid, then compute, check
        # and write it; returns the rotation error (None without check)
        def task():
            if kind == "tcs":
                return write_tcs_csv(path, s, grid(t, tcs_center(s, t)), t)
            return write_superposition_csv(path, coeffs, p0, grid(t), t,
                                           want_rotation)
        return task

    # the grid sizing divides by beta(t)^2, which underflows for a tiny
    # beta; numpy's overflow warnings are silenced because every grid
    # block is checked to be finite before it is written
    with _blame("config.params", scale="config.params.beta",
                nonfinite="config.state"), \
            np.errstate(all="ignore"):
        if kind == "tcs":
            s = TCSState(complex(state["zeta"][0], state["zeta"][1]), p0)
        rotation_errors = run_tasks({
            name: frame(os.path.join(stage, name), t)
            for name, t in zip(names, times)})
        if want_rotation:
            names.append("rotation_report.json")
            _write_text(os.path.join(stage, names[-1]), _json_dumps({
                "times": times,
                "max_error_per_time": rotation_errors,
                "max_error": max(rotation_errors),
            }))
    return names, EXIT_OK


def cmd_statistics(config: dict, args, stage: str) -> tuple[list, int]:
    """Write a (level, probability) table and its JSON moment summary.

    The closed-form modes (``poisson``, ``pascal-even``, ``pascal-odd``)
    report the exact full-distribution mean and variance, and one minus
    the stored probabilities as ``tail_mass``; the ``full-expansion``
    mode builds the table from the coefficient pipeline instead, writes
    the level weights of its column 0 (`ExpansionTable.weights`, the
    ``probability`` column of ``expand``), reports the moments of the
    *stored* rows, and reports the table's own weighted mass beyond the
    truncation, ``tail_mass[0]``, as ``tail_mass``.
    """
    mode = _validate_variant(config, "mode", _STATISTICS_SCHEMAS, "config")

    if mode == "full-expansion":
        truncation = int(config.get("truncation", DEFAULT_TRUNCATION))
        p0 = _params_of(config["params"])
        with _blame("config.params"):
            table = expansion_table(p0, (0,), size=truncation)
            probs = table.weights[:, 0]
            m = np.arange(truncation, dtype=float)
            mean = float(probs @ m)
            variance = float(probs @ (m * m)) - mean * mean
            stats = PhotonStatistics(probs, mean, variance)
            tail = float(table.tail_mass[0])
    else:
        levels = int(config.get("levels", DEFAULT_LEVELS))
        if mode == "poisson":
            delta0 = float(config["delta0"])
            epsilon0 = float(config["epsilon0"])
            # the mean level overflows through the larger displacement
            field = ("config.delta0" if abs(delta0) >= abs(epsilon0)
                     else "config.epsilon0")
            with _blame(field):
                stats = poisson_statistics(delta0, epsilon0, levels)
        else:
            law = pascal_even if mode == "pascal-even" else pascal_odd
            with _blame("config.sigma_sum"):
                stats = law(float(config["sigma_sum"]), levels)
        tail = stats.tail
    write_statistics_csv(os.path.join(stage, "statistics.csv"), stats)
    _write_text(os.path.join(stage, "statistics.json"), _json_dumps({
        "mode": mode,
        "mean": stats.mean,
        "variance": stats.variance,
        "tail_mass": tail,
    }))
    return ["statistics.csv", "statistics.json"], EXIT_OK


def cmd_expand(config: dict, args, stage: str) -> tuple[list, int]:
    """Write expansion coefficient columns as CSV plus a JSON table.

    The ``probability`` column is the reconstruction-weighted magnitude
    |beta0| |c_mn|^2, i.e. the occupation probability of basis level m
    for the state labelled n.
    """
    columns = [int(n) for n in config["columns"]]
    if len(set(columns)) != len(columns):
        raise ConfigError("config.columns: labels must be distinct")
    truncation = int(config.get("truncation", DEFAULT_TRUNCATION))
    for n in columns:
        if n >= truncation:
            raise ConfigError("config.columns: column %d is not below the "
                              "truncation %d" % (n, truncation))
    p0 = _params_of(config["params"])
    with _blame("config.params"):
        table = expansion_table(p0, tuple(columns), size=truncation)

    row = "%d,%d," + fields(3) + "\n"
    weights = table.weights
    lines = []
    for j, n in enumerate(table.columns):
        column = table.coeffs[:, j]
        for m, (re, im, w) in enumerate(zip(column.real.tolist(),
                                            column.imag.tolist(),
                                            weights[:, j].tolist())):
            lines.append(row % (m, n, re, im, w))
    write_csv(os.path.join(stage, "expansion.csv"),
              "m,n,real,imag,probability", lines)
    _write_text(os.path.join(stage, "expansion.json"),
                _json_dumps(table_to_dict(table)))
    return ["expansion.csv", "expansion.json"], EXIT_OK


def cmd_demkov(config: dict, args, stage: str) -> tuple[list, int]:
    """Write channel density snapshots plus a focus-metrics table.

    Every metrics row is computed before any snapshot.  Each snapshot
    is one task of `run_tasks`, written one row block at a time by
    `channel.write_snapshot_csv` into the run's one staging directory;
    ``metrics.csv`` is written last.  All snapshots share one
    square grid sized for the widest frame (see
    `channel.write_snapshot_csv`), which under-resolves a strong focus: at
    beta0 = 0.1 the half-width is 60, a 401-point grid is 0.3 apart and
    the waist's rms width is 0.071.  The ``norm`` column of
    ``metrics.csv`` integrates on its own adaptive mesh and stays
    meaningful; set ``half_width`` in the config to resolve the waist in
    the snapshots.
    """
    block = config["channel"]
    c = ChannelParameters(**{k: float(v) for k, v in block.items()})
    times = [float(t) for t in config["times"]]
    points = int(config.get("points", DEFAULT_POINTS))
    half_width = config.get("half_width")
    if half_width is not None:
        half_width = float(half_width)

    row = fields(5) + "\n"
    names = ["snapshot_t%d.csv" % i for i in range(len(times))]
    names.append("metrics.csv")

    def frame(path, t):
        return lambda: write_snapshot_csv(path, c, t, points, half_width)

    # the envelope divides by beta0^2, which underflows for a tiny beta0;
    # numpy's overflow warnings are silenced because every metrics row
    # and snapshot block is checked to be finite before it is written
    with _blame("config.channel", scale="config.channel.beta0"), \
            np.errstate(all="ignore"):
        lines = []
        for t in times:
            fm = focus_metrics(c, t)
            values = (t, fm.peak, fm.rms_width, fm.center_x,
                      _channel_norm(c, t))
            if not all(map(math.isfinite, values)):
                raise ArithmeticError("non-finite focus metrics at depth %r"
                                      % (t,))
            lines.append(row % values)
        run_tasks({name: frame(os.path.join(stage, name), t)
                   for name, t in zip(names, times)})
        write_csv(os.path.join(stage, names[-1]),
                  "t,peak,rms_width,center_x,norm", lines)
    return names, EXIT_OK


def cmd_verify(config: dict, args, stage: str) -> tuple[list, int]:
    """Run the invariant suite; write the JSON report; exit 0 iff clean."""
    seed = config.get("seed", DEFAULT_SEED)
    if args.seed is not None:
        if args.seed < _VERIFY_SCHEMA["properties"]["seed"]["minimum"]:
            raise ConfigError("--seed must be a non-negative integer, got %d"
                              % args.seed)
        seed = args.seed
    report = verify.run_verification(int(seed))
    # a non-finite error has failed its check; JSON writes it as null
    _write_text(os.path.join(stage, "verify_report.json"), _json_dumps(
        dict(report, checks=[
            dict(e, max_error=e["max_error"] if math.isfinite(e["max_error"])
                 else None) for e in report["checks"]])))

    for entry in report["checks"]:
        print("%s %-28s max_error=%.3e tolerance=%.0e (%.2fs)%s" % (
            "ok  " if entry["passed"] else "FAIL", entry["name"],
            entry["max_error"], entry["tolerance"],
            entry["runtime_seconds"],
            " error: " + entry["error"] if "error" in entry else ""))
    if report["all_passed"]:
        print("all %d checks passed (seed %d)" % (len(report["checks"]),
                                                  report["seed"]))
        return ["verify_report.json"], EXIT_OK
    failed = [e["name"] for e in report["checks"] if not e["passed"]]
    print("FAILED checks: %s (seed %d)" % (", ".join(failed), report["seed"]))
    return ["verify_report.json"], EXIT_VERIFY


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------

_FLAGS = {
    "--grid": {"metavar": "NX,NP", "help": "override the grid point counts"},
    "--seed": {"type": int, "help": "seed for the random parameter draws"},
}

#: Each subcommand once: its handler, the schema `main` checks its
#: config against (None where the handler picks a variant schema
#: itself), its help text and its one extra flag, if any.  A table or
#: grid size has one source, its config field; only ``wigner``'s
#: non-square mesh needs a flag.
_COMMANDS = {
    "evolve": (cmd_evolve, _EVOLVE_SCHEMA,
               "tabulate the parameter flow and second moments", None),
    "wigner": (cmd_wigner, _WIGNER_SCHEMA,
               "write phase-space grids (and a rotation report)", "--grid"),
    "statistics": (cmd_statistics, None,
                   "write number-basis probability tables", None),
    "expand": (cmd_expand, _EXPAND_SCHEMA,
               "write basis expansion coefficient tables", None),
    "demkov": (cmd_demkov, _DEMKOV_SCHEMA,
               "write focusing-channel snapshots and metrics", None),
    "verify": (cmd_verify, _VERIFY_SCHEMA,
               "run the cross-module invariant suite", "--seed"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqstates",
        description="Squeezed-state evolution, phase-space grids, photon "
                    "statistics, and the invariant verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, schema, help_text, flag) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        # a config may be left out only where the empty one is valid
        p.add_argument("--config", required=schema is None
                       or bool(schema["required"]),
                       help="path to the JSON config file")
        p.add_argument("--out", default=".",
                       help="output directory (created if missing)")
        if flag is not None:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    """Entry point: run one subcommand (see above); return the exit code."""
    args = build_parser().parse_args(argv)
    handler, schema = _COMMANDS[args.command][:2]
    try:
        config = _load_config(args.config) if args.config else {}
        if schema is not None:
            _validate(config, schema)
        with staged(args.out) as stage, warnings.catch_warnings():
            warnings.showwarning = _show_warning
            names, code = handler(config, args, stage)
        for name in names:
            print("wrote %s" % os.path.join(args.out, name))
        return code
    except ValueError as exc:
        # a ConfigError, or a domain rejection raised while computing
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        # the config passed the schema but its numbers break a computation
        print("config error: arithmetic failure (%s: %s)"
              % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
