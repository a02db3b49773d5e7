"""Property tests of the six subcommands over their schema boxes.

Configs are drawn near the box each schema admits and filtered by the
package's own validator (`sqstates._schema.best_match`), so every run
below is of a config the schema accepts.  Each run of `cli.main`, in
process, must either exit 0 with every CSV cell finite, or exit 2 or 3
with one stderr line that names a config field (or reports an I/O
error) and with nothing written; a JSON output holds no ``NaN`` or
infinity either.  Grids are at most 9 x 9, runs at most two times long,
tables at most 512 rows by three columns and flow tables at most 64
rows, so each example takes milliseconds.  `wigner` also draws
``--grid`` values, valid ones and ones the flag turns away.  `verify`
runs one seeded check of its suite on configs and ``--seed`` values
drawn on both sides of its schema's edges.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from sqstates import _schema, verify
from sqstates.cli import (
    DEFAULT_SEED,
    MAX_POINTS,
    _DEMKOV_SCHEMA,
    _EVOLVE_SCHEMA,
    _EXPAND_SCHEMA,
    _STATE_SCHEMAS,
    _STATISTICS_SCHEMAS,
    _WIGNER_SCHEMA,
    main,
)
from sqstates.ermakov import MAX_TIME
from sqstates.fockexp import TruncationWarning
from sqstates.specfun import MAX_DEGREE

#: Any double the config reader accepts.
NUMBER = st.floats(allow_nan=False, allow_infinity=False)
#: Doubles from 0 up; the schemas' exclusive minimum turns 0 away.
POSITIVE = st.floats(min_value=0.0, allow_infinity=False)
POINTS = st.integers(min_value=2, max_value=9)
#: Table sizes: small ones, which the moderate levels often reach, or any.
TRUNCATION = st.one_of(st.integers(2, 12), st.integers(2, MAX_DEGREE))
#: Statistics table lengths, filtered by each mode's own cap.
LEVELS = st.one_of(st.integers(0, 12), st.integers(0, 2 * MAX_DEGREE))


class Scale:
    """Where one config draws all its free numbers from."""

    def __init__(self, number, positive, level, time):
        self.number, self.positive = number, positive
        self.level, self.time = level, time

    def pair(self):
        return st.lists(self.number, min_size=2, max_size=2)


#: Moderate values, which mostly run to the end, or the whole box.
SCALES = st.sampled_from([
    Scale(st.floats(-4.0, 4.0), st.floats(0.0, 4.0),
          st.integers(0, 8), st.floats(-10.0, 10.0)),
    Scale(NUMBER, POSITIVE, st.integers(0, MAX_DEGREE),
          st.floats(-MAX_TIME, MAX_TIME)),
])

PROPERTY = settings(max_examples=60, derandomize=True, database=None,
                    deadline=None)


def optional(draw, config, key, strategy):
    if draw(st.booleans()):
        config[key] = draw(strategy)


def draw_params(draw, scale):
    params = {name: draw(scale.number)
              for name in ("alpha", "gamma", "delta", "epsilon", "kappa")}
    params["beta"] = draw(scale.positive)
    return params


@st.composite
def superposition(draw, scale):
    """1 to 3 terms; half the draws are scaled to unit norm."""
    levels = draw(st.lists(scale.level, min_size=1, max_size=3))
    amps = [draw(scale.pair()) for _ in levels]
    norm = math.sqrt(sum(a * a + b * b for a, b in amps))
    if draw(st.booleans()) and 0.0 < norm < math.inf:
        amps = [[a / norm, b / norm] for a, b in amps]
    return {"kind": "superposition",
            "terms": [{"level": n, "amplitude": a}
                      for n, a in zip(levels, amps)]}


@st.composite
def evolve_configs(draw):
    scale = draw(SCALES)
    config = {"params": draw_params(draw, scale),
              "times": {"start": draw(scale.time), "stop": draw(scale.time),
                        "count": draw(st.integers(1, 64))}}
    assume(_schema.best_match(config, _EVOLVE_SCHEMA) is None)
    return config


@st.composite
def wigner_configs(draw):
    scale = draw(SCALES)
    params = draw_params(draw, scale)
    state = draw(st.one_of(
        st.fixed_dictionaries({"kind": st.just("fock"),
                               "level": scale.level}),
        st.fixed_dictionaries({"kind": st.just("tcs"),
                               "zeta": scale.pair()}),
        superposition(scale)))
    config = {"params": params, "state": state,
              "times": draw(st.lists(scale.time, min_size=1, max_size=2)),
              "points": draw(POINTS)}
    optional(draw, config, "spread", scale.positive)
    if state["kind"] != "tcs":
        optional(draw, config, "rotation_check", st.booleans())
    assume(_schema.best_match(config, _WIGNER_SCHEMA) is None)
    assume(_schema.best_match(state, _STATE_SCHEMAS[state["kind"]]) is None)
    return config


@st.composite
def grid_flags(draw):
    """A ``wigner --grid`` value and its (NX, NP), or None if turned away."""
    kind = draw(st.sampled_from(["valid", "range", "malformed"]))
    if kind == "valid":
        shape = (draw(POINTS), draw(POINTS))
        return "%d,%d" % shape, shape
    if kind == "range":
        counts = [draw(POINTS), draw(st.sampled_from([0, 1, MAX_POINTS + 1]))]
        if draw(st.booleans()):
            counts.reverse()
        return "%d,%d" % tuple(counts), None
    return draw(st.sampled_from(["7", "3,3,3", "3,x", "2.5,3"])), None


@st.composite
def demkov_configs(draw):
    scale = draw(SCALES)
    channel = {"beta0": draw(scale.positive)}
    optional(draw, channel, "delta0", scale.number)
    config = {"channel": channel,
              "times": draw(st.lists(scale.number, min_size=1, max_size=2)),
              "points": draw(POINTS)}
    optional(draw, config, "half_width", scale.positive)
    assume(_schema.best_match(config, _DEMKOV_SCHEMA) is None)
    return config


@st.composite
def expand_configs(draw):
    scale = draw(SCALES)
    config = {"params": draw_params(draw, scale),
              "columns": draw(st.lists(scale.level, min_size=1, max_size=3,
                                       unique=True))}
    optional(draw, config, "truncation", TRUNCATION)
    assume(_schema.best_match(config, _EXPAND_SCHEMA) is None)
    return config


@st.composite
def statistics_configs(draw):
    scale = draw(SCALES)
    mode = draw(st.sampled_from(sorted(_STATISTICS_SCHEMAS)))
    config = {"mode": mode}
    if mode == "poisson":
        config["delta0"] = draw(scale.number)
        config["epsilon0"] = draw(scale.number)
    elif mode == "full-expansion":
        config["params"] = draw_params(draw, scale)
        optional(draw, config, "truncation", TRUNCATION)
    else:
        config["sigma_sum"] = draw(scale.positive)
    if mode != "full-expansion":
        optional(draw, config, "levels", LEVELS)
    assume(_schema.best_match(config, _STATISTICS_SCHEMAS[mode]) is None)
    return config


#: Seeds of every kind: in range, negative, beyond 64 bits or the double
#: range, integer-valued floats such as 1e300, and values of other types.
SEED_VALUES = st.one_of(
    st.integers(-2**70, 2**70),
    st.integers(2**1023, 2**1100),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e300, 2.0**64, -0.0, -1.0, 0.5]),
    st.none(), st.booleans(), st.text(max_size=3),
    st.lists(st.integers(0, 9), max_size=2),
)


@st.composite
def verify_configs(draw):
    """A seed or none, and sometimes a key the schema does not know."""
    config = {}
    optional(draw, config, "seed", SEED_VALUES)
    if draw(st.integers(0, 5)) == 0:
        config[draw(st.text(min_size=1, max_size=4))] = draw(SEED_VALUES)
    return config


def run(command, config, *flags):
    """Exit code, stderr, the files written and what is left beside them."""
    with tempfile.TemporaryDirectory() as top:
        path = os.path.join(top, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        out = os.path.join(top, "out")
        err = io.StringIO()
        # a short table's warning is part of a clean run
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            code = main([command, "--config", path, "--out", out, *flags])
        files = {}
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name)) as fh:
                    files[name] = fh.read()
        return code, err.getvalue(), files, sorted(os.listdir(top))


def reject(constant):
    raise AssertionError("non-finite %s in a JSON output" % constant)


def check_outcome(command, config, *flags):
    code, err, files, left = run(command, config, *flags)
    if code == 0:
        assert files
        for name, text in files.items():
            if name.endswith(".csv"):
                cells = np.loadtxt(io.StringIO(text), delimiter=",",
                                   skiprows=1, ndmin=2)
                assert np.isfinite(cells).all(), name
            else:
                json.loads(text, parse_constant=reject)
    else:
        assert code in (2, 3), (code, err)
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith(("config error: config.", "i/o error:")), err
        assert left == ["config.json"], left
    return files


@PROPERTY
@given(config=evolve_configs())
def test_evolve_exits_cleanly_over_the_schema_box(config):
    check_outcome("evolve", config)


#: A ground-state config that pins every kind of ``--grid`` value.
GROUND_FOCK = {"params": {"alpha": 0.0, "beta": 1.0, "gamma": 0.0,
                          "delta": 0.0, "epsilon": 0.0, "kappa": 0.0},
               "state": {"kind": "fock", "level": 1}, "times": [0.0]}


@PROPERTY
@given(config=wigner_configs(), grid=st.one_of(st.none(), grid_flags()))
@example(config=GROUND_FOCK, grid=("9,2", (9, 2)))
@example(config=GROUND_FOCK, grid=("0,5", None))
@example(config=GROUND_FOCK, grid=("5,1", None))
@example(config=GROUND_FOCK, grid=("5,%d" % (MAX_POINTS + 1), None))
@example(config=GROUND_FOCK, grid=("7", None))
@example(config=GROUND_FOCK, grid=("3,3,3", None))
@example(config=GROUND_FOCK, grid=("3,x", None))
def test_wigner_exits_cleanly_over_the_schema_box(config, grid):
    if grid is None:
        check_outcome("wigner", config)
        return
    text, shape = grid
    if shape is None:
        code, err, files, left = run("wigner", config, "--grid=" + text)
        assert code == 2, (code, err)
        assert err.startswith("config error: --grid "), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert left == ["config.json"], left
        return
    files = check_outcome("wigner", config, "--grid=" + text)
    for name, body in files.items():
        if name.endswith(".csv"):
            assert body.count("\n") == 1 + shape[0] * shape[1], name


@PROPERTY
@given(config=demkov_configs())
def test_demkov_exits_cleanly_over_the_schema_box(config):
    check_outcome("demkov", config)


@PROPERTY
@given(config=expand_configs())
def test_expand_exits_cleanly_over_the_schema_box(config):
    check_outcome("expand", config)


@PROPERTY
@given(config=statistics_configs())
def test_statistics_exits_cleanly_over_the_schema_box(config):
    check_outcome("statistics", config)


@PROPERTY
@given(config=verify_configs(),
       seed=st.one_of(st.none(), st.integers(-2**70, 2**400)))
def test_verify_exits_cleanly_over_the_schema_box(config, seed):
    # one cheap seeded check stands in for the suite
    cheap = [c for c in verify._CHECKS if c[0] == "variance-extrema"]
    flags = () if seed is None else ("--seed=%d" % seed,)
    with mock.patch.object(verify, "_CHECKS", cheap):
        code, err, files, left = run("verify", config, *flags)
    if code == 0:
        assert list(files) == ["verify_report.json"]
        report = json.loads(files["verify_report.json"], parse_constant=reject)
        expected = config.get("seed", DEFAULT_SEED) if seed is None else seed
        assert report["seed"] == expected
        assert [e["name"] for e in report["checks"]] == ["variance-extrema"]
    else:
        assert code == 2, (code, err)
        assert err.count("\n") == 1 and err.endswith("\n"), err
        # an unknown key at the root is reported at ``config`` itself
        assert err.startswith(("config error: config.", "config error: config:",
                               "config error: --seed")), err
        assert left == ["config.json"], left
