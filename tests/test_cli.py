"""End-to-end tests for the command-line front end.

Each test drives `sqstates.cli.main` in process with a JSON config in a
temp directory and inspects the files it writes; exit codes follow the
documented contract (0 ok, 1 verification failure, 2 config error,
3 I/O error).
"""

import dataclasses
import errno
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sqstates._csv as _csv
import sqstates.channel as channel
import sqstates.cli as cli
import sqstates.phasespace as phasespace
import sqstates.verify as verify
import oracles
from conftest import subprocess_env
from sqstates.cli import main
from sqstates.ermakov import (
    MAX_TIME,
    ErmakovParameters,
    classical_trajectory,
    evolve,
)
from sqstates.states import uncertainty_extrema

GROUND = {"alpha": 0.0, "beta": 1.0, "gamma": 0.0, "delta": 0.0,
          "epsilon": 0.0, "kappa": 0.0}
SQUEEZED = {"alpha": 0.6, "beta": 1.4, "gamma": 0.3, "delta": -0.8,
            "epsilon": 0.5, "kappa": 0.1}
WIGNER_FOCK = {"params": GROUND, "state": {"kind": "fock", "level": 0},
               "times": [0.0]}
DEMKOV_UNIT = {"channel": {"beta0": 1.0}, "times": [0.0]}


def superposition(count):
    """A normalized superposition of the levels 0 .. count - 1."""
    amp = [1.0 / math.sqrt(count), 0.0]
    return {"kind": "superposition",
            "terms": [{"level": n, "amplitude": amp} for n in range(count)]}


def evolve_config(count):
    return {"params": GROUND,
            "times": {"start": 0.0, "stop": 1.0, "count": count}}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestConfigValidation:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"params": {nope')
        assert main(["evolve", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "line 1" in err

    @pytest.mark.parametrize("route", ["json-loads", "nonfinite-scan"])
    def test_deeply_nested_config_is_config_error(self, tmp_path, capsys,
                                                  monkeypatch, route):
        depth = 100_000
        path = tmp_path / "config.json"
        path.write_text('{"a": ' + "[" * depth + "]" * depth + "}")
        if route == "nonfinite-scan":
            # a parsed config as deep, so the scan for non-finite
            # numbers is the first to exceed the recursion limit
            deep = []
            for _ in range(depth):
                deep = [deep]
            monkeypatch.setattr(cli.json, "loads", lambda text: {"a": deep})
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_unknown_field_is_named(self, tmp_path, capsys):
        cfg = {"params": dict(GROUND, surprise=1.0),
               "times": {"start": 0.0, "stop": 1.0, "count": 2}}
        assert main(["evolve", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 2
        assert "surprise" in capsys.readouterr().err

    def test_bad_value_names_the_path(self, tmp_path, capsys):
        cfg = {"params": dict(GROUND, beta=-2.0),
               "times": {"start": 0.0, "stop": 1.0, "count": 2}}
        assert main(["evolve", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 2
        assert "config.params.beta" in capsys.readouterr().err

    def test_missing_field_is_named(self, tmp_path, capsys):
        cfg = {"params": GROUND}
        assert main(["evolve", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 2
        assert "times" in capsys.readouterr().err

    def test_nonfinite_number_rejected(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text('{"params": {"alpha": Infinity}}')
        assert main(["evolve", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_non_object_root_rejected(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["evolve", "--config", str(path),
                     "--out", str(tmp_path)]) == 2
        assert "object" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["nope", 5, [], {}],
                             ids=["string", "number", "list", "object"])
    @pytest.mark.parametrize("command, cfg, field", [
        ("statistics", lambda v: {"mode": v}, "config.mode"),
        ("wigner", lambda v: dict(WIGNER_FOCK, state={"kind": v}),
         "config.state.kind"),
    ], ids=["statistics", "wigner"])
    def test_unknown_variant_is_named(self, tmp_path, capsys, command, cfg,
                                      field, variant):
        # a list or an object cannot key a dict: it used to raise TypeError
        assert main([command, "--config", write_config(tmp_path, cfg(variant)),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: %s must be one of [" % field)
        assert err.endswith(", got %r\n" % (variant,))
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["evolve", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path)]) == 3

    def test_unwritable_out_is_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cfg = {"params": GROUND,
               "times": {"start": 0.0, "stop": 1.0, "count": 2}}
        assert main(["evolve", "--config", write_config(tmp_path, cfg),
                     "--out", str(blocker)]) == 3

    def test_bad_grid_flag(self, tmp_path, capsys):
        cfg = {"params": GROUND, "state": {"kind": "fock", "level": 0},
               "times": [0.0]}
        assert main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path), "--grid", "7"]) == 2
        assert "--grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cfg", [
        # beta^2 underflows to 0 in the covariance
        ("evolve", {"params": dict(GROUND, beta=1e-200),
                    "times": {"start": 0.0, "stop": 1.0, "count": 3}}),
        # delta0/beta0 = 3e7: the displacement overlaps overflow
        ("expand", {"params": dict(GROUND, beta=1e-6, delta=30.0,
                                   epsilon=-30.0),
                    "columns": [0, 1], "truncation": 128}),
        # beta^4 underflows to 0, and with it sigma_p
        ("evolve", {"params": dict(GROUND, beta=1e-150),
                    "times": {"start": 0.0, "stop": 1.0, "count": 3}}),
        ("wigner", {"params": dict(GROUND, beta=1e-150),
                    "state": {"kind": "fock", "level": 1}, "times": [0.0],
                    "points": 5}),
    ])
    def test_arithmetic_failure_is_config_error(self, tmp_path, capsys,
                                                command, cfg):
        field = {"evolve": "config.params.beta",
                 "wigner": "config.params.beta",
                 "expand": "config.params"}[command]
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: %s: " % field)
        assert "arithmetic failure" in err and err.count("\n") == 1
        assert not out.exists()

    def test_size_caps_are_admissible(self):
        # schema and flag parsing only: a run at the caps is never made
        cli._validate(dict(WIGNER_FOCK, times=[0.0] * cli.MAX_TIMES,
                           points=cli.MAX_POINTS), cli._WIGNER_SCHEMA)
        cli._validate(dict(DEMKOV_UNIT, times=[0.0] * cli.MAX_TIMES,
                           points=cli.MAX_POINTS), cli._DEMKOV_SCHEMA)
        cli._validate(evolve_config(cli.MAX_ROWS), cli._EVOLVE_SCHEMA)
        cli._validate(superposition(cli.MAX_TERMS),
                      cli._STATE_SCHEMAS["superposition"])
        top = "%d,%d" % (cli.MAX_POINTS, cli.MAX_POINTS)
        assert cli._parse_grid(top) == (cli.MAX_POINTS, cli.MAX_POINTS)

    @pytest.mark.parametrize("command, cfg, flags, field", [
        ("evolve", evolve_config(cli.MAX_ROWS + 1), [], "config.times.count"),
        ("wigner", dict(WIGNER_FOCK, points=cli.MAX_POINTS + 1), [],
         "config.points"),
        ("demkov", dict(DEMKOV_UNIT, points=cli.MAX_POINTS + 1), [],
         "config.points"),
        ("wigner", dict(WIGNER_FOCK, times=[0.0] * (cli.MAX_TIMES + 1)), [],
         "config.times"),
        ("demkov", dict(DEMKOV_UNIT, times=[0.0] * (cli.MAX_TIMES + 1)), [],
         "config.times"),
        ("wigner", WIGNER_FOCK, ["--grid", "%d,2" % (cli.MAX_POINTS + 1)],
         "--grid"),
        ("wigner", WIGNER_FOCK, ["--grid", "2,%d" % (cli.MAX_POINTS + 1)],
         "--grid"),
        ("expand", {"params": GROUND, "columns": [0],
                    "truncation": cli.MAX_DEGREE + 1}, [],
         "config.truncation"),
        ("wigner", dict(WIGNER_FOCK, state=superposition(cli.MAX_TERMS + 1)),
         [], "config.state.terms"),
    ])
    def test_size_cap_plus_one_is_config_error(self, tmp_path, capsys,
                                               monkeypatch, command, cfg,
                                               flags, field):
        # the first compute step of each command fails loudly, so a
        # missing cap cannot turn into an oversized allocation
        def reached(*args, **kwargs):
            raise AssertionError("compute reached past the size cap")

        for name in ("evolve", "default_grid", "focus_metrics",
                     "write_snapshot_csv", "expansion_table"):
            monkeypatch.setattr(cli, name, reached)
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.split()[2].rstrip(":") == field
        assert err.count("\n") == 1
        assert not out.exists()

    def test_unknown_subcommand_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command, cfg, flags", [
        ("statistics", {"mode": "poisson", "delta0": 1.0, "epsilon0": 0.0},
         ["--truncation", "25"]),
        ("expand", {"params": GROUND, "columns": [0]},
         ["--truncation", "6"]),
        ("demkov", DEMKOV_UNIT, ["--grid", "21,21"]),
    ])
    def test_size_flags_are_usage_errors(self, tmp_path, capsys, command,
                                         cfg, flags):
        # a table or grid size is set by its config field alone
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([command, "--config", write_config(tmp_path, cfg),
                  "--out", str(out)] + flags)
        assert info.value.code == 2
        assert "unrecognized arguments: %s" % " ".join(flags) \
            in capsys.readouterr().err
        assert not out.exists()


def raw_config(tmp_path, payload, literal):
    """A config file whose one ``"@"`` value is the raw JSON ``literal``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload).replace('"@"', literal))
    return str(path)


class TestNonFiniteNumbers:
    """Overflowing input fails with the field named and writes nothing."""

    # a numpy RuntimeWarning on the way would be an extra stderr line
    pytestmark = pytest.mark.filterwarnings("error")

    @pytest.mark.parametrize("payload, literal, field", [
        (evolve_config(3) | {"times": {"start": 0.0, "stop": "@",
                                       "count": 3}},
         "1e400", "config.times.stop"),
        (evolve_config(3) | {"params": dict(GROUND, beta="@")},
         "1e400", "config.params.beta"),
        (evolve_config(3) | {"params": dict(GROUND, delta="@")},
         "1" + "0" * 400, "config.params.delta"),
        ({"params": GROUND, "state": {"kind": "tcs", "zeta": [0.0, "@"]},
          "times": [0.0]}, "-1e400", "config.state.zeta[1]"),
        (evolve_config(3) | {"params": dict(GROUND, kappa="@")},
         "NaN", "config.params.kappa"),
    ], ids=["stop", "beta", "400-digit-delta", "zeta", "nan"])
    def test_nonfinite_literal_rejected_at_load(self, tmp_path, capsys,
                                                  payload, literal, field):
        command = "wigner" if "state" in payload else "evolve"
        out = tmp_path / "out"
        assert main([command, "--config", raw_config(tmp_path, payload,
                                                     literal),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: %s: non-finite" % field)
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, cfg, field", [
        ("statistics", {"mode": "poisson", "delta0": 1e200, "epsilon0": 0},
         "config.delta0"),
        ("statistics", {"mode": "poisson", "delta0": 1, "epsilon0": -1e200},
         "config.epsilon0"),
        ("statistics", {"mode": "pascal-even", "sigma_sum": 1e308},
         "config.sigma_sum"),
        ("statistics", {"mode": "pascal-odd", "sigma_sum": 1e308},
         "config.sigma_sum"),
        ("demkov", {"channel": {"beta0": 1e300}, "times": [0.5],
                    "points": 5}, "config.channel"),
        ("demkov", {"channel": {"beta0": 1.0}, "times": [0.5], "points": 5,
                    "half_width": 1.7e308}, "config.channel"),
        # an underflowed Gaussian times an overflowed Laguerre value: the
        # grid held 2048 NaN cells of 2601 when it was not checked
        ("wigner", {"params": GROUND, "state": {"kind": "fock", "level": 200},
                    "times": [0.0], "points": 51}, "config.state"),
    ], ids=["poisson-delta0", "poisson-epsilon0", "pascal-even",
            "pascal-odd", "demkov-beta0", "demkov-half-width",
            "wigner-fock-200"])
    def test_overflowing_result_is_config_error(self, tmp_path, capsys,
                                                command, cfg, field):
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: %s: arithmetic failure" % field)
        assert err.count("\n") == 1
        assert not out.exists()

    HUGE_ALPHA = dict(GROUND, alpha=1e200)
    # 2 * 512 * gamma(t) overflows in the phase of the level-512 terms
    LEVEL_512 = {"params": GROUND, "points": 5,
                 "state": {"kind": "superposition", "terms": [
                     {"level": 0, "amplitude": [0.6, 0.0]},
                     {"level": 512, "amplitude": [0.0, 0.8]}]}}

    @pytest.mark.parametrize("command, cfg, message", [
        ("evolve", evolve_config(3) | {"params": HUGE_ALPHA},
         "config.params: arithmetic failure"),
        ("evolve", evolve_config(3) | {"times": {"start": 0.0, "stop": 1e308,
                                                 "count": 3}},
         "config.times.stop: 1e+308 is greater than the maximum"),
        ("wigner", WIGNER_FOCK | {"times": [-1e308]},
         "config.times[0]: -1e+308 is less than the minimum"),
        ("expand", {"params": HUGE_ALPHA, "columns": [0]},
         "config.params: arithmetic failure"),
        ("statistics", {"mode": "full-expansion", "params": HUGE_ALPHA},
         "config.params: arithmetic failure"),
        ("wigner", LEVEL_512 | {"times": [4e307]},
         "config.params: arithmetic failure"),
        ("wigner", LEVEL_512 | {"params": dict(GROUND, gamma=1e306),
                                "times": [0.0]},
         "config.params: arithmetic failure"),
        # sigma_p * sigma_x overflows: evolve.csv held inf when unchecked
        ("evolve", evolve_config(3) | {"params": dict(GROUND, alpha=0.3,
                                                      beta=1e-100)},
         "config.params: arithmetic failure"),
    ], ids=["evolve-alpha", "evolve-stop", "wigner-time", "expand-alpha",
            "full-expansion-alpha", "wigner-level-512-time",
            "wigner-level-512-gamma", "evolve-product"])
    def test_huge_finite_input_names_its_field(self, tmp_path, capsys,
                                               command, cfg, message):
        # finite inputs whose flow overflows inside the computation
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + message)
        assert err.count("\n") == 1
        assert not out.exists()

    def test_widest_admissible_time_range_is_finite(self, tmp_path):
        cfg = evolve_config(3) | {"times": {"start": -MAX_TIME,
                                            "stop": MAX_TIME,
                                            "count": 7}}
        assert main(["evolve", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        assert np.all(np.isfinite(read_csv(tmp_path / "evolve.csv")))

    def test_reports_refuse_nan(self):
        with pytest.raises(ValueError):
            cli._json_dumps({"mean": math.nan})


class TestEvolve:
    def test_ground_state_rows_are_constant(self, tmp_path):
        cfg = {"params": GROUND,
               "times": {"start": 0.0, "stop": 4.0 * math.pi, "count": 33}}
        assert main(["evolve", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        header = (tmp_path / "evolve.csv").read_text().splitlines()[0]
        assert header == ("t,alpha,beta,gamma,delta,epsilon,kappa,"
                          "sigma_p,sigma_x,sigma_px,product,x_mean,p_mean")
        rows = read_csv(tmp_path / "evolve.csv")
        assert rows.shape == (33, 13)
        assert rows[:, 7] == pytest.approx(0.5, abs=1e-14)   # sigma_p
        assert rows[:, 8] == pytest.approx(0.5, abs=1e-14)   # sigma_x
        assert rows[:, 10] == pytest.approx(0.25, abs=1e-14)
        assert rows[:, 11:] == pytest.approx(0.0, abs=1e-14)

    def test_product_dips_to_quarter_at_predicted_time(self, tmp_path):
        p0 = ErmakovParameters(**SQUEEZED)
        t_min = uncertainty_extrema(p0).t_min
        cfg = {"params": SQUEEZED,
               "times": {"start": t_min, "stop": t_min, "count": 1}}
        assert main(["evolve", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "evolve.csv")
        assert rows[0, 10] == pytest.approx(0.25, abs=1e-12)

    def test_output_is_byte_identical_across_runs(self, tmp_path):
        cfg = {"params": SQUEEZED,
               "times": {"start": 0.0, "stop": 7.7, "count": 50}}
        path = write_config(tmp_path, cfg)
        for sub in ("a", "b"):
            assert main(["evolve", "--config", path,
                         "--out", str(tmp_path / sub)]) == 0
        assert ((tmp_path / "a" / "evolve.csv").read_bytes()
                == (tmp_path / "b" / "evolve.csv").read_bytes())


    def test_rows_are_the_scalar_route_across_flow_blocks(self, tmp_path):
        count = 2 * cli.FLOW_ROWS + 37
        cfg = {"params": SQUEEZED,
               "times": {"start": -3.0, "stop": 40.0, "count": count}}
        assert main(["evolve", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        p0 = ErmakovParameters(**SQUEEZED)
        row = cli.fields(13) + "\n"
        expected = "".join(row % oracles.flow_row(p0, t)
                           for t in np.linspace(-3.0, 40.0, count).tolist())
        text = (tmp_path / "evolve.csv").read_text()
        assert text == cli._EVOLVE_HEADER + "\n" + expected

    def test_failure_in_second_flow_block_is_the_scalar_error(self, tmp_path,
                                                              capsys):
        # beta^4 underflows; sigma_p is 0 only where alpha(t) is too,
        # at t = 0 exactly, row 1536 of 2049 (times are multiples of 2^-40)
        params = dict(GROUND, beta=1.2e-81)
        start, stop, count = -1536 * 2.0 ** -40, 512 * 2.0 ** -40, 2049
        p0 = ErmakovParameters(**params)
        for i, t in enumerate(np.linspace(start, stop, count).tolist()):
            try:
                oracles.flow_row(p0, t)
            except ArithmeticError as exc:
                error = exc
                break
        assert cli.FLOW_ROWS <= i < 2 * cli.FLOW_ROWS
        out = tmp_path / "out"
        out.mkdir()
        (out / "evolve.csv").write_text("kept\n")
        cfg = {"params": params,
               "times": {"start": start, "stop": stop, "count": count}}
        assert main(["evolve", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: config.params.beta: arithmetic failure (%s: %s)\n"
            % (type(error).__name__, error))
        assert os.listdir(out) == ["evolve.csv"]
        assert (out / "evolve.csv").read_text() == "kept\n"

    def test_nonfinite_row_names_its_time(self, tmp_path, capsys,
                                          monkeypatch):
        # every check of the flow passes; the centroid is made infinite
        # from t = 0.5 on, row 1500 of 3000
        real = cli.classical_trajectory

        def overflowing(p0, t):
            x_mean, p_mean = real(p0, t)
            return x_mean + np.where(np.asarray(t) >= 0.5, math.inf, 0.0), \
                p_mean

        monkeypatch.setattr(cli, "classical_trajectory", overflowing)
        cfg = {"params": SQUEEZED,
               "times": {"start": 0.0, "stop": 1.0, "count": 3000}}
        ts = np.linspace(0.0, 1.0, 3000)
        first = float(ts[ts >= 0.5][0])
        out = tmp_path / "out"
        assert main(["evolve", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: config.params: arithmetic failure "
            "(FloatingPointError: non-finite flow value at t = %r)\n" % first)
        assert not out.exists()


class TestWigner:
    def test_vacuum_peaks_at_centroid(self, tmp_path):
        cfg = {"params": SQUEEZED, "state": {"kind": "fock", "level": 0},
               "times": [0.0], "points": 81}
        assert main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "wigner_t0.csv")
        top = np.argmax(rows[:, 2])
        assert rows[top, 2] == pytest.approx(1.0 / math.pi, abs=1e-12)
        x_mean, p_mean = classical_trajectory(ErmakovParameters(**SQUEEZED),
                                              0.0)
        assert rows[top, 0] == pytest.approx(x_mean, abs=1e-12)
        assert rows[top, 1] == pytest.approx(p_mean, abs=1e-12)

    def test_first_level_dips_to_minus_inverse_pi(self, tmp_path):
        cfg = {"params": GROUND, "state": {"kind": "fock", "level": 1},
               "times": [0.4], "points": 61}
        assert main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "wigner_t0.csv")
        low = np.argmin(rows[:, 2])
        assert rows[low, 2] == pytest.approx(-1.0 / math.pi, abs=1e-9)
        assert rows[low, 0] == pytest.approx(0.0, abs=1e-12)
        assert rows[low, 1] == pytest.approx(0.0, abs=1e-12)

    def test_rotation_report_is_tight(self, tmp_path):
        amp = 1.0 / math.sqrt(2.0)
        cfg = {"params": SQUEEZED,
               "state": {"kind": "superposition",
                         "terms": [{"level": 0, "amplitude": [amp, 0.0]},
                                   {"level": 3, "amplitude": [0.0, amp]}]},
               "times": [0.0, 1.1, 2.6], "points": 41,
               "rotation_check": True}
        assert main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "rotation_report.json").read_text())
        assert report["max_error"] <= 1e-9
        assert len(report["max_error_per_time"]) == 3

    def test_tcs_state_and_grid_override(self, tmp_path):
        cfg = {"params": SQUEEZED, "state": {"kind": "tcs",
                                             "zeta": [0.8, -0.5]},
               "times": [0.7]}
        assert main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path), "--grid", "41,31"]) == 0
        lines = (tmp_path / "wigner_t0.csv").read_text().splitlines()
        assert lines[0] == "x,p,W"
        assert len(lines) == 1 + 41 * 31
        values = np.array([float(l.split(",")[2]) for l in lines[1:]])
        assert values.max() == pytest.approx(1.0 / math.pi, abs=1e-6)

    def test_rotation_check_rejected_for_packets(self, tmp_path, capsys):
        cfg = {"params": GROUND, "state": {"kind": "tcs", "zeta": [1.0, 0.0]},
               "times": [0.0], "rotation_check": True}
        assert main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 2
        assert "rotation" in capsys.readouterr().err

    def test_imaginary_residual_writes_nothing(self, tmp_path, capsys,
                                              monkeypatch):
        # a residual in the first row of each block; the check spans the
        # whole grid, so it fails only after the file has been written
        real = phasespace._superposition_values

        def leaky(pairs, p, x, mom):
            vals = real(pairs, p, x, mom)
            return vals + 1e-6j * (x == np.min(x))

        monkeypatch.setattr(phasespace, "_superposition_values", leaky)
        cfg = {"params": SQUEEZED, "state": superposition(2),
               "times": [0.0], "points": 81}
        out = tmp_path / "out"
        assert main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config.params: ")
        assert "imaginary residual" in err
        assert os.listdir(tmp_path) == ["config.json"]

    def test_unnormalized_superposition_rejected(self, tmp_path, capsys):
        cfg = {"params": GROUND,
               "state": {"kind": "superposition",
                         "terms": [{"level": 0, "amplitude": [1.0, 0.0]},
                                   {"level": 1, "amplitude": [1.0, 0.0]}]},
               "times": [0.0], "points": 21}
        assert main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 2
        assert "normalized" in capsys.readouterr().err

    @pytest.mark.parametrize("terms, message", [
        ([(0, [0.6, 0.0]), (0, [0.8, 0.0])],
         "duplicate basis labels in superposition"),
        ([(0, [0.6, 0.0]), (1, [0.7, 0.0])],
         "coefficients are not normalized: sum |c|^2 = 0.84999999999999987"),
        ([(2, [0.0, 0.0])],
         "coefficients are not normalized: sum |c|^2 = 0"),
        # |c|^2 overflows: this was a bare OverflowError
        ([(0, [0.0, 1.3407807929942597e+154])],
         "coefficients are not normalized: sum |c|^2 = inf"),
    ], ids=["duplicate-level", "unnormalized", "all-zero", "overflowing"])
    def test_bad_terms_name_their_field(self, tmp_path, capsys, monkeypatch,
                                        terms, message):
        def forked(tasks):
            raise AssertionError("workers started for %s" % list(tasks))

        monkeypatch.setattr(cli, "run_tasks", forked)
        cfg = {"params": GROUND, "times": [0.0, 0.5], "points": 5,
               "state": {"kind": "superposition", "terms": [
                   {"level": n, "amplitude": a} for n, a in terms]}}
        out = tmp_path / "out"
        assert main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: config.state.terms: %s\n" % message
        assert os.listdir(tmp_path) == ["config.json"]

    def test_degenerate_spread_names_its_field(self, tmp_path, capsys):
        # the half-widths underflow to 0, so both axes collapse
        cfg = {"params": GROUND, "state": {"kind": "tcs", "zeta": [0.3, 0.1]},
               "times": [0.0], "points": 5, "spread": 1e-320}
        out = tmp_path / "out"
        assert main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: config.spread: x_range must be "
                       "strictly increasing\n")
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("params, state, field", [
        (GROUND, {"kind": "tcs", "zeta": [1e308, 0.0]}, "config.state.zeta"),
        (dict(GROUND, epsilon=1e100), {"kind": "tcs", "zeta": [0.5, 0.0]},
         "config.params"),
        (dict(GROUND, epsilon=1e100), {"kind": "fock", "level": 0},
         "config.params"),
    ], ids=["tcs-zeta", "tcs-orbit", "fock-orbit"])
    def test_far_centre_names_its_cause(self, tmp_path, capsys, params, state,
                                        field):
        # the centre is so far out that a 5-point axis of half-width
        # about 5 loses its spacing, while the spread resolves it
        cfg = {"params": params, "state": state, "times": [0.0],
               "points": 5}
        out = tmp_path / "out"
        assert main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: %s: x_range must be strictly increasing\n" % field)
        assert os.listdir(tmp_path) == ["config.json"]

    def test_overflowing_square_is_the_flow_overflow(self, tmp_path, capsys):
        # the scalar flow squares with float ** 2, which raises
        # OverflowError where an array square would give inf
        params = dict(GROUND, alpha=-2.3e302, beta=2.4e16)
        cfg = {"params": params, "state": {"kind": "fock", "level": 0},
               "times": [6.1e14], "points": 5}
        out = tmp_path / "out"
        assert main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: config.params: arithmetic failure "
            "(ArithmeticError: the flow overflows at t=610000000000000.0: "
            "its denominator leaves the float range)\n")
        assert not out.exists()


class TestStatistics:
    def test_poisson_summary_mean(self, tmp_path):
        nbar = 3.1
        cfg = {"mode": "poisson", "delta0": math.sqrt(2.0 * nbar),
               "epsilon0": 0.0, "levels": 120}
        assert main(["statistics", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "statistics.json").read_text())
        assert summary["mean"] == pytest.approx(nbar, abs=1e-12)
        assert summary["variance"] == pytest.approx(nbar, abs=1e-12)

    def test_pascal_even_support_and_mass(self, tmp_path):
        cfg = {"mode": "pascal-even", "sigma_sum": 40.0, "levels": 1000}
        assert main(["statistics", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "statistics.csv")
        assert rows.shape == (1001, 2)
        assert np.all(rows[1::2, 1] == 0.0)
        assert rows[:, 1].sum() >= 1.0 - 1e-10

    def test_pascal_odd_support_and_moments(self, tmp_path):
        sigma = 7.0
        cfg = {"mode": "pascal-odd", "sigma_sum": sigma, "levels": 301}
        assert main(["statistics", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "statistics.csv")
        assert np.all(rows[0::2, 1] == 0.0)
        summary = json.loads((tmp_path / "statistics.json").read_text())
        assert summary["mean"] == pytest.approx((3 * sigma - 1) / 2, rel=1e-12)
        mean = float(np.sum(rows[:, 0] * rows[:, 1]))
        assert mean == pytest.approx(summary["mean"], abs=1e-10)

    def test_full_expansion_matches_pascal_rows(self, tmp_path):
        a, b = 0.7, 1.3
        full_cfg = {"mode": "full-expansion",
                    "params": {"alpha": a, "beta": b, "gamma": 0.2,
                               "delta": 0.0, "epsilon": 0.0, "kappa": -0.1},
                    "truncation": 41}
        assert main(["statistics", "--config",
                     write_config(tmp_path, full_cfg, "full.json"),
                     "--out", str(tmp_path / "full")]) == 0
        sigma = (1.0 + 4.0 * a * a + b**4) / (2.0 * b * b)
        even_cfg = {"mode": "pascal-even", "sigma_sum": sigma, "levels": 40}
        assert main(["statistics", "--config",
                     write_config(tmp_path, even_cfg, "even.json"),
                     "--out", str(tmp_path / "even")]) == 0
        got = read_csv(tmp_path / "full" / "statistics.csv")
        ref = read_csv(tmp_path / "even" / "statistics.csv")
        assert got.shape == ref.shape == (41, 2)
        assert np.max(np.abs(got - ref)) < 1e-12

    @pytest.mark.parametrize("truncation", [64, 128])
    @pytest.mark.parametrize("params", [
        SQUEEZED,
        {"alpha": -0.4, "beta": 0.8, "gamma": 0.0, "delta": 0.3,
         "epsilon": -0.6, "kappa": 0.2},
        {"alpha": 0.2, "beta": 1.1, "gamma": -0.7, "delta": 0.0,
         "epsilon": 0.4, "kappa": 0.0},
    ], ids=["squeezed", "gamma-zero", "gamma-negative"])
    def test_full_expansion_is_column_zero_of_expand(self, tmp_path, params,
                                                     truncation):
        # one column, its level weights and its tail, by two commands
        stats_cfg = {"mode": "full-expansion", "params": params,
                     "truncation": truncation}
        expand_cfg = {"params": params, "columns": [0],
                      "truncation": truncation}
        assert main(["statistics", "--config",
                     write_config(tmp_path, stats_cfg, "stats.json"),
                     "--out", str(tmp_path / "stats")]) == 0
        assert main(["expand", "--config",
                     write_config(tmp_path, expand_cfg, "expand.json"),
                     "--out", str(tmp_path / "expand")]) == 0

        def column(name, field):
            lines = (tmp_path / name).read_text().splitlines()[1:]
            return [line.split(",")[field] for line in lines]

        assert (column("stats/statistics.csv", 1)
                == column("expand/expansion.csv", 4))
        summary = json.loads((tmp_path / "stats/statistics.json").read_text())
        table = json.loads((tmp_path / "expand/expansion.json").read_text())
        assert summary["tail_mass"] == table["tail_mass"][0]


class TestExpand:
    def test_table_and_weighted_probability(self, tmp_path):
        cfg = {"params": SQUEEZED, "columns": [0, 2], "truncation": 64}
        assert main(["expand", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "expansion.csv")
        assert rows.shape == (128, 5)
        weight = SQUEEZED["beta"]
        assert rows[:, 4] == pytest.approx(
            weight * (rows[:, 2]**2 + rows[:, 3]**2), abs=1e-15)
        payload = json.loads((tmp_path / "expansion.json").read_text())
        assert payload["columns"] == [0, 2]
        assert max(payload["tail_mass"]) < 1e-8
        by_column = rows[:, 4].reshape(2, 64)
        assert by_column.sum(axis=1) == pytest.approx(1.0, abs=1e-8)

    def test_duplicate_columns_rejected(self, tmp_path, capsys):
        cfg = {"params": GROUND, "columns": [1, 1]}
        assert main(["expand", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 2
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("truncation", [2], ids=["config"])
    def test_column_beyond_truncation_names_its_field(
            self, tmp_path, capsys, truncation):
        cfg = {"params": GROUND, "columns": [0, 6], "truncation": truncation}
        out = tmp_path / "out"
        assert main(["expand", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: config.columns: column 6 is not below the "
            "truncation %d\n" % truncation)
        assert not out.exists()


class TestDemkov:
    def test_focus_metrics_and_norm(self, tmp_path):
        half_pi = 0.5 * math.pi
        cfg = {"channel": {"beta0": 0.1, "delta0": 0.0},
               "times": [0.0, half_pi, math.pi], "points": 31}
        assert main(["demkov", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "metrics.csv")
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == "t,peak,rms_width,center_x,norm"
        assert rows[1, 1] / rows[0, 1] == pytest.approx(1e4, rel=1e-12)
        assert rows[:, 4] == pytest.approx(1.0, abs=1e-8)
        for i in range(3):
            assert (tmp_path / ("snapshot_t%d.csv" % i)).exists()
        snap = (tmp_path / "snapshot_t0.csv").read_text().splitlines()
        assert snap[0] == "depth,x,y,density"
        assert len(snap) == 1 + 31 * 31

    def test_center_traces_the_ray(self, tmp_path):
        delta0 = 1.2
        times = [k * math.pi / 6 for k in range(7)]
        cfg = {"channel": {"beta0": 0.8, "delta0": delta0}, "times": times,
               "points": 21}
        assert main(["demkov", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "metrics.csv")
        expected = delta0 * np.sin(np.array(times))
        assert rows[:, 3] == pytest.approx(expected, abs=1e-14)

    def test_failing_depth_writes_nothing(self, tmp_path, capsys,
                                          monkeypatch):
        times = [0.0, 0.6, 1.2]
        real = channel.density

        def density(c, x, y, t):
            if t == times[1]:
                raise ArithmeticError("injected failure at depth %r" % t)
            return real(c, x, y, t)

        monkeypatch.setattr(channel, "density", density)
        cfg = {"channel": {"beta0": 0.5}, "times": times, "points": 11}
        out = tmp_path / "out"
        assert main(["demkov", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config.channel: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_one_staging_directory_per_run(self, tmp_path, monkeypatch):
        made = []
        real = _csv.tempfile.mkdtemp

        def mkdtemp(*args, **kwargs):
            path = real(*args, **kwargs)
            made.append(os.path.basename(path))
            return path

        monkeypatch.setattr(_csv.tempfile, "mkdtemp", mkdtemp)
        cfg = {"channel": {"beta0": 0.5}, "times": [0.0, 0.6, 1.2],
               "points": 11}
        out = tmp_path / "out"
        assert main(["demkov", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        assert len(made) == 1
        assert made[0].startswith(".sqstates-staging-")
        assert sorted(os.listdir(out)) == [
            "metrics.csv", "snapshot_t0.csv", "snapshot_t1.csv",
            "snapshot_t2.csv"]


class TestRunDriver:
    """`main` stages, commits and announces the files of every subcommand."""

    RUNS = {
        "evolve": (evolve_config(3), ["evolve.csv"]),
        # twelve times: wigner_t10.csv sorts before wigner_t2.csv
        "wigner": (dict(WIGNER_FOCK, times=[0.1 * i for i in range(12)],
                        points=5, rotation_check=True),
                   ["wigner_t%d.csv" % i for i in range(12)]
                   + ["rotation_report.json"]),
        "statistics": ({"mode": "pascal-odd", "sigma_sum": 2.0, "levels": 5},
                       ["statistics.csv", "statistics.json"]),
        "expand": ({"params": GROUND, "columns": [1, 0], "truncation": 4},
                   ["expansion.csv", "expansion.json"]),
        "demkov": (dict(DEMKOV_UNIT, times=[0.0, 0.5], points=5),
                   ["snapshot_t0.csv", "snapshot_t1.csv", "metrics.csv"]),
        "verify": ({"seed": 3}, ["verify_report.json"]),
    }

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_wrote_lines_name_the_files_in_out(self, tmp_path, capsys,
                                               monkeypatch, command):
        monkeypatch.setattr(verify, "_CHECKS", (
            ("small", 1.0, lambda rng: iter([0.0]), "yields its errors"),))
        cfg, names = self.RUNS[command]
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # the wrote lines come last, in the handler's order
        assert lines[-len(names):] == ["wrote %s" % (out / name)
                                       for name in names]
        assert sum(line.startswith("wrote ") for line in lines) == len(names)
        assert sorted(os.listdir(out)) == sorted(names)
        assert sorted(os.listdir(tmp_path)) == ["config.json", "out"]

    @pytest.mark.parametrize("command, cfg, field", [
        ("expand", {"params": GROUND, "columns": [2, 0, 2]},
         "config.columns"),
        ("wigner", dict(WIGNER_FOCK, state={"kind": "tcs", "zeta": [0.1, 0.0]},
                        rotation_check=True), "config.rotation_check"),
    ], ids=["repeated-column", "tcs-rotation-check"])
    def test_config_error_in_a_handler_leaves_out_missing(
            self, tmp_path, capsys, command, cfg, field):
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: %s: " % field)
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("parts", [("afile",), ("afile", "x")],
                             ids=["afile", "afile/x"])
    def test_out_on_a_file_names_out(self, tmp_path, capsys, monkeypatch,
                                     parts):
        def computed(*args, **kwargs):
            raise AssertionError("expand computed a table")

        monkeypatch.setattr(cli, "expansion_table", computed)
        (tmp_path / "afile").write_text("kept\n")
        out = str(tmp_path.joinpath(*parts))
        cfg = {"params": GROUND, "columns": [0]}
        assert main(["expand", "--config", write_config(tmp_path, cfg),
                     "--out", out]) == 3
        err = capsys.readouterr().err
        assert err == "i/o error: [Errno %d] %s: %r\n" % (
            errno.ENOTDIR, os.strerror(errno.ENOTDIR), out)
        assert sorted(os.listdir(tmp_path)) == ["afile", "config.json"]
        assert (tmp_path / "afile").read_text() == "kept\n"


class TestAtomicity:
    """A run that fails after it has written a file leaves nothing behind.

    Each failure is injected at the second time (or depth), in a row
    block after the first, by the per-element evaluator that the block
    evaluator calls, so a run that streams its grids has already
    written the first file when it fails.
    """

    CONFIGS = {
        "wigner": {"params": SQUEEZED, "state": superposition(2),
                   "times": [0.0, 0.9], "points": 81,
                   "rotation_check": True},
        "demkov": {"channel": {"beta0": 0.5}, "times": [0.0, 0.9],
                   "points": 81},
    }

    @staticmethod
    def fail_late(monkeypatch, command, cfg):
        """Raise once the evaluation at time 1 reaches the last mesh row."""
        t = cfg["times"][1]
        if command == "wigner":
            p0 = ErmakovParameters(**cfg["params"])
            levels = [term["level"] for term in cfg["state"]["terms"]]
            rows = phasespace.default_grid(p0, t, levels,
                                           cfg["points"]).x_range
            module, name, late = phasespace, "_superposition_values", \
                evolve(p0, t)

            def where(pairs, p, x, mom):
                return p, x
        else:
            c = channel.ChannelParameters(cfg["channel"]["beta0"])
            rows = oracles.density_grid(c, t, cfg["points"])[0]
            module, name, late = channel, "density", t

            def where(c, x, y, t):
                return t, x
        real = getattr(module, name)

        def failing(*args):
            stamp, x = where(*args)
            if stamp == late and np.max(x) == rows[-1]:
                raise ArithmeticError("injected failure")
            return real(*args)

        monkeypatch.setattr(module, name, failing)

    @pytest.mark.parametrize("command", ["wigner", "demkov"])
    def test_failure_after_first_file_leaves_nothing(self, tmp_path, capsys,
                                                    monkeypatch, command):
        cfg = self.CONFIGS[command]
        config = write_config(tmp_path, cfg)
        self.fail_late(monkeypatch, command, cfg)
        assert main([command, "--config", config,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "injected failure" in err and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("command", ["wigner", "demkov"])
    def test_failure_keeps_existing_out_as_it_was(self, tmp_path, capsys,
                                                  monkeypatch, command):
        cfg = self.CONFIGS[command]
        config = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("unrelated\n")
        self.fail_late(monkeypatch, command, cfg)
        assert main([command, "--config", config, "--out", str(out)]) == 2
        assert "injected failure" in capsys.readouterr().err
        assert os.listdir(out) == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "unrelated\n"
        assert sorted(os.listdir(tmp_path)) == ["config.json", "out"]


def peak_rss_mb(tmp_path, command=None, cfg=None):
    """Peak RSS of a fresh process that imports ``sqstates.cli``.

    With a command, the process also runs it on ``cfg`` (written to
    ``tmp_path``) into ``tmp_path / "out"`` and must exit 0.  The peak
    is the larger of the process's own ``VmHWM`` and the largest
    ``ru_maxrss`` of its reaped children, the forked workers that write
    its grid files.
    """
    run = ""
    if command is not None:
        run = ("assert cli.main([%r, '--config', %r, '--out', %r]) == 0"
               % (command, write_config(tmp_path, cfg),
                  str(tmp_path / "out")))
    code = ("import resource\nimport sqstates.cli as cli\n%s\n"
            "own = [line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('VmHWM:')][0]\n"
            "workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss"
            "\nprint(max(int(own), workers))" % run)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) / 1024.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
class TestMemory:
    """Grids are computed and written in row blocks, never held whole,
    and `verify` draws its stream without loading ``numpy.random``."""

    # one time runs in process, two in forked workers
    @pytest.mark.parametrize("times", [[1.3], [0.0, 1.3]],
                             ids=["one-time", "two-times"])
    def test_largest_wigner_grid_with_rotation_check(self, tmp_path, times):
        # the whole grid and its transients peaked at about 208 MB
        cfg = {"params": GROUND,
               "state": {"kind": "superposition",
                         "terms": [{"level": 0, "amplitude": [0.6, 0.0]},
                                   {"level": 2, "amplitude": [0.0, 0.8]}]},
               "times": times, "points": cli.MAX_POINTS,
               "rotation_check": True}
        assert peak_rss_mb(tmp_path, "wigner", cfg) < 64.0

    def test_evolve_stays_near_the_import_floor(self, tmp_path):
        # times go through the flow one block at a time
        cfg = {"params": SQUEEZED,
               "times": {"start": 0.0, "stop": 100.0, "count": 100_001}}
        floor = peak_rss_mb(tmp_path)
        assert peak_rss_mb(tmp_path, "evolve", cfg) - floor <= 4.0

    def test_demkov_stays_near_the_import_floor(self, tmp_path):
        # whole 401 x 401 frames and norm meshes held about 12 MB more
        cfg = {"channel": {"beta0": 0.1, "delta0": 0.0},
               "times": [0.0, 0.25 * math.pi, 0.5 * math.pi], "points": 401}
        floor = peak_rss_mb(tmp_path)
        assert peak_rss_mb(tmp_path, "demkov", cfg) - floor <= 8.0

    def test_verify_stays_near_the_import_floor(self, tmp_path):
        # loading numpy.random for the draws put the default seed about
        # 12 MB above the floor; without it the run peaks about 7 MB above
        floor = peak_rss_mb(tmp_path)
        assert peak_rss_mb(tmp_path, "verify", {}) - floor <= 10.0

    def test_verify_leaves_numpy_random_unloaded(self, tmp_path):
        code = ("import sys\nimport sqstates.cli as cli\n"
                "assert cli.main(['verify', '--out', %r]) == 0\n"
                "print(sorted(m for m in sys.modules"
                " if m.startswith('numpy.random')))" % str(tmp_path / "out"))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestVerify:
    def test_default_run_passes_and_reports(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is True
        assert report["seed"] == cli.DEFAULT_SEED
        assert len(report["checks"]) == len(verify._CHECKS)
        for entry in report["checks"]:
            assert entry["passed"] is True
            assert entry["max_error"] <= entry["tolerance"]
            assert entry["runtime_seconds"] >= 0.0

    @pytest.mark.parametrize("seed", [61, 103, 108, 134, 203, 239, 243,
                                      272, 284, 691, 779, 1525, 1717, 2724])
    def test_steep_draws_pass(self, seed):
        # the draws of 61, 103, 108 and 239 are steep enough that a fixed
        # ladder-spectrum truncation of 192 or second-order differences
        # in wave-equation missed their tolerances; 134, 243, 272, 284
        # and 203 give the largest errors of energy-variance, tcs-wigner,
        # evolved-expansion, ladder-rotation and ladder-hamiltonian over
        # seeds 0 to 299.  Over seeds 0 to 3299 the closed-form mean
        # level sizes only these tables above 128 rows: energy-variance
        # at 691 and 1717 (144), and evolved-expansion at 779 (176), 1525
        # and 2724 (144).  At a fixed 128 rows, 779 rebuilds its n = 3
        # packet to 1.18e-6, beyond the tolerance 1e-6
        assert verify.run_verification(seed)["all_passed"] is True

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {"seed": 11}
        assert main(["verify", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path), "--seed", "99"]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["seed"] == 99

    def test_negative_seed_names_the_flag(self, tmp_path, capsys,
                                          monkeypatch):
        def reached(seed):
            raise AssertionError("verification ran with seed %r" % seed)

        monkeypatch.setattr(verify, "run_verification", reached)
        out = tmp_path / "out"
        assert main(["verify", "--seed", "-1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --seed ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_injected_sign_error_fails_named_check(self, tmp_path,
                                                   monkeypatch, capsys):
        # a sign error in the evolved delta, put in for this check alone
        # (beta has no sign to get wrong: the library refuses beta <= 0)
        real_evolve = verify.evolve

        def flipped(p0, t):
            p = real_evolve(p0, t)
            return dataclasses.replace(p, delta=-p.delta)

        def check(rng):
            # drained inside the context: a generator runs when read
            with monkeypatch.context() as m:
                m.setattr(verify, "evolve", flipped)
                return list(verify._check_flow_invariants(rng))

        monkeypatch.setattr(verify, "_CHECKS", tuple(
            (name, tol, check if name == "flow-invariants" else fn, text)
            for name, tol, fn, text in verify._CHECKS))
        assert main(["verify", "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        failed = [e["name"] for e in report["checks"] if not e["passed"]]
        assert failed == ["flow-invariants"]
        assert "flow-invariants" in capsys.readouterr().out

    @pytest.mark.parametrize("errors, shown", [
        ([0.5, math.nan, 0.1], "max_error=nan"),
        ([math.inf], "max_error=inf"),
    ], ids=["nan", "inf"])
    def test_non_finite_error_fails_its_check(self, tmp_path, monkeypatch,
                                              capsys, errors, shown):
        # a NaN after a number once folded to the number and passed; an
        # infinity stopped the JSON writer and left no report
        monkeypatch.setattr(verify, "_CHECKS", (
            ("broken", 1.0, lambda rng: iter(errors), "yields its errors"),))
        assert main(["verify", "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is False
        [entry] = report["checks"]
        assert entry["max_error"] is None
        assert entry["passed"] is False
        out = capsys.readouterr().out
        assert shown in out
        assert "FAILED checks: broken (seed %d)" % cli.DEFAULT_SEED in out

    def test_raising_check_fails_alone(self, tmp_path, monkeypatch, capsys):
        # a raise once ended the run as a config error (exit 2) with no
        # report; now it fails its own check and the later checks run
        def broken(rng):
            yield 0.0
            raise ArithmeticError("lost to roundoff")

        monkeypatch.setattr(verify, "_CHECKS", tuple(
            (name, tol, broken if name == "tcs-wigner" else fn, text)
            for name, tol, fn, text in verify._CHECKS))
        assert main(["verify", "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert len(report["checks"]) == len(verify._CHECKS)
        failed = [e for e in report["checks"] if not e["passed"]]
        assert [e["name"] for e in failed] == ["tcs-wigner"]
        [entry] = failed
        assert entry["max_error"] is None
        assert entry["error"] == "ArithmeticError: lost to roundoff"
        assert all("error" not in e for e in report["checks"]
                   if e is not entry)
        out = capsys.readouterr().out
        [line] = [x for x in out.splitlines() if x.startswith("FAIL ")]
        assert "tcs-wigner" in line
        assert line.endswith("error: ArithmeticError: lost to roundoff")
        assert "FAILED checks: tcs-wigner (seed %d)" % cli.DEFAULT_SEED in out

    def test_console_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sqstates.cli", "verify",
             "--seed", "5", "--out", str(tmp_path)],
            capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 0
        assert "all" in proc.stdout and "passed" in proc.stdout


def modules_loaded_by_cli(*packages):
    """The modules of ``packages`` that a fresh ``import sqstates.cli`` loads."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sqstates.cli; "
         "print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in %r))" % (packages,)],
        capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; importing it would cost every run
    assert modules_loaded_by_cli("scipy") == "[]"


def test_cli_import_loads_no_jsonschema():
    # jsonschema is the test oracle of sqstates._schema, not a runtime
    # dependency; with its chain it cost about 50 ms per process
    assert modules_loaded_by_cli("jsonschema", "referencing", "rpds") == "[]"
