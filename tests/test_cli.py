"""End-to-end tests for the command-line front end.

Each test drives `sqstates.cli.main` in process with a JSON config in a
temp directory and inspects the files it writes; exit codes follow the
documented contract (0 ok, 1 verification failure, 2 config error,
3 I/O error).
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import sqstates.channel as channel
import sqstates.cli as cli
from conftest import subprocess_env
from sqstates.cli import main
from sqstates.ermakov import ErmakovParameters, classical_trajectory
from sqstates.states import uncertainty_extrema

GROUND = {"alpha": 0.0, "beta": 1.0, "gamma": 0.0, "delta": 0.0,
          "epsilon": 0.0, "kappa": 0.0}
SQUEEZED = {"alpha": 0.6, "beta": 1.4, "gamma": 0.3, "delta": -0.8,
            "epsilon": 0.5, "kappa": 0.1}
WIGNER_FOCK = {"params": GROUND, "state": {"kind": "fock", "level": 0},
               "times": [0.0]}
DEMKOV_UNIT = {"channel": {"beta0": 1.0}, "times": [0.0]}


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
    ])
    def test_arithmetic_failure_is_config_error(self, tmp_path, capsys,
                                                command, cfg):
        field = {"evolve": "config.params.beta",
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
        ("demkov", DEMKOV_UNIT,
         ["--grid", "%d,%d" % (cli.MAX_POINTS + 1, cli.MAX_POINTS + 1)],
         "--grid"),
    ])
    def test_size_cap_plus_one_is_config_error(self, tmp_path, capsys,
                                               monkeypatch, command, cfg,
                                               flags, field):
        # the first compute step of each command fails loudly, so a
        # missing cap cannot turn into an oversized allocation
        def reached(*args, **kwargs):
            raise AssertionError("compute reached past the size cap")

        for name in ("evolve", "default_grid", "focus_metrics",
                     "write_snapshot_series"):
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
    ], ids=["poisson-delta0", "poisson-epsilon0", "pascal-even",
            "pascal-odd", "demkov-beta0", "demkov-half-width"])
    def test_overflowing_result_is_config_error(self, tmp_path, capsys,
                                                command, cfg, field):
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: %s: arithmetic failure" % field)
        assert err.count("\n") == 1
        assert not out.exists()

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

    def test_unnormalized_superposition_rejected(self, tmp_path, capsys):
        cfg = {"params": GROUND,
               "state": {"kind": "superposition",
                         "terms": [{"level": 0, "amplitude": [1.0, 0.0]},
                                   {"level": 1, "amplitude": [1.0, 0.0]}]},
               "times": [0.0], "points": 21}
        assert main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)]) == 2
        assert "normalized" in capsys.readouterr().err


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

    def test_truncation_flag_overrides_levels(self, tmp_path):
        cfg = {"mode": "poisson", "delta0": 1.0, "epsilon0": 0.0,
               "levels": 10}
        assert main(["statistics", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path), "--truncation", "25"]) == 0
        assert read_csv(tmp_path / "statistics.csv").shape == (26, 2)


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

    def test_nonsquare_grid_rejected(self, tmp_path, capsys):
        cfg = {"channel": {"beta0": 1.0}, "times": [0.0]}
        assert main(["demkov", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path), "--grid", "21,31"]) == 2
        assert "square" in capsys.readouterr().err


class TestVerify:
    def test_default_run_passes_and_reports(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_passed"] is True
        assert report["seed"] == cli.DEFAULT_SEED
        assert len(report["checks"]) == len(cli._CHECKS)
        for entry in report["checks"]:
            assert entry["passed"] is True
            assert entry["max_error"] <= entry["tolerance"]
            assert entry["runtime_seconds"] >= 0.0

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = {"seed": 11}
        assert main(["verify", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path), "--seed", "99"]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["seed"] == 99

    def test_injected_sign_error_fails_named_check(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setitem(cli._HOOKS, "invariant_sign", -1.0)
        assert main(["verify", "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        failed = [e["name"] for e in report["checks"] if not e["passed"]]
        assert failed == ["flow-invariants"]
        assert "flow-invariants" in capsys.readouterr().out

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
