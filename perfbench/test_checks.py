"""Self-test of the benchmark's output checks and its trace accounting.

    python3 -m pytest perfbench -q

Each workload's outputs are produced once by ``sqstates`` (about 15 s), the
checks must accept them, and then one value is perturbed (scaled by
1 + 1e-6, or two rows swapped) and the matching check must reject the copy.
"""

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

OPS = {name: (command, config)
       for workload in run.CLI_WORKLOADS.values()
       for name, command, config, _ in workload}
OPS["wigner-superposition"] = OPS.pop("wigner")
# Three of the sweep's truncation-128 tables, and one (seed 106, table 4)
# whose columns 0 and 7 sit near Cauchy-Schwarz equality with a column-0
# tail of 4e-15.
SWEEP = run.sweep_tasks(3)[3:6] + run.sweep_tasks(106)[4:5]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Correct outputs of every checked operation, made once."""
    base = tmp_path_factory.mktemp("outputs")
    env = run.child_env()
    for workload in run.CLI_WORKLOADS.values():
        for name, command, config, extra in workload:
            if name == "wigner":
                name = "wigner-superposition"
            args = [sys.executable, str(run.CHILD), "cli", command,
                    "--out", str(base / name)] + extra
            if config is not None:
                path = base / (name + ".json")
                path.write_text(json.dumps(config))
                args += ["--config", str(path)]
            subprocess.run(args, env=env, check=True, capture_output=True)
    params = base / "sweep-params.json"
    params.write_text(json.dumps(SWEEP))
    subprocess.run([sys.executable, str(run.CHILD), "sweep", str(params),
                    str(base / "sweep.json"), str(base / "tables.npz")],
                   env=env, check=True, capture_output=True)
    return base


def check(name, directory):
    command, config = OPS[name]
    if command == "verify":
        return checks.check_verify(directory, 0, run.VERIFY_SEED)
    return getattr(checks, "check_" + command)(directory, config)


@pytest.mark.parametrize("name", sorted(OPS))
def test_correct_output_passes(outputs, name):
    assert check(name, outputs / name) == []


def scale(factor, row, column):
    """Mutation: multiply one CSV value (data row, column) by factor."""
    def apply(path):
        lines = path.read_text().split("\n")
        fields = lines[row + 1].split(",")
        fields[column] = "%.17g" % (float(fields[column]) * factor)
        lines[row + 1] = ",".join(fields)
        path.write_text("\n".join(lines))
    return apply


def swap(i, j):
    """Mutation: swap two CSV data rows."""
    def apply(path):
        lines = path.read_text().split("\n")
        lines[i + 1], lines[j + 1] = lines[j + 1], lines[i + 1]
        path.write_text("\n".join(lines))
    return apply


def edit_json(edit):
    def apply(path):
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    return apply


CENTRE_401 = 200 * 401 + 200
UP = 1.0 + 1e-6

# (operation, file, mutation, text the rejection must contain)
MUTATIONS = [
    ("evolve", "evolve.csv", scale(UP, 40, 8), "Schroedinger-Robertson"),
    ("evolve", "evolve.csv", scale(UP, 7, 11), "centroid"),
    ("evolve", "evolve.csv", swap(10, 20), "time column"),
    ("wigner-superposition", "wigner_t1.csv", scale(UP, CENTRE_401, 2),
     "|W| <= 1/pi"),
    ("wigner-superposition", "wigner_t1.csv", scale(UP, 180 * 401 + 230, 2),
     "position marginal"),
    ("wigner-superposition", "wigner_t0.csv", swap(5, 500), "mesh"),
    ("wigner-superposition", "rotation_report.json",
     edit_json(lambda r: r.update(max_error=2e-9,
                                  max_error_per_time=[0.0, 2e-9])),
     "max_error <= 1e-9"),
    ("wigner-tcs", "wigner_t1.csv", scale(UP, 20 * 41 + 21, 2),
     "Gaussian Wigner"),
    ("demkov", "snapshot_t2.csv", scale(UP, CENTRE_401, 3), "density ="),
    ("demkov", "snapshot_t0.csv", scale(UP, 190 * 401 + 215, 3),
     "density ="),
    ("demkov", "snapshot_t1.csv", swap(1000, 1001), "mesh"),
    ("demkov", "metrics.csv", scale(UP, 1, 4), "norm column"),
    ("demkov", "metrics.csv", scale(UP, 2, 1), "superfocusing"),
    ("statistics-poisson", "statistics.csv", scale(UP, 5, 1), "pmf"),
    ("statistics-poisson", "statistics.csv", swap(3, 4), "level column"),
    ("statistics-poisson", "statistics.json",
     edit_json(lambda r: r.update(mean=r["mean"] * UP)), "mean"),
    ("statistics-pascal-even", "statistics.csv", scale(UP, 40, 1), "pmf"),
    ("statistics-pascal-even", "statistics.csv", swap(2, 3),
     "odd rows are exactly 0"),
    ("expand", "expansion.csv", scale(UP, 1, 2), "probability"),
    ("verify", "verify_report.json",
     edit_json(lambda r: r["checks"][3].update(
         max_error=2 * r["checks"][3]["tolerance"])), "max_error"),
]


@pytest.mark.parametrize("name,filename,mutate,expected", MUTATIONS,
                         ids=["%s-%s-%d" % (m[0], m[1], i)
                              for i, m in enumerate(MUTATIONS)])
def test_perturbed_output_is_rejected(outputs, tmp_path, name, filename,
                                      mutate, expected):
    copy = tmp_path / name
    shutil.copytree(outputs / name, copy)
    mutate(copy / filename)
    failures = check(name, copy)
    assert any(expected in f for f in failures), failures


def test_verify_exit_code_is_checked(outputs):
    assert checks.check_verify(outputs / "verify", 1, run.VERIFY_SEED)


def _expand_table(outputs):
    _, config = OPS["expand"]
    with open(outputs / "expand" / "expansion.json") as fh:
        table = json.load(fh)
    coeffs = np.array(table["coeffs"])
    coeffs = (coeffs[..., 0] + 1j * coeffs[..., 1]).T
    return coeffs, np.array(table["tail_mass"]), table["beta0"], config


@pytest.mark.parametrize("mutation,expected", [
    ("scale", "weighted Gram diagonal"),
    ("swap", "column 0: sqrt(beta0) c_m0"),
    ("tail", "tail_mass >= -1e-12"),
])
def test_table_checks_reject(outputs, mutation, expected):
    coeffs, tail, beta0, config = _expand_table(outputs)
    coeffs = coeffs.copy()
    if mutation == "scale":
        coeffs[1, 0] *= UP
    elif mutation == "swap":
        # Swapping two rows leaves the Gram matrix alone; only the
        # quadrature of column 0 can see it.
        coeffs[[2, 3]] = coeffs[[3, 2]]
    else:
        tail = tail - 1e-11
    fails = checks.Failures("expand")
    checks.check_table(fails, coeffs, tail, beta0, config["params"],
                       config["columns"])
    assert any(expected in f for f in fails), list(fails)


def test_sweep_tables(outputs, tmp_path):
    assert checks.check_sweep(outputs / "tables.npz", SWEEP) == []
    with np.load(outputs / "tables.npz") as tables:
        arrays = dict(tables)
    arrays["coeffs_1"] = arrays["coeffs_1"].copy()
    arrays["coeffs_1"][3, 2] *= UP
    np.savez(tmp_path / "tables.npz", **arrays)
    failures = checks.check_sweep(tmp_path / "tables.npz", SWEEP)
    assert any("table 1: weighted Gram" in f for f in failures), failures


def test_changed_bytes_between_rounds_are_reported(tmp_path):
    record = run.Run(tmp_path)
    record.record_outputs({"a/x.csv": ["00", 3]}, 0)
    record.record_outputs({"a/x.csv": ["00", 3]}, 1)
    assert record.errors == []
    record.record_outputs({"a/x.csv": ["01", 3]}, 2)
    assert record.errors and "a/x.csv" in record.errors[0]


def test_import_times_takes_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:       400 |        400 |     scipy.special",
        "import time:        50 |        750 |   sqstates",
        "import time:        10 |        10 |   numpy.polynomial",
    ])
    times = run.import_times(text)
    assert times["sqstates"] == pytest.approx(750e-6)
    assert times["numpy"] == pytest.approx(310e-6)
    assert times["scipy"] == pytest.approx(400e-6)
    assert times["jsonschema"] == 0.0


def test_span_self_time_excludes_children():
    ms = 1_000_000
    spans = [
        ["cli.main", 0, 100 * ms, -1, 0],
        ["channel.write_snapshot_series", 10 * ms, 90 * ms, 0, 0],
        ["channel.density_grid", 20 * ms, 30 * ms, 1, 25],
        ["phasespace.moyal", 40 * ms, 60 * ms, 1, 0],
        ["phasespace.moyal", 45 * ms, 55 * ms, 3, 0],
    ]
    into = defaultdict(float)
    run.span_metrics(spans, into)
    assert into["cli.self_s"] == pytest.approx(0.020)
    assert into["channel.self_s"] == pytest.approx(0.050 + 0.010)
    assert into["phasespace.self_s"] == pytest.approx(0.020)
    assert into["phasespace.moyal_s"] == pytest.approx(0.020)  # outermost
    assert into["phasespace.moyal_calls"] == 2
    assert into["channel.density_grid_in_writer_s"] == pytest.approx(0.010)
    assert into["channel.snapshot_points"] == 25


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        list(run.CLI_WORKLOADS) + ["fock-sweep"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int)
