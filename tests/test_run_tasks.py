"""The per-file task runner, `sqstates._csv.run_tasks`.

Each test that needs the forked path reports two usable CPUs through
``os.sched_getaffinity``, so the workers are forked on any host; the
tasks only sleep, raise, warn or write small files.
"""

import json
import os
import signal
import time
import warnings

import pytest

from sqstates import _csv, cli
from sqstates._csv import run_tasks

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="forked workers need os.fork and os.sched_getaffinity")

GROUND = {"alpha": 0.0, "beta": 1.0, "gamma": 0.0, "delta": 0.0,
          "epsilon": 0.0, "kappa": 0.0}


@pytest.fixture
def cpus(monkeypatch):
    """Report ``n`` usable CPUs to the runner."""
    def report(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))
    report(2)
    return report


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def sleeper(seconds, value):
    def task():
        time.sleep(seconds)
        return value
    return task


def failer(seconds, message):
    def task():
        time.sleep(seconds)
        raise ValueError(message)
    return task


def test_width_is_capped_by_cpus_and_tasks(cpus):
    assert _csv._width(5) == 2
    assert _csv._width(1) == 1
    cpus(1)
    assert _csv._width(5) == 1


def test_values_come_back_in_task_order(cpus):
    cpus(3)
    # later tasks finish first
    tasks = {"t%d" % i: sleeper(0.05 * (4 - i), {"index": i})
             for i in range(5)}
    assert run_tasks(tasks) == [{"index": i} for i in range(5)]
    assert no_children_left()


def test_no_tasks():
    assert run_tasks({}) == []


def test_lowest_index_failure_wins(cpus):
    tasks = {"slow": failer(0.3, "first"), "fast": failer(0.0, "second")}
    with pytest.raises(ValueError, match="^first$"):
        run_tasks(tasks)
    assert no_children_left()


def test_failure_waits_for_earlier_tasks(cpus):
    # the earlier task's own failure, once it has finished, wins
    tasks = {"a": sleeper(0.2, 1), "b": failer(0.0, "b failed"),
             "c": failer(0.0, "c failed")}
    with pytest.raises(ValueError, match="^b failed$"):
        run_tasks(tasks)
    assert no_children_left()


def test_later_workers_are_killed(cpus, tmp_path):
    marker = tmp_path / "later.pid"

    def first():
        # fail only once the later worker is known to be running
        deadline = time.monotonic() + 30.0
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise ArithmeticError("first failed")

    def later():
        marker.write_text(str(os.getpid()))
        time.sleep(60.0)
        (tmp_path / "finished").write_text("")

    start = time.monotonic()
    with pytest.raises(ArithmeticError, match="first failed"):
        run_tasks({"first": first, "later": later})
    assert time.monotonic() - start < 30.0
    pid = int(marker.read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    assert not (tmp_path / "finished").exists()
    assert no_children_left()


def test_worker_without_result_is_child_process_error(cpus):
    def dies():
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(ChildProcessError,
                       match="writing frame.csv .*killed by SIGKILL"):
        run_tasks({"ok.csv": sleeper(0.0, 1), "frame.csv": dies})
    assert no_children_left()


def test_unpicklable_value_is_child_process_error(cpus):
    with pytest.raises(ChildProcessError, match="writing b.csv"):
        run_tasks({"a.csv": sleeper(0.0, 1), "b.csv": lambda: (lambda: 0)})
    assert no_children_left()


def test_worker_warnings_reach_the_parent_in_order(cpus):
    def warner(text, seconds):
        def task():
            time.sleep(seconds)
            warnings.warn(text, RuntimeWarning)
            return text
        return task

    with pytest.warns(RuntimeWarning) as record:
        values = run_tasks({"a": warner("from a", 0.2),
                            "b": warner("from b", 0.0)})
    assert values == ["from a", "from b"]
    assert [str(w.message) for w in record] == ["from a", "from b"]


def test_warning_filter_error_fails_the_task(cpus):
    def warner():
        warnings.warn("as error", UserWarning)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="as error"):
            run_tasks({"a": sleeper(0.0, 1), "b": warner})
    assert no_children_left()


def test_one_cpu_runs_in_process(cpus):
    cpus(1)
    pids = run_tasks({"a": os.getpid, "b": os.getpid})
    assert pids == [os.getpid()] * 2


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


WIGNER = {"params": GROUND,
          "state": {"kind": "superposition",
                    "terms": [{"level": 0, "amplitude": [0.6, 0.0]},
                              {"level": 3, "amplitude": [0.0, 0.8]}]},
          "times": [0.0, 0.7, 1.3], "points": 41, "rotation_check": True}
DEMKOV = {"channel": {"beta0": 0.3, "delta0": 0.5},
          "times": [0.0, 0.8, 1.6], "points": 41}


@pytest.mark.parametrize("command,cfg", [("wigner", WIGNER),
                                         ("demkov", DEMKOV)])
def test_one_cpu_writes_the_same_bytes(cpus, tmp_path, command, cfg):
    config = write_config(tmp_path, cfg)
    outputs = {}
    for n in (2, 1):
        cpus(n)
        out = tmp_path / ("out%d" % n)
        assert cli.main([command, "--config", config, "--out", str(out)]) == 0
        outputs[n] = {name: (out / name).read_bytes()
                      for name in sorted(os.listdir(out))}
    assert len(outputs[2]) == len(cfg["times"]) + 1
    assert outputs[2] == outputs[1]
    assert no_children_left()


def test_killed_worker_exits_3_and_leaves_nothing(cpus, tmp_path, capsys,
                                                  monkeypatch):
    cfg = {"params": GROUND, "state": {"kind": "tcs", "zeta": [0.3, 0.1]},
           "times": [0.0, 0.5, 1.0], "points": 21}
    real = cli.write_tcs_csv

    def write(path, s, grid, t):
        if t == 0.5:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(path, s, grid, t)

    monkeypatch.setattr(cli, "write_tcs_csv", write)
    out = tmp_path / "out"
    assert cli.main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and err.count("\n") == 1
    assert "wigner_t1.csv" in err and "SIGKILL" in err
    assert os.listdir(tmp_path) == ["config.json"]
    assert no_children_left()


def test_first_nonfinite_frame_is_the_one_reported(cpus, tmp_path, capsys):
    # every frame of a lone level 200 holds NaN cells; the first time's
    # error is reported, as a loop over the times would raise it
    cfg = {"params": GROUND, "state": {"kind": "fock", "level": 200},
           "times": [0.0, 0.5], "points": 51}
    out = tmp_path / "out"
    assert cli.main(["wigner", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config.state: arithmetic failure "
                          "(FloatingPointError: non-finite Wigner value at "
                          "t = 0.0 in mesh rows 0 to 31)")
    assert err.count("\n") == 1
    assert not out.exists()
    assert no_children_left()
