"""The public surface: every exported name resolves, every module star-imports.

A helper deleted from a module but left in an ``__all__`` list makes
``from sqstates.<mod> import *`` raise, so a stale entry fails here.
And every public function is reached by a run: a function that only
tests call is a test reference, and lives in ``tests/oracles.py``.
"""

import importlib
import inspect
import json
import os
import pkgutil
import sys

import pytest

import sqstates
from sqstates.cli import main
from sqstates.specfun import gauss_hermite_rule

MODULES = sorted(info.name for info in pkgutil.iter_modules(sqstates.__path__))
NAMES = ["sqstates"] + ["sqstates." + name for name in MODULES]


def test_package_reexports_each_module_surface():
    reexported = [name for module in ("channel", "ermakov", "fockexp",
                                      "operators", "phasespace", "states")
                  for name in importlib.import_module(
                      "sqstates." + module).__all__]
    assert sqstates.__all__ == reexported + ["__version__"]


def test_every_module_is_listed():
    assert {"cli", "ermakov", "fockexp", "specfun"} <= set(MODULES)


@pytest.mark.parametrize("name", NAMES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert missing == []
    assert len(set(exported)) == len(exported)


@pytest.mark.parametrize("name", NAMES)
def test_star_import_succeeds(name):
    namespace = {}
    exec("from %s import *" % name, namespace)
    for entry in getattr(importlib.import_module(name), "__all__", []):
        assert entry in namespace


#: the library modules whose ``__all__`` functions a run must reach
LIBRARY = ("channel", "ermakov", "fockexp", "operators", "phasespace",
           "specfun", "states")

PARAMS = {"alpha": 0.2, "beta": 1.1, "gamma": 0.1, "delta": 0.3,
          "epsilon": -0.2, "kappa": 0.0}

#: small configs of every subcommand; ``verify`` runs its whole suite
RUNS = [
    ("evolve", {"params": PARAMS,
                "times": {"start": 0.0, "stop": 1.0, "count": 5}}),
    ("statistics", {"mode": "poisson", "delta0": 0.5, "epsilon0": 0.2,
                    "levels": 8}),
    ("statistics", {"mode": "pascal-even", "sigma_sum": 1.5, "levels": 8}),
    ("statistics", {"mode": "pascal-odd", "sigma_sum": 1.5, "levels": 8}),
    ("statistics", {"mode": "full-expansion", "params": PARAMS,
                    "truncation": 32}),
    ("wigner", {"params": PARAMS, "state": {"kind": "tcs",
                                             "zeta": [0.3, -0.1]},
                "times": [0.5], "points": 9}),
    ("wigner", {"params": PARAMS, "times": [0.5], "points": 9,
                "rotation_check": True,
                "state": {"kind": "superposition", "terms": [
                    {"level": 0, "amplitude": [0.6, 0.0]},
                    {"level": 2, "amplitude": [0.0, 0.8]}]}}),
    ("demkov", {"channel": {"beta0": 0.5, "delta0": 0.3},
                "times": [0.0, 0.7], "points": 9}),
    ("expand", {"params": PARAMS, "columns": [0, 2], "truncation": 32}),
    ("verify", {"seed": 7}),
]


def public_functions():
    """Code object -> ``module.name`` for each function in an ``__all__``."""
    found = {}
    for name in LIBRARY:
        module = importlib.import_module("sqstates." + name)
        for entry in module.__all__:
            fn = inspect.unwrap(getattr(module, entry))  # through lru_cache
            if inspect.isfunction(fn):
                found[fn.__code__] = "%s.%s" % (name, entry)
    return found


def test_every_public_function_is_reached_by_a_run(tmp_path, monkeypatch):
    # one CPU keeps the grid files of `run_tasks` in this process, where
    # the profiler sees them; an empty cache makes the rule compute
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    gauss_hermite_rule.cache_clear()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        codes = []
        for i, (command, config) in enumerate(RUNS):
            path = tmp_path / ("config%d.json" % i)
            path.write_text(json.dumps(config))
            codes.append(main([command, "--config", str(path),
                               "--out", str(tmp_path / str(i))]))
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(RUNS)
    functions = public_functions()
    unreached = sorted(name for code, name in functions.items()
                       if code not in called)
    assert unreached == []
