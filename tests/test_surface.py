"""The public surface: every exported name resolves, every module star-imports.

A helper deleted from a module but left in an ``__all__`` list makes
``from sqstates.<mod> import *`` raise, so a stale entry fails here.
"""

import importlib
import pkgutil

import pytest

import sqstates

MODULES = sorted(info.name for info in pkgutil.iter_modules(sqstates.__path__))
NAMES = ["sqstates"] + ["sqstates." + name for name in MODULES]


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
