"""Importing ``sqstates`` loads numpy with a one-thread OpenBLAS pool.

OpenBLAS sizes its pool once, when numpy loads it, so most cases run in
a fresh interpreter.  ``conftest.py`` imports ``sqstates`` before
numpy, so the pin reaches this pytest process too; the last cases ask
numpy's OpenBLAS for its pool size in process, and check that no second
OpenBLAS, which the pin would not reach, is mapped beside it.
"""

import ctypes
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env

#: The variables OpenBLAS reads its thread count from.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")


def _blas_name() -> str:
    config = getattr(np.__config__, "CONFIG", {})
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "")


pytestmark = [
    pytest.mark.skipif(not sys.platform.startswith("linux"),
                       reason="counts threads in /proc/self/task"),
    pytest.mark.skipif("openblas" not in _blas_name().lower(),
                       reason="numpy is not built against OpenBLAS"),
]

PROBE = r"""
import json, os

def threads():
    return len(os.listdir("/proc/self/task"))

import sqstates.cli
import numpy as np

after_import = threads()
a = np.arange(512 * 512, dtype=float).reshape(512, 512) / 512.0
a @ a
print(json.dumps({"after_import": after_import, "after_matmul": threads(),
                  "variable": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def probe(before="", **variables) -> dict:
    env = subprocess_env()
    for name in THREAD_VARIABLES:
        env.pop(name, None)
    env.update(variables)
    done = subprocess.run([sys.executable, "-c", before + PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_pins_one_thread_and_leaves_no_variable():
    seen = probe()
    assert seen == {"after_import": 1, "after_matmul": 1, "variable": None}


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_a_user_set_pool_size_wins():
    seen = probe(OPENBLAS_NUM_THREADS="2")
    assert seen == {"after_import": 2, "after_matmul": 2, "variable": "2"}


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
def test_numpy_loaded_first_keeps_its_pool():
    seen = probe(before="import numpy\n")
    assert seen["after_import"] > 1
    assert seen["variable"] is None


def numpy_pool_size():
    """The pool size numpy's bundled OpenBLAS reports, or None.

    Asked through the library itself, because a process can hold a
    second OpenBLAS: scipy's wheels bundle their own, which reads the
    thread variables when scipy loads it, after the pin is gone.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)  # already loaded: the same handle
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


@pytest.mark.skipif(any(name in os.environ for name in THREAD_VARIABLES),
                    reason="a thread variable sets the pool size")
def test_this_process_has_one_blas_thread():
    a = np.arange(512 * 512, dtype=float).reshape(512, 512) / 512.0
    a @ a
    size = numpy_pool_size()
    if size is None:
        pytest.skip("numpy's OpenBLAS is not a bundled library to ask")
    assert size == 1


def test_this_process_maps_one_openblas():
    # a second OpenBLAS (scipy's wheels bundle one) would size its own
    # pool after the pin is gone; the tests import no such library
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except FileNotFoundError:
        pytest.skip("no /proc/self/maps to read")
    libraries = sorted(path for path in paths
                       if "openblas" in os.path.basename(path).lower())
    assert len(libraries) == 1, libraries
