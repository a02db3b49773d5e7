import os

# sqstates before numpy: the package pins OpenBLAS to one thread only
# when it is the first to load numpy, and this is the suite's first import
import sqstates
import numpy as np
import pytest

from sqstates.ermakov import ErmakovParameters

#: The directory that holds the imported ``sqstates`` package.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(sqstates.__file__)))


def subprocess_env() -> dict:
    """The environment for a child Python that must import this ``sqstates``.

    pytest's ``pythonpath`` setting reaches only its own process, so the
    package's source directory goes first on the child's PYTHONPATH.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def draw_params(rng, *, squeeze=(0.45, 2.1), alpha_max=1.2, disp_max=1.6,
                phases=True) -> ErmakovParameters:
    """Random but physically moderate initial data."""
    return ErmakovParameters(
        alpha=rng.uniform(-alpha_max, alpha_max),
        beta=rng.uniform(*squeeze),
        gamma=rng.uniform(-1.0, 1.0) if phases else 0.0,
        delta=rng.uniform(-disp_max, disp_max),
        epsilon=rng.uniform(-disp_max, disp_max),
        kappa=rng.uniform(-1.0, 1.0) if phases else 0.0,
    )


def mirrored(alpha, beta, *rest):
    """The parameters of a case, at -beta if it is written with beta < 0.

    The library admits beta > 0 only: a case written with beta < 0 first
    checks that `ErmakovParameters` refuses it, then runs at -beta.  The
    fields after beta default to 0.
    """
    rest = rest or (0.0,) * 4
    if beta < 0.0:
        with pytest.raises(ValueError, match="^beta must be positive"):
            ErmakovParameters(alpha, beta, *rest)
        beta = -beta
    return ErmakovParameters(alpha, beta, *rest)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
