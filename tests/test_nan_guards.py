"""A NaN that reaches an inline cross-check fails it.

``x > tol`` is false for a NaN, so a check written that way passes a NaN
through, and Python's ``max`` drops a NaN that comes after a number.
Each case below puts a NaN into one side of a cross-check and expects
the check to raise, or, for the one check that reports its error, to
report NaN.
"""

import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

import sqstates.fockexp as fockexp
import sqstates.phasespace as phasespace
import sqstates.states as states
from sqstates.ermakov import ErmakovParameters
from sqstates.phasespace import PhaseSpacePoint
from sqstates.states import DynamicState, TCSState

import oracles

P0 = ErmakovParameters(0.3, 1.2, 0.7, 0.4, -0.5, 0.2)
NAN_MOMENTS = SimpleNamespace(sigma_x=math.nan, sigma_p=math.nan,
                              sigma_px=math.nan)
COEFFS = [(math.sqrt(0.4), 0), (1j * math.sqrt(0.6), 2)]


def nan_values(pairs, p, x, mom):
    """Superposition values with a NaN imaginary residual."""
    return np.full(np.broadcast(x, mom).shape, complex(0.1, math.nan))


def wigner_tcs(monkeypatch):
    # the covariance form of the packet goes NaN
    monkeypatch.setattr(phasespace, "covariance", lambda p: NAN_MOMENTS)
    return phasespace.wigner_tcs(TCSState(0.3 + 0.2j, P0),
                                 PhaseSpacePoint(0.1, -0.2), 0.4)


def var_h(monkeypatch):
    # the covariance and centroid form of the variance goes NaN
    monkeypatch.setattr(states, "covariance", lambda p: NAN_MOMENTS)
    return states.var_h(DynamicState(2, P0))


def superposition_csv(monkeypatch, rotation_check):
    """The superposition writer, whose values go NaN; writes nowhere."""
    monkeypatch.setattr(phasespace, "_superposition_values", nan_values)
    grid = phasespace.default_grid(P0, 0.4, (0, 2), points=5)
    return phasespace.write_superposition_csv(os.devnull, COEFFS, P0, grid,
                                              0.4, rotation_check)


def wigner_superposition(monkeypatch):
    # the imaginary residual of a superposition grid goes NaN
    return superposition_csv(monkeypatch, False)


def superposition_grid(monkeypatch):
    # the same, with the rotation law computed from the same values
    return superposition_csv(monkeypatch, True)


def wigner_numeric(monkeypatch):
    return phasespace.wigner_numeric(
        lambda x: np.full(np.shape(x), complex(math.nan)),
        PhaseSpacePoint(0.1, -0.2))


def phase_identity(monkeypatch):
    # the squeeze-phase identity compares M blocks
    monkeypatch.setattr(fockexp, "m_matrix",
                        lambda alpha, beta, size: np.full((size, size),
                                                          math.nan))
    return fockexp._phase_identity_check(P0, 0.7)


def ladder_action(monkeypatch):
    # one level's eigenvector goes NaN, and the levels phased from it
    real = oracles.invariant_vectors

    def nan_level(p, n_dim):
        vecs = real(p, n_dim)
        vecs[:, 3] = math.nan
        return vecs

    monkeypatch.setattr(oracles, "invariant_vectors", nan_level)
    return oracles.ladder_action_check(P0, 96)


@pytest.mark.parametrize("inject, outcome", [
    (wigner_tcs, "raises"),
    (var_h, "raises"),
    (wigner_superposition, "raises"),
    (superposition_grid, "raises"),
    (wigner_numeric, "raises"),
    (phase_identity, "raises"),
    (ladder_action, "nan"),
], ids=lambda case: getattr(case, "__name__", None))
def test_a_nan_fails_the_cross_check(monkeypatch, inject, outcome):
    with np.errstate(all="ignore"):
        if outcome == "nan":
            assert math.isnan(inject(monkeypatch))
        else:
            with pytest.raises(ArithmeticError):
                inject(monkeypatch)
