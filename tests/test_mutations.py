"""A relative error of 1e-6 in one route of an inline cross-check fails it.

Each inline check compares two or more routes to one quantity, or tests
an identity that a route must keep.  Each case below scales one route's
value by 1 + 1e-6 (for the imaginary-residual check, by 1 + 1e-6 i, and
for the Hermitian and adjoint checks, one triangle of a Hermitian
quadrature) and expects the check to raise.  The NaN cases of the same
checks are in ``test_nan_guards.py``.  One guard lets its error through:
`energy_levels` checks only that its levels are resolved, and its case
is a strict xfail.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import sqstates.fockexp as fockexp
import sqstates.operators as operators
import sqstates.phasespace as phasespace
import sqstates.specfun as specfun
import sqstates.states as states
from sqstates.ermakov import ErmakovParameters, evolve
from sqstates.phasespace import PhaseSpacePoint
from sqstates.states import DynamicState, TCSState, psi_tcs

P0 = ErmakovParameters(0.3, 1.2, 0.7, 0.4, -0.5, 0.2)
ERROR = 1e-6


def scaled(fn, *, calls=None):
    """``fn`` with its value (each entry of a tuple) times 1 + ERROR.

    With ``calls``, only those calls (counted from 0) are scaled.
    """
    count = itertools.count()

    def wrapper(*args, **kwargs):
        value = fn(*args, **kwargs)
        if calls is not None and next(count) not in calls:
            return value
        if isinstance(value, tuple):
            return tuple(v * (1.0 + ERROR) for v in value)
        return value * (1.0 + ERROR)

    return wrapper


def tcs_form(name):
    """One of `wigner_tcs`'s three forms, off by ERROR."""
    def inject(monkeypatch):
        s = TCSState(0.8 - 0.6j, P0)
        x, p = phasespace.tcs_center(s, 0.4)
        route = getattr(phasespace, name)
        if name == "covariance":
            def route(params, real=route):
                c = real(params)
                return SimpleNamespace(sigma_p=c.sigma_p * (1.0 + ERROR),
                                       sigma_x=c.sigma_x * (1.0 + ERROR),
                                       sigma_px=c.sigma_px * (1.0 + ERROR))
        else:
            route = scaled(route)
        monkeypatch.setattr(phasespace, name, route)
        return phasespace.wigner_tcs(s, PhaseSpacePoint(x + 0.5, p - 0.4),
                                     0.4)
    inject.__name__ = "wigner_tcs-" + name
    return inject


def var_h(monkeypatch):
    # the covariance and centroid form of the variance
    real = states.covariance

    def covariance(p):
        c = real(p)
        return SimpleNamespace(sigma_p=c.sigma_p * (1.0 + ERROR),
                               sigma_x=c.sigma_x, sigma_px=c.sigma_px)

    monkeypatch.setattr(states, "covariance", covariance)
    return states.var_h(DynamicState(2, P0))


def determinant(times):
    """The 1/4 determinant of `CovarianceTriple`, sigma_p off by ERROR."""
    def inject(monkeypatch):
        real = states._moments

        def moments(a, b):
            sigma_p, sigma_x, sigma_px = real(a, b)
            return sigma_p * (1.0 + ERROR), sigma_x, sigma_px

        monkeypatch.setattr(states, "_moments", moments)
        return states.covariance(evolve(P0, times))
    inject.__name__ = "determinant-" + ("array" if np.ndim(times) else
                                        "scalar")
    return inject


def phase_identity(name, call):
    """One matrix of the evolved arguments in `_phase_identity_check`."""
    def inject(monkeypatch):
        monkeypatch.setattr(fockexp, name,
                            scaled(getattr(fockexp, name), calls={call}))
        return fockexp._phase_identity_check(P0, 0.7)
    inject.__name__ = "phase_identity-%s-%d" % (name, call)
    return inject


def skewed_quadratures(monkeypatch):
    """The momentum quadrature of `operators`, its upper triangle off by
    ERROR, so that it is no longer Hermitian."""
    real = operators._quadratures

    def quadratures(p, n_dim):
        q_op, p_op = real(p, n_dim)
        return q_op, p_op + ERROR * np.triu(p_op, 1)

    monkeypatch.setattr(operators, "_quadratures", quadratures)


def b_adjoint(monkeypatch):
    skewed_quadratures(monkeypatch)
    return operators.b_operators(P0, 8)


def hermitian_claim(monkeypatch):
    # `invariant_E` claims its matrix Hermitian
    skewed_quadratures(monkeypatch)
    return operators.invariant_E(P0, 8)


def bailey_residual(monkeypatch):
    real = specfun._bailey_core
    monkeypatch.setattr(specfun, "_bailey_core",
                        lambda *args: real(*args) * (1.0 + ERROR * 1j))
    return specfun.bailey_integral(2, 4, 1.1, 0.7, 1.3)


def quadrature(call):
    """The fine (0) or half-resolution (1) sum of `wigner_numeric`, at
    the packet's centre, where W = 1/pi."""
    def inject(monkeypatch):
        s = TCSState(0.8 - 0.6j, P0)
        monkeypatch.setattr(np, "trapezoid",
                            scaled(np.trapezoid, calls={call}))
        return phasespace.wigner_numeric(
            lambda x: psi_tcs(s, x, 0.4),
            PhaseSpacePoint(*phasespace.tcs_center(s, 0.4)))
    inject.__name__ = "wigner_numeric-" + ("fine", "coarse")[call]
    return inject


def level(monkeypatch):
    """Level 3 of `energy_levels`' eigenvalues, off by ERROR."""
    real = np.linalg.eigh

    def eigh(block):
        vals, vecs = real(block)
        vals[3] *= 1.0 + ERROR
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return operators.energy_levels(P0, 24)


FORMS = "equivalent Wigner forms disagree"


CASES = [
    (tcs_form("_tcs_values"), ArithmeticError, FORMS),
    (tcs_form("tcs_center"), ArithmeticError, FORMS),
    (tcs_form("covariance"), ArithmeticError, FORMS),
    (var_h, ArithmeticError, "energy-variance forms disagree"),
    (determinant(0.4), ArithmeticError, "violates the 1/4 identity"),
    (determinant(np.linspace(0.0, 3.0, 7)), ArithmeticError,
     "violates the 1/4 identity"),
    (phase_identity("t_matrix", 2), ArithmeticError,
     "^displacement-phase identity failed"),
    (phase_identity("t_matrix", 3), ArithmeticError,
     "rotated displacement-phase identity failed"),
    (phase_identity("m_matrix", 1), ArithmeticError,
     "squeeze-phase identity failed"),
    (b_adjoint, ArithmeticError, "ladder adjoint relation"),
    (hermitian_claim, ValueError, "claimed Hermitian"),
    (bailey_residual, ArithmeticError, "imaginary residual"),
    (quadrature(0), ArithmeticError, "quadrature did not converge"),
    (quadrature(1), ArithmeticError, "quadrature did not converge"),
]


@pytest.mark.parametrize("inject, error, match", [
    pytest.param(*case, id=case[0].__name__) for case in CASES])
def test_a_small_error_fails_the_cross_check(monkeypatch, inject, error,
                                             match):
    with pytest.raises(error, match=match):
        inject(monkeypatch)


# the guard only asks that consecutive levels be 1e-6 apart; they are
# about 1 apart, and no second route to them is compared
@pytest.mark.xfail(raises=pytest.fail.Exception, strict=True,
                   reason="the degeneracy guard passes an error in a level")
def test_a_small_level_error_fails_the_degeneracy_guard(monkeypatch):
    with pytest.raises(ArithmeticError, match="unresolved"):
        level(monkeypatch)


@pytest.mark.parametrize("times", [0.4, np.linspace(0.0, 3.0, 7)],
                         ids=["scalar", "array"])
def test_a_failed_identity_is_not_called_an_overflow(monkeypatch, times):
    # nothing overflowed: the message names the identity alone
    with pytest.raises(ArithmeticError) as info:
        determinant(times)(monkeypatch)
    assert "overflow" not in str(info.value)


def test_the_routes_agree_unmutated():
    # the same calls, with no error put in, pass every check
    s = TCSState(0.8 - 0.6j, P0)
    x, p = phasespace.tcs_center(s, 0.4)
    phasespace.wigner_tcs(s, PhaseSpacePoint(x + 0.5, p - 0.4), 0.4)
    states.var_h(DynamicState(2, P0))
    states.covariance(evolve(P0, np.linspace(0.0, 3.0, 7)))
    fockexp._phase_identity_check(P0, 0.7)
    operators.b_operators(P0, 8)
    operators.invariant_E(P0, 8)
    operators.energy_levels(P0, 24)
    phasespace.wigner_numeric(lambda x: psi_tcs(s, x, 0.4),
                              PhaseSpacePoint(*phasespace.tcs_center(s, 0.4)))
    assert math.isfinite(specfun.bailey_integral(2, 4, 1.1, 0.7, 1.3))
