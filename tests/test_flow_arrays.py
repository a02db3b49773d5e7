"""The array route of the flow against the scalar route, bit for bit.

`evolve`, `covariance` and `classical_trajectory` take a 1-d array of
times (or the struct-of-arrays parameters `evolve` gives for one) and
must give exactly the bits the scalar calls give time by time, because
``evolve.csv`` is built from them and its bytes are fixed.  Where an
entry fails a check, the array is evaluated again through the scalar
route, so the error is the scalar error of the first bad entry.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sqstates.cli as cli
from oracles import flow_row
from sqstates.ermakov import (
    MAX_TIME,
    ErmakovParameters,
    classical_trajectory,
    evolve,
)
from sqstates.states import CovarianceTriple, ScaleRangeError, covariance


FIELDS = ("alpha", "beta", "gamma", "delta", "epsilon", "kappa")


def bits(values) -> bytes:
    # -0.0 and 0.0 compare equal but format differently
    return np.asarray(values, dtype=float).tobytes()


def moderate(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


PARAMS = st.builds(
    ErmakovParameters,
    alpha=moderate(-3.0, 3.0),
    beta=moderate(0.05, 20.0),
    gamma=moderate(-5.0, 5.0),
    delta=moderate(-5.0, 5.0),
    epsilon=moderate(-5.0, 5.0),
    kappa=moderate(-5.0, 5.0),
)


@st.composite
def times(draw):
    """An uneven block of times: a range over many periods, or any times."""
    count = draw(st.integers(1, 1500))
    kind = draw(st.sampled_from(["periods", "near-max", "scattered"]))
    if kind == "periods":
        start = draw(moderate(-1e4, 1e4))
        span = draw(moderate(0.0, 400.0 * math.pi))
        return np.linspace(start, start + span, count)
    if kind == "near-max":
        sign = draw(st.sampled_from([1.0, -1.0]))
        width = draw(moderate(0.0, 1e-6))
        return sign * np.linspace(MAX_TIME * (1.0 - width), MAX_TIME, count)
    return np.array(draw(st.lists(moderate(-MAX_TIME, MAX_TIME),
                                  min_size=1, max_size=64)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(p0=PARAMS, ts=times())
@example(p0=ErmakovParameters(0.4, 1.3, 0.0, 0.2, -0.1, 0.0),
         ts=np.linspace(0.0, 6.2832, 1500))
@example(p0=ErmakovParameters(-2.5, 0.07, 1.0, 4.0, -3.0, 2.0),
         ts=np.linspace(-MAX_TIME, -MAX_TIME * (1.0 - 1e-9), 1001))
def test_array_route_is_the_scalar_route_bit_for_bit(p0, ts):
    # on good input the block is evaluated once, with no fallback
    with mock.patch.object(cli, "evolve", wraps=cli.evolve) as spy:
        rows = list(cli._flow_rows(p0, ts))
    assert spy.call_count == 1
    expected = [flow_row(p0, t) for t in ts.tolist()]
    assert bits(rows) == bits(expected)


def test_library_calls_match_the_scalar_calls():
    p0 = ErmakovParameters(0.4, 1.3, 0.2, 0.2, -0.1, 0.5)
    ts = np.linspace(-40.0, 40.0, 777)
    p = evolve(p0, ts)
    cov = covariance(p)
    x_mean, p_mean = classical_trajectory(p0, ts)
    for i, t in enumerate(ts.tolist()):
        q = evolve(p0, t)
        c = covariance(q)
        assert bits([getattr(p, name)[i] for name in FIELDS]) == bits(
            [getattr(q, name) for name in FIELDS])
        assert bits([cov.sigma_p[i], cov.sigma_x[i], cov.sigma_px[i]]) == bits(
            [c.sigma_p, c.sigma_x, c.sigma_px])
        assert bits([x_mean[i], p_mean[i]]) == bits(classical_trajectory(p0, t))


def first_scalar_error(call, items):
    for item in items:
        try:
            call(item)
        except Exception as exc:
            return exc
    return None


class TestFirstBadEntry:
    """An array fails with the scalar error of its first bad entry."""

    def test_time_out_of_range(self):
        ts = np.array([0.0, 1.0, 2.0 * MAX_TIME, -math.inf])
        with pytest.raises(ValueError, match=r"got 8\.98"):
            evolve(ErmakovParameters(0.1, 1.0, 0.0, 0.0, 0.0, 0.0), ts)
        with pytest.raises(ValueError, match=r"got 8\.98"):
            classical_trajectory(ErmakovParameters(0.1, 1.0, 0, 0, 0, 0), ts)

    def test_flow_overflow_names_its_time(self):
        # kappa0 + s^2 X / den + sin(2t) Y / (4 den) overflows where the
        # two terms add up to enough: not at t = 0, 0.25 or 3
        p0 = ErmakovParameters(1.0, 1.0, 0.0, 0.0, 1e154, 1.7e308)
        ts = np.array([0.0, 0.25, 3.0, 0.5, -0.5])
        expected = first_scalar_error(lambda t: evolve(p0, t), ts.tolist())
        assert "the flow overflows at t=0.5: kappa" in str(expected)
        with pytest.raises(ArithmeticError) as info:
            evolve(p0, ts)
        assert str(info.value) == str(expected)

    def test_covariance_checks_in_row_order(self):
        # entry 1 overflows the moments, entry 2 underflows beta^4, and
        # entry 3 underflows beta^2: the first of them is reported
        p = ErmakovParameters(*(np.array(v) for v in (
            [0.0, 0.3, 0.0, 0.0], [1.0, 1e-100, 1e-150, 1e-200],
            [0.0] * 4, [0.0] * 4, [0.0] * 4, [0.0] * 4)))
        with pytest.raises(ArithmeticError, match="second moments overflow"):
            covariance(p)
        later = ErmakovParameters(*(v[2:] for v in (
            p.alpha, p.beta, p.gamma, p.delta, p.epsilon, p.kappa)))
        with pytest.raises(ScaleRangeError):
            covariance(later)
        with pytest.raises(ZeroDivisionError):
            covariance(ErmakovParameters(*(v[3:] for v in (
                p.alpha, p.beta, p.gamma, p.delta, p.epsilon, p.kappa))))

    def test_value_types_check_each_entry(self):
        for beta in (0.0, -0.0, -1.3):
            with pytest.raises(ValueError, match=re.escape(
                    f"beta must be positive, got {beta!r}")):
                ErmakovParameters(0.1, beta, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="beta must be positive, got 0.0"):
            ErmakovParameters(*(np.array([0.0, 0.0]) for _ in FIELDS))
        # the first bad entry is named, not the most negative one
        beta = np.array([1.0, 0.5, -0.0, -1.3, 0.0])
        with pytest.raises(ValueError,
                           match=r"^beta must be positive, got -0\.0$"):
            ErmakovParameters(np.zeros(5), beta, *[np.zeros(5)] * 4)
        with pytest.raises(ValueError, match="positive"):
            CovarianceTriple(np.array([0.5, -0.5]), np.array([0.5, 0.5]),
                             np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="determinant 1.0 "):
            CovarianceTriple(np.array([0.5, 1.0]), np.array([0.5, 1.0]),
                             np.array([0.0, 0.0]))
