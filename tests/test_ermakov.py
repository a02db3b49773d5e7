"""Parameter-flow tests: frozen closed-form values, round trips, invariants.

Frozen expected values were computed with mpmath at 50 digits through the
complex rotation form of the flow (independent of the trigonometric code
path under test) and pasted here.
"""

import math
import re

import numpy as np
import pytest

from sqstates.ermakov import (
    ComplexGroupParameters,
    ErmakovParameters,
    classical_trajectory,
    evolve,
    evolve_complex,
    invariants,
    to_complex,
)

from conftest import draw_params
from oracles import from_complex

GROUND = ErmakovParameters(0.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def as_tuple(p):
    return (p.alpha, p.beta, p.gamma, p.delta, p.epsilon, p.kappa)


class TestEvolveFrozen:
    def test_ground_state_is_static_up_to_phase(self):
        p = evolve(GROUND, 1.3)
        assert as_tuple(p) == pytest.approx((0.0, 1.0, -0.65, 0.0, 0.0, 0.0), abs=1e-15)

    def test_identity_at_t_zero(self, rng):
        for _ in range(25):
            p0 = draw_params(rng)
            assert as_tuple(evolve(p0, 0.0)) == pytest.approx(as_tuple(p0), abs=1e-15)

    def test_squeezed_breather_quarter_period(self):
        # (alpha0, beta0) = (1/2, 2), no displacement, t = pi/4.
        p0 = ErmakovParameters(0.5, 2.0, 0.0, 0.0, 0.0, 0.0)
        p = evolve(p0, math.pi / 4)
        assert p.alpha == pytest.approx(0.4, abs=1e-14)
        assert p.beta == pytest.approx(2.0 / math.sqrt(10.0), abs=1e-14)
        assert p.gamma == pytest.approx(-0.5535743588970452515, abs=1e-14)
        assert p.delta == pytest.approx(0.0, abs=1e-15)
        assert p.epsilon == pytest.approx(0.0, abs=1e-15)
        assert p.kappa == pytest.approx(0.0, abs=1e-15)

    def test_displaced_sheared_packet(self):
        p0 = ErmakovParameters(-0.3, 1.4, 0.2, 0.7, -1.1, 0.05)
        p = evolve(p0, 2.6)
        expected = (
            -0.3560344087843694602,
            0.9073191456857260550,
            -1.0138280995731027493,
            -0.9964091877777408304,
            0.5039621173214167012,
            0.0482768169950438137,
        )
        assert as_tuple(p) == pytest.approx(expected, abs=1e-14)

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValueError):
            evolve(GROUND, math.inf)
        with pytest.raises(ValueError):
            evolve(GROUND, math.nan)

    @pytest.mark.parametrize("t", [6.1e14, np.array([6.1e14])],
                             ids=["scalar", "array"])
    def test_overflowing_square_is_the_flow_overflow(self, t):
        # float ** 2 raises OverflowError where it leaves the float range
        p0 = ErmakovParameters(-2.3e302, 2.4e16, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ArithmeticError,
                           match=r"^the flow overflows at t=610000000000000\.0:"):
            evolve(p0, t)


class TestGammaBranch:
    def test_gamma_continuous_and_periodic(self, rng):
        # gamma(t + 2 pi) = gamma(t) - pi; the other five are 2 pi periodic.
        for _ in range(20):
            p0 = draw_params(rng)
            t = rng.uniform(0.0, 2.0 * math.pi)
            a = evolve(p0, t)
            b = evolve(p0, t + 2.0 * math.pi)
            assert b.gamma - a.gamma == pytest.approx(-math.pi, abs=1e-12)
            for name in ("alpha", "beta", "delta", "epsilon", "kappa"):
                assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-12)

    def test_no_branch_jumps_on_fine_grid(self, rng):
        p0 = draw_params(rng)
        ts = np.linspace(0.0, 4.0 * math.pi, 4001)
        gammas = np.array([evolve(p0, float(t)).gamma for t in ts])
        steps = np.abs(np.diff(gammas))
        assert steps.max() < 0.02  # smooth; a pi-jump would show as ~3


class TestComplexForm:
    def test_round_trip(self, rng):
        for _ in range(100):
            p0 = draw_params(rng)
            c = to_complex(p0)
            assert abs(c.c1 + c.c2 - 1.0) < 1e-15
            assert abs(c.c1) ** 2 - abs(c.c2) ** 2 == pytest.approx(p0.beta**2, rel=1e-13)
            back = from_complex(c, gamma0=p0.gamma, kappa0=p0.kappa)
            assert as_tuple(back) == pytest.approx(as_tuple(p0), abs=1e-13)

    def test_negative_beta_branch(self):
        # beta < 0 has no branch: the point is refused before to_complex,
        # and the beta > 0 point with the same moduli round trips
        with pytest.raises(ValueError, match=re.escape(
                "beta must be positive, got -1.3")):
            ErmakovParameters(0.2, -1.3, 0.0, 0.4, -0.2, 0.0)
        back = from_complex(to_complex(
            ErmakovParameters(0.2, 1.3, 0.0, 0.4, -0.2, 0.0)))
        assert back.beta == pytest.approx(1.3, abs=1e-14)
        assert back.delta == pytest.approx(0.4, abs=1e-14)

    def test_rejects_unbalanced_moduli(self):
        with pytest.raises(ValueError):
            ComplexGroupParameters(c1=0.3 + 0.0j, c2=0.7 + 0.0j, c3=0.0j)

    def test_evolve_matches_evolve_complex(self, rng):
        for _ in range(200):
            p0 = draw_params(rng)
            t = rng.uniform(-12.0, 12.0)
            a = evolve(p0, t)
            b = evolve_complex(to_complex(p0), p0.gamma, p0.kappa, t)
            assert as_tuple(a) == pytest.approx(as_tuple(b), abs=1e-11)


class TestInvariantsAndTrajectory:
    def test_invariants_constant_along_flow(self, rng):
        ts = np.linspace(0.0, 4.0 * math.pi, 97)
        for _ in range(50):
            p0 = draw_params(rng)
            ref = invariants(p0)
            for t in ts:
                cur = invariants(evolve(p0, float(t)))
                assert cur.sum_variances == pytest.approx(ref.sum_variances, abs=1e-12)
                assert cur.phase_invariant == pytest.approx(ref.phase_invariant, abs=1e-12)
                assert cur.displacement_invariant_1 == pytest.approx(
                    ref.displacement_invariant_1, abs=1e-12)
                assert cur.displacement_invariant_2 == pytest.approx(
                    ref.displacement_invariant_2, abs=1e-12)

    def test_sum_variances_floor(self, rng):
        # (4 a^2 + b^4 + 1) / (2 b^2) >= 1 with equality only at a=0, b^2=1
        assert invariants(GROUND).sum_variances == 1.0
        for _ in range(200):
            p0 = draw_params(rng)
            assert invariants(p0).sum_variances >= 1.0

    def test_trajectory_initial_point(self, rng):
        for _ in range(30):
            p0 = draw_params(rng)
            x0, p0_mean = classical_trajectory(p0, 0.0)
            assert x0 == pytest.approx(-p0.epsilon / p0.beta, abs=1e-14)
            expected_p = -(2.0 * p0.alpha * p0.epsilon - p0.beta * p0.delta) / p0.beta
            assert p0_mean == pytest.approx(expected_p, abs=1e-14)

    def test_trajectory_frozen_point(self):
        p0 = ErmakovParameters(-0.3, 1.4, 0.2, 0.7, -1.1, 0.05)
        x, p = classical_trajectory(p0, 2.6)
        assert x == pytest.approx(-0.5554408498021238585, abs=1e-14)
        assert p == pytest.approx(-0.6008970786297669811, abs=1e-14)

    def test_trajectory_is_harmonic(self, rng):
        # d<x>/dt = <p>, d<p>/dt = -<x> by central differences
        h = 1e-5
        for _ in range(20):
            p0 = draw_params(rng)
            t = rng.uniform(0.0, 6.0)
            xm, pm = classical_trajectory(p0, t)
            xp, pp = classical_trajectory(p0, t + h)
            xq, pq = classical_trajectory(p0, t - h)
            assert (xp - xq) / (2 * h) == pytest.approx(pm, abs=1e-8)
            assert (pp - pq) / (2 * h) == pytest.approx(-xm, abs=1e-8)


class TestValidationAndJson:
    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError):
            ErmakovParameters(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_rejects_nan_fields(self):
        with pytest.raises(ValueError):
            ErmakovParameters(math.nan, 1.0, 0.0, 0.0, 0.0, 0.0)
