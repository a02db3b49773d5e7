"""Wavefunction and moment tests driven by quadrature and stencil oracles."""

import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

from sqstates.ermakov import ErmakovParameters, classical_trajectory, evolve, invariants
from sqstates.states import (
    CovarianceTriple,
    DynamicState,
    TCSState,
    covariance,
    energy,
    psi_n,
    psi_tcs,
    uncertainty_extrema,
    var_h,
    variance_series,
)

from conftest import draw_params, mirrored
from oracles import (
    fd_second_derivative,
    forked_extrema,
    gauss_grid,
    overlap,
    psi_superposition,
    quadrature_extent,
    schrodinger_residual,
)

GROUND = ErmakovParameters(0.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def quad_setup(p0, t, n=600):
    p = evolve(p0, t)
    x_mean, _ = classical_trajectory(p0, t)
    half = quadrature_extent(p, x_mean)
    return gauss_grid(half, n)


class TestPsiN:
    def test_ground_state_closed_form(self):
        x = np.linspace(-3, 3, 31)
        vals = psi_n(DynamicState(0, GROUND), x, 0.0)
        ref = np.pi**-0.25 * np.exp(-x * x / 2)
        assert vals == pytest.approx(ref, abs=1e-14)
        # stationary phase winds as e^{-i t/2}
        vals_t = psi_n(DynamicState(0, GROUND), x, 2.0)
        assert vals_t == pytest.approx(ref * np.exp(-1j), abs=1e-13)

    def test_normalization(self, rng):
        for _ in range(8):
            p0 = draw_params(rng)
            n = int(rng.integers(0, 7))
            t = float(rng.uniform(0, 7))
            x, w = quad_setup(p0, t)
            vals = psi_n(DynamicState(n, p0), x, t)
            assert overlap(vals, vals, w).real == pytest.approx(1.0, abs=1e-9)

    def test_orthonormality(self, rng):
        p0 = draw_params(rng)
        t = 1.7
        x, w = quad_setup(p0, t)
        table = [psi_n(DynamicState(n, p0), x, t) for n in range(7)]
        for m in range(7):
            for n in range(7):
                val = overlap(table[m], table[n], w)
                assert abs(val - (m == n)) < 1e-8

    def test_schrodinger_residual(self, rng):
        xs = np.linspace(-4, 4, 33)
        for n in range(6):
            p0 = draw_params(rng)
            state = DynamicState(n, p0)
            res = schrodinger_residual(lambda x, t: psi_n(state, x, t),
                                       xs, t=float(rng.uniform(0.2, 5.0)))
            assert res < 1e-5

    def test_ladder_relation(self, rng):
        # the instantaneous lowering operator maps psi_n to
        # sqrt(n) e^{2 i gamma} psi_{n-1}
        p0 = draw_params(rng)
        t = 2.3
        p = evolve(p0, t)
        x = np.linspace(-2.5, 2.5, 21)
        for n in (1, 3, 5):
            up = psi_n(DynamicState(n, p0), x, t)
            down = psi_n(DynamicState(n - 1, p0), x, t)
            h = 1e-5
            deriv = (psi_n(DynamicState(n, p0), x + h, t)
                     - psi_n(DynamicState(n, p0), x - h, t)) / (2 * h)
            lowered = ((p.beta * x + p.epsilon) * up
                       + deriv / p.beta
                       - 1j * (2 * p.alpha * x + p.delta) * up / p.beta) / math.sqrt(2)
            expected = math.sqrt(n) * np.exp(2j * p.gamma) * down
            assert lowered == pytest.approx(expected, abs=1e-8)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            DynamicState(-1, GROUND)
        with pytest.raises(ValueError):
            DynamicState(2.5, GROUND)


class TestPsiTcs:
    def test_zeta_zero_reduces_to_lowest_packet(self, rng):
        p0 = draw_params(rng)
        x = np.linspace(-3, 3, 41)
        for t in (0.0, 1.1, 4.0):
            a = psi_tcs(TCSState(0j, p0), x, t)
            b = psi_n(DynamicState(0, p0), x, t)
            assert a == pytest.approx(b, abs=1e-13)

    def test_normalization(self, rng):
        for _ in range(6):
            p0 = draw_params(rng)
            zeta = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            t = float(rng.uniform(0, 6))
            p = evolve(p0, t)
            eta = zeta * np.exp(2j * p.gamma)
            x_mean = (math.sqrt(2) * eta.real - p.epsilon) / p.beta
            x, w = gauss_grid(quadrature_extent(p, x_mean), 600)
            vals = psi_tcs(TCSState(zeta, p0), x, t)
            assert overlap(vals, vals, w).real == pytest.approx(1.0, abs=1e-9)

    def test_matches_series_over_psi_n(self, rng):
        # e^{-|zeta|^2/2} sum zeta^n psi_n / sqrt(n!) converges to psi_tcs
        p0 = draw_params(rng)
        zeta = 0.6 - 0.45j
        t = 1.9
        x = np.linspace(-4, 4, 17)
        series = np.zeros_like(x, dtype=complex)
        for n in range(40):
            series += (zeta**n / math.sqrt(math.factorial(n))
                       * psi_n(DynamicState(n, p0), x, t))
        series *= math.exp(-abs(zeta) ** 2 / 2)
        direct = psi_tcs(TCSState(zeta, p0), x, t)
        assert direct == pytest.approx(series, abs=1e-10)

    def test_instantaneous_eigenfunction(self, rng):
        for _ in range(5):
            p0 = draw_params(rng)
            zeta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            t = float(rng.uniform(0, 6))
            p = evolve(p0, t)
            eta = zeta * np.exp(2j * p.gamma)
            state = TCSState(zeta, p0)
            x = np.linspace(-2, 2, 15)
            h = 1e-5
            vals = psi_tcs(state, x, t)
            deriv = (psi_tcs(state, x + h, t) - psi_tcs(state, x - h, t)) / (2 * h)
            lowered = ((p.beta * x + p.epsilon) * vals
                       + deriv / p.beta
                       - 1j * (2 * p.alpha * x + p.delta) * vals / p.beta) / math.sqrt(2)
            assert lowered == pytest.approx(eta * vals, abs=1e-8)

    def test_schrodinger_residual(self, rng):
        state = TCSState(0.8 + 0.3j, draw_params(rng))
        res = schrodinger_residual(lambda x, t: psi_tcs(state, x, t),
                                   np.linspace(-4, 4, 33), t=0.9)
        assert res < 1e-5


class TestSuperposition:
    def test_matches_direct_sum(self, rng):
        p0 = draw_params(rng)
        c = np.array([0.5, -0.5j, 0.0, 0.7071067811865476])
        x = np.linspace(-3, 3, 21)
        t = 2.2
        direct = sum(c[n] * psi_n(DynamicState(n, p0), x, t) for n in range(4))
        assert psi_superposition(c, p0, x, t) == pytest.approx(direct, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            psi_superposition([0.5, 0.5], GROUND, 0.0, 0.0)


class TestCovariance:
    def test_exact_rational_determinant(self):
        p = ErmakovParameters(Fraction(3, 7), Fraction(5, 4), 0, Fraction(1, 3),
                              Fraction(-2, 9), 0)
        c = covariance(p)
        assert c.sigma_p * c.sigma_x - c.sigma_px**2 == Fraction(1, 4)
        assert isinstance(c.sigma_p, Fraction)

    def test_determinant_along_flow(self, rng):
        for _ in range(40):
            p = evolve(draw_params(rng), float(rng.uniform(0, 9)))
            c = covariance(p)
            det = c.sigma_p * c.sigma_x - c.sigma_px**2
            assert det == pytest.approx(0.25, abs=1e-12)

    def test_triple_validation(self):
        with pytest.raises(ValueError, match="determinant"):
            CovarianceTriple(1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            CovarianceTriple(-0.5, -0.5, 0.0)
        # inf * inf - inf * inf is a NaN determinant, which fails too
        with pytest.raises(ValueError, match="determinant nan"):
            CovarianceTriple(math.inf, math.inf, math.inf)

    def test_matches_variance_series(self, rng):
        for _ in range(30):
            p0 = draw_params(rng)
            t = float(rng.uniform(0, 8))
            var_p, var_x, product = variance_series(p0, t)
            c = covariance(evolve(p0, t))
            assert var_p == pytest.approx(c.sigma_p, abs=1e-12)
            assert var_x == pytest.approx(c.sigma_x, abs=1e-12)
            assert product == pytest.approx(c.sigma_p * c.sigma_x, abs=1e-12)

    def test_quadrature_moments(self, rng):
        # <x^2> - <x>^2 from |psi_0|^2 equals sigma_x
        p0 = draw_params(rng)
        t = 1.3
        x, w = quad_setup(p0, t)
        vals = psi_n(DynamicState(0, p0), x, t)
        dens = np.abs(vals) ** 2
        mean = float(np.sum(w * x * dens))
        second = float(np.sum(w * x * x * dens))
        c = covariance(evolve(p0, t))
        x_ref, _ = classical_trajectory(p0, t)
        assert mean == pytest.approx(x_ref, abs=1e-9)
        assert second - mean**2 == pytest.approx(c.sigma_x, abs=1e-9)


class TestUncertaintyExtrema:
    def test_breather_example(self):
        # alpha0 = 0, beta0^2 = 3: min product 1/4 with vars (1/6, 3/2),
        # max product 25/36
        p0 = ErmakovParameters(0.0, math.sqrt(3.0), 0.0, 0.0, 0.0, 0.0)
        ext = uncertainty_extrema(p0)
        assert ext.product_min == pytest.approx(0.25, abs=1e-13)
        assert ext.product_max == pytest.approx(25.0 / 36.0, abs=1e-13)
        vars_sorted = sorted((ext.var_p_at_min, ext.var_x_at_min))
        assert vars_sorted == pytest.approx([1.0 / 6.0, 1.5], abs=1e-13)

    def test_degenerate_flagged(self):
        # alpha0 = 0, beta0^2 = 1: the product is constant, so every
        # instant is an extremum and nothing needs flagging
        ext = uncertainty_extrema(GROUND)
        assert ext.product_min == pytest.approx(0.25, abs=1e-15)
        assert ext.product_max == pytest.approx(0.25, abs=1e-15)

    def test_fields_keep_their_bits(self, rng):
        # off the old constant-product fork, every field has the bits of
        # the route that had it (`oracles.forked_extrema`)
        for _ in range(200):
            p0 = draw_params(rng)
            got = np.array(astuple(uncertainty_extrema(p0)))
            want = np.array(forked_extrema(p0))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("beta", [1.0, -1.0])
    def test_constant_product_moves_only_t_max(self, beta):
        # at alpha0 = 0, beta0 = 1 every instant is an extremum: the
        # fork reported t_max = 0, the one route reports pi/4
        p0 = mirrored(0.0, beta, 0.3, -0.2, 0.5, 0.1)
        got = astuple(uncertainty_extrema(p0))
        want = forked_extrema(p0)
        assert (got[4], want[4]) == (math.pi / 4.0, 0.0)
        keep = [0, 1, 2, 3, 5]
        assert np.array_equal(np.array(got)[keep].view(np.uint64),
                              np.array(want)[keep].view(np.uint64))
        assert got[:4] + got[5:] == (0.0, 0.25, 0.5, 0.5, 0.25)

    def test_extrema_against_dense_sampling(self, rng):
        # the analytic extrema must bound every sampled value, and the
        # densest sample should approach them to grid resolution
        # (quadratic near an extremum, so slack ~ (pi / npts)^2 * scale)
        ts = np.linspace(0.0, math.pi, 200001)
        for _ in range(15):
            p0 = draw_params(rng)
            _, _, product = variance_series(p0, ts)
            ext = uncertainty_extrema(p0)
            lo, hi = float(product.min()), float(product.max())
            scale = max(1.0, ext.product_max)
            slack = 1e-6 * scale
            assert ext.product_min <= lo + 1e-12 * scale
            assert ext.product_max >= hi - 1e-12 * scale
            assert lo - ext.product_min < slack
            assert ext.product_max - hi < slack
            assert ext.product_min == pytest.approx(0.25, abs=1e-13)

    def test_max_formula(self, rng):
        for _ in range(30):
            p0 = draw_params(rng)
            s = 1 + 4 * p0.alpha**2 + p0.beta**4
            assert uncertainty_extrema(p0).product_max == pytest.approx(
                s * s / (16 * p0.beta**4), rel=1e-13)

    def test_extreme_variance_identity(self, rng):
        # at the product minimum the large/small variances are
        # [S +/- sqrt(plus * minus)] / (4 beta0^2)
        for _ in range(30):
            p0 = draw_params(rng)
            ext = uncertainty_extrema(p0)
            s = 1 + 4 * p0.alpha**2 + p0.beta**4
            plus = 4 * p0.alpha**2 + (p0.beta**2 + 1) ** 2
            minus = 4 * p0.alpha**2 + (p0.beta**2 - 1) ** 2
            root = math.sqrt(plus) * math.sqrt(minus)
            got = sorted((ext.var_p_at_min, ext.var_x_at_min))
            ref = sorted(((s - root) / (4 * p0.beta**2), (s + root) / (4 * p0.beta**2)))
            assert got == pytest.approx(ref, rel=1e-11)


class TestEnergyMoments:
    def test_coherent_energy_and_variance(self):
        p0 = ErmakovParameters(0.0, 1.0, 0.0, math.sqrt(2.0), 2.0, 0.0)
        s = DynamicState(0, p0)
        nbar = (p0.delta**2 + p0.epsilon**2) / 2
        assert energy(s) == pytest.approx(nbar + 0.5, rel=1e-14)
        assert var_h(s) == pytest.approx(3.0, abs=1e-12)

    def test_energy_floor(self, rng):
        assert energy(DynamicState(0, GROUND)) == 0.5
        for _ in range(100):
            assert energy(DynamicState(int(rng.integers(0, 4)), draw_params(rng))) >= 0.5

    def test_energy_matches_invariant_structure(self, rng):
        # <H> = (n + 1/2) * sum_variances + drift/2 where drift is the
        # second displacement invariant scaled by beta0^2... checked via
        # direct quadrature instead of formula gymnastics below
        p0 = draw_params(rng)
        n = 2
        s = DynamicState(n, p0)
        t = 0.8
        x, w = quad_setup(p0, t, n=700)
        vals = psi_n(s, x, t)
        h = 1e-5
        deriv = (psi_n(s, x + h, t) - psi_n(s, x - h, t)) / (2 * h)
        kinetic = 0.5 * float(np.sum(w * np.abs(deriv) ** 2))
        potential = 0.5 * float(np.sum(w * x * x * np.abs(vals) ** 2))
        assert kinetic + potential == pytest.approx(energy(s), abs=1e-8)

    def test_var_h_against_quadrature(self, rng):
        p0 = draw_params(rng, squeeze=(0.7, 1.5), disp_max=1.0)
        s = DynamicState(1, p0)
        t = 0.0
        x, w = gauss_grid(quadrature_extent(p0) + 4.0, 900)
        vals = psi_n(s, x, t)
        psi_xx = fd_second_derivative(lambda xx: psi_n(s, xx, t), x, h=2e-4)
        h_psi = -0.5 * psi_xx + 0.5 * x * x * vals
        mean_h = overlap(vals, h_psi, w).real
        mean_h2 = overlap(h_psi, h_psi, w).real
        assert mean_h == pytest.approx(energy(s), abs=1e-7)
        assert mean_h2 - mean_h**2 == pytest.approx(var_h(s), abs=1e-5)

    def test_var_h_nonnegative(self, rng):
        for _ in range(60):
            s = DynamicState(int(rng.integers(0, 6)), draw_params(rng))
            assert var_h(s) >= -1e-12

