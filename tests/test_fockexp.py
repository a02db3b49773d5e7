"""Overlap-matrix and expansion tests against quadrature and mpmath oracles."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from sqstates.ermakov import ErmakovParameters, evolve
from sqstates.fockexp import (
    ExpansionTable,
    PhotonStatistics,
    TruncationWarning,
    c_coeffs,
    expansion_table,
    m_entry,
    m_matrix,
    pascal_even,
    pascal_odd,
    poisson_statistics,
    squeezed_vacuum_coeffs,
    t_matrix,
    table_to_dict,
    time_dependent_expansion,
    write_statistics_csv,
)
from sqstates.specfun import hermite_function_table
from sqstates.states import DynamicState, psi_n

from conftest import draw_params
from oracles import gauss_grid, hyp2f0_terminating

GROUND = ErmakovParameters(0.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def quad_displacement_overlaps(a, b, g, size, half=14.0, nodes=3000):
    """Direct quadrature of the displacement/modulation overlap."""
    x, w = gauss_grid(half, nodes)
    rows = hermite_function_table(size - 1, x)
    cols = hermite_function_table(size - 1, x + a)
    phase = np.exp(1j * (g + b * x)) * w
    return (rows * phase) @ cols.T


def quad_squeeze_overlaps(alpha, beta, size, half=14.0, nodes=3000):
    """Direct quadrature of the squeeze overlap."""
    x, w = gauss_grid(half, nodes)
    rows = hermite_function_table(size - 1, x)
    cols = hermite_function_table(size - 1, beta * x)
    phase = np.exp(1j * alpha * x * x) * w
    return (rows * phase) @ cols.T


def mp_ladder_matrix(alpha, beta, size, dps=80):
    """Exact creation-ladder construction in mpmath.

    The recurrence is exact in exact arithmetic but catastrophically
    unstable in double precision, so it only serves as an oracle here,
    at high working precision and small size.
    """
    with mp.workdps(dps):
        a = mp.mpf(repr(alpha))
        b = mp.mpf(repr(beta))
        c1 = mp.mpc((1 + b * b) / 2, -a)
        c2 = mp.mpc((1 - b * b) / 2, a)
        rows = 2 * size + 8
        v = [[mp.mpc(0)] * size for _ in range(rows)]
        val = 1 / mp.sqrt(c1)
        v[0][0] = val
        for p in range((rows - 2) // 2):
            val = val * mp.sqrt(mp.mpf(2 * p + 1) / (2 * p + 2)) * (c2 / c1)
            v[2 * p + 2][0] = val
        c1c, c2c = mp.conj(c1), mp.conj(c2)
        for n in range(size - 1):
            den = b * mp.sqrt(mp.mpf(n + 1))
            col = [v[m][n] for m in range(rows)]
            for m in range(rows):
                acc = mp.mpc(0)
                if m >= 1:
                    acc += c1c * mp.sqrt(mp.mpf(m)) * col[m - 1]
                if m + 1 < rows:
                    acc -= c2c * mp.sqrt(mp.mpf(m + 1)) * col[m + 1]
                v[m][n + 1] = acc / den
        return np.array([[complex(v[m][n]) for n in range(size)]
                         for m in range(size)])


def mp_t_entry(a, b, g, m, n, dps=40):
    """One displacement overlap from the Laguerre closed form in mpmath."""
    with mp.workdps(dps):
        a, b, g = mp.mpf(a), mp.mpf(b), mp.mpf(g)
        nu = (a * a + b * b) / 2
        lo, d = min(m, n), abs(m - n)
        unit = (mp.mpc(-a, b) if m >= n else mp.mpc(a, b)) / mp.sqrt(2 * nu)
        value = (mp.exp(1j * (g - a * b / 2) - nu / 2) * unit**d
                 * mp.sqrt(mp.factorial(lo) / mp.factorial(lo + d))
                 * mp.sqrt(nu) ** d * mp.laguerre(lo, d, nu))
        return complex(value)


class TestTMatrix:
    def test_no_shift_no_modulation_is_pure_phase(self):
        for g in (0.0, 0.9, -2.4):
            out = t_matrix(0.0, 0.0, g, 6)
            assert np.array_equal(out, np.exp(1j * g) * np.eye(6))

    def test_first_column_follows_poisson_law(self):
        a, b = 0.8, -0.6
        nu = 0.5 * (a * a + b * b)
        out = t_matrix(a, b, 0.0, 61)
        m = np.arange(61)
        ref = np.exp(-nu + m * np.log(nu) - [math.lgamma(k + 1) for k in m])
        assert np.abs(out[:, 0]) ** 2 == pytest.approx(ref, abs=1e-12)

    def test_matches_quadrature(self):
        out = t_matrix(0.7, -0.3, 0.2, 9)
        ref = quad_displacement_overlaps(0.7, -0.3, 0.2, 9)
        assert np.abs(out - ref).max() < 1e-8

    def test_columns_orthonormal_up_to_truncation(self):
        out = t_matrix(0.4, 0.3, -1.0, 80)
        gram = out.conj().T @ out
        # the retained block is comfortably inside the truncation
        assert np.abs(gram[:40, :40] - np.eye(40)).max() < 1e-12

    def test_agrees_with_direct_series_form(self):
        a, b, g = 0.9, -1.1, 0.35
        nu = 0.5 * (a * a + b * b)
        u = complex(b, a) / math.sqrt(2.0)
        w = complex(-b, a) / math.sqrt(2.0)
        out = t_matrix(a, b, g, 11)
        pref = np.exp(1j * (g - 0.5 * a * b) - 0.5 * nu)
        for m in range(11):
            for n in range(11):
                ref = (pref * 1j ** (m - n)
                       / math.sqrt(math.factorial(m) * math.factorial(n))
                       * u**m * w**n * hyp2f0_terminating(n, m, -1.0 / nu))
                assert out[m, n] == pytest.approx(ref, abs=1e-13)

    @pytest.mark.parametrize("nu", [2.5e-4, 0.33, 3.1, 20.5])
    def test_full_size_entries_match_mpmath(self, nu):
        # entries are bounded by 1, so the bound is absolute; the probes
        # sit on the diagonal and near the corners of the 512 x 512 matrix
        a, b, g = 0.6 * math.sqrt(2.0 * nu), -0.8 * math.sqrt(2.0 * nu), 0.3
        out = t_matrix(a, b, g, 512)
        for m, n in [(511, 511), (511, 510), (510, 511), (500, 480),
                     (480, 500), (400, 380), (300, 300), (256, 200),
                     (100, 90), (511, 0), (0, 511), (20, 0), (5, 5)]:
            assert abs(out[m, n] - mp_t_entry(a, b, g, m, n)) <= 5e-13

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            t_matrix(0.1, 0.1, 0.0, 0)
        with pytest.raises(ValueError):
            t_matrix(0.1, 0.1, 0.0, 3.5)


class TestMMatrix:
    def test_unit_scale_is_identity(self):
        assert np.array_equal(m_matrix(0.0, 1.0, 7), np.eye(7))

    def test_negative_unit_scale_alternates_signs(self):
        out = m_matrix(0.0, -1.0, 6)
        assert np.array_equal(out, np.diag([1, -1, 1, -1, 1, -1]).astype(complex))

    def test_matches_quadrature(self):
        out = m_matrix(0.4, 1.3, 9)
        ref = quad_squeeze_overlaps(0.4, 1.3, 9)
        assert np.abs(out - ref).max() < 1e-8

    def test_matches_entrywise_closed_form(self, rng):
        for _ in range(25):
            a = rng.uniform(-1.5, 1.5)
            b = rng.uniform(0.4, 2.3) * rng.choice([-1.0, 1.0])
            out = m_matrix(a, b, 12)
            for m in range(12):
                for n in range(12):
                    assert out[m, n] == pytest.approx(
                        m_entry(m, n, a, b), abs=1e-12)

    def test_branch_sign_of_closed_form(self):
        # the lowest branch-sensitive entry fixes the square-root branch:
        # with both indices at level 1 the overlap is beta / c1^{3/2}
        a, b = 0.7, 1.4
        c1 = complex(0.5 * (1 + b * b), -a)
        exact = b / c1 ** 1.5
        assert m_entry(1, 1, a, b, branch=1) == pytest.approx(exact, rel=1e-13)
        assert abs(m_entry(1, 1, a, b, branch=-1) - exact) > 1e-2
        # even-even entries cannot distinguish the branch
        assert m_entry(2, 2, a, b, branch=1) == pytest.approx(
            m_entry(2, 2, a, b, branch=-1), rel=1e-13)

    def test_matches_high_precision_ladder(self):
        for a, b in [(1.0, 0.5), (0.9, 2.2)]:
            ref = mp_ladder_matrix(a, b, 32)
            out = np.asarray(m_matrix(a, b, 32))
            assert np.abs(out - ref).max() < 1e-12

    def test_column_norms_stay_bounded_at_large_sizes(self):
        # a naive double-precision ladder loses these norms by ~1e80
        for a, b in [(0.4, 1.3), (1.0, 0.5), (0.0, 0.45)]:
            out = m_matrix(a, b, 512)
            norms = abs(b) * np.sum(np.abs(out) ** 2, axis=0)
            assert norms.max() < 1.0 + 1e-11
            assert norms.min() > 0.0

    def test_interior_column_norms_complete(self):
        out = m_matrix(-0.3, 1.25, 128)
        norms = 1.25 * np.sum(np.abs(out) ** 2, axis=0)
        assert norms[:32] == pytest.approx(np.ones(32), abs=1e-10)

    def test_opposite_parity_entries_vanish_exactly(self, rng):
        out = m_matrix(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), 20)
        m, n = np.indices(out.shape)
        assert np.all(out[(m + n) % 2 == 1] == 0.0)

    def test_negative_scale_flips_odd_columns(self):
        plus = m_matrix(0.6, 1.7, 10)
        minus = m_matrix(0.6, -1.7, 10)
        signs = np.where(np.arange(10) % 2, -1.0, 1.0)
        assert np.array_equal(minus, plus * signs)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            m_matrix(0.3, 0.0, 8)


class TestSqueezedVacuumCoeffs:
    def test_equals_first_matrix_column(self, rng):
        for _ in range(10):
            a = rng.uniform(-1.4, 1.4)
            b = rng.uniform(0.45, 2.1)
            coeffs = squeezed_vacuum_coeffs(a, b, 30)
            col = m_matrix(a, b, 61)[:, 0]
            assert coeffs == pytest.approx(col[::2], abs=1e-12)

    def test_weighted_squares_reproduce_even_statistics(self):
        a, b = 0.9, 0.7
        sigma = (4 * a * a + b**4 + 1) / (2 * b * b)
        coeffs = squeezed_vacuum_coeffs(a, b, 40)
        stats = pascal_even(sigma, 40)
        assert b * np.abs(coeffs) ** 2 == pytest.approx(
            stats.probabilities[::2], abs=1e-14)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            squeezed_vacuum_coeffs(0.1, 0.0, 5)


class TestExpansionTable:
    def test_ground_state_expands_to_unit_columns(self):
        tab = expansion_table(GROUND, (0, 3, 5), size=16)
        expect = np.zeros((16, 3), dtype=complex)
        expect[0, 0] = expect[3, 1] = expect[5, 2] = 1.0
        assert np.array_equal(tab.coeffs, expect)
        assert tab.tail_mass == pytest.approx(np.zeros(3), abs=1e-14)

    def test_matches_wavefunction_overlaps(self, rng):
        x, w = gauss_grid(12.0, 1200)
        rows = hermite_function_table(6, x)
        for _ in range(5):
            p0 = draw_params(rng, squeeze=(0.6, 1.8), alpha_max=1.0,
                             disp_max=1.2)
            tab = expansion_table(p0, tuple(range(7)), size=96)
            for j, n in enumerate(tab.columns):
                vals = psi_n(DynamicState(n, p0), x, 0.0)
                ref = (rows * w) @ vals / math.sqrt(p0.beta)
                assert np.abs(tab.coeffs[:7, j] - ref).max() < 1e-7

    def test_columns_carry_unit_mass_inside_moderate_region(self, rng):
        for _ in range(8):
            p0 = draw_params(rng, squeeze=(0.7, 1.6), alpha_max=0.8,
                             disp_max=1.2)
            tab = expansion_table(p0, tuple(range(7)), size=128)
            norms = p0.beta * np.sum(np.abs(tab.coeffs) ** 2, axis=0)
            assert norms == pytest.approx(np.ones(7), abs=1e-8)
            # deficits are genuine truncation tails; excess is pure error
            assert norms.max() < 1.0 + 1e-12

    def test_pure_squeeze_preserves_parity_exactly(self):
        p0 = ErmakovParameters(0.8, 1.5, 0.0, 0.0, 0.0, 0.7)
        tab = expansion_table(p0, (0, 1, 4), size=96)
        m = np.arange(96)
        for j, n in enumerate(tab.columns):
            assert np.all(tab.coeffs[(m + n) % 2 == 1, j] == 0.0)

    def test_strong_squeeze_tail_is_reported_not_fatal(self):
        # a strongly squeezed sixth packet genuinely overflows 128 levels
        p0 = ErmakovParameters(1.0, 0.5, 0.0, 0.0, 0.0, 0.0)
        with pytest.warns(TruncationWarning):
            tab = expansion_table(p0, (6,), size=128)
        assert 0.05 < tab.tail_mass[0] < 0.15
        bigger = expansion_table(p0, (6,), size=400)
        assert bigger.tail_mass[0] < 1e-9

    def test_column_accessor_and_validation(self):
        tab = expansion_table(GROUND, (2, 4), size=8)
        assert tab.column(4)[4] == 1.0
        with pytest.raises(ValueError):
            tab.column(3)
        with pytest.raises(ValueError):
            expansion_table(GROUND, (), size=8)
        with pytest.raises(ValueError):
            expansion_table(GROUND, (9,), size=8)
        with pytest.raises(ValueError, match="NaN"):
            ExpansionTable(np.zeros((2, 1), dtype=complex), (0,), 2,
                           np.array([np.nan]), 1.0)

    def test_out_of_range_parameters_raise_instead_of_nan(self):
        # delta0/beta0 = 3e7: the displacement overlaps leave float range
        p0 = ErmakovParameters(0.0, 1e-6, 0.0, 30.0, -30.0, 0.0)
        with pytest.raises(ArithmeticError, match="overflow"):
            expansion_table(p0, (0, 1), 128)

    def test_single_column_helper(self):
        one = c_coeffs(GROUND, 5, size=12)
        assert one.columns == (5,)
        assert one.coeffs[5, 0] == 1.0

    def test_serialization_round_trip(self):
        p0 = ErmakovParameters(0.2, 1.1, 0.4, 0.5, -0.3, 0.1)
        tab = expansion_table(p0, (0, 1), size=24)
        doc = table_to_dict(tab)
        assert doc["truncation"] == 24
        assert doc["columns"] == [0, 1]
        rebuilt = np.array([[complex(re, im) for re, im in col]
                            for col in doc["coeffs"]]).T
        assert np.array_equal(rebuilt, tab.coeffs)


class TestTimeDependentExpansion:
    def test_zero_time_reduces_to_static_coefficients(self, rng):
        p0 = draw_params(rng, squeeze=(0.7, 1.5), alpha_max=0.8)
        vec = time_dependent_expansion(p0, 2, 0.0, size=64)
        ref = c_coeffs(p0, 2, size=64).coeffs[:, 0]
        assert np.array_equal(vec, ref)

    def test_reconstructs_evolved_wavefunction(self, rng):
        x = np.linspace(-4.0, 4.0, 81)
        rows = hermite_function_table(95, x)
        for _ in range(3):
            p0 = draw_params(rng, squeeze=(0.7, 1.6), alpha_max=0.8,
                             disp_max=1.2)
            t = rng.uniform(0.0, 2.0 * math.pi)
            for n in range(4):
                vec = time_dependent_expansion(p0, n, t, size=96)
                rec = math.sqrt(p0.beta) * (vec @ rows)
                ref = psi_n(DynamicState(n, p0), x, t)
                assert np.abs(rec - ref).max() < 1e-6

    def test_displacement_combination_rotates_as_pure_phase(self, rng):
        # (delta/beta + i eps) only ever changes by e^{2i (gamma-gamma0)}
        for _ in range(40):
            p0 = draw_params(rng)
            t = rng.uniform(0.0, 4.0 * math.pi)
            pt = evolve(p0, t)
            z0 = p0.delta / p0.beta + 1j * p0.epsilon
            zt = pt.delta / pt.beta + 1j * pt.epsilon
            assert zt == pytest.approx(
                z0 * np.exp(2j * (pt.gamma - p0.gamma)), abs=1e-12)

    def test_phase_identity_guard_accepts_generic_draws(self, rng):
        for _ in range(4):
            p0 = draw_params(rng, squeeze=(0.6, 1.8), alpha_max=1.0,
                             disp_max=1.0)
            t = rng.uniform(0.0, 9.0)
            time_dependent_expansion(p0, 1, t, size=48, check_identities=True)


class TestPhotonStatistics:
    def test_no_squeezing_concentrates_on_lowest_levels(self):
        even = pascal_even(1.0, 10)
        odd = pascal_odd(1.0, 10)
        assert even.probabilities[0] == pytest.approx(1.0, abs=1e-15)
        assert np.all(even.probabilities[1:] == 0.0)
        assert odd.probabilities[1] == pytest.approx(1.0, abs=1e-15)
        assert np.all(odd.probabilities[2:] == 0.0)
        assert np.all(odd.probabilities[:1] == 0.0)

    def test_distributions_sum_to_one(self):
        for sigma in (1.5, 4.0, 40.0):
            assert pascal_even(sigma, 500).tail < 1e-10
            assert pascal_odd(sigma, 500).tail < 1e-10

    def test_moments_match_summed_series(self):
        for sigma in (2.0, 11.0):
            for stats in (pascal_even(sigma, 500), pascal_odd(sigma, 500)):
                m = np.arange(len(stats.probabilities))
                mean = float(np.sum(m * stats.probabilities))
                var = float(np.sum((m - mean) ** 2 * stats.probabilities))
                assert mean == pytest.approx(stats.mean, abs=1e-9)
                assert var == pytest.approx(stats.variance, rel=1e-9)

    def test_match_expansion_columns_at_strong_squeezing(self):
        sigma = 40.0
        b0 = math.sqrt(sigma + math.sqrt(sigma * sigma - 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            mat = m_matrix(0.0, b0, 192)
        even = pascal_even(sigma, 95).probabilities
        odd = pascal_odd(sigma, 94).probabilities
        col0 = b0 * np.abs(mat[:, 0]) ** 2
        col1 = b0 * np.abs(mat[:, 1]) ** 2
        assert col0[:190] == pytest.approx(even[:190], abs=1e-9)
        assert col1[:190] == pytest.approx(odd[:190], abs=1e-9)

    def test_displaced_ground_state_is_poissonian(self):
        d, e = 1.3, -0.9
        stats = poisson_statistics(d, e, 60)
        tmat = t_matrix(e, d, 0.0, 61)
        assert np.abs(tmat[:, 0]) ** 2 == pytest.approx(
            stats.probabilities, abs=1e-12)

    def test_requested_mean_level_is_reproduced(self):
        nbar = 3.1
        stats = poisson_statistics(math.sqrt(2.0 * nbar), 0.0, 120)
        m = np.arange(121)
        mean = float(np.sum(m * stats.probabilities))
        var = float(np.sum((m - mean) ** 2 * stats.probabilities))
        assert mean == pytest.approx(nbar, abs=1e-10)
        assert var == pytest.approx(nbar, abs=1e-10)
        assert stats.mean == pytest.approx(nbar, abs=1e-12)

    def test_variance_sum_below_floor_rejected(self):
        with pytest.raises(ValueError):
            pascal_even(0.99, 10)
        with pytest.raises(ValueError):
            pascal_odd(-2.0, 10)

    def test_overflowed_mean_level_is_arithmetic_error(self):
        # nbar = inf made every probability exp(-inf) * inf = nan
        with pytest.raises(ArithmeticError, match="not finite"):
            poisson_statistics(1e200, 0.0, 4)

    def test_serialization(self, tmp_path):
        stats = pascal_even(3.0, 12)
        target = tmp_path / "levels.csv"
        write_statistics_csv(target, stats)
        lines = target.read_text().splitlines()
        assert lines[0] == "m,probability"
        assert len(lines) == len(stats.probabilities) + 1
        assert float(lines[1].split(",")[1]) == stats.probabilities[0]
