"""Overlap-matrix and expansion tests against quadrature and mpmath oracles."""

import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sqstates import fockexp, verify
from sqstates.ermakov import ErmakovParameters, evolve
from sqstates.fockexp import (
    ExpansionTable,
    PhotonStatistics,
    TruncationWarning,
    expansion_table,
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
from sqstates.specfun import (
    hermite_function_table,
    laguerre_ratio_table,
    laguerre_ratios,
)
from sqstates.states import DynamicState, energy, psi_n

from conftest import draw_params, mirrored
from oracles import (
    gauss_grid,
    hyp2f0_terminating,
    m_entry,
    oneshot_displacement_upper,
    oneshot_expansion,
    oneshot_m_matrix,
    oneshot_t_columns,
    oneshot_t_product,
)

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
        # M(0, -1) = diag((-1)^m) is outside the domain beta > 0
        with pytest.raises(ValueError, match=re.escape(
                "beta must be positive, got -1.0")):
            m_matrix(0.0, -1.0, 6)

    def test_matches_quadrature(self):
        out = m_matrix(0.4, 1.3, 9)
        ref = quad_squeeze_overlaps(0.4, 1.3, 9)
        assert np.abs(out - ref).max() < 1e-8

    def test_matches_entrywise_closed_form(self, rng):
        for _ in range(25):
            a = rng.uniform(-1.5, 1.5)
            b = rng.uniform(0.4, 2.3)
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
            norms = b * np.sum(np.abs(out) ** 2, axis=0)
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
        # there is no odd-column flip for beta < 0: the scale is refused
        with pytest.raises(ValueError, match=re.escape(
                "beta must be positive, got -1.7")):
            m_matrix(0.6, -1.7, 10)

    def test_zero_scale_rejected(self):
        for beta in (0.0, -0.0):
            with pytest.raises(ValueError, match=re.escape(
                    f"beta must be positive, got {beta!r}")):
                m_matrix(0.3, beta, 8)


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
        stats = pascal_even(sigma, 80)
        assert b * np.abs(coeffs) ** 2 == pytest.approx(
            stats.probabilities[::2], abs=1e-14)

    def test_zero_scale_rejected(self):
        for beta0 in (0.0, -0.0, -0.7):
            with pytest.raises(ValueError, match=re.escape(
                    f"beta0 must be positive, got {beta0!r}")):
                squeezed_vacuum_coeffs(0.1, beta0, 5)


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

    def test_mean_level_is_the_closed_form_energy(self):
        # column n is |n> moved by the Gaussian unitary of p0, so its mean
        # photon number is <H>_n - 1/2; this is what sizes the truncated
        # tables of sqstates verify.  The weights carry beta0 already.
        rng = np.random.default_rng(31)
        levels = np.arange(256)
        for _ in range(40):
            p0 = verify._draw(rng, **verify._EXPANSION_BOX)
            tab = expansion_table(p0, (0, 1, 2, 3), size=256)
            for j, n in enumerate(tab.columns):
                closed = energy(DynamicState(n, p0)) - 0.5
                assert float(levels @ tab.weights[:, j]) == pytest.approx(
                    closed, rel=1e-12, abs=0.0)

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
        assert tab.coeffs[4, 1] == 1.0
        assert tab.truncation == len(tab.coeffs) == 8
        with pytest.raises(ValueError):
            expansion_table(GROUND, (), size=8)
        with pytest.raises(ValueError):
            expansion_table(GROUND, (9,), size=8)
        with pytest.raises(ValueError, match="NaN"):
            ExpansionTable(np.zeros((2, 1), dtype=complex), (0,),
                           np.array([np.nan]), 1.0)
        with pytest.raises(ValueError, match="columns"):
            ExpansionTable(np.zeros((2, 2), dtype=complex), (0,),
                           np.zeros(1), 1.0)

    def test_out_of_range_parameters_raise_instead_of_nan(self):
        # delta0/beta0 = 3e7: the displacement overlaps leave float range
        p0 = ErmakovParameters(0.0, 1e-6, 0.0, 30.0, -30.0, 0.0)
        with pytest.raises(ArithmeticError, match="overflow"):
            expansion_table(p0, (0, 1), 128)

    def test_weights_are_weighted_squares(self):
        p0 = ErmakovParameters(0.2, 1.1, 0.4, 0.5, -0.3, 0.1)
        tab = expansion_table(p0, (0, 3), size=24)
        weights = tab.weights
        assert weights.shape == tab.coeffs.shape
        assert not weights.flags.writeable
        np.testing.assert_allclose(weights, 1.1 * np.abs(tab.coeffs) ** 2,
                                   rtol=1e-15, atol=0.0)
        assert np.abs(1.0 - weights.sum(axis=0) - tab.tail_mass).max() < 1e-15

    def test_single_column_helper(self):
        one = expansion_table(GROUND, (5,), size=12)
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


def moderate(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


@st.composite
def column_subsets(draw):
    """A size, columns T below min(size, 12) and a nonempty S within T."""
    size = draw(st.integers(2, 160))
    wide = draw(st.lists(st.integers(0, min(size, 12) - 1), min_size=1,
                         unique=True))
    narrow = draw(st.lists(st.sampled_from(wide), min_size=1, unique=True))
    return size, tuple(wide), tuple(narrow)


def table_or_none(p0, columns, size):
    """The expansion table, or None where it raises ArithmeticError."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        try:
            return expansion_table(p0, columns, size)
        except ArithmeticError:
            return None


def uint_view(a):
    return np.ascontiguousarray(a).view(np.uint64)


# the p0 whose column 0 has a weighted difference of 1.75e-18 at size 64
# (ROADMAP item 7): it raised beside column 7 and passed alone, because
# a lone column's tail rounded otherwise
ITEM_7_P0 = ErmakovParameters(
    0.30275163143183104, 0.6394188353486092, -0.9156060569251132,
    -0.13277621457078603, -0.5028656139364631, 0.8838388600371143)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(p0=st.builds(ErmakovParameters, alpha=moderate(-0.7, 0.7),
                    beta=moderate(0.5, 1.6), gamma=moderate(-0.7, 0.7),
                    delta=moderate(-0.7, 0.7), epsilon=moderate(-0.7, 0.7),
                    kappa=moderate(-0.7, 0.7)),
       case=column_subsets())
@example(p0=ITEM_7_P0, case=(64, (0, 7), (0,)))
def test_column_bits_do_not_depend_on_the_other_columns(p0, case):
    size, wide, narrow = case
    alone = {n: table_or_none(p0, (n,), size) is None for n in wide}
    table = table_or_none(p0, wide, size)
    sub = table_or_none(p0, narrow, size)
    # a table raises exactly when one of its columns raises alone
    assert (table is None) == any(alone.values())
    assert (sub is None) == any(alone[n] for n in narrow)
    if table is not None:
        pick = [wide.index(n) for n in narrow]
        assert np.array_equal(uint_view(sub.coeffs),
                              uint_view(table.coeffs[:, pick]))
        assert np.array_equal(uint_view(sub.tail_mass),
                              uint_view(table.tail_mass[pick]))


# gamma0 != 0 with beta0 > 0; beta0 < 0, refused and run at alpha0 < 0,
# beta0 < 1; the exact identity point of m_matrix at beta0 = 1, and at
# beta0 = -1, refused and run at the identity point with gamma0 < 0
FACTORED_CASES = [
    (0.3, 1.2, 0.7, 0.4, -0.5, 0.2),
    (-0.4, -0.9, 0.3, 0.2, 0.3, -0.1),
    (0.0, 1.0, 0.5, 0.3, -0.2, 0.1),
    (0.0, -1.0, -1.1, 0.3, -0.2, 0.1),
]
GENERIC = ErmakovParameters(*FACTORED_CASES[0])


class TestFactoredExpansion:
    """The first-order product never forms M, and never a full T."""

    @pytest.mark.parametrize("size", [7, 8, 128, 512])
    @pytest.mark.parametrize("case", FACTORED_CASES,
                             ids=["gamma0", "beta0<0", "identity", "-identity"])
    def test_matches_explicit_matrix_product(self, size, case):
        # odd and even sizes give rules of even and odd node counts; the
        # last column carries a large tail, so warnings are expected
        p0 = mirrored(*case)
        cols = (0, 5, size - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            tab = expansion_table(p0, cols, size)
        tmat = t_matrix(p0.epsilon, p0.delta / p0.beta, p0.kappa, size)
        gauge = np.exp(1j * (2.0 * np.array(cols) + 1.0) * p0.gamma)
        ref = (m_matrix(p0.alpha, p0.beta, size) @ tmat[:, cols]) * gauge
        tail = 1.0 - p0.beta * np.sum(np.abs(ref) ** 2, axis=0)
        assert np.max(np.abs(tab.coeffs - ref)) <= 1e-13
        assert np.max(np.abs(tab.tail_mass - tail)) <= 1e-13

    @pytest.mark.parametrize("size", [7, 8, 129])
    @pytest.mark.parametrize("beta", [1.3, -0.7])
    def test_m_matrix_parity_zeros_are_exact(self, size, beta):
        # both node-count parities, beta on both sides of 1
        out = m_matrix(0.4, mirrored(0.4, beta).beta, size)
        m, n = np.indices(out.shape)
        assert np.all(out[(m + n) % 2 == 1] == 0.0)

    @pytest.mark.parametrize("size", [7, 8, 128, 512])
    @pytest.mark.parametrize("a, b, g", [(0.4, 0.3, 0.1), (0.0, 0.0, 0.7),
                                         (1.2, -0.9, 2.0)])
    def test_column_restricted_t_is_bit_identical(self, size, a, b, g):
        cols = (0, 5, size - 1)
        got = fockexp._t_columns(a, b, g, size, cols)
        want = np.ascontiguousarray(t_matrix(a, b, g, size)[:, cols])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("case", FACTORED_CASES[::2],
                             ids=["generic", "identity"])
    def test_builds_no_squeeze_matrix_and_no_t_matrix(self, monkeypatch,
                                                      case):
        calls = {"m_matrix": 0, "t_matrix": 0}

        def counted(name):
            inner = getattr(fockexp, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(fockexp, name, counted(name))
        expansion_table(ErmakovParameters(*case), (0, 1, 2), 64)
        assert calls == {"m_matrix": 0, "t_matrix": 0}

    def test_cross_check_is_live(self, monkeypatch):
        # a norm-preserving 1e-6 error in the first-order product: a
        # rescaling would also move the tail that sets the check's budget
        inner = fockexp._real_scale_product
        monkeypatch.setattr(fockexp, "_real_scale_product",
                            lambda factors, x: inner(factors, x)
                            * np.exp(1e-6j))
        with pytest.raises(ArithmeticError, match="disagree"):
            expansion_table(GENERIC, (0, 1, 2), 128)

    def test_cross_check_names_the_failing_column(self, monkeypatch):
        # the same error on the middle column only: the message quotes
        # that column's label, not the largest difference of the table
        inner = fockexp._real_scale_product

        def patched(factors, x):
            out = inner(factors, x)
            out[:, 1] *= np.exp(1e-6j)
            return out
        monkeypatch.setattr(fockexp, "_real_scale_product", patched)
        with pytest.raises(ArithmeticError,
                           match=r"disagree.*: column 5 has weighted "
                                 r"difference \S+ against a budget of"):
            expansion_table(GENERIC, (2, 5, 7), 128)

    def test_cross_check_is_live_on_the_second_order(self, monkeypatch):
        # the same norm-preserving error in the T2 application
        inner = fockexp._t_product
        monkeypatch.setattr(fockexp, "_t_product",
                            lambda a, b, g, x: inner(a, b, g, x)
                            * np.exp(1e-6j))
        with pytest.raises(ArithmeticError, match="disagree"):
            expansion_table(GENERIC, (0, 1, 2), 128)


class TestTriangleKernel:
    """T is applied and sliced from one real triangle, never formed."""

    @pytest.mark.parametrize("size", [1, 2, 7, 8, 128, 512])
    @pytest.mark.parametrize("nu", [0.0, 2.5e-4, 0.33, 3.1, 20.5])
    def test_product_matches_formed_matrix(self, size, nu, rng):
        a, b, g = 0.6 * math.sqrt(2.0 * nu), -0.8 * math.sqrt(2.0 * nu), 0.3
        x = rng.normal(size=(size, 3)) + 1j * rng.normal(size=(size, 3))
        x /= np.linalg.norm(x, axis=0)
        got = fockexp._t_product(a, b, g, x)
        want = t_matrix(a, b, g, size) @ x
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("angle", [0.3, 2.9, -2.5])
    def test_product_phases_do_not_drift_with_the_level(self, angle):
        # conj(zeta)^m zeta^n near the diagonal at m, n ~ 500: a phase
        # n * theta rounded as a whole would put ~5e-14 here
        a, b = 2.0 * math.cos(angle), 2.0 * math.sin(angle)
        x = np.eye(512, dtype=complex)[:, ::37].copy()
        got = fockexp._t_product(a, b, 0.3, x)
        want = t_matrix(a, b, 0.3, 512) @ x
        assert np.max(np.abs(got - want)) <= 2e-15

    @pytest.mark.parametrize("rows, size", [(1, 1), (1, 6), (4, 9), (9, 9)])
    def test_ratio_table_matches_generator(self, rows, size):
        # the triangle keeps the bits of the full recurrence and leaves
        # zeros below the diagonal
        x = 0.37
        table = laguerre_ratio_table(rows, size, x)
        for d in range(size):
            # order d sits at [n, n + d] for the degrees n < size - d
            ratios = np.array(list(laguerre_ratios(
                min(rows, size - d) - 1, d, x)), dtype=float)
            n = np.arange(ratios.size)
            assert np.array_equal(uint64(table[n, n + d]), uint64(ratios))
        for n in range(rows):
            assert np.all(table[n, :n] == 0.0)

    def test_ratio_table_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            laguerre_ratio_table(0, 4, 0.1)
        with pytest.raises(ValueError):
            laguerre_ratio_table(5, 4, 0.1)


def uint64(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestInPlaceKernels:
    """The kernels keep the bits of their one-shot table expressions
    (`oracles.oneshot_*`) and hold one size x size work table at most."""

    # one row, a block less a row, one block, a block and a row, all rows
    @pytest.mark.parametrize("rows, size", [
        (rows, size) for size in (7, 100, 512)
        for rows in (1, 31, 32, 33, size) if rows <= size])
    @pytest.mark.parametrize("nu", [2.5e-4, 0.37, 20.5])
    def test_blocked_running_product_is_bit_identical(self, rows, size, nu):
        got = fockexp._displacement_upper(nu, rows, size)
        assert np.array_equal(uint64(got),
                              uint64(oneshot_displacement_upper(nu, rows,
                                                                size)))

    @pytest.mark.parametrize("case", range(20))
    def test_random_tables_are_bit_identical(self, case):
        rng = np.random.default_rng(case)
        size = (17, 64, 128, 300)[case % 4]
        p0 = draw_params(rng)
        count = int(rng.integers(1, size + 1))
        cols = tuple(sorted(rng.choice(size, count, replace=False).tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            tab = expansion_table(p0, cols, size)
        coeffs, tail = oneshot_expansion(p0, cols, size)
        assert np.array_equal(uint64(tab.coeffs), uint64(coeffs))
        assert np.array_equal(uint64(tab.tail_mass), uint64(tail))
        first, second = fockexp._t_arguments(p0)
        assert np.array_equal(uint64(t_matrix(*first, size)),
                              uint64(oneshot_t_columns(*first, size,
                                                       range(size))))
        assert np.array_equal(uint64(m_matrix(p0.alpha, p0.beta, size)),
                              uint64(oneshot_m_matrix(p0.alpha, p0.beta,
                                                      size)))
        x = tab.coeffs
        assert np.array_equal(uint64(fockexp._t_product(*second, x)),
                              uint64(oneshot_t_product(*second, x)))

    # nu = 0 takes T = e^{i gamma} I; the others take the Laguerre triangle
    @pytest.mark.parametrize("a, b, gamma", [
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.7), (-0.0, 0.0, -2.3),
        (0.4, -0.5, 0.2), (-1.3, 0.0, 1.1), (0.0, 2.2, -0.4)])
    @pytest.mark.parametrize("size", [1, 2, 17, 128])
    def test_t_kernels_keep_their_signs_and_front(self, a, b, gamma, size):
        rng = np.random.default_rng(size)
        x = (rng.standard_normal((size, 3))
             + 1j * rng.standard_normal((size, 3)))
        assert np.array_equal(uint64(t_matrix(a, b, gamma, size)),
                              uint64(oneshot_t_columns(a, b, gamma, size,
                                                       range(size))))
        assert np.array_equal(uint64(fockexp._t_product(a, b, gamma, x)),
                              uint64(oneshot_t_product(a, b, gamma, x)))

    # the exact identity point of M, at alpha0 = 0 and -0; beside it on
    # and off the alpha0 = 0 axis; and a generic point.  A case written
    # with beta0 < 0 is refused and runs at -beta0 (`mirrored`)
    @pytest.mark.parametrize("alpha, beta", [
        (0.0, 1.0), (0.0, -1.0), (-0.0, -1.0), (0.0, -0.7), (0.3, -1.0),
        (-0.8, -1.6)])
    @pytest.mark.parametrize("size", [2, 17, 128])
    def test_m_kernels_keep_their_diagonal(self, alpha, beta, size):
        rng = np.random.default_rng(size)
        p0 = mirrored(alpha, beta, *rng.uniform(-1.0, 1.0, 4))
        alpha, beta = p0.alpha, p0.beta
        assert np.array_equal(uint64(m_matrix(alpha, beta, size)),
                              uint64(oneshot_m_matrix(alpha, beta, size)))
        cols = (0, 3, min(size, 17) - 1) if size > 3 else (0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            tab = expansion_table(p0, cols, size)
        coeffs, tail = oneshot_expansion(p0, cols, size)
        assert np.array_equal(uint64(tab.coeffs), uint64(coeffs))
        assert np.array_equal(uint64(tab.tail_mass), uint64(tail))

    # tracemalloc peaks at size 512 (MiB): whole-table expressions first,
    # in-place kernels second; each bound lies between the two
    @pytest.mark.parametrize("call, bound", [
        (lambda: expansion_table(GENERIC, range(8), 512), 4.0),
        (lambda: expansion_table(GENERIC, range(512), 512), 26.0),
        (lambda: t_matrix(0.4, -0.5, 0.2, 512), 12.0),
        (lambda: m_matrix(0.3, 1.2, 512), 8.0),
    ], ids=["expansion-8-columns",   # 7.61 -> 3.22
            "expansion-all-columns",  # 33.1 -> 22.1
            "t-matrix",               # 18.3 -> 10.3
            "m-matrix"])              # 13.2 -> 6.3
    def test_peak_memory_at_size_512(self, call, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            call()                  # fills the Gauss-Hermite rule cache
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak / 2**20 <= bound


class TestTimeDependentExpansion:
    def test_zero_time_reduces_to_static_coefficients(self, rng):
        p0 = draw_params(rng, squeeze=(0.7, 1.5), alpha_max=0.8)
        vec = time_dependent_expansion(p0, 2, 0.0, size=64)
        ref = expansion_table(p0, (2,), size=64).coeffs[:, 0]
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

    def test_phase_identity_check_runs_on_every_call(self, monkeypatch):
        # no test of p0 gates the check: with the table stubbed out, a
        # stand-in p0 that holds no beta at all still gets it every time
        seen = []
        table = SimpleNamespace(coeffs=np.ones((4, 1), dtype=complex))
        monkeypatch.setattr(fockexp, "expansion_table",
                            lambda p0, columns, size: table)
        monkeypatch.setattr(fockexp, "_phase_identity_check",
                            lambda p0, t: seen.append((p0, t)))
        p0 = object()
        for t in (0.0, 0.5, 2.0):
            time_dependent_expansion(p0, 0, t, 4)
        assert seen == [(p0, 0.0), (p0, 0.5), (p0, 2.0)]

    def test_phase_identity_guard_accepts_generic_draws(self, rng):
        for _ in range(4):
            p0 = draw_params(rng, squeeze=(0.6, 1.8), alpha_max=1.0,
                             disp_max=1.0)
            t = rng.uniform(0.0, 9.0)
            time_dependent_expansion(p0, 1, t, size=48)


class TestPhotonStatistics:
    def test_no_squeezing_concentrates_on_lowest_levels(self):
        even = pascal_even(1.0, 20)
        odd = pascal_odd(1.0, 21)
        assert even.probabilities[0] == pytest.approx(1.0, abs=1e-15)
        assert np.all(even.probabilities[1:] == 0.0)
        assert odd.probabilities[1] == pytest.approx(1.0, abs=1e-15)
        assert np.all(odd.probabilities[2:] == 0.0)
        assert np.all(odd.probabilities[:1] == 0.0)

    def test_distributions_sum_to_one(self):
        for sigma in (1.5, 4.0, 40.0):
            assert pascal_even(sigma, 1000).tail < 1e-10
            assert pascal_odd(sigma, 1001).tail < 1e-10

    def test_moments_match_summed_series(self):
        for sigma in (2.0, 11.0):
            for stats in (pascal_even(sigma, 1000), pascal_odd(sigma, 1001)):
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
        even = pascal_even(sigma, 190).probabilities
        odd = pascal_odd(sigma, 189).probabilities
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
            pascal_even(0.99, 20)
        with pytest.raises(ValueError):
            pascal_odd(-2.0, 21)

    def test_overflowed_mean_level_is_arithmetic_error(self):
        # nbar = inf made every probability exp(-inf) * inf = nan
        with pytest.raises(ArithmeticError, match="not finite"):
            poisson_statistics(1e200, 0.0, 4)

    def test_serialization(self, tmp_path):
        stats = pascal_even(3.0, 24)
        target = tmp_path / "levels.csv"
        write_statistics_csv(target, stats)
        lines = target.read_text().splitlines()
        assert lines[0] == "m,probability"
        assert len(lines) == len(stats.probabilities) + 1
        assert float(lines[1].split(",")[1]) == stats.probabilities[0]
