"""Special-function tests against exact-arithmetic and high-precision oracles."""

import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from sqstates.specfun import (
    MAX_DEGREE,
    ParameterDegeneracyError,
    bailey_integral,
    gauss_hermite_rule,
    hermite_function_table,
    hermite_zeros,
    hyp2f1_even_odd,
    hyp2f1_terminating,
    laguerre_assoc,
    laguerre_ratios,
)

from oracles import hermite, hyp2f0_terminating


def hermite_series(n, x):
    # H_n(x) = sum_k n! (-1)^k (2x)^(n-2k) / (k! (n-2k)!)
    total = 0.0
    for k in range(n // 2 + 1):
        total += (math.factorial(n) * (-1) ** k * (2 * x) ** (n - 2 * k)
                  / (math.factorial(k) * math.factorial(n - 2 * k)))
    return total


class TestHermite:
    def test_low_orders(self):
        x = np.linspace(-2, 2, 9)
        assert hermite(0, x) == pytest.approx(np.ones_like(x))
        assert hermite(1, x) == pytest.approx(2 * x)
        assert hermite(2, x) == pytest.approx(4 * x**2 - 2)

    def test_against_term_by_term_series(self):
        assert hermite(12, 0.7) == pytest.approx(hermite_series(12, 0.7), rel=1e-12)
        for n in (3, 5, 8, 15):
            for x in (-1.3, 0.25, 2.0):
                assert hermite(n, x) == pytest.approx(hermite_series(n, x), rel=1e-11)

    def test_against_mpmath(self):
        for n, x in [(20, 0.3), (35, -1.7), (50, 2.4)]:
            ref = float(mp.hermite(n, mp.mpf(str(x))))
            assert hermite(n, x) == pytest.approx(ref, rel=1e-10)

    def test_degree_ceiling(self):
        with pytest.raises(ValueError,
                           match=r"^degree must be an integer in \[0, %d\]"
                           % MAX_DEGREE):
            hermite(MAX_DEGREE + 1, 0.0)
        with pytest.raises(ValueError):
            hermite(-1, 0.0)
        with pytest.raises(ValueError):
            hermite(2.5, 0.0)


class TestHermiteFunction:
    def test_matches_direct_formula_small_n(self):
        x = np.linspace(-3, 3, 41)
        for n in range(6):
            direct = (hermite(n, x) * np.exp(-x * x / 2)
                      / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi)))
            assert hermite_function_table(n, x)[-1] == pytest.approx(
                direct, abs=1e-13)

    def test_orthonormal_by_quadrature(self):
        nodes, weights = np.polynomial.legendre.leggauss(500)
        x = 12.0 * nodes
        w = 12.0 * weights
        table = hermite_function_table(8, x)
        gram = (table * w) @ table.T
        assert np.abs(gram - np.eye(9)).max() < 1e-10

    def test_large_degree_no_overflow(self):
        vals = hermite_function_table(MAX_DEGREE,
                                      np.linspace(-40, 40, 101))[-1]
        assert np.all(np.isfinite(vals))
        assert np.abs(vals).max() < 1.0


class TestLaguerre:
    def test_trivial_values(self):
        assert laguerre_assoc(0, 2, 5.0) == pytest.approx(1.0)
        x = np.linspace(0, 4, 5)
        assert laguerre_assoc(1, 3, x) == pytest.approx(1 + 3 - x)

    def test_finite_sum_formula(self):
        # L_m^a(x) = sum_k (-1)^k C(m+a, m-k) x^k / k!
        m, a, x = 5, 3, 2.2
        total = sum((-1) ** k * math.comb(m + a, m - k) * x**k / math.factorial(k)
                    for k in range(m + 1))
        assert laguerre_assoc(m, a, x) == pytest.approx(total, rel=1e-12)

    def test_against_mpmath(self):
        for m, a, x in [(12, 2, 3.7), (30, 5, 0.9), (64, 1, 8.0),
                        (500, 3, 1e-3)]:
            ref = float(mp.laguerre(m, a, mp.mpf(str(x))))
            assert laguerre_assoc(m, a, x) == pytest.approx(ref, rel=1e-9)

    def test_order_must_exceed_minus_one(self):
        with pytest.raises(ValueError, match="^order must be an integer"):
            laguerre_assoc(3, -1, 0.5)

    # True, 2.5, -1 and MAX_DEGREE + 1 are rows of test_integer_arguments
    @pytest.mark.parametrize("order", [2.0, np.arange(3)],
                             ids=["2.0", "array"])
    def test_order_is_one_integer(self, order):
        # the one run passes the integer level difference n - m
        with pytest.raises(ValueError, match="^order must be an integer"):
            laguerre_assoc(3, order, 0.5)
        with pytest.raises(ValueError, match="^order must be an integer"):
            list(laguerre_ratios(3, order, 0.5))

    def test_memory_does_not_grow_with_degree(self):
        # a degree-512 Wigner grid needs one recurrence grid at a time;
        # holding all 513 would take 513 copies of x
        x = np.linspace(0.0, 4.0, 4096)
        tracemalloc.start()
        try:
            laguerre_assoc(MAX_DEGREE, 0, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * x.nbytes


class TestHermiteZeros:
    @pytest.mark.parametrize("n", [2, 3, 65, 129, MAX_DEGREE + 1])
    def test_match_reference_nodes_and_annihilate_h_n(self, n):
        u = hermite_zeros(n)
        # only the nodes are read: hermgauss's weights overflow at 513
        with np.errstate(all="ignore"):
            ref = np.polynomial.hermite.hermgauss(n)[0][n // 2:]
        assert np.max(np.abs(u - ref)) <= 5e-14
        assert np.all(np.diff(u) > 0.0)
        with mp.workdps(30):
            norm = mp.sqrt(mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi))
            resid = max(abs(float(mp.hermite(n, x) * mp.exp(-x * x / 2) / norm))
                        for x in map(mp.mpf, u.tolist()))
        # a node within an ulp or two of the true zero leaves |h_n| of
        # |h_n'| ulp(x), below 1e-14 for these degrees
        assert resid <= 2e-14

    @pytest.mark.parametrize("n", [2, 3, 64, 65, MAX_DEGREE + 1])
    def test_nonnegative_half_only(self, n):
        # the mirror images below 0 are left to the caller
        u = hermite_zeros(n)
        assert u.shape == ((n + 1) // 2,)
        assert np.all(u >= 0.0)
        assert (u[0] == 0.0) == (n % 2 == 1)

    def test_rejects_bad_count(self):
        for n in (0, MAX_DEGREE + 2, 3.0, True):
            with pytest.raises(ValueError):
                hermite_zeros(n)


class TestGaussHermiteRule:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 65])
    def test_matches_reference_rule(self, n):
        nodes, weights = gauss_hermite_rule(n)
        ref_nodes, ref_weights = np.polynomial.hermite.hermgauss(n)
        modified = ref_weights[n // 2:] * np.exp(ref_nodes[n // 2:] ** 2)
        if n % 2:
            modified[0] *= 0.5      # the zero node is shared by both halves
        assert np.max(np.abs(nodes - ref_nodes[n // 2:])) <= 5e-14
        assert weights == pytest.approx(modified, rel=1e-12)

    @pytest.mark.parametrize("n", [9, 10])
    def test_half_line_sum_integrates_even_monomials(self, n):
        # integral(exp(-u^2) u^(2k) du) = Gamma(k + 1/2), exact below degree 2n
        nodes, weights = gauss_hermite_rule(n)
        for k in range(n):
            got = 2.0 * np.sum(weights * np.exp(-nodes**2) * nodes ** (2 * k))
            assert got == pytest.approx(math.gamma(k + 0.5), rel=1e-13)

    def test_cached_arrays_are_shared_and_read_only(self):
        nodes, weights = gauss_hermite_rule(17)
        again = gauss_hermite_rule(17)
        assert again[0] is nodes and again[1] is weights
        for array in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_rejects_bad_count_even_after_caching_one(self):
        gauss_hermite_rule(1)
        for n in (0, MAX_DEGREE + 2, 3.0, True):
            with pytest.raises(ValueError):
                gauss_hermite_rule(n)


class TestHyp2f1:
    def test_exact_rational_case(self):
        # 2F1(-2, -2; 1/2; -3/10) in exact rational arithmetic
        m = n = 2
        c, z = Fraction(1, 2), Fraction(-3, 10)
        total, term = Fraction(1), Fraction(1)
        for k in range(min(m, n)):
            term = term * (k - m) * (k - n) * z / ((c + k) * (k + 1))
            total += term
        assert hyp2f1_terminating(2, 2, 0.5, -0.3) == pytest.approx(float(total), rel=1e-14)

    def test_unit_when_any_degree_zero(self):
        assert hyp2f1_terminating(0, 7, 0.5, 123.0) == 1.0
        assert hyp2f1_terminating(7, 0, -0.5, -9.0) == 1.0

    def test_degeneracy_signalled(self):
        with pytest.raises(ParameterDegeneracyError):
            hyp2f1_terminating(2, 3, -1.0, 0.5)
        with pytest.raises(ParameterDegeneracyError):
            hyp2f1_terminating(4, 4, 0.0, 0.5)

    def test_half_integer_lower_parameter_is_fine(self):
        # c = (1-m-n)/2 is never an issue for m + n even
        val = hyp2f1_terminating(3, 5, (1 - 3 - 5) / 2, 0.3 + 0.1j)
        assert np.isfinite(val.real) and np.isfinite(val.imag)


class TestHyp2f1EvenOdd:
    @staticmethod
    def degenerate_limit(k, n, zeta, eta="1e-30"):
        # high-precision limit of 2F1(-k, -n; (1-k-n)/2 + eta; (1+i zeta)/2)
        with mp.workdps(60):
            c = mp.mpf(1 - k - n) / 2 + mp.mpf(eta)
            z = (1 + 1j * mp.mpf(str(zeta))) / 2
            total = mp.mpc(1)
            term = mp.mpc(1)
            for j in range(min(k, n)):
                term = term * (j - k) * (j - n) * z / ((c + j) * (j + 1))
                total += term
            return complex(total)

    def test_even_case_against_limit_oracle(self):
        for k, n, zeta in [(4, 2, 0.8), (6, 6, -1.3), (2, 8, 0.05), (0, 4, 2.0)]:
            ref = self.degenerate_limit(k, n, zeta)
            val = hyp2f1_even_odd(k, n, zeta)
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_odd_case_against_limit_oracle(self):
        for k, n, zeta in [(1, 1, 0.4), (3, 5, -0.9), (7, 1, 1.6), (5, 5, 0.33)]:
            ref = self.degenerate_limit(k, n, zeta)
            val = hyp2f1_even_odd(k, n, zeta)
            assert val == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_parity_mismatch_raises(self):
        with pytest.raises(ValueError, match="even"):
            hyp2f1_even_odd(2, 3, 0.5)

    def test_conjugate_at_minus_zeta(self):
        for k, n in [(4, 2), (3, 5), (6, 0), (7, 7)]:
            for zeta in (0.7, -0.2, 1.9):
                a = hyp2f1_even_odd(k, n, zeta)
                b = hyp2f1_even_odd(k, n, -zeta)
                assert a == pytest.approx(np.conj(b), rel=1e-13, abs=1e-15)


class TestHyp2f0:
    def test_small_cases(self):
        assert hyp2f0_terminating(1, 1, 0.25) == pytest.approx(1.25)
        # 2F0(-2, -2; ; z) = 1 + 4 z + 2 z^2
        z = -0.7
        assert hyp2f0_terminating(2, 2, z) == pytest.approx(1 + 4 * z + 2 * z * z)

    def test_terminates_on_either_index(self):
        assert hyp2f0_terminating(0, 9, 3.0) == 1.0
        assert hyp2f0_terminating(9, 0, 3.0) == 1.0


def quad_oracle(m, n, a, b, lam2):
    """Gauss-Legendre quadrature of the defining integral."""
    half = 14.0 / math.sqrt(lam2)
    nodes, weights = np.polynomial.legendre.leggauss(900)
    x = half * nodes
    w = half * weights
    vals = np.exp(-lam2 * x * x) * hermite(m, a * x) * hermite(n, b * x)
    return float(np.sum(w * vals))


class TestBaileyIntegral:
    def test_gaussian_base_case(self):
        assert bailey_integral(0, 0, 1.0, 1.0, 2.0) == pytest.approx(
            math.sqrt(math.pi / 2.0), rel=1e-14)

    def test_odd_parity_is_refused(self):
        # the integral vanishes by parity, and no caller asks for it
        for m, n in ((2, 3), (0, 5)):
            with pytest.raises(ValueError, match="^m \\+ n must be even"):
                bailey_integral(m, n, 1.1, 0.7, 1.3)

    def test_orthogonality_recovered(self):
        for m in range(13):
            for n in range(m % 2, 13, 2):      # m + n odd is refused
                val = bailey_integral(m, n, 1.0, 1.0, 1.0)
                if m == n:
                    ref = 2.0**n * math.factorial(n) * math.sqrt(math.pi)
                    assert val == pytest.approx(ref, rel=1e-10)
                else:
                    assert val == pytest.approx(0.0, abs=1e-10)

    def test_against_quadrature(self):
        cases = [(2, 2, 0.9, 1.4, 1.7), (3, 1, 1.2, 0.6, 0.9),
                 (6, 4, 0.8, 0.8, 1.1), (5, 7, 1.05, 0.95, 2.3),
                 (0, 8, 1.5, 0.5, 1.0), (8, 8, 0.7, 1.3, 1.9)]
        for m, n, a, b, lam2 in cases:
            ref = quad_oracle(m, n, a, b, lam2)
            scale = max(1.0, abs(ref))
            assert abs(bailey_integral(m, n, a, b, lam2) - ref) / scale < 1e-9

    def test_against_mpmath_quadrature(self):
        with mp.workdps(40):
            for m, n, a, b, lam2 in [(4, 2, 1.3, 0.8, 1.5), (3, 3, 0.9, 1.1, 0.7)]:
                f = lambda x: mp.exp(-lam2 * x * x) * mp.hermite(m, a * x) * mp.hermite(n, b * x)
                ref = float(mp.quad(f, [-mp.inf, mp.inf]))
                assert bailey_integral(m, n, a, b, lam2) == pytest.approx(ref, rel=1e-11)

    def test_matches_unreduced_hypergeometric_route(self):
        # off the degenerate points the value equals the explicit
        # sa^m sb^n * 2F1-form with factorwise principal square roots
        rng = np.random.default_rng(7)
        for _ in range(40):
            m, n = 2 * rng.integers(0, 6), 2 * rng.integers(0, 6)
            if rng.random() < 0.5:
                m, n = m + 1, n + 1
            a, b = rng.uniform(0.4, 1.8, size=2)
            lam2 = rng.uniform(0.5, 2.5)
            sa = complex(a * a - lam2) ** 0.5
            sb = complex(b * b - lam2) ** 0.5
            zeta = 1j * a * b / (sa * sb)
            pref = (2.0 ** (m + n) / lam2 ** (0.5 * (m + n + 1))
                    * math.gamma(0.5 * (m + n + 1)))
            ref = pref * sa**m * sb**n * hyp2f1_even_odd(int(m), int(n), zeta)
            assert abs(ref.imag) < 1e-9 * max(1.0, abs(ref))
            val = bailey_integral(int(m), int(n), a, b, lam2)
            assert val == pytest.approx(ref.real, rel=1e-9, abs=1e-9)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError, match="positive"):
            bailey_integral(2, 2, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            bailey_integral(2, 2, 1.0, 1.0, -1.0)
