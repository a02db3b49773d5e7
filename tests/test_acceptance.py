"""End-to-end acceptance suite.

Each test below states one headline guarantee of the package and checks
it at the advertised tolerance, with runtime budgets where the guarantee
includes one.  Every test prints a single summary line

    criterion NN [PASS|FAIL] label: measured numbers

before asserting, so a plain ``pytest -v tests/test_acceptance.py`` run
yields one verdict per guarantee and the captured output of any failure
carries the measured error.

The checks are deliberately oracle-based: closed forms are compared
against quadrature, finite differences, operator algebra, or
high-precision series that never share code with the implementation.
"""

import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from sqstates.channel import ChannelParameters, focus_metrics
from sqstates.ermakov import (
    ErmakovParameters,
    classical_trajectory,
    evolve,
    evolve_complex,
    invariants,
    to_complex,
)
from sqstates.fockexp import (
    TruncationWarning,
    expansion_table,
    pascal_even,
    pascal_odd,
    poisson_statistics,
    t_matrix,
)
from sqstates.operators import (
    b_operators,
    energy_levels,
    heisenberg_residual,
    interior,
)
from sqstates.phasespace import (
    PhaseSpacePoint,
    default_grid,
    moyal,
    purity,
    rotate_evolution_check,
    wigner_numeric,
    wigner_tcs,
)
from sqstates.specfun import (
    bailey_integral,
    hermite_function_table,
    hyp2f1_even_odd,
)
from sqstates.states import (
    DynamicState,
    TCSState,
    covariance,
    psi_n,
    psi_tcs,
    uncertainty_extrema,
    var_h,
    variance_series,
)

from conftest import draw_params
from oracles import (
    density_grid,
    fock_tail,
    gauss_grid,
    hermite,
    psi_2d,
    schrodinger_residual,
    schrodinger_residual_2d,
    superposition_grid,
    var_h_operator,
)


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {label}: {detail}")


def _sigma0(p0):
    """Conserved squeeze invariant (var_p + var_x at its own scale)."""
    b2 = p0.beta * p0.beta
    return (1.0 + 4.0 * p0.alpha * p0.alpha + b2 * b2) / (2.0 * b2)


def _draw_resolvable(rng, cap=4.5):
    """Draw parameters whose Fock support fits the N = 256 operator box.

    Eigenvectors of the truncated invariant are only trustworthy while
    the occupied levels sit far below the truncation edge, so the
    operator-oracle comparisons reject draws whose squeeze invariant
    exceeds ``cap``.  (The closed forms themselves have no such limit.)
    """
    while True:
        p0 = draw_params(rng)
        if _sigma0(p0) <= cap:
            return p0


def test_criterion_01_uncertainty_floor(rng):
    # 200 random parameter sets: the uncertainty product dips to exactly
    # 1/4 and peaks at (1 + 4 a0^2 + b0^4)^2 / (16 b0^4), both within
    # 1e-10, in under 5 seconds.
    start = time.perf_counter()
    err_floor = 0.0
    err_peak = 0.0
    ts = np.linspace(0.0, math.pi, 64, endpoint=False)
    for _ in range(200):
        p0 = draw_params(rng)
        ex = uncertainty_extrema(p0)
        peak = (1.0 + 4.0 * p0.alpha**2 + p0.beta**4) ** 2 / (16.0 * p0.beta**4)
        err_floor = max(err_floor, abs(ex.product_min - 0.25))
        err_peak = max(err_peak, abs(ex.product_max - peak))
        # the reported extrema are attained by the evolved covariance
        c_min = covariance(evolve(p0, ex.t_min))
        c_max = covariance(evolve(p0, ex.t_max))
        err_floor = max(err_floor, abs(c_min.sigma_p * c_min.sigma_x - 0.25))
        err_peak = max(err_peak, abs(c_max.sigma_p * c_max.sigma_x - peak))
        # and a sampled period never crosses either bound
        _, _, product = variance_series(p0, ts)
        err_floor = max(err_floor, 0.25 - float(np.min(product)))
        err_peak = max(err_peak, float(np.max(product)) - peak)
    elapsed = time.perf_counter() - start
    ok = err_floor <= 1e-10 and err_peak <= 1e-10 and elapsed < 5.0
    _report(1, "uncertainty floor", ok,
            f"floor err {err_floor:.3e}, peak err {err_peak:.3e} "
            f"(tol 1e-10), {elapsed:.2f} s (budget 5 s)")
    assert err_floor <= 1e-10
    assert err_peak <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_invariant_conservation(rng):
    # All four conserved combinations stay constant to 1e-12 over
    # t in [0, 4 pi] for 200 draws, in under 2 seconds.
    start = time.perf_counter()
    ts = np.linspace(0.0, 4.0 * math.pi, 25)
    drift = 0.0
    for _ in range(200):
        p0 = draw_params(rng)
        base = invariants(p0)
        ref = (base.sum_variances, base.phase_invariant,
               base.displacement_invariant_1, base.displacement_invariant_2)
        for t in ts:
            iv = invariants(evolve(p0, float(t)))
            now = (iv.sum_variances, iv.phase_invariant,
                   iv.displacement_invariant_1, iv.displacement_invariant_2)
            drift = max(drift, max(abs(a - b) for a, b in zip(now, ref)))
    elapsed = time.perf_counter() - start
    ok = drift <= 1e-12 and elapsed < 2.0
    _report(2, "invariant conservation", ok,
            f"max drift {drift:.3e} (tol 1e-12), {elapsed:.2f} s (budget 2 s)")
    assert drift <= 1e-12
    assert elapsed < 2.0


def test_criterion_03_dual_closed_forms(rng):
    # The trigonometric flow and the complex-rotation flow agree to
    # 1e-11 on all six parameters; the vectorised variance series agrees
    # with covariance-after-evolve to 1e-12.
    fields = ("alpha", "beta", "gamma", "delta", "epsilon", "kappa")
    err_group = 0.0
    for _ in range(200):
        p0 = draw_params(rng)
        c = to_complex(p0)
        for t in rng.uniform(0.0, 4.0 * math.pi, size=4):
            a = evolve(p0, float(t))
            b = evolve_complex(c, p0.gamma, p0.kappa, float(t))
            err_group = max(err_group, max(abs(getattr(a, f) - getattr(b, f))
                                           for f in fields))
    err_var = 0.0
    ts = np.linspace(0.0, 4.0 * math.pi, 41)
    for _ in range(100):
        p0 = draw_params(rng)
        var_p, var_x, product = variance_series(p0, ts)
        for i, t in enumerate(ts):
            cv = covariance(evolve(p0, float(t)))
            err_var = max(err_var,
                          abs(var_p[i] - cv.sigma_p),
                          abs(var_x[i] - cv.sigma_x),
                          abs(product[i] - cv.sigma_p * cv.sigma_x))
    ok = err_group <= 1e-11 and err_var <= 1e-12
    _report(3, "dual closed forms", ok,
            f"flow mismatch {err_group:.3e} (tol 1e-11), "
            f"variance mismatch {err_var:.3e} (tol 1e-12)")
    assert err_group <= 1e-11
    assert err_var <= 1e-12


def test_criterion_04_pde_residuals(rng):
    # Every number-state solution with n <= 5 and the breathing channel
    # packet satisfy their wave equations with finite-difference relative
    # residual at most 1e-5, in under 30 seconds.
    start = time.perf_counter()
    worst_1d = 0.0
    xs = np.linspace(-4.0, 4.0, 41)
    for n in range(6):
        p0 = draw_params(rng)
        state = DynamicState(n, p0)
        for t in (0.7, float(rng.uniform(1.0, 5.0))):
            res = schrodinger_residual(lambda x, tt: psi_n(state, x, tt),
                                       xs, t=t)
            worst_1d = max(worst_1d, res)
    worst_2d = 0.0
    channels = (ChannelParameters(0.3, 0.8),
                ChannelParameters(float(rng.uniform(0.4, 1.5)),
                                  float(rng.uniform(-1.2, 1.2))))
    cx = np.linspace(-2.2, 2.6, 9)
    cy = np.linspace(-2.0, 2.0, 7)
    for ch in channels:
        for t in (0.3, 1.2, 2.7):
            res = schrodinger_residual_2d(
                lambda xx, yy, tt: psi_2d(ch, xx, yy, tt), cx, cy, t)
            worst_2d = max(worst_2d, res)
    elapsed = time.perf_counter() - start
    ok = worst_1d <= 1e-5 and worst_2d <= 1e-5 and elapsed < 30.0
    _report(4, "wave-equation residuals", ok,
            f"1d residual {worst_1d:.3e}, 2d residual {worst_2d:.3e} "
            f"(tol 1e-5), {elapsed:.2f} s (budget 30 s)")
    assert worst_1d <= 1e-5
    assert worst_2d <= 1e-5
    assert elapsed < 30.0


def test_criterion_05_expansion_oracle(rng):
    # Closed-form stationary-basis coefficients match quadrature
    # overlaps to 1e-7 for m, n <= 6 over 20 draws, and at truncation
    # 128 for beta0 in [1/2, 2], |alpha0| <= 1 the weighted column norms
    # beta0 * sum_m |c_mn|^2 equal 1 - tail to 1e-8, where tail is the
    # exact mass beyond row 128 from an operator-algebra oracle; the
    # table's tail_mass reports that same tail to 1e-8, and no norm
    # exceeds 1 beyond roundoff.  Budget 60 s.
    start = time.perf_counter()
    x, w = gauss_grid(12.0, 1200)
    rows = hermite_function_table(6, x)
    err_coeff = 0.0
    with warnings.catch_warnings():
        # only the leading 7 x 7 block is compared here; the table's
        # tail-mass warning concerns rows this clause never reads
        warnings.simplefilter("ignore", TruncationWarning)
        for _ in range(20):
            p0 = draw_params(rng, squeeze=(0.6, 1.8), alpha_max=1.0,
                             disp_max=1.2)
            tab = expansion_table(p0, tuple(range(7)), size=96)
            for j in range(7):
                ref = (rows * w) @ psi_n(DynamicState(j, p0), x, 0.0) \
                    / math.sqrt(p0.beta)
                err_coeff = max(err_coeff,
                                float(np.max(np.abs(tab.coeffs[:7, j] - ref))))

    err_norm = 0.0
    err_tail = 0.0
    excess = -math.inf
    max_tail = 0.0
    where = (0.0, 0.0)
    betas = np.concatenate(([0.5, 0.875, 1.25, 1.625, 2.0],
                            rng.uniform(0.5, 2.0, size=5)))
    alphas = np.concatenate(([-1.0, -0.5, 0.0, 0.5, 1.0],
                             rng.uniform(-1.0, 1.0, size=5)))
    with warnings.catch_warnings():
        # strongly squeezed corners legitimately warn about tail mass;
        # this clause measures that tail against the exact one instead
        warnings.simplefilter("ignore", TruncationWarning)
        for b0 in betas:
            for a0 in alphas:
                p0 = ErmakovParameters(float(a0), float(b0), 0.0, 0.0, 0.0, 0.0)
                tab = expansion_table(p0, tuple(range(7)), size=128)
                norms = p0.beta * np.sum(np.abs(tab.coeffs) ** 2, axis=0)
                tail_exact = fock_tail(p0.alpha, p0.beta, 7, 128)
                defect = float(np.max(np.abs(norms - (1.0 - tail_exact))))
                if defect > err_norm:
                    err_norm = defect
                    where = (float(b0), float(a0))
                err_tail = max(err_tail,
                               float(np.max(np.abs(tab.tail_mass - tail_exact))))
                excess = max(excess, float(np.max(norms - 1.0)))
                max_tail = max(max_tail, float(np.max(tail_exact)))
    elapsed = time.perf_counter() - start
    ok = (err_coeff <= 1e-7 and err_norm <= 1e-8 and err_tail <= 1e-8
          and excess <= 1e-12 and elapsed < 60.0)
    _report(5, "expansion oracle", ok,
            f"coefficient err {err_coeff:.3e} (tol 1e-7), "
            f"norm defect vs 1 - exact tail {err_norm:.3e} at "
            f"beta0={where[0]:.3g}, alpha0={where[1]:.3g} (tol 1e-8), "
            f"tail_mass err {err_tail:.3e} (tol 1e-8), "
            f"largest exact tail {max_tail:.3e}, "
            f"{elapsed:.2f} s (budget 60 s)")
    assert err_coeff <= 1e-7
    # At truncation 128 a column keeps 1 - tail of its weight, not all of
    # it: the photon statistics are geometric with ratio
    # q = (sigma - 1)/(sigma + 1), and at beta0 = 1/2, |alpha0| = 1
    # (sigma = 10.125) the exact tail beyond row 128 runs from about
    # 5e-7 for column 0 to 8.5e-2 for column 6.  The norms are therefore
    # compared with 1 minus that exact tail.
    assert err_norm <= 1e-8, (
        f"weighted column norms miss 1 - exact tail by {err_norm:.3e} at "
        f"truncation 128 (worst at beta0={where[0]:.3g}, "
        f"alpha0={where[1]:.3g})")
    assert err_tail <= 1e-8, (
        f"tail_mass misses the exact tail by {err_tail:.3e}")
    assert excess <= 1e-12, (
        f"a weighted column norm exceeds 1 by {excess:.3e}")
    assert elapsed < 60.0


def test_criterion_06_statistics_identities(rng):
    # Photon statistics: the two-sided Pascal laws reproduce the squared
    # expansion coefficients termwise to 1e-9 for undisplaced packets;
    # the displacement column is Poisson with nbar = (d0^2 + e0^2)/2 to
    # 1e-12; and at nbar = 3.1 the emitted distribution has mean and
    # variance 3.1 within 1e-10.
    err_pascal = 0.0
    for _ in range(20):
        p0 = draw_params(rng, squeeze=(0.6, 1.8), alpha_max=1.0, disp_max=0.0)
        tab = expansion_table(p0, (0, 1), size=256)
        probs = p0.beta * np.abs(tab.coeffs) ** 2
        sig = _sigma0(p0)
        even = pascal_even(sig, 220).probabilities
        odd = pascal_odd(sig, 221).probabilities
        err_pascal = max(err_pascal,
                         float(np.max(np.abs(probs[:200, 0] - even[:200]))),
                         float(np.max(np.abs(probs[:200, 1] - odd[:200]))))

    err_poisson = 0.0
    for _ in range(20):
        d0, e0 = rng.uniform(-1.6, 1.6, size=2)
        nbar = 0.5 * (d0 * d0 + e0 * e0)
        tm = t_matrix(float(e0), float(d0), 0.0, 61)
        with mp.workdps(30):
            rate = mp.mpf(nbar)
            law = np.array([float(mp.exp(-rate) * rate**k / mp.factorial(k))
                            for k in range(61)])
        err_poisson = max(err_poisson,
                          float(np.max(np.abs(np.abs(tm[:, 0]) ** 2 - law))))

    emitted = poisson_statistics(math.sqrt(6.2), 0.0, 200)
    m = np.arange(emitted.probabilities.size)
    mean = float(m @ emitted.probabilities)
    variance = float((m * m) @ emitted.probabilities) - mean * mean
    err_fit = max(abs(mean - 3.1), abs(variance - 3.1),
                  abs(emitted.mean - 3.1), abs(emitted.variance - 3.1))

    ok = err_pascal <= 1e-9 and err_poisson <= 1e-12 and err_fit <= 1e-10
    _report(6, "statistics identities", ok,
            f"pascal err {err_pascal:.3e} (tol 1e-9), "
            f"poisson err {err_poisson:.3e} (tol 1e-12), "
            f"nbar=3.1 moment err {err_fit:.3e} (tol 1e-10)")
    assert err_pascal <= 1e-9
    assert err_poisson <= 1e-12
    assert err_fit <= 1e-10


def test_criterion_07_wigner_suite(rng):
    # Closed-form Wigner values match direct quadrature at 50 random
    # phase-space points to 1e-7; the portrait rotates rigidly on a
    # 201 x 201 grid to 1e-9; the n = 1 minimum is exactly -1/pi within
    # 1e-9; and the integral of W^2 over a pure state is 1/(2 pi)
    # within 1e-5.
    err_point = 0.0
    for _ in range(10):
        zeta = complex(rng.uniform(-0.85, 0.85), rng.uniform(-0.85, 0.85))
        s = TCSState(zeta, draw_params(rng))
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        extent = 12.0 / evolve(s.params0, t).beta
        for _ in range(5):
            pt = PhaseSpacePoint(float(rng.uniform(-2.0, 2.0)),
                                 float(rng.uniform(-2.0, 2.0)))
            num = wigner_numeric(lambda x: psi_tcs(s, x, t), pt,
                                 extent=extent, nodes=1537)
            err_point = max(err_point, abs(wigner_tcs(s, pt, t) - num))

    coeffs = [(math.sqrt(0.4), 0), (1j * math.sqrt(0.6), 2)]
    err_rot = 0.0
    for t in (0.9, 2.6):
        p0 = draw_params(rng)
        grid = default_grid(p0, t, levels=(0, 2), points=201, spread=6.0)
        err_rot = max(err_rot, rotate_evolution_check(coeffs, p0, grid, t))

    floor = -1.0 / math.pi
    err_floor = 0.0
    for _ in range(5):
        p0 = draw_params(rng)
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        xm, pm = classical_trajectory(p0, t)
        val = moyal(1, 1, p0, PhaseSpacePoint(xm, pm), t)
        err_floor = max(err_floor, abs(val - floor))
        g = superposition_grid([(1.0, 1)], p0,
                               default_grid(p0, t, levels=(1,),
                                            points=201, spread=6.0), t)
        err_floor = max(err_floor, floor - float(np.min(g.values)))

    err_pure = 0.0
    for _ in range(3):
        p0 = draw_params(rng)
        g = superposition_grid(coeffs, p0,
                               default_grid(p0, 1.3, levels=(0, 2),
                                            points=401, spread=6.0), 1.3)
        err_pure = max(err_pure, abs(purity(g) - 1.0 / (2.0 * math.pi)))

    ok = (err_point <= 1e-7 and err_rot <= 1e-9
          and err_floor <= 1e-9 and err_pure <= 1e-5)
    _report(7, "wigner suite", ok,
            f"point err {err_point:.3e} (tol 1e-7), "
            f"rotation err {err_rot:.3e} (tol 1e-9), "
            f"floor err {err_floor:.3e} (tol 1e-9), "
            f"purity err {err_pure:.3e} (tol 1e-5)")
    assert err_point <= 1e-7
    assert err_rot <= 1e-9
    assert err_floor <= 1e-9
    assert err_pure <= 1e-5


def test_criterion_08_operator_suite(rng):
    # At N = 256: the moving ladder pair has [b, b+] = I on the interior
    # block to 1e-12; the Heisenberg equation of motion holds to 1e-6;
    # the interior spectrum of the invariant is {k + 1/2} to 1e-8; and
    # the closed-form energy variance matches the operator oracle to
    # 1e-7 for n <= 5.  Budget 120 s.
    start = time.perf_counter()
    err_comm = 0.0
    eye = np.eye(255)
    for _ in range(6):
        p = evolve(draw_params(rng), float(rng.uniform(0.0, 2.0 * math.pi)))
        ops = b_operators(p, 256)
        comm = ops["b"] @ ops["b_dag"] - ops["b_dag"] @ ops["b"]
        err_comm = max(err_comm, float(np.max(np.abs(interior(comm, 1) - eye))))

    err_heis = 0.0
    for _ in range(4):
        p0 = draw_params(rng)
        for t in (0.6, 2.9):
            err_heis = max(err_heis, heisenberg_residual(p0, t, 64))

    err_spec = 0.0
    err_var = 0.0
    for _ in range(4):
        p0 = _draw_resolvable(rng)
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        p = evolve(p0, t)
        values = energy_levels(p, 256)
        for k in range(6):
            err_spec = max(err_spec, abs(float(values[k]) - (k + 0.5)))
        for n in range(6):
            err_var = max(err_var,
                          abs(var_h(DynamicState(n, p0)) -
                              var_h_operator(n, p, 256)))
    elapsed = time.perf_counter() - start
    ok = (err_comm <= 1e-12 and err_heis <= 1e-6 and err_spec <= 1e-8
          and err_var <= 1e-7 and elapsed < 120.0)
    _report(8, "operator suite", ok,
            f"commutator err {err_comm:.3e} (tol 1e-12), "
            f"heisenberg err {err_heis:.3e} (tol 1e-6), "
            f"spectrum err {err_spec:.3e} (tol 1e-8), "
            f"varH err {err_var:.3e} (tol 1e-7), "
            f"{elapsed:.2f} s (budget 120 s)")
    assert err_comm <= 1e-12
    assert err_heis <= 1e-6
    assert err_spec <= 1e-8
    assert err_var <= 1e-7
    assert elapsed < 120.0


def test_criterion_09_hermite_integrals_and_transform(rng):
    # The closed-form cross-Hermite Gaussian integral matches
    # Gauss-Legendre quadrature to 1e-8 (relative) for every order pair
    # with m + n <= 16, including one degenerate scale a^2 = lambda2;
    # and the terminating-series reduction identity holds to 1e-12 for
    # same-parity k, n <= 20.
    nodes, weights = np.polynomial.legendre.leggauss(900)
    err_int = 0.0
    for a, b, lam2 in ((0.9, 1.4, 1.7), (1.2, 0.75, 0.95), (1.0, 1.3, 1.0)):
        half = 14.0 / math.sqrt(lam2)
        x = half * nodes
        w = half * weights
        gauss = np.exp(-lam2 * x * x)
        h_a = [hermite(k, a * x) for k in range(17)]
        h_b = [hermite(k, b * x) for k in range(17)]
        # the integrand of a heavily cancelling pair reaches ~1e9 while
        # the integral itself can be exactly zero (orthogonality at the
        # degenerate scale a^2 = lambda2), so the float quadrature has
        # an absolute noise floor of eps times the Cauchy-Schwarz
        # envelope sqrt(|H_m|^2 |H_n|^2); differences are measured
        # against that envelope, the natural size of the bilinear form
        diag_a = [float(np.sum(w * gauss * h * h)) for h in h_a]
        diag_b = [float(np.sum(w * gauss * h * h)) for h in h_b]
        for m_ord in range(17):
            for n_ord in range(17 - m_ord):
                ref = float(np.sum(w * gauss * h_a[m_ord] * h_b[n_ord]))
                # m + n odd vanishes by parity; bailey_integral refuses it
                val = (0.0 if (m_ord + n_ord) % 2
                       else bailey_integral(m_ord, n_ord, a, b, lam2))
                scale = max(1.0, math.sqrt(diag_a[m_ord] * diag_b[n_ord]))
                err_int = max(err_int, abs(val - ref) / scale)

    def degenerate_limit(k, n, zeta, eta="1e-30"):
        # high-precision limit of the terminating series whose third
        # parameter sits on the degenerate lattice
        with mp.workdps(60):
            c = mp.mpf(1 - k - n) / 2 + mp.mpf(eta)
            z = (1 + 1j * mp.mpf(str(zeta))) / 2
            total = mp.mpc(1)
            term = mp.mpc(1)
            for j in range(min(k, n)):
                term = term * (j - k) * (j - n) * z / ((c + j) * (j + 1))
                total += term
            return complex(total)

    err_tr = 0.0
    for zeta in (0.35, 1.6, -0.85):
        for k in range(21):
            for n in range(k % 2, 21, 2):
                ref = degenerate_limit(k, n, zeta)
                val = hyp2f1_even_odd(k, n, zeta)
                err_tr = max(err_tr, abs(val - ref) / max(1.0, abs(ref)))

    ok = err_int <= 1e-8 and err_tr <= 1e-12
    _report(9, "hermite integrals and transform", ok,
            f"integral err {err_int:.3e} (tol 1e-8), "
            f"transform err {err_tr:.3e} (tol 1e-12)")
    assert err_int <= 1e-8
    assert err_tr <= 1e-12


def test_criterion_10_superfocusing(rng):
    # The on-axis density amplification between the wide and the focused
    # quarter-period frames equals 1/beta0^4: exactly (to rounding) in
    # closed form, within 1e-6 on sampled grids, and equal to 1e4 at
    # beta0 = 0.1.
    half_pi = 0.5 * math.pi
    err_closed = 0.0
    for b0 in (0.1, 0.2, 0.35, 0.5, 0.75, 1.3):
        ch = ChannelParameters(b0, float(rng.uniform(-1.0, 1.0)))
        ratio = focus_metrics(ch, half_pi).peak / focus_metrics(ch, 0.0).peak
        err_closed = max(err_closed, abs(ratio * b0**4 - 1.0))

    err_grid = 0.0
    for b0 in (0.35, 0.5, 0.8):
        ch = ChannelParameters(b0, 0.0)
        *_, wide = density_grid(ch, 0.0, points=201)
        *_, focused = density_grid(ch, half_pi, points=201)
        ratio = float(np.max(focused)) / float(np.max(wide))
        err_grid = max(err_grid, abs(ratio * b0**4 - 1.0))

    ch = ChannelParameters(0.1, 0.0)
    factor = focus_metrics(ch, half_pi).peak / focus_metrics(ch, 0.0).peak
    err_claim = abs(factor / 1.0e4 - 1.0)

    ok = err_closed <= 1e-12 and err_grid <= 1e-6 and err_claim <= 1e-12
    _report(10, "superfocusing amplification", ok,
            f"closed-form err {err_closed:.3e} (tol 1e-12), "
            f"grid err {err_grid:.3e} (tol 1e-6), "
            f"beta0=0.1 factor err {err_claim:.3e} (tol 1e-12)")
    assert err_closed <= 1e-12
    assert err_grid <= 1e-6
    assert err_claim <= 1e-12
