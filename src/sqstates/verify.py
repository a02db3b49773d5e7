"""The cross-module invariant suite behind ``sqstates verify``.

Each check is a generator that draws its cases from one shared seeded
stream and yields every error it measures; `run_verification` drains
the checks in registry order, so one seed pins the whole suite, and
folds each check's errors into its ``max_error``: the largest, NaN if
any error is NaN, 0.0 if the check yields none.  The fold only picks a
value, so a finite ``max_error`` is one of the measured errors, bit for
bit.  A ``max_error`` that is not finite fails its check.

Every truncated Fock table is sized by `_fock_size` from the closed-form
mean level <H>_n - 1/2 (`states.energy`) of its columns: a factor times
the largest, rounded up to a multiple of 16, with a floor.  Sizing reads
no random number, so it never moves a draw.  The one exception is
``expansion-tails``, whose claim is the tail at a fixed 128 rows.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from ._pcg64 import PCG64
from .channel import (
    ChannelParameters,
    _channel_norm,
    focus_metrics,
    width_squared,
)
from .ermakov import (
    ErmakovParameters,
    classical_trajectory,
    evolve,
    evolve_complex,
    invariants,
    to_complex,
)
from .fockexp import (
    expansion_table,
    pascal_even,
    poisson_statistics,
    squeezed_vacuum_coeffs,
    t_matrix,
    time_dependent_expansion,
)
from .operators import (
    b_evolved,
    b_operators,
    energy_levels,
    fock_operators,
    hamiltonian_in_ladder,
    heisenberg_residual,
    interior,
)
from .phasespace import (
    PhaseSpacePoint,
    default_grid,
    grid_normalization,
    moyal,
    purity,
    rotate_evolution_check,
    tcs_center,
    tcs_grid,
    wigner_numeric,
    wigner_tcs,
)
from .specfun import (
    bailey_integral,
    hermite_function_table,
    hyp2f1_even_odd,
    hyp2f1_terminating,
)
from .states import (
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

def _draw(rng, squeeze=(0.45, 2.1), alpha_max=1.2,
          disp_max=1.6) -> ErmakovParameters:
    """One random parameter set from the standard stress box."""
    return ErmakovParameters(
        alpha=float(rng.uniform(-alpha_max, alpha_max)),
        beta=float(rng.uniform(*squeeze)),
        gamma=float(rng.uniform(-math.pi, math.pi)),
        delta=float(rng.uniform(-disp_max, disp_max)),
        epsilon=float(rng.uniform(-disp_max, disp_max)),
        kappa=float(rng.uniform(-math.pi, math.pi)))


def _draw_resolvable(rng, cap=4.0) -> ErmakovParameters:
    """Draw until the variance sum is small enough for truncated spectra.

    Strong squeezing spreads low-lying eigenvectors of the invariant
    across many basis levels; capping the conserved variance sum keeps
    a few hundred levels sufficient.
    """
    while True:
        p0 = _draw(rng)
        if invariants(p0).sum_variances <= cap:
            return p0


def _check_variance_extrema(rng):
    for _ in range(20):
        p0 = _draw(rng)
        ext = uncertainty_extrema(p0)
        top = (1.0 + 4.0 * p0.alpha**2 + p0.beta**4)**2 / (16.0 * p0.beta**4)
        yield abs(ext.product_min - 0.25)
        yield abs(ext.product_max - top)
        # at the product's floor one variance is at its minimum and the
        # other at its maximum, (S -/+ R) / (4 beta0^2); the minimum is
        # written as beta0^2 / (S + R), which does not cancel
        b0sq = p0.beta**2
        s_sum = 1.0 + 4.0 * p0.alpha**2 + b0sq**2
        r = math.sqrt((4.0 * p0.alpha**2 + b0sq**2 - 1.0)**2
                      + 16.0 * p0.alpha**2)
        pair = (ext.var_p_at_min, ext.var_x_at_min)
        yield abs(min(pair) - b0sq / (s_sum + r))
        yield abs(max(pair) - (s_sum + r) / (4.0 * b0sq))


def _check_flow_invariants(rng):
    for _ in range(20):
        p0 = _draw(rng)
        ref = invariants(p0)
        for t in np.linspace(0.0, 4.0 * math.pi, 9)[1:]:
            cur = invariants(evolve(p0, float(t)))
            yield abs(cur.sum_variances - ref.sum_variances)
            yield abs(cur.phase_invariant - ref.phase_invariant)
            yield abs(cur.displacement_invariant_1
                      - ref.displacement_invariant_1)
            yield abs(cur.displacement_invariant_2
                      - ref.displacement_invariant_2)


def _check_flow_representations(rng):
    for _ in range(12):
        p0 = _draw(rng)
        c = to_complex(p0)
        for t in (0.7, 2.3, 5.9, 11.0):
            a = evolve(p0, t)
            b = evolve_complex(c, p0.gamma, p0.kappa, t)
            yield abs(a.alpha - b.alpha)
            yield abs(a.beta - b.beta)
            yield abs(a.gamma - b.gamma)
            yield abs(a.delta - b.delta)
            yield abs(a.epsilon - b.epsilon)
            yield abs(a.kappa - b.kappa)


def _check_variance_consistency(rng):
    ts = np.linspace(0.0, 2.0 * math.pi, 7)
    for _ in range(12):
        p0 = _draw(rng)
        var_p, var_x, product = variance_series(p0, ts)
        cov = covariance(evolve(p0, ts))
        yield np.max(abs(var_p - cov.sigma_p))
        yield np.max(abs(var_x - cov.sigma_x))
        yield np.max(abs(product - cov.sigma_p * cov.sigma_x))


#: fourth-order central stencils (offset, weight): 12 h f' and 12 h^2 f''
_FIRST = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))
_SECOND = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))


def _check_wave_equation(rng):
    ht, hx = 1e-4, 1e-3
    for _ in range(2):
        p0 = _draw(rng)
        for n, t in ((0, 1.1), (3, 0.35)):
            state = DynamicState(n, p0)
            pe = evolve(p0, t)
            x_mean, _ = classical_trajectory(p0, t)
            sig = math.sqrt((2.0 * n + 1.0) / (2.0 * pe.beta**2))
            xs = np.linspace(x_mean - 6.0 * sig - 1.5,
                             x_mean + 6.0 * sig + 1.5, 401)
            psi_t = sum(w * psi_n(state, xs, t + k * ht)
                        for k, w in _FIRST) / (12 * ht)
            psi_xx = sum(w * psi_n(state, xs + k * hx, t)
                         for k, w in _SECOND) / (12 * hx * hx)
            mid = psi_n(state, xs, t)
            potential = xs * xs * mid
            residual = 2j * psi_t + psi_xx - potential
            scale = np.max(2.0 * np.abs(psi_t) + np.abs(psi_xx)
                           + np.abs(potential))
            yield float(np.max(np.abs(residual)) / scale)


def _check_expansion_even_law(rng):
    for _ in range(6):
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(0.55, 1.8))
        coeffs = squeezed_vacuum_coeffs(a, b, 40)
        probs = b * np.abs(coeffs)**2
        sigma_sum = (1.0 + 4.0 * a * a + b**4) / (2.0 * b * b)
        ref = pascal_even(sigma_sum, 80).probabilities[0::2]
        yield float(np.max(np.abs(probs - ref)))


def _check_displacement_poisson(rng):
    for _ in range(6):
        d = float(rng.uniform(-1.6, 1.6))
        e = float(rng.uniform(-1.6, 1.6))
        stats = poisson_statistics(d, e, 60)
        column = t_matrix(e, d, 0.0, 61)[:, 0]
        yield float(np.max(np.abs(np.abs(column)**2 - stats.probabilities)))


#: the draw box of the expansion checks, and their least truncation
_EXPANSION_BOX = {"squeeze": (0.7, 1.45), "alpha_max": 0.7, "disp_max": 1.0}
_EXPANSION_SIZE = 128


def _fock_size(p0: ErmakovParameters, columns, factor: float,
               floor: int) -> int:
    """`factor` times the largest mean level of `columns`, at least `floor`.

    Column n is |n> moved by the Gaussian unitary of p0, so its mean
    level is <H>_n - 1/2; the size is rounded up to a multiple of 16.
    """
    mean_level = max(energy(DynamicState(n, p0)) for n in columns) - 0.5
    return max(floor, 16 * math.ceil(factor * mean_level / 16.0))


def _expansion_size(p0: ErmakovParameters, columns) -> int:
    """Twelve times the largest mean level, at least `_EXPANSION_SIZE`."""
    return _fock_size(p0, columns, 12.0, _EXPANSION_SIZE)


def _check_expansion_tails(rng):
    for _ in range(3):
        p0 = _draw(rng, **_EXPANSION_BOX)
        # the claim is the tail at this fixed size, so it is not resized
        table = expansion_table(p0, (0, 1, 2), size=_EXPANSION_SIZE)
        yield float(np.max(np.abs(table.tail_mass)))


def _check_wigner_normalization(rng):
    for _ in range(3):
        p0 = _draw(rng)
        zeta = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        s = TCSState(zeta, p0)
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        g = default_grid(p0, t, (0,), points=241, spread=6.5,
                         center=tcs_center(s, t))
        yield abs(grid_normalization(tcs_grid(s, g, t)) - 1.0)


def _check_fock_negativity(rng):
    for _ in range(3):
        p0 = _draw(rng)
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        pe = evolve(p0, t)
        x0 = -pe.epsilon / pe.beta
        pm = 2.0 * pe.alpha * x0 + pe.delta
        value = moyal(1, 1, p0, PhaseSpacePoint(x0, pm), t)
        yield abs(value - (-1.0 / math.pi))


def _check_wigner_rotation(rng):
    coeffs = [(math.sqrt(0.4), 0), (1j * math.sqrt(0.6), 2)]
    for _ in range(2):
        p0 = _draw(rng)
        g = default_grid(p0, 0.0, (0, 2), points=81, spread=5.0)
        yield rotate_evolution_check(coeffs, p0, g, 1.3)


def _check_ladder_commutator(rng):
    eye = np.eye(95)
    for _ in range(4):
        p = evolve(_draw(rng), float(rng.uniform(0.0, 2.0 * math.pi)))
        ops = b_operators(p, 96)
        comm = (ops["b"].entries @ ops["b_dag"].entries
                - ops["b_dag"].entries @ ops["b"].entries)
        yield float(np.max(np.abs(interior(comm, 1) - eye)))


def _check_heisenberg_motion(rng):
    for _ in range(2):
        p0 = _draw(rng)
        for t in (0.6, 2.9):
            yield heisenberg_residual(p0, t, 48)


def _check_ladder_spectrum(rng):
    for _ in range(2):
        p0 = _draw_resolvable(rng)
        # nine times the mean level of invariant level 6, at least 64,
        # keeps the spectrum error near roundoff over the drawn box
        size = _fock_size(p0, (6,), 9.0, 64)
        values = energy_levels(evolve(p0, 0.0), size)
        for k in range(6):
            yield abs(float(values[k]) - (k + 0.5))


def _check_hermite_integral(rng):
    nodes, weights = np.polynomial.hermite.hermgauss(96)
    for _ in range(8):
        m = int(rng.integers(0, 8))
        n = int(rng.integers(0, 8))
        if (m + n) % 2:
            n = n + 1 if n < 8 else n - 1
        a = float(rng.uniform(0.4, 1.8))
        b = float(rng.uniform(0.4, 1.8))
        lam2 = float(rng.uniform(0.5, 2.5))
        closed = bailey_integral(m, n, a, b, lam2)
        lam = math.sqrt(lam2)
        hm = np.polynomial.hermite.hermval(a * nodes / lam,
                                           [0.0] * m + [1.0])
        hn = np.polynomial.hermite.hermval(b * nodes / lam,
                                           [0.0] * n + [1.0])
        quad = float(np.sum(weights * hm * hn) / lam)
        yield abs(closed - quad) / max(1.0, abs(closed))


def _check_hypergeometric_identities(rng):
    for _ in range(6):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        c = Fraction(int(rng.integers(1, 9)), 2)
        z = Fraction(int(rng.integers(-9, 10)), 10)
        total = term = Fraction(1)
        for k in range(min(m, n)):
            term = term * (k - m) * (k - n) * z / ((c + k) * (k + 1))
            total += term
        value = hyp2f1_terminating(m, n, float(c), float(z))
        yield abs(value - float(total)) / max(1.0, abs(total))
    for _ in range(6):
        k = int(rng.integers(0, 10))
        n = int(rng.integers(0, 10))
        if (k + n) % 2:
            n += 1
        zeta = float(rng.uniform(-1.8, 1.8))
        a = hyp2f1_even_odd(k, n, zeta)
        b = hyp2f1_even_odd(k, n, -zeta)
        yield abs(a - np.conj(b)) / max(1.0, abs(a))


def _check_channel_focus(rng):
    half_pi = 0.5 * math.pi
    for _ in range(4):
        c = ChannelParameters(float(rng.uniform(0.12, 1.6)),
                              float(rng.uniform(-1.5, 1.5)))
        yield abs(width_squared(c, 0.0) * width_squared(c, half_pi) - 1.0)
        gain = focus_metrics(c, half_pi).peak / focus_metrics(c, 0.0).peak
        yield abs(gain * c.beta0**4 - 1.0)
        t = float(rng.uniform(0.0, math.pi))
        yield abs(focus_metrics(c, t).center_x - c.delta0 * math.sin(t))


def _check_channel_norm(rng):
    for _ in range(2):
        c = ChannelParameters(float(rng.uniform(0.3, 1.5)),
                              float(rng.uniform(-1.5, 1.5)))
        for t in (0.4, 1.6):
            yield abs(_channel_norm(c, t) - 1.0)


def _check_energy_variance(rng):
    columns = (0, 1, 2)
    for _ in range(3):
        p0 = _draw(rng, **_EXPANSION_BOX)
        size = _expansion_size(p0, columns)
        table = expansion_table(p0, columns, size=size)
        levels = np.arange(size) + 0.5
        probs = table.weights
        mean = levels @ probs
        spread = ((levels[:, None] - mean) ** 2 * probs).sum(axis=0)
        for j, n in enumerate(table.columns):
            s = DynamicState(n, p0)
            # relative: the rows beyond the truncation carry the largest
            # levels, so the variance misses about tail * size^2
            for closed, truncated in ((energy(s), mean[j]),
                                      (var_h(s), spread[j])):
                yield abs(closed - truncated) / max(1.0, closed)


def _check_tcs_wigner(rng):
    for _ in range(2):
        p0 = _draw(rng)
        s = TCSState(complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)),
                     p0)
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        center = tcs_center(s, t)
        p = evolve(p0, t)
        cov = covariance(p)
        # the transform's integrand decays like exp(-beta(t)^2 y^2 / 4)
        extent = 12.0 / min(1.0, p.beta)
        for _ in range(3):
            pt = PhaseSpacePoint(
                center[0] + math.sqrt(cov.sigma_x) * rng.uniform(-2.0, 2.0),
                center[1] + math.sqrt(cov.sigma_p) * rng.uniform(-2.0, 2.0))
            quad = wigner_numeric(lambda x: psi_tcs(s, x, t), pt,
                                  extent=extent)
            yield abs(wigner_tcs(s, pt, t) - quad)
        # at the product minimum the packet's ellipse is upright, and a
        # small grid integrates it to roundoff
        upright = uncertainty_extrema(p0).t_min
        g = default_grid(p0, upright, (0,), points=41, spread=6.0,
                         center=tcs_center(s, upright))
        yield abs(purity(tcs_grid(s, g, upright)) - 0.5 / math.pi)


def _check_evolved_expansion(rng):
    xs = np.linspace(-6.0, 6.0, 121)
    for _ in range(2):
        p0 = _draw(rng, **_EXPANSION_BOX)
        n = int(rng.integers(0, 4))
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        size = _expansion_size(p0, (n,))
        basis = hermite_function_table(size - 1, xs)
        rebuilt = math.sqrt(p0.beta) * (
            time_dependent_expansion(p0, n, t, size) @ basis)
        direct = psi_n(DynamicState(n, p0), xs, t)
        yield float(np.max(np.abs(rebuilt - direct)))


def _check_ladder_rotation(rng):
    for _ in range(3):
        p0 = _draw(rng)
        t = float(rng.uniform(0.0, 4.0 * math.pi))
        rebuilt = b_operators(evolve(p0, t), 48)["b"].entries
        yield float(np.max(np.abs(b_evolved(p0, t, 48).entries - rebuilt)))


def _check_ladder_hamiltonian(rng):
    ham = fock_operators(48)["H"].entries
    for _ in range(3):
        p = evolve(_draw(rng), float(rng.uniform(0.0, 2.0 * math.pi)))
        gap = hamiltonian_in_ladder(p, 48).entries - ham
        yield float(np.max(np.abs(interior(gap, 2))))


#: name, tolerance, implementation, one-line description.
_CHECKS = (
    ("variance-extrema", 1e-10, _check_variance_extrema,
     "uncertainty product reaches its closed-form floor and peak"),
    ("flow-invariants", 1e-12, _check_flow_invariants,
     "the four conserved combinations stay constant along the flow"),
    ("flow-representations", 1e-11, _check_flow_representations,
     "real closed-form flow agrees with the complex rotation form"),
    ("variance-consistency", 1e-12, _check_variance_consistency,
     "variance series matches the covariance of the evolved parameters"),
    ("wave-equation", 1e-5, _check_wave_equation,
     "packets satisfy 2i psi_t + psi_xx - x^2 psi = 0 (finite differences)"),
    ("expansion-even-law", 1e-9, _check_expansion_even_law,
     "squeezed-vacuum level weights follow the even Pascal law"),
    ("displacement-poisson", 1e-12, _check_displacement_poisson,
     "displaced-ground-state level weights are Poissonian"),
    ("expansion-tails", 1e-8, _check_expansion_tails,
     "weighted expansion columns are unit-norm at moderate truncation"),
    ("wigner-normalization", 1e-5, _check_wigner_normalization,
     "packet phase-space distributions integrate to one"),
    ("fock-negativity", 1e-9, _check_fock_negativity,
     "first-level distribution reaches -1/pi at the packet center"),
    ("wigner-rotation", 1e-9, _check_wigner_rotation,
     "evolved portraits equal rigidly rotated initial ones"),
    ("ladder-commutator", 1e-12, _check_ladder_commutator,
     "[b, b_dag] = 1 on the interior of the truncated matrices"),
    ("heisenberg-motion", 1e-6, _check_heisenberg_motion,
     "db/dt matches i[b, H] under the adopted sign convention"),
    ("ladder-spectrum", 1e-8, _check_ladder_spectrum,
     "the quadratic invariant has levels k + 1/2"),
    ("hermite-integral", 1e-8, _check_hermite_integral,
     "closed-form Gaussian Hermite product integral matches quadrature"),
    ("hypergeometric-identities", 1e-12, _check_hypergeometric_identities,
     "terminating 2F1 matches rational arithmetic and parity symmetry"),
    ("channel-focus", 1e-10, _check_channel_focus,
     "waist/entry widths are reciprocal and the peak gain is 1/beta0^4"),
    ("channel-norm", 1e-6, _check_channel_norm,
     "channel densities integrate to one at every depth"),
    ("energy-variance", 1e-7, _check_energy_variance,
     "closed-form <H> and Var H match the level weights of the expansion"),
    ("tcs-wigner", 1e-12, _check_tcs_wigner,
     "packet Wigner forms match the defining transform; purity is 1/(2 pi)"),
    ("evolved-expansion", 1e-6, _check_evolved_expansion,
     "evolved expansion coefficients rebuild the dynamic wavefunction"),
    ("ladder-rotation", 1e-12, _check_ladder_rotation,
     "b(0) rotated by the Heisenberg dynamics equals b rebuilt at time t"),
    ("ladder-hamiltonian", 1e-10, _check_ladder_hamiltonian,
     "H reassembled over the moving ladder pair equals (p^2 + x^2)/2"),
)


def run_verification(seed: int) -> dict:
    """Run every registered invariant check with a shared seeded stream.

    Checks consume the single random stream in registry order, so one
    seed pins the whole suite; each check is drained to its end, so it
    takes the same draws whatever it yields.  Each entry reports the
    largest observed error (NaN if any error was NaN), the tolerance it
    was judged against, and its runtime.  A non-finite error fails its
    check.  A check that raises ArithmeticError or ValueError fails too:
    its entry reports a NaN error and gains ``error``, the exception's
    type and message, and the later checks still run.

    The stream is ``numpy.random.default_rng(seed)``'s PCG64, drawn bit
    for bit by `_pcg64.PCG64` without loading ``numpy.random``.
    """
    rng = PCG64(int(seed))
    entries = []
    for name, tolerance, fn, description in _CHECKS:
        start = time.perf_counter()
        failure = None
        try:
            errors = [float(e) for e in fn(rng)]
        except (ArithmeticError, ValueError) as exc:
            errors = [math.nan]
            failure = "%s: %s" % (type(exc).__name__, exc)
        error = (math.nan if any(map(math.isnan, errors))
                 else max(errors, default=0.0))
        entries.append({
            "name": name,
            "description": description,
            "max_error": error,
            "tolerance": tolerance,
            "passed": error <= tolerance,
            "runtime_seconds": time.perf_counter() - start,
        })
        if failure is not None:
            entries[-1]["error"] = failure
    return {
        "seed": int(seed),
        "generator": "numpy.random.default_rng (PCG64)",
        "all_passed": all(e["passed"] for e in entries),
        "checks": entries,
    }
