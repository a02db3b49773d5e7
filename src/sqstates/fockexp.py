"""Expansion of the dynamic states over the stationary oscillator basis.

Two overlap matrices generate everything here.  The displacement-type
matrix

    T_mn(a, b, g) = integral( Psi_m(x)* exp(i(g + b x)) Psi_n(x + a) dx )

is evaluated in closed form through associated Laguerre polynomials, and
the squeeze-type matrix

    M_mn(alpha, beta) = integral( Psi_m(x)* exp(i alpha x^2) Psi_n(beta x) dx )

is reduced to a pure-scale matrix M(0, b0) on the same flow orbit
(b0^2 = sigma + sqrt(sigma^2 - 1) with the conserved
sigma = (4 alpha^2 + beta^4 + 1)/(2 beta^2)) times two diagonal phase
dressings, and M(0, b0) itself is a Gauss-Hermite sum that integrates
every entry *exactly*: after rescaling the integration variable the
integrand is a product of two bounded normalized Hermite functions, so
nothing in the construction grows or cancels.  The direct
hypergeometric form of a single entry is kept in `m_entry` for
cross-validation; summing it termwise loses ~100 digits to cancellation
near size 128, and the textbook ladder recurrence
phi_{n+1} = (c1* adag - c2* a) phi_n / (beta sqrt(n+1)) corrupts column
norms beyond column ~40 in double precision, which is why neither is
the production path.

The expansion coefficients of the n-th dynamic state are

    c_mn = sum_k M_mk(alpha0, beta0) T_kn(eps0, delta0/beta0, kappa0)

and the wavefunction is recovered as

    psi_n(x, t) = sqrt(beta0) sum_m c_mn exp(-i(m+1/2)t) Psi_m(x).

NORMALIZATION: stored coefficients are the bare c_mn above -- the
sqrt(beta0) weight is applied at reconstruction, NOT stored.  A single
column therefore sums to |beta0| * sum_m |c_mn|^2 = 1 - tail, and
`ExpansionTable.tail_mass` always reports that weighted deficit.  The
matrix product is blind to the initial phase gamma0 while the
wavefunction carries a constant e^{i(2n+1)gamma0}, so that gauge factor
is folded into each stored column; for gamma0 = 0 the stored values are
exactly the bare product.

Closed-form photon statistics (Poisson for displaced states, even/odd
Pascal for squeezed vacuum / squeezed first excited state) live at the
bottom of the module together with small CSV/JSON exporters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._csv import FLOAT, write_csv
from .ermakov import ErmakovParameters, evolve
from .specfun import (
    MAX_DEGREE,
    hermite_function_table,
    hermite_zeros,
    hyp2f1_even_odd,
    laguerre_ratios,
)

__all__ = [
    "TruncationWarning",
    "ExpansionTable",
    "PhotonStatistics",
    "t_matrix",
    "m_matrix",
    "m_entry",
    "c_coeffs",
    "expansion_table",
    "time_dependent_expansion",
    "squeezed_vacuum_coeffs",
    "pascal_even",
    "pascal_odd",
    "poisson_statistics",
    "table_to_dict",
    "write_statistics_csv",
]

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)

#: above this tail the TruncationWarning message flags results as unreliable
TAIL_HARD_LIMIT = 1e-3
#: above this tail a non-fatal TruncationWarning is emitted
TAIL_WARN_LIMIT = 1e-6


class TruncationWarning(UserWarning):
    """Noticeable probability mass beyond the truncation (never fatal)."""


def _check_size(size) -> int:
    if not isinstance(size, (int, np.integer)) or isinstance(size, bool):
        raise ValueError(f"size must be an integer, got {size!r}")
    if not 1 <= size <= MAX_DEGREE:
        raise ValueError(f"size must be in [1, {MAX_DEGREE}], got {size}")
    return int(size)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ----------------------------------------------------------------------
# overlap matrices
# ----------------------------------------------------------------------

def t_matrix(a: float, b: float, gamma: float, size: int) -> np.ndarray:
    """Displacement/modulation overlap matrix T_mn(a, b, gamma).

    Matrix of the map Psi_n(x) -> exp(i(gamma + b x)) Psi_n(x + a) on the
    oscillator basis; unitary up to truncation.  This is the closed form
    of Cahill & Glauber, Phys. Rev. 177, 1857 (1969): with
    nu = (a^2 + b^2)/2 and d = m - n >= 0,

        T_mn = e^{i(gamma - a b/2) - nu/2} (i u / |u|)^d
               sqrt(n!/m!) nu^{d/2} L_n^d(nu),     u = (b + i a)/sqrt(2),

    and the rows m < n follow with (-i w / |w|)^d, w = (-b + i a)/sqrt(2).
    All diagonals are evaluated at once: one difference-form Laguerre
    recurrence in n (`laguerre_ratios`) runs across every order d and
    yields p = L_n^d(nu) / C(n+d, n), and the remaining factor
    C(n+d, n) sqrt(n!/m!) nu^{d/2} = sqrt(m!/n!) nu^{d/2} / d! is a
    running product along each diagonal.  Both stay accurate to a few
    units in the last place over the full MAX_DEGREE range (entries are
    bounded by 1) for moderate (a, b).  For large nu the factors leave
    the floating-point range; that raises ArithmeticError.

    Parameters
    ----------
    a : float
        Coordinate shift.
    b : float
        Linear phase modulation.
    gamma : float
        Constant phase.
    size : int
        Number of rows and columns.

    Returns
    -------
    ndarray
        Read-only complex matrix of shape (size, size).  For
        a = b = 0 this is exactly exp(i gamma) times the identity, and
        |T_m0|^2 = exp(-nu) nu^m / m! with nu = (a^2 + b^2)/2.
    """
    size = _check_size(size)
    out = np.zeros((size, size), dtype=complex)
    nu = 0.5 * (a * a + b * b)
    if nu == 0.0:
        np.fill_diagonal(out, complex(math.cos(gamma), math.sin(gamma)))
        return _readonly(out)

    phase0 = np.exp(1j * (gamma - 0.5 * a * b) - 0.5 * nu)
    u = complex(b, a) / math.sqrt(2.0)      # governs rows m >= n
    w = complex(-b, a) / math.sqrt(2.0)     # governs rows m < n
    root_nu = math.sqrt(nu)                 # |u| = |w|
    orders = np.arange(size)
    phase_up = (1j * u / root_nu) ** orders     # i^d u^d = (i u)^d
    phase_dn = (-1j * w / root_nu) ** orders    # i^{-d} w^d = (-i w)^d

    m_idx, n_idx = np.tril_indices(size)
    d = m_idx - n_idx
    with np.errstate(over="ignore", invalid="ignore"):
        # ratio[n, d] = L_n^d(nu) / C(n+d, n)
        # amp[n, d] = sqrt(m!/n!) nu^{d/2} / d!, with m = n + d
        ratio = np.array(list(laguerre_ratios(size - 1, orders, nu)))
        step = np.sqrt(np.add.outer(orders, orders) * nu) / np.maximum(orders, 1)
        step[:, 0] = 1.0
        amp = np.cumprod(step, axis=1)
        value = phase0 * amp[n_idx, d] * ratio[n_idx, d]
    if not np.all(np.isfinite(value)):
        raise ArithmeticError(
            f"displacement overlaps overflow at nu = {nu:.3e} with size "
            f"{size}; (a, b) = ({a!r}, {b!r}) is too large")
    out[m_idx, n_idx] = phase_up[d] * value
    out[n_idx, m_idx] = phase_dn[d] * value
    return _readonly(out)


def _c_pair(alpha: float, beta: float) -> tuple[complex, complex]:
    return (complex(0.5 * (1.0 + beta * beta), -alpha),
            complex(0.5 * (1.0 - beta * beta), alpha))


def _real_scale_matrix(b: float, size: int) -> np.ndarray:
    """Pure-scale overlap M_mn(0, b) for b > 0, by exact Gauss-Hermite.

    Substituting u = x / s with s^2 = 2 / (1 + b^2) turns the overlap
    integral into exp(-u^2) times a polynomial of degree m + n, so a
    rule with size + 1 nodes integrates every entry exactly.  The
    integrand is assembled from normalized Hermite-function tables
    (uniformly bounded) and the modified Gauss weights
    w_j exp(u_j^2) = 1 / (N h_{N-1}(u_j)^2), which keeps every
    intermediate quantity O(1) at any degree.
    """
    n_nodes = size + 1
    u = hermite_zeros(n_nodes)
    weight = 1.0 / (n_nodes * hermite_function_table(n_nodes - 1, u)[-1] ** 2)
    s = math.sqrt(2.0 / (1.0 + b * b))
    hx = hermite_function_table(size - 1, s * u)
    hy = hermite_function_table(size - 1, (b * s) * u)
    mat = (hx * (s * weight)) @ hy.T
    # the integrand is odd for m + n odd: enforce those zeros exactly
    parity = np.add.outer(np.arange(size), np.arange(size)) % 2
    mat[parity == 1] = 0.0
    return mat


def _orbit_phases(alpha: float, beta: float) -> tuple[float, float, float]:
    """Trace (alpha, beta > 0) back to the pure-scale point of its orbit.

    Returns ``(b0, t, dgamma)`` such that evolving (0, b0, 0, 0, 0, 0)
    for time t lands on (alpha, beta) with accumulated phase
    dgamma = gamma(t), i.e.

        M(alpha, beta) = sqrt(b0/beta) e^{-i(m+1/2)t}
                         M(0, b0) e^{-i(2n+1)dgamma}.

    All intermediate combinations are arranged so that nothing cancels:
    sigma - 1 = (4 alpha^2 + (beta^2-1)^2) / (2 beta^2) and
    b0^2 - beta^2 = (4 alpha^2 + 1 - beta^4) / (2 beta^2)
                    + sqrt((sigma-1)(sigma+1))
    are exact rational forms.
    """
    b2 = beta * beta
    sm1 = (4.0 * alpha * alpha + (b2 - 1.0) ** 2) / (2.0 * b2)
    if sm1 == 0.0:
        return 1.0, 0.0, 0.0
    root = math.sqrt(sm1 * (sm1 + 2.0))
    b0sq = 1.0 + sm1 + root
    b0 = math.sqrt(b0sq)
    num = (4.0 * alpha * alpha + 1.0 - b2 * b2) / (2.0 * b2) + root
    den = b2 * (sm1 + root) * (b0sq + 1.0)
    st2 = min(max(num / den, 0.0), 1.0)
    # sin 2t has its own cancellation-free form; recover whichever of
    # sin t / cos t is ill conditioned near the axes from it
    sin2t = 4.0 * alpha * b0sq / den
    if st2 <= 0.5:
        ct = math.sqrt(1.0 - st2)
        st = abs(sin2t) / (2.0 * ct)
        if alpha < 0.0:
            ct = -ct
    else:
        st = math.sqrt(st2)
        ct = sin2t / (2.0 * st)
    t = math.atan2(st, ct)
    pt = evolve(ErmakovParameters(0.0, b0, 0.0, 0.0, 0.0, 0.0), t)
    if (abs(pt.alpha - alpha) > 1e-9 * (1.0 + abs(alpha))
            or abs(pt.beta - beta) > 1e-9 * (1.0 + beta)):
        raise ArithmeticError(
            f"orbit reduction failed for alpha={alpha}, beta={beta}: "
            f"reached ({pt.alpha}, {pt.beta})")
    return b0, t, pt.gamma


def m_matrix(alpha: float, beta: float, size: int) -> np.ndarray:
    """Squeeze-type overlap matrix M_mn(alpha, beta).

    The matrix is built without ever summing a cancelling series: the
    flow orbit through (alpha, beta) is traced back to its pure-scale
    point (0, b0), the real matrix M(0, b0) is evaluated by an exact
    Gauss-Hermite rule (`_real_scale_matrix`), and two diagonal phase
    dressings carry it along the orbit,

        M_mn(alpha, beta) = sqrt(b0/beta) e^{-i(m+1/2)t}
                            M_mn(0, b0) e^{-i(2n+1)gamma(t)}.

    Entries with m + n odd are exact zeros.

    Parameters
    ----------
    alpha : float
        Quadratic phase of the transformed state.
    beta : float
        Scale factor; must be nonzero (negative flips odd columns).
    size : int
        Number of rows and columns.

    Returns
    -------
    ndarray
        Read-only complex matrix of shape (size, size), equal to the
        hypergeometric closed form (see `m_entry`) wherever the latter
        is well conditioned.  Column norms satisfy
        beta * sum_m |M_mn|^2 = 1 up to truncation tail; the entrywise
        accuracy is uniform in size (~1e-13 absolute at MAX_DEGREE).
    """
    size = _check_size(size)
    if beta == 0.0:
        raise ValueError("beta must be nonzero")
    alpha = float(alpha)
    beta = float(beta)
    babs = abs(beta)
    if alpha == 0.0 and babs == 1.0:
        diag = np.where(np.arange(size) % 2, beta, 1.0).astype(complex)
        return _readonly(np.diag(diag))
    b0, t, dgamma = _orbit_phases(alpha, babs)
    core = _real_scale_matrix(b0, size)
    m_idx = np.arange(size)
    row = math.sqrt(b0 / babs) * np.exp(-1j * (m_idx + 0.5) * t)
    col = np.exp(-1j * (2.0 * m_idx + 1.0) * dgamma)
    if beta < 0.0:
        col = col * np.where(m_idx % 2, -1.0, 1.0)
    return _readonly(row[:, None] * core * col[None, :])


def m_entry(m: int, n: int, alpha: float, beta: float, branch: int = 1) -> complex:
    """One squeeze-overlap entry from its hypergeometric closed form.

    Intended for cross-validation of `m_matrix` at small m + n, where
    the terminating sum is well conditioned.  The half powers of
    c2 = (1-beta^2)/2 + i alpha are taken as w^m conj(w)^n with
    w = sqrt(c2) principal, and the sign of the reduced argument
    zeta = branch * beta / |c2| is the `branch` convention: branch=+1
    reproduces the defining integral (the even/odd reduction is even in
    zeta for even entries, so only odd-odd entries are sensitive).

    Returns 0 exactly when m + n is odd.
    """
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    if beta == 0.0:
        raise ValueError("beta must be nonzero")
    if (m + n) % 2:
        return 0j
    c1, c2 = _c_pair(alpha, beta)
    if c2 == 0:
        # pure rescale by |beta| = 1: identity up to the parity of n
        if m != n:
            return 0j
        return complex((-1.0) ** n) if beta < 0 else 1 + 0j
    zeta = branch * beta / abs(c2)
    f = hyp2f1_even_odd(m, n, zeta)
    w = np.sqrt(c2)
    log_amp = (0.5 * (m + n) * _LN2 + math.lgamma(0.5 * (m + n + 1))
               - 0.5 * (math.lgamma(m + 1.0) + math.lgamma(n + 1.0))
               - 0.5 * _LNPI)
    powers = w**m * np.conj(w)**n * np.exp(-0.5 * (m + n + 1) * np.log(complex(c1)))
    return complex(1j**(n % 4) * math.exp(log_amp) * powers * f)


# ----------------------------------------------------------------------
# expansion coefficients
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionTable:
    """Columns of expansion coefficients over the oscillator basis.

    `coeffs[m, j]` is the bare coefficient c_{m, columns[j]}; the
    sqrt(beta0) reconstruction weight is NOT included (see the module
    docstring), so the physical probability carried by column j is
    |beta0| * sum_m |coeffs[m, j]|^2 = 1 - tail_mass[j].

    Attributes
    ----------
    coeffs : ndarray
        Complex matrix, shape (truncation, len(columns)), read-only.
    columns : tuple of int
        Basis label n of each column.
    truncation : int
        Number of retained rows.
    tail_mass : ndarray
        Weighted probability beyond the truncation, one entry per
        column; always reported, never silently dropped.
    beta0 : float
        Scale parameter fixing the reconstruction weight.
    """

    coeffs: np.ndarray
    columns: tuple
    truncation: int
    tail_mass: np.ndarray
    beta0: float

    def __post_init__(self):
        if self.coeffs.shape != (self.truncation, len(self.columns)):
            raise ValueError("coeffs shape does not match truncation/columns")
        if np.any(np.isnan(self.tail_mass)):
            raise ValueError("tail_mass must not be NaN")
        if np.any(self.tail_mass < -1e-12):
            raise ValueError("weighted column norm exceeds 1 beyond roundoff")
        _readonly(self.coeffs)
        _readonly(self.tail_mass)

    def column(self, n: int) -> np.ndarray:
        """Return the coefficient column for basis label n."""
        return self.coeffs[:, self.columns.index(n)]


def expansion_table(p0: ErmakovParameters, columns, size: int = 128) -> ExpansionTable:
    """Build expansion columns c_mn for every n in `columns`.

    Both factorization orders of the coefficient product are computed,

        c = M(alpha0, beta0) T(eps0, delta0/beta0, kappa0)
          = T(eps0/beta0, delta0 - 2 alpha0 eps0/beta0,
              kappa0 - alpha0 eps0^2/beta0^2) M(alpha0, beta0),

    and their agreement within ten times the truncation tail is
    asserted; the first order is returned, with the initial-phase gauge
    e^{i(2n+1)gamma0} folded into each column so that

        psi_n(x, 0) = sqrt(beta0) sum_m c_mn Psi_m(x)

    holds for arbitrary initial data (see the module docstring).

    Truncation loss is never fatal: columns whose weighted tail exceeds
    TAIL_WARN_LIMIT emit a TruncationWarning (with a sharper wording
    above TAIL_HARD_LIMIT), and the per-column `tail_mass` array on the
    returned table is the quantitative flag.

    Raises
    ------
    ArithmeticError
        If any coefficient of either ordering is non-finite (the overlap
        matrices left the floating-point range), or if the two orderings
        disagree beyond the truncation budget.
    """
    size = _check_size(size)
    cols = tuple(int(n) for n in columns)
    if not cols:
        raise ValueError("columns must be nonempty")
    for n in cols:
        if not 0 <= n < size:
            raise ValueError(f"column {n} outside [0, {size})")

    a0, b0 = p0.alpha, p0.beta
    mmat = m_matrix(a0, b0, size)
    tmat = t_matrix(p0.epsilon, p0.delta / b0, p0.kappa, size)
    first = mmat @ tmat[:, cols]

    tmat2 = t_matrix(p0.epsilon / b0,
                     p0.delta - 2.0 * a0 * p0.epsilon / b0,
                     p0.kappa - a0 * p0.epsilon**2 / b0**2,
                     size)
    second = tmat2 @ mmat[:, cols]
    if not (np.all(np.isfinite(first)) and np.all(np.isfinite(second))):
        raise ArithmeticError(
            "non-finite expansion coefficients: the overlap matrices "
            f"overflow at truncation {size} for these parameters")

    weight = abs(b0)
    tail_first = 1.0 - weight * np.sum(np.abs(first) ** 2, axis=0)
    tail_second = 1.0 - weight * np.sum(np.abs(second) ** 2, axis=0)
    diff = weight * np.sum(np.abs(first - second) ** 2, axis=0)
    budget = 10.0 * (np.abs(tail_first) + np.abs(tail_second)) + 1e-18
    if not np.all(diff <= budget):
        raise ArithmeticError(
            "factorization orders disagree beyond the truncation budget: "
            f"max weighted difference {float(np.max(diff)):.3e}")

    worst = float(np.max(tail_first))
    if not worst <= TAIL_HARD_LIMIT:
        warnings.warn(
            f"truncation {size} drops tail mass {worst:.3e} "
            f"(> {TAIL_HARD_LIMIT:.0e}); results are unreliable, "
            "increase size", TruncationWarning, stacklevel=2)
    elif not worst <= TAIL_WARN_LIMIT:
        warnings.warn(
            f"truncation {size} leaves tail mass {worst:.3e}",
            TruncationWarning, stacklevel=2)
    if p0.gamma != 0.0:
        # initial-phase gauge: the matrix product is gamma0-blind, but the
        # wavefunction carries e^{i(2n+1)gamma0}, so reconstruction needs it
        first = first * np.exp(1j * (2.0 * np.asarray(cols) + 1.0) * p0.gamma)
    return ExpansionTable(np.ascontiguousarray(first), cols, size,
                          tail_first, b0)


def c_coeffs(p0: ErmakovParameters, n: int, size: int = 128) -> ExpansionTable:
    """Single-column expansion table for the n-th dynamic state."""
    return expansion_table(p0, (n,), size)


def _phase_identity_check(p0: ErmakovParameters, t: float, block: int = 8,
                          tol: float = 1e-9) -> None:
    """Verify that evolving the matrix arguments only dresses phases.

    Recomputes small T and M blocks at the evolved parameters and
    compares with the phase-dressed initial blocks:

        T(eps, delta/beta, kappa)        = e^{2i(m-n)(g-g0)} T(initial)
        T(eps/beta, delta - 2 a e/b, ..) = e^{i(n-m)t}       T(initial)
        M(alpha, beta) = e^{-i(m+1/2)t} e^{-i(2n+1)(g-g0)}
                         sqrt(beta0/beta) M(alpha0, beta0)

    The t-phase of the M identity rides on the row index and the
    gamma-phase on the column index; the commonly quoted transposed
    placement fails numerically and is rejected here.
    """
    pt = evolve(p0, t)
    dg = pt.gamma - p0.gamma
    m = np.arange(block)[:, None]
    n = np.arange(block)[None, :]

    t0 = t_matrix(p0.epsilon, p0.delta / p0.beta, p0.kappa, block)
    t1 = t_matrix(pt.epsilon, pt.delta / pt.beta, pt.kappa, block)
    scale = np.max(np.abs(t0)) + 1e-300
    if np.max(np.abs(t1 - np.exp(2j * (m - n) * dg) * t0)) > tol * scale:
        raise ArithmeticError("displacement-phase identity failed")

    t0b = t_matrix(p0.epsilon / p0.beta,
                   p0.delta - 2.0 * p0.alpha * p0.epsilon / p0.beta,
                   p0.kappa - p0.alpha * p0.epsilon**2 / p0.beta**2, block)
    t1b = t_matrix(pt.epsilon / pt.beta,
                   pt.delta - 2.0 * pt.alpha * pt.epsilon / pt.beta,
                   pt.kappa - pt.alpha * pt.epsilon**2 / pt.beta**2, block)
    if np.max(np.abs(t1b - np.exp(1j * (n - m) * t) * t0b)) > tol * scale:
        raise ArithmeticError("rotated displacement-phase identity failed")

    m0 = m_matrix(p0.alpha, p0.beta, block)
    m1 = m_matrix(pt.alpha, pt.beta, block)
    dress = (np.exp(-1j * (m + 0.5) * t) * np.exp(-1j * (2 * n + 1) * dg)
             * math.sqrt(p0.beta / pt.beta))
    scale = np.max(np.abs(m0)) + 1e-300
    if np.max(np.abs(m1 - dress * m0)) > tol * scale:
        raise ArithmeticError("squeeze-phase identity failed")


def time_dependent_expansion(p0: ErmakovParameters, n: int, t: float,
                             size: int = 128,
                             check_identities: bool = True) -> np.ndarray:
    """Expansion coefficients of psi_n at time t over the static basis.

    Returns the bare vector c_mn exp(-i(m+1/2)t); multiplying by
    sqrt(beta0) and summing against the static basis functions
    reproduces the evolved wavefunction.  With `check_identities` the
    phase-dressing identities relating evolved-argument matrices to the
    initial ones are verified on a small block (ArithmeticError on
    failure).
    """
    table = c_coeffs(p0, n, size)
    if check_identities and p0.beta > 0:
        _phase_identity_check(p0, t)
    phases = np.exp(-1j * (np.arange(size) + 0.5) * t)
    return _readonly(table.coeffs[:, 0] * phases)


# ----------------------------------------------------------------------
# closed-form photon statistics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PhotonStatistics:
    """A number-basis probability table with its exact moments.

    `probabilities[m]` is the occupation probability of level m; the
    mean and variance are the closed-form moments of the full (not
    truncated) distribution.  The truncated table keeps a nonnegative
    tail, reported by the `tail` property.  A table or moment that is
    not finite (an overflowed mean level, say) raises ArithmeticError.
    """

    probabilities: np.ndarray
    parity: str
    mean: float
    variance: float

    def __post_init__(self):
        if self.parity not in ("even", "odd", "full"):
            raise ValueError(f"unknown parity {self.parity!r}")
        if not (np.isfinite(self.probabilities).all()
                and math.isfinite(self.mean)
                and math.isfinite(self.variance)):
            raise ArithmeticError(
                "photon statistics are not finite (mean %r, variance %r)"
                % (self.mean, self.variance))
        if np.any(self.probabilities < 0.0):
            raise ValueError("probabilities must be nonnegative")
        total = float(np.sum(self.probabilities))
        if total > 1.0 + 1e-12:
            raise ValueError(f"probabilities sum to {total} > 1")
        _readonly(self.probabilities)

    @property
    def tail(self) -> float:
        """Probability mass beyond the stored levels."""
        return 1.0 - float(np.sum(self.probabilities))


def pascal_even(sigma_sum: float, p_max: int) -> PhotonStatistics:
    """Even-level Pascal law of the squeezed vacuum.

    P_{2p} = sqrt(2) C(2p, p) q^p / (4^p sqrt(sigma_sum + 1)) with
    q = (sigma_sum - 1)/(sigma_sum + 1), where sigma_sum is the sum of
    the momentum and position variances (>= 1).  Levels up to 2*p_max
    are stored; odd entries are exact zeros.  The full-distribution
    moments are mean (sigma-1)/2 and variance (sigma^2-1)/2.
    """
    if not sigma_sum >= 1.0:
        raise ValueError(f"variance sum must be >= 1, got {sigma_sum}")
    p_max = _check_size(p_max + 1) - 1
    probs = np.zeros(2 * p_max + 1)
    q = (sigma_sum - 1.0) / (sigma_sum + 1.0)
    term = math.sqrt(2.0 / (sigma_sum + 1.0))
    probs[0] = term
    for p in range(1, p_max + 1):
        term *= q * (2.0 * p - 1.0) / (2.0 * p)
        probs[2 * p] = term
    return PhotonStatistics(probs, "even", 0.5 * (sigma_sum - 1.0),
                            0.5 * (sigma_sum**2 - 1.0))


def pascal_odd(sigma_sum: float, p_max: int) -> PhotonStatistics:
    """Odd-level Pascal law of the squeezed first excited state.

    P_{2p+1} = (2/(sigma_sum+1))^{3/2} (3/2)_p q^p / p!, same q as
    `pascal_even`.  Levels up to 2*p_max + 1 are stored; even entries
    are exact zeros.  Moments: mean (3 sigma - 1)/2, variance
    3(sigma^2 - 1)/2.
    """
    if not sigma_sum >= 1.0:
        raise ValueError(f"variance sum must be >= 1, got {sigma_sum}")
    p_max = _check_size(p_max + 1) - 1
    probs = np.zeros(2 * p_max + 2)
    q = (sigma_sum - 1.0) / (sigma_sum + 1.0)
    term = (2.0 / (sigma_sum + 1.0)) ** 1.5
    probs[1] = term
    for p in range(1, p_max + 1):
        term *= q * (p + 0.5) / p
        probs[2 * p + 1] = term
    return PhotonStatistics(probs, "odd", 0.5 * (3.0 * sigma_sum - 1.0),
                            1.5 * (sigma_sum**2 - 1.0))


def poisson_statistics(delta0: float, epsilon0: float, m_max: int) -> PhotonStatistics:
    """Poisson number statistics of a displaced ground state.

    The mean level is nbar = (delta0^2 + epsilon0^2)/2 and
    P_m = exp(-nbar) nbar^m / m!; mean and variance both equal nbar.
    """
    m_max = _check_size(m_max + 1) - 1
    nbar = 0.5 * (delta0 * delta0 + epsilon0 * epsilon0)
    probs = np.zeros(m_max + 1)
    term = math.exp(-nbar)
    probs[0] = term
    for m in range(1, m_max + 1):
        term *= nbar / m
        probs[m] = term
    return PhotonStatistics(probs, "full", nbar, nbar)


def squeezed_vacuum_coeffs(alpha0: float, beta0: float, p_max: int) -> np.ndarray:
    """Even-level expansion amplitudes of the squeezed vacuum.

    Entry p is the bare coefficient of basis level 2p,

        coeff_p = [sqrt((2p)!) / (2^p p!)] c2^p / c1^{p+1/2},

    accumulated by exact ratios (this is column 0 of `m_matrix`).  The
    sqrt(beta0) reconstruction weight is again left out, so
    beta0 |coeff_p|^2 reproduces the even Pascal probabilities.
    """
    if beta0 == 0.0:
        raise ValueError("beta0 must be nonzero")
    p_max = _check_size(p_max + 1) - 1
    c1, c2 = _c_pair(alpha0, beta0)
    out = np.zeros(p_max + 1, dtype=complex)
    val = 1.0 / np.sqrt(c1)
    out[0] = val
    ratio = c2 / c1
    for p in range(1, p_max + 1):
        val = val * math.sqrt((2.0 * p - 1.0) / (2.0 * p)) * ratio
        out[p] = val
    return _readonly(out)


# ----------------------------------------------------------------------
# export helpers
# ----------------------------------------------------------------------

def table_to_dict(table: ExpansionTable) -> dict:
    """JSON-ready representation of an expansion table.

    Coefficients are listed per column as [re, im] pairs, ordered by
    row index m.
    """
    return {
        "truncation": table.truncation,
        "beta0": table.beta0,
        "columns": list(table.columns),
        "tail_mass": [float(x) for x in table.tail_mass],
        "coeffs": [
            [[float(z.real), float(z.imag)] for z in table.coeffs[:, j]]
            for j in range(len(table.columns))
        ],
    }


def write_statistics_csv(path, stats: PhotonStatistics) -> None:
    """Write a (level, probability) table with 17 significant digits."""
    row = "%d," + FLOAT + "\n"
    write_csv(path, "m,probability",
              [row % mp for mp in
               enumerate(np.asarray(stats.probabilities).tolist())])
