"""Expansion of the dynamic states over the stationary oscillator basis.

Two overlap matrices generate everything here.  The displacement-type
matrix

    T_mn(a, b, g) = integral( Psi_m(x)* exp(i(g + b x)) Psi_n(x + a) dx )

is evaluated in closed form through associated Laguerre polynomials
(Cahill & Glauber), and the squeeze-type matrix

    M_mn(alpha, beta) = integral( Psi_m(x)* exp(i alpha x^2) Psi_n(beta x) dx )

is reduced to a pure-scale matrix M(0, b0) on the same flow orbit
(b0^2 = sigma + sqrt(sigma^2 - 1) with the conserved
sigma = (4 alpha^2 + beta^4 + 1)/(2 beta^2)) times two diagonal phase
dressings, and M(0, b0) itself is a Gauss-Hermite sum that integrates
every entry *exactly*: after rescaling the integration variable the
integrand is a product of two bounded normalized Hermite functions, so
nothing in the construction grows or cancels.  The direct
hypergeometric form of a single entry (the tests keep it as an oracle)
loses ~100 digits to cancellation near size 128 when summed termwise,
and the textbook ladder recurrence
phi_{n+1} = (c1* adag - c2* a) phi_n / (beta sqrt(n+1)) corrupts column
norms beyond column ~40 in double precision, which is why neither is
the production path.

The Gauss-Hermite sum is held in factored form, M(0, b0) = hxw hy^T on
its even and odd parity blocks, over the nonnegative nodes of one rule
per node count that is computed on first use and cached
(`specfun.gauss_hermite_rule`).  Entries with m + n odd are never
formed, so they are exact zeros.

The expansion coefficients of the n-th dynamic state are

    c_mn = sum_k M_mk(alpha0, beta0) T_kn(eps0, delta0/beta0, kappa0)

and the wavefunction is recovered as

    psi_n(x, t) = sqrt(beta0) sum_m c_mn exp(-i(m+1/2)t) Psi_m(x).

T is held in factored form too.  With nu = (a^2 + b^2)/2 and the unit
zeta = (a + i b)/|a + i b|,

    T = e^{i(g - ab/2) - nu/2} diag(conj(zeta)^m) S diag(zeta^n),

where S is real and both of its triangles hold the same numbers
R[n, d] = sqrt(n!/(n+d)!) nu^{d/2} L_n^d(nu), the lower one with a sign
(-1)^d.  R is computed once, on the triangle n + d < size only, by one
difference-form Laguerre recurrence that drops an order at every step
(`_displacement_upper`).

`expansion_table` evaluates the product for its k requested columns
without forming M or T: it applies the two phase dressings and the
factors of M to T[:, cols] directly, row * (hxw (hy^T (col * T[:, cols]))),
at O(size^2 k) cost, and T[:, cols] needs the Laguerre recurrence only up
to index max(cols).  Its cross-check applies the T of the other
factorization order to M[:, cols] as two real triangle products
(`_t_product`), so no complex size x size matrix is ever formed.

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
from numpy.lib.stride_tricks import sliding_window_view

from ._csv import FLOAT, write_csv
from .ermakov import ErmakovParameters, _c_pair, evolve
from .specfun import (
    MAX_DEGREE,
    _check_degree,
    _check_int,
    gauss_hermite_rule,
    hermite_function_table,
    laguerre_ratio_table,
)

__all__ = [
    "TruncationWarning",
    "ExpansionTable",
    "PhotonStatistics",
    "t_matrix",
    "m_matrix",
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


#: above this tail the TruncationWarning message flags results as unreliable
TAIL_HARD_LIMIT = 1e-3
#: above this tail a non-fatal TruncationWarning is emitted
TAIL_WARN_LIMIT = 1e-6


class TruncationWarning(UserWarning):
    """Noticeable probability mass beyond the truncation (never fatal)."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ----------------------------------------------------------------------
# overlap matrices
# ----------------------------------------------------------------------

def _displacement_upper(nu: float, rows: int, size: int) -> np.ndarray:
    """The real kernel of `t_matrix` on its triangle, rows n < rows.

    Returns the (rows, size) array U with U[n, n + d] = R[n, d] for
    n + d < size, where

        R[n, d] = sqrt(m!/n!) nu^{d/2} / d! * L_n^d(nu) / C(n+d, n)
                = sqrt(n!/m!) nu^{d/2} L_n^d(nu),       m = n + d,

    and zeros below the diagonal.  The Laguerre ratio comes from the
    shrinking-slice recurrence of `laguerre_ratio_table`; the amplitude
    is a running product of sqrt(m nu)/(m - n) along each row, started
    at the diagonal.  Left of the diagonal only exact ones and zeros are
    formed, so nothing there can overflow.  Rows n < rows are the same
    bits for every rows.  Raises ArithmeticError if an entry is not
    finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        upper = laguerre_ratio_table(rows, size, nu)
        # step[n, m] = sqrt(m nu)/(m - n) right of the diagonal, 1 on and
        # left of it; dist[n, m] = m - n is a strided view, not a table
        dist = sliding_window_view(np.arange(1.0 - rows, size), size)[::-1]
        step = np.ones((rows, size))
        np.divide(np.sqrt(np.arange(size) * nu), dist, out=step,
                  where=dist > 0)
        upper *= np.cumprod(step, axis=1, out=step)
    if not np.all(np.isfinite(upper)):
        raise ArithmeticError(
            f"displacement overlaps overflow at nu = {nu:.3e} with size "
            f"{size}; the shift and modulation are too large")
    return upper


def _zeta_powers(a: float, b: float, size: int) -> np.ndarray:
    """zeta^n = e^{i n theta}, theta = arg(a + i b), for n < size.

    theta is split as hi + lo with hi on 24 bits, so n hi is exact for
    every n < 2^29 and the phase picks up no rounding that grows with n.
    """
    theta = math.atan2(b, a)
    hi = float(np.float32(theta))
    n = np.arange(size)
    return np.exp(1j * (n * hi)) * np.exp(1j * (n * (theta - hi)))


def _t_columns(a: float, b: float, gamma: float, size: int,
               cols) -> np.ndarray:
    """The columns `cols` of `t_matrix(a, b, gamma, size)`.

    T = e^{i(gamma - ab/2) - nu/2} diag(conj(zeta)^m) S diag(zeta^n): the
    upper triangle of the real S is U from `_displacement_upper`,
    S[m, n] = U[m, n] for m <= n, and the lower triangle is its mirror
    with a sign, S[m, n] = (-1)^{m-n} U[n, m].  Column c needs the rows
    n <= c of U only, so the recurrence runs max(cols) + 1 steps; equal
    columns get equal bits whatever else is requested.  Each entry
    takes its phase as the one power zeta^{n-m}, so it carries the
    roundings of the closed form and no more.
    """
    cols = np.asarray(cols)
    m = np.arange(size)[:, None]
    nu = 0.5 * (a * a + b * b)
    if nu == 0.0:
        return np.where(m == cols, complex(math.cos(gamma), math.sin(gamma)),
                        0j)
    rows = int(cols.max()) + 1
    upper = _displacement_upper(nu, rows, size)
    sign = np.where(np.arange(size) % 2, -1.0, 1.0)
    s = upper[cols].T * (sign[:, None] * sign[cols])
    np.copyto(s[:rows], upper[:, cols], where=m[:rows] <= cols)
    lag = cols - m                      # zeta^{n-m} = conj(zeta)^m zeta^n
    zeta = _zeta_powers(a, b, size)[np.abs(lag)]
    phase = np.where(lag >= 0, zeta, zeta.conj())
    return np.exp(1j * (gamma - 0.5 * a * b) - 0.5 * nu) * s * phase


def _t_product(a: float, b: float, gamma: float, x: np.ndarray) -> np.ndarray:
    """t_matrix(a, b, gamma, len(x)) @ x for a (size, k) x, without forming T.

    With the factorization of `_t_columns`, T x is
    e^{i(gamma - ab/2) - nu/2} conj(zeta)^m (S y) with y = zeta^n x, and

        S y = U_s y + diag(U) y + D U_s^T (D y),

    where U_s is U without its diagonal and D = diag((-1)^m).  Both
    products are real, on the (size, 2k) real view of y; the phases
    touch only the size x k vectors.  Every entry of S still comes from
    its own Laguerre closed form.
    """
    size = x.shape[0]
    nu = 0.5 * (a * a + b * b)
    if nu == 0.0:
        return complex(math.cos(gamma), math.sin(gamma)) * x
    upper = _displacement_upper(nu, size, size)
    diag = upper.diagonal().copy()
    np.fill_diagonal(upper, 0.0)
    zeta = _zeta_powers(a, b, size)
    sign = np.where(np.arange(size) % 2, -1.0, 1.0)[:, None]
    y = (zeta[:, None] * x).view(float)
    sy = upper @ y + diag[:, None] * y + sign * (upper.T @ (sign * y))
    left = np.exp(1j * (gamma - 0.5 * a * b) - 0.5 * nu) * zeta.conj()
    return left[:, None] * sy.view(complex)


def t_matrix(a: float, b: float, gamma: float, size: int) -> np.ndarray:
    """Displacement/modulation overlap matrix T_mn(a, b, gamma).

    Matrix of the map Psi_n(x) -> exp(i(gamma + b x)) Psi_n(x + a) on the
    oscillator basis; unitary up to truncation.  This is the closed form
    of Cahill & Glauber, Phys. Rev. 177, 1857 (1969): with
    nu = (a^2 + b^2)/2, zeta = (a + i b)/|a + i b| and d = |m - n|,

        T_mn = e^{i(gamma - a b/2) - nu/2} conj(zeta)^m S_mn zeta^n,
        S_mn = sqrt(n!/m!) nu^{d/2} L_n^d(nu) (-1)^d    for m >= n,
        S_mn = sqrt(m!/n!) nu^{d/2} L_m^d(nu)           for m < n.

    S is real, and its two triangles hold the same numbers R[min(m, n), d]
    up to the sign.  R is evaluated once, on the triangle n + d < size
    only (`_displacement_upper`): one difference-form Laguerre recurrence
    in n (`laguerre_ratio_table`) runs across every order d and yields
    p = L_n^d(nu) / C(n+d, n), shrinking by one order per step, and the
    remaining factor C(n+d, n) sqrt(n!/m!) nu^{d/2} =
    sqrt(m!/n!) nu^{d/2} / d! is a running product in d.
    Both stay accurate to a few units in the last place over the full
    MAX_DEGREE range (entries are bounded by 1) for moderate (a, b).  For
    large nu the factors leave the floating-point range; that raises
    ArithmeticError.

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
    size = _check_int(size, "size", 1, MAX_DEGREE)
    return _readonly(_t_columns(a, b, gamma, size, range(size)))


def _t_arguments(p: ErmakovParameters) -> tuple[tuple, tuple]:
    """The (a, b, gamma) arguments of T in the two factorization orders.

        c = M(alpha, beta) T(eps, delta/beta, kappa)
          = T(eps/beta, delta - 2 alpha eps/beta,
              kappa - alpha eps^2/beta^2) M(alpha, beta)
    """
    a, b, e = p.alpha, p.beta, p.epsilon
    return ((e, p.delta / b, p.kappa),
            (e / b, p.delta - 2.0 * a * e / b, p.kappa - a * e**2 / b**2))


def _scale_factors(b: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature factors (hxw, hy) of the pure-scale overlap M(0, b), b > 0.

    Substituting u = x / s with s^2 = 2 / (1 + b^2) turns the overlap
    integral into exp(-u^2) times a polynomial of degree m + n, so the
    (size + 1)-node Gauss-Hermite rule integrates every entry exactly.
    The integrand h_m(s u) h_n(b s u) is even in u when m + n is even
    and odd otherwise, so on the half-line form of the cached rule
    (`gauss_hermite_rule`, nodes u_j >= 0, modified weights W_j)

        M_mn(0, b) = sum_j hxw[m, j] hy[n, j]   for m + n even,
        M_mn(0, b) = 0                          for m + n odd,

    with hxw = 2 s W_j h_m(s u_j) and hy = h_n(b s u_j).  Both tables come
    from one stacked Hermite recurrence over the 2J points s u, b s u.
    Every factor is a bounded normalized Hermite function or an O(1)
    weight, so nothing grows or cancels at any degree.
    """
    u, weights = gauss_hermite_rule(size + 1)
    s = math.sqrt(2.0 / (1.0 + b * b))
    points = np.concatenate((s * u, (b * s) * u))
    table = hermite_function_table(size - 1, points)
    half = len(u)
    return table[:, :half] * ((2.0 * s) * weights), table[:, half:]


def _real_scale_matrix(factors, cols) -> np.ndarray:
    """Columns `cols` of the pure-scale overlap M(0, b), from its factors.

    Only the parity blocks are multiplied, even rows by even columns and
    odd by odd (`_scale_factors`), so the entries with m + n odd are
    exact zeros by construction and the work is a quarter of a full
    product.
    """
    hxw, hy = factors
    cols = np.asarray(cols)
    out = np.zeros((hxw.shape[0], len(cols)))
    for parity in (0, 1):
        (pick,) = np.nonzero(cols % 2 == parity)
        out[parity::2, pick] = hxw[parity::2] @ hy[cols[pick]].T
    return out


def _real_scale_product(factors, x: np.ndarray) -> np.ndarray:
    """M(0, b) @ x from the factors of M(0, b), without forming M.

    Applied as hxw (hy^T x) on each parity block, which costs
    O(size J k) for k columns instead of the O(size^2 J) of M itself.
    """
    hxw, hy = factors
    out = np.empty(x.shape, dtype=complex)
    for parity in (0, 1):
        out[parity::2] = hxw[parity::2] @ (hy[parity::2].T @ x[parity::2])
    return out


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
    try:
        pt = evolve(ErmakovParameters(0.0, b0, 0.0, 0.0, 0.0, 0.0), t)
    except ValueError as exc:  # b0 or t overflowed on the way
        raise ArithmeticError(
            f"orbit reduction overflows for alpha={alpha}, beta={beta}: "
            f"{exc}") from exc
    if (abs(pt.alpha - alpha) > 1e-9 * (1.0 + abs(alpha))
            or abs(pt.beta - beta) > 1e-9 * (1.0 + beta)):
        raise ArithmeticError(
            f"orbit reduction failed for alpha={alpha}, beta={beta}: "
            f"reached ({pt.alpha}, {pt.beta})")
    return b0, t, pt.gamma


def _squeeze_factors(alpha: float, beta: float, size: int):
    """Factors ``(row, factors, col)`` of M(alpha, beta), beta != 0.

    M = row[:, None] * M(0, b0) * col[None, :], with M(0, b0) held as its
    quadrature factors (`_scale_factors`); see `m_matrix`.
    """
    b0, t, dgamma = _orbit_phases(alpha, abs(beta))
    m_idx = np.arange(size)
    row = math.sqrt(b0 / abs(beta)) * np.exp(-1j * (m_idx + 0.5) * t)
    col = np.exp(-1j * (2.0 * m_idx + 1.0) * dgamma)
    if beta < 0.0:
        col = col * np.where(m_idx % 2, -1.0, 1.0)
    return row, _scale_factors(b0, size), col


def m_matrix(alpha: float, beta: float, size: int) -> np.ndarray:
    """Squeeze-type overlap matrix M_mn(alpha, beta).

    The matrix is built without ever summing a cancelling series: the
    flow orbit through (alpha, beta) is traced back to its pure-scale
    point (0, b0), the real matrix M(0, b0) is evaluated by an exact
    Gauss-Hermite rule (`_real_scale_matrix`), and two diagonal phase
    dressings carry it along the orbit,

        M_mn(alpha, beta) = sqrt(b0/beta) e^{-i(m+1/2)t}
                            M_mn(0, b0) e^{-i(2n+1)gamma(t)}.

    M(0, b0) is multiplied out from its quadrature factors one parity
    block at a time (`_scale_factors`), so entries with m + n odd are
    exact zeros by construction.  At alpha = 0, |beta| = 1 the matrix
    is returned exactly, as diag(1, beta, 1, beta, ...).

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
        hypergeometric closed form of a single entry wherever the latter
        is well conditioned.  Column norms satisfy
        beta * sum_m |M_mn|^2 = 1 up to truncation tail; the entrywise
        accuracy is uniform in size (~1e-13 absolute at MAX_DEGREE).
    """
    size = _check_int(size, "size", 1, MAX_DEGREE)
    if beta == 0.0:
        raise ValueError("beta must be nonzero")
    alpha = float(alpha)
    beta = float(beta)
    if alpha == 0.0 and abs(beta) == 1.0:
        diag = np.where(np.arange(size) % 2, beta, 1.0).astype(complex)
        return _readonly(np.diag(diag))
    row, factors, col = _squeeze_factors(alpha, beta, size)
    core = _real_scale_matrix(factors, range(size))
    return _readonly(row[:, None] * core * col[None, :])


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
    asserted.  Neither order forms M or T: the first applies M to the
    requested columns of T through the factors of its Gauss-Hermite sum
    (see the module docstring), with T[:, cols] from the real triangle
    kernel run only up to max(cols); the second, the cross-check,
    applies the T of the other order to M[:, cols], built from the same
    factors, as two real triangle products over the whole triangle
    (`_t_product`).  The first order is returned, with the
    initial-phase gauge e^{i(2n+1)gamma0} folded into each column so that

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
    size = _check_int(size, "size", 1, MAX_DEGREE)
    cols = tuple(_check_degree(n, "column") for n in columns)
    if not cols:
        raise ValueError("columns must be nonempty")
    for n in cols:
        if not 0 <= n < size:
            raise ValueError(f"column {n} outside [0, {size})")

    a0, b0 = p0.alpha, p0.beta
    picked = np.array(cols)
    first_order, second_order = _t_arguments(p0)
    tcols = _t_columns(*first_order, size, cols)
    if a0 == 0.0 and abs(b0) == 1.0:
        # the exact identity point of `m_matrix`: M = diag(1, b0, 1, b0, ...)
        diag = np.where(np.arange(size) % 2, b0, 1.0)
        first = diag[:, None] * tcols
        mcols = np.zeros((size, len(cols)), dtype=complex)
        mcols[picked, np.arange(len(cols))] = diag[picked]
    else:
        row, factors, col = _squeeze_factors(a0, b0, size)
        first = row[:, None] * _real_scale_product(factors,
                                                   col[:, None] * tcols)
        mcols = (row[:, None] * _real_scale_matrix(factors, picked)
                 * col[None, picked])

    second = _t_product(*second_order, mcols)
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
        first = first * np.exp(1j * (2.0 * picked + 1.0) * p0.gamma)
    return ExpansionTable(np.ascontiguousarray(first), cols, size,
                          tail_first, b0)


def c_coeffs(p0: ErmakovParameters, n: int, size: int = 128) -> ExpansionTable:
    """Single-column expansion table for the n-th dynamic state."""
    return expansion_table(p0, (n,), size)


def _phase_identity_check(p0: ErmakovParameters, t: float) -> None:
    """Verify that evolving the matrix arguments only dresses phases.

    Recomputes 8 x 8 T and M blocks at the evolved parameters and
    compares with the phase-dressed initial blocks, to a relative 1e-9:

        T(eps, delta/beta, kappa)        = e^{2i(m-n)(g-g0)} T(initial)
        T(eps/beta, delta - 2 a e/b, ..) = e^{i(n-m)t}       T(initial)
        M(alpha, beta) = e^{-i(m+1/2)t} e^{-i(2n+1)(g-g0)}
                         sqrt(beta0/beta) M(alpha0, beta0)

    The t-phase of the M identity rides on the row index and the
    gamma-phase on the column index; the commonly quoted transposed
    placement fails numerically and is rejected here.
    """
    block, tol = 8, 1e-9
    pt = evolve(p0, t)
    dg = pt.gamma - p0.gamma
    m = np.arange(block)[:, None]
    n = np.arange(block)[None, :]

    t0, t0b = (t_matrix(*args, block) for args in _t_arguments(p0))
    t1, t1b = (t_matrix(*args, block) for args in _t_arguments(pt))
    scale = np.max(np.abs(t0)) + 1e-300
    if not np.max(np.abs(t1 - np.exp(2j * (m - n) * dg) * t0)) <= tol * scale:
        raise ArithmeticError("displacement-phase identity failed")

    if not np.max(np.abs(t1b - np.exp(1j * (n - m) * t) * t0b)) <= tol * scale:
        raise ArithmeticError("rotated displacement-phase identity failed")

    m0 = m_matrix(p0.alpha, p0.beta, block)
    m1 = m_matrix(pt.alpha, pt.beta, block)
    dress = (np.exp(-1j * (m + 0.5) * t) * np.exp(-1j * (2 * n + 1) * dg)
             * math.sqrt(p0.beta / pt.beta))
    scale = np.max(np.abs(m0)) + 1e-300
    if not np.max(np.abs(m1 - dress * m0)) <= tol * scale:
        raise ArithmeticError("squeeze-phase identity failed")


def time_dependent_expansion(p0: ErmakovParameters, n: int, t: float,
                             size: int = 128) -> np.ndarray:
    """Expansion coefficients of psi_n at time t over the static basis.

    Returns the bare vector c_mn exp(-i(m+1/2)t); multiplying by
    sqrt(beta0) and summing against the static basis functions
    reproduces the evolved wavefunction.  The phase-dressing identities
    relating evolved-argument matrices to the initial ones are verified
    on a small block (ArithmeticError on failure).
    """
    table = c_coeffs(p0, n, size)
    if p0.beta > 0:
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
    p_max = _check_int(p_max, "p_max", 0, MAX_DEGREE - 1)
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
    p_max = _check_int(p_max, "p_max", 0, MAX_DEGREE - 1)
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
    m_max = _check_int(m_max, "m_max", 0, MAX_DEGREE - 1)
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
    p_max = _check_int(p_max, "p_max", 0, MAX_DEGREE - 1)
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
