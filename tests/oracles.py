"""Independent numeric oracles shared across test modules.

Everything here deliberately avoids the closed forms under test: plain
Gauss-Legendre quadrature, fourth-order finite-difference stencils,
term-by-term hypergeometric sums, and operator exponentials on a large
truncated number basis.  The one package function used is
`sqstates.specfun.hyp2f1_even_odd`, which its own tests pin against
exact arithmetic.

The `oneshot_*` functions are of another kind: they are the whole-table
numpy expressions that `sqstates.fockexp`'s kernels evaluated before
those kernels wrote their products in place, kept verbatim so that the
tests can pin the in-place kernels to the same bits.  They reuse only
the library pieces that the in-place rewrite left alone.  They also
keep the parity sign and the identity-point test written out where the
library takes each from one helper, and `forked_extrema` keeps
`states.uncertainty_extrema` with the constant-product fork it dropped.

`flow_row` is a reference of that kind too: one row of ``evolve.csv``
through the scalar route of the flow (`evolve`, `covariance` and
`classical_trajectory` at one time), which the CLI's array route must
match bit for bit.

The third kind, at the end of this module, are routes that once sat in
the library but that no run reaches, and that the tests read only as
references: the Hermite polynomial `hermite`, the superposition
wavefunction `psi_superposition`, the held superposition Wigner grid
`superposition_grid`, the channel wavefunction `psi_2d` with its
`density_grid` and the continuous argument `_continuous_arg` behind its
leading phase, the inverse map `from_complex`, and the operator-side
eigenvectors `invariant_vectors`, energy variance `var_h_operator` and
ladder check `ladder_action_check`.
They keep their library checks and build on the library's own pieces.
"""

import math
from functools import lru_cache

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from sqstates import fockexp
from sqstates._csv import mesh_blocks
from sqstates.channel import _snapshot_axes, density, width_squared
from sqstates.ermakov import ErmakovParameters, classical_trajectory, evolve
from sqstates.operators import (
    b_operators,
    fock_operators,
    interior,
    invariant_E,
)
from sqstates.phasespace import _collect, _superposition_rows
from sqstates.specfun import (
    _check_degree,
    _check_int,
    gauss_hermite_rule,
    hermite_function_table,
    hyp2f1_even_odd,
    laguerre_ratio_table,
)
from sqstates.states import (
    _phase_factor,
    _shape_like,
    covariance,
    variance_series,
)

#: number levels of the operator-algebra basis behind `fock_tail`
FOCK_DIM = 1024
#: largest mass an oracle column may carry in the top quarter of its basis
FOCK_EDGE_MASS = 1e-12


def flow_row(p0, t):
    """One row of ``evolve.csv`` through the scalar route."""
    p = evolve(p0, t)
    cov = covariance(p)
    x_mean, p_mean = classical_trajectory(p0, t)
    row = (t, p.alpha, p.beta, p.gamma, p.delta, p.epsilon, p.kappa,
           cov.sigma_p, cov.sigma_x, cov.sigma_px, cov.sigma_p * cov.sigma_x,
           x_mean, p_mean)
    if not all(map(math.isfinite, row)):
        raise FloatingPointError("non-finite flow value at t = %r" % t)
    return row


def gauss_grid(half_width, n=500, center=0.0):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return center + half_width * nodes, half_width * weights


def overlap(f_vals, g_vals, w):
    """integral conj(f) g with weights w."""
    return complex(np.sum(w * np.conj(f_vals) * g_vals))


def fd_time_derivative(func, t, h=1e-4):
    """Fourth-order first derivative of func(t) (array-valued) at t."""
    return (-func(t + 2 * h) + 8 * func(t + h)
            - 8 * func(t - h) + func(t - 2 * h)) / (12 * h)


def fd_second_derivative(func, x, h=1e-4):
    """Fourth-order second derivative of func(x_array) along x."""
    return (-func(x + 2 * h) + 16 * func(x + h) - 30 * func(x)
            + 16 * func(x - h) - func(x - 2 * h)) / (12 * h * h)


def schrodinger_residual(psi, xs, t, h=1e-4):
    """Relative residual of 2i psi_t + psi_xx - x^2 psi on the grid xs.

    psi(x_array, t) -> complex array.  Returns max |residual| divided by
    the max magnitude of the individual terms, so the figure is scale free.
    """
    xs = np.asarray(xs, dtype=float)
    psi_t = fd_time_derivative(lambda tt: psi(xs, tt), t, h)
    psi_xx = fd_second_derivative(lambda xx: psi(xx, t), xs, h)
    potential = xs * xs * psi(xs, t)
    residual = 2j * psi_t + psi_xx - potential
    scale = np.max(2 * np.abs(psi_t) + np.abs(psi_xx) + np.abs(potential))
    return float(np.max(np.abs(residual)) / scale)


def schrodinger_residual_2d(psi, xs, ys, t, h=1e-4):
    """Same residual for 2i psi_t + psi_xx + psi_yy - (x^2+y^2) psi."""
    x, y = np.meshgrid(np.asarray(xs, float), np.asarray(ys, float),
                       indexing="ij")
    psi_t = fd_time_derivative(lambda tt: psi(x, y, tt), t, h)
    psi_xx = fd_second_derivative(lambda xx: psi(xx, y, t), x, h)
    psi_yy = fd_second_derivative(lambda yy: psi(x, yy, t), y, h)
    potential = (x * x + y * y) * psi(x, y, t)
    residual = 2j * psi_t + psi_xx + psi_yy - potential
    scale = np.max(2 * np.abs(psi_t) + np.abs(psi_xx) + np.abs(psi_yy)
                   + np.abs(potential))
    return float(np.max(np.abs(residual)) / scale)


def quadrature_extent(p, x_mean=0.0):
    """Integration half width 10 * max(1, 1/beta, |<x>|) for a parameter set."""
    return 10.0 * max(1.0, 1.0 / p.beta, abs(x_mean))


def hyp2f0_terminating(n, m, z):
    """Terminating 2F0(-n, -m; ; z) = sum_k (-n)_k (-m)_k z^k / k!."""
    total = 1.0 + 0.0 * z
    term = total
    for k in range(min(m, n)):
        term = term * ((k - n) * (k - m) * z) / (k + 1)
        total += term
    return total


def m_entry(m, n, alpha, beta, branch=1):
    """One squeeze-overlap entry of `fockexp.m_matrix`, hypergeometric form.

    Well conditioned only at small m + n, where the terminating sum
    does not cancel.  The half powers of c2 = (1-beta^2)/2 + i alpha are
    taken as w^m conj(w)^n with w = sqrt(c2) principal, and the sign of
    the reduced argument zeta = branch * beta / |c2| is the `branch`
    convention: branch=+1 reproduces the defining integral (the even/odd
    reduction is even in zeta for even entries, so only odd-odd entries
    are sensitive).  Returns 0 exactly when m + n is odd.
    """
    if (m + n) % 2:
        return 0j
    c1 = complex(0.5 * (1.0 + beta * beta), -alpha)
    c2 = complex(0.5 * (1.0 - beta * beta), alpha)
    if c2 == 0:
        # alpha = 0, beta = 1: the identity
        return 1 + 0j if m == n else 0j
    zeta = branch * beta / abs(c2)
    f = hyp2f1_even_odd(m, n, zeta)
    w = np.sqrt(c2)
    log_amp = (0.5 * (m + n) * math.log(2.0)
               + math.lgamma(0.5 * (m + n + 1))
               - 0.5 * (math.lgamma(m + 1.0) + math.lgamma(n + 1.0))
               - 0.5 * math.log(math.pi))
    powers = (w**m * np.conj(w)**n
              * np.exp(-0.5 * (m + n + 1) * np.log(complex(c1))))
    return complex(1j**(n % 4) * math.exp(log_amp) * powers * f)


@lru_cache(maxsize=None)
def _fock_generators():
    """Eigendecompositions of the chirp and dilation generators.

    On the number basis |0>, ..., |FOCK_DIM-1> the chirp generator is
    x^2 = (a^2 + adag^2 + 2 adag a + 1)/2 and the dilation generator is
    G = (a^2 - adag^2)/2, both truncated.  Returns ``(lam, v, mu, u)``
    with x^2 = v diag(lam) v^T and i G = u diag(mu) u^H, so that
    exp(i alpha x^2) = v diag(e^{i alpha lam}) v^T and
    exp(r G) = u diag(e^{-i r mu}) u^H.  Built once per process.
    """
    m = np.arange(FOCK_DIM - 2)
    pair = 0.5 * np.sqrt((m + 1.0) * (m + 2.0))   # <m|a^2|m+2> / 2
    x2 = np.diag(np.arange(FOCK_DIM) + 0.5)
    x2[m, m + 2] = pair
    x2[m + 2, m] = pair
    gen = np.zeros((FOCK_DIM, FOCK_DIM))
    gen[m, m + 2] = pair
    gen[m + 2, m] = -pair
    lam, v = np.linalg.eigh(x2)
    mu, u = np.linalg.eigh(1j * gen)
    return lam, v, mu, u


def fock_tail(alpha, beta, ncols, cut):
    """Exact mass in rows >= cut of the number-basis columns n < ncols.

    The columns are those of exp(i alpha x^2) D(beta), where
    D(beta) psi(x) = sqrt(beta) psi(beta x) is the unitary dilation
    exp(r G) with r = ln(beta) (since exp(-rG) x exp(rG) = x e^{-r}).
    Entry [m, n] is thus
    sqrt(beta) integral( Psi_m(x)* exp(i alpha x^2) Psi_n(beta x) dx ).

    Both exponentials are taken on the truncated basis, where they act
    as the true operators only while the state stays clear of the edge.
    Every column is asserted to hold at most FOCK_EDGE_MASS in the top
    quarter of the basis, so mass pushed past the edge can never hide
    part of a tail.
    """
    lam, v, mu, u = _fock_generators()
    squeezed = u @ (np.exp(-1j * np.log(beta) * mu)[:, None]
                    * u[:ncols].conj().T)
    cols = v @ (np.exp(1j * alpha * lam)[:, None] * (v.T @ squeezed))
    edge = np.sum(np.abs(cols[3 * FOCK_DIM // 4:]) ** 2, axis=0)
    assert np.all(edge <= FOCK_EDGE_MASS), (
        f"oracle basis of {FOCK_DIM} levels too small at alpha={alpha}, "
        f"beta={beta}: edge mass {float(np.max(edge)):.3e}")
    return np.sum(np.abs(cols[cut:]) ** 2, axis=0)


def oneshot_displacement_upper(nu, rows, size):
    """`fockexp._displacement_upper` with one (rows, size) step table."""
    with np.errstate(over="ignore", invalid="ignore"):
        upper = laguerre_ratio_table(rows, size, nu)
        dist = sliding_window_view(np.arange(1.0 - rows, size), size)[::-1]
        step = np.ones((rows, size))
        np.divide(np.sqrt(np.arange(size) * nu), dist, out=step,
                  where=dist > 0)
        upper *= np.cumprod(step, axis=1, out=step)
    return upper


def oneshot_t_columns(a, b, gamma, size, cols):
    """`fockexp._t_columns` as one product of whole (size, k) tables."""
    cols = np.asarray(cols)
    m = np.arange(size)[:, None]
    nu = 0.5 * (a * a + b * b)
    if nu == 0.0:
        return np.where(m == cols, complex(math.cos(gamma), math.sin(gamma)),
                        0j)
    rows = int(cols.max()) + 1
    upper = oneshot_displacement_upper(nu, rows, size)
    sign = np.where(np.arange(size) % 2, -1.0, 1.0)
    s = upper[cols].T * (sign[:, None] * sign[cols])
    np.copyto(s[:rows], upper[:, cols], where=m[:rows] <= cols)
    lag = cols - m
    zeta = fockexp._zeta_powers(a, b, size)[np.abs(lag)]
    phase = np.where(lag >= 0, zeta, zeta.conj())
    return np.exp(1j * (gamma - 0.5 * a * b) - 0.5 * nu) * s * phase


def oneshot_t_product(a, b, gamma, x):
    """`fockexp._t_product` with every term of S y a fresh table."""
    size = x.shape[0]
    nu = 0.5 * (a * a + b * b)
    if nu == 0.0:
        return complex(math.cos(gamma), math.sin(gamma)) * x
    upper = oneshot_displacement_upper(nu, size, size)
    diag = upper.diagonal().copy()
    np.fill_diagonal(upper, 0.0)
    zeta = fockexp._zeta_powers(a, b, size)
    sign = np.where(np.arange(size) % 2, -1.0, 1.0)[:, None]
    y = (zeta[:, None] * x).view(float)
    sy = upper @ y + diag[:, None] * y + sign * (upper.T @ (sign * y))
    left = np.exp(1j * (gamma - 0.5 * a * b) - 0.5 * nu) * zeta.conj()
    return left[:, None] * sy.view(complex)


def oneshot_squeeze_factors(alpha, beta, size):
    """`fockexp._squeeze_factors` with a separate weighted table hxw."""
    b0, t, dgamma = fockexp._orbit_phases(alpha, beta)
    m_idx = np.arange(size)
    row = math.sqrt(b0 / beta) * np.exp(-1j * (m_idx + 0.5) * t)
    col = np.exp(-1j * (2.0 * m_idx + 1.0) * dgamma)
    u, weights = gauss_hermite_rule(size + 1)
    s = math.sqrt(2.0 / (1.0 + b0 * b0))
    table = hermite_function_table(size - 1, np.concatenate((s * u,
                                                             (b0 * s) * u)))
    half = len(u)
    factors = table[:, :half] * ((2.0 * s) * weights), table[:, half:]
    return row, factors, col


def oneshot_scale_product(factors, x):
    """`fockexp._real_scale_product`: complex products on each parity block."""
    hxw, hy = factors
    out = np.empty(x.shape, dtype=complex)
    for parity in (0, 1):
        out[parity::2] = hxw[parity::2] @ (hy[parity::2].T @ x[parity::2])
    return out


def oneshot_m_matrix(alpha, beta, size):
    """`fockexp.m_matrix`: exact at its identity point, else row*core*col."""
    if alpha == 0.0 and beta == 1.0:
        return np.eye(size, dtype=complex)
    row, factors, col = oneshot_squeeze_factors(alpha, beta, size)
    core = fockexp._real_scale_matrix(factors, range(size))
    return row[:, None] * core * col[None, :]


def oneshot_expansion(p0, cols, size):
    """(coeffs, tail_mass) of `fockexp.expansion_table` from the first
    factorization order only."""
    picked = np.array(cols)
    first_order, _ = fockexp._t_arguments(p0)
    tcols = oneshot_t_columns(*first_order, size, cols)
    if p0.alpha == 0.0 and p0.beta == 1.0:
        # the exact identity point of `m_matrix`, applied as a product
        first = np.ones(size)[:, None] * tcols
    else:
        row, factors, col = oneshot_squeeze_factors(p0.alpha, p0.beta, size)
        first = row[:, None] * oneshot_scale_product(factors,
                                                     col[:, None] * tcols)
    tail = 1.0 - p0.beta * np.sum(np.abs(first) ** 2, axis=0)
    if p0.gamma != 0.0:
        first = first * np.exp(1j * (2.0 * picked + 1.0) * p0.gamma)
    return np.ascontiguousarray(first), tail


def forked_extrema(p0):
    """The fields of `states.uncertainty_extrema`, in order, with its old
    fork: a harmonic part of relative size 1e-15 or less counted as a
    constant product, reported at t_min = t_max = 0."""
    a0, b0 = p0.alpha, p0.beta
    b0sq = b0 * b0
    s_const = 1.0 + 4.0 * a0 * a0 + b0sq * b0sq
    a_coef = 4.0 * a0 * a0 + b0sq * b0sq - 1.0
    b_coef = -4.0 * a0
    radius = math.hypot(a_coef, b_coef)
    if radius <= 1e-15 * s_const:
        var_p, var_x, product = variance_series(p0, 0.0)
        return (0.0, float(product), float(var_p), float(var_x), 0.0,
                float(product))
    phi = math.atan2(b_coef, a_coef)
    t_min = (phi % math.pi) / 2.0
    t_max = ((phi + math.pi / 2.0) % math.pi) / 2.0
    vp_min, vx_min, prod_min = variance_series(p0, t_min)
    _, _, prod_max = variance_series(p0, t_max)
    return (t_min, float(prod_min), float(vp_min), float(vx_min), t_max,
            float(prod_max))


# ----------------------------------------------------------------------
# library routes kept as test references
# ----------------------------------------------------------------------

def hermite(n, x):
    """Physicists' Hermite polynomial H_n(x), vectorized over x.

    Plain three-term recurrence; values overflow for large n and |x|,
    where `hermite_function_table` gives the normalized, weighted value.
    """
    n = _check_degree(n)
    x = np.asarray(x)
    h_prev = np.ones_like(x, dtype=x.dtype if x.dtype.kind == "c" else float)
    if n == 0:
        return h_prev if h_prev.shape else h_prev[()]
    h = 2.0 * x * h_prev
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.shape else h[()]


def psi_superposition(coeffs, p0, x, t):
    """Evaluate sum_n coeffs[n] * psi_n at time t; coeffs must be unit norm."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("coeffs must be a nonempty 1-d sequence")
    norm = float(np.sum(np.abs(c) ** 2))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"coefficients are not normalized: sum |c|^2 = {norm!r}")
    p = evolve(p0, t)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    xi = p.beta * xv + p.epsilon
    table = hermite_function_table(c.size - 1, xi)
    weights = c * np.exp(2j * p.gamma * np.arange(c.size))
    root_beta = complex(p.beta) ** 0.5
    vals = (root_beta * np.exp(1j * p.gamma) * _phase_factor(p, xv)
            * np.tensordot(weights, table, axes=(0, 0)))
    return _shape_like(vals, x)


def superposition_grid(coeffs, p0, grid, t):
    """A superposition Wigner function held over a grid's mesh.

    The row blocks are those `phasespace.write_superposition_csv`
    writes; the imaginary residual of the double sum is checked against
    1e-10 (relative to the largest value) and dropped.
    """
    return _collect(grid, _superposition_rows(coeffs, p0, grid, t))


def density_grid(c, t, points=301, half_width=None):
    """The channel density on the grid `channel.write_snapshot_csv` writes.

    Returns
    -------
    (ndarray, ndarray, ndarray)
        x axis, y axis, and values with ``values[i, j]`` at
        ``(x[i], y[j])``, stacked from the writer's row blocks.
    """
    x, y = _snapshot_axes(c, points, half_width)
    blocks = mesh_blocks(lambda xs, ys: density(c, xs, ys, t), x, y)
    return x, y, np.concatenate(list(blocks))


def _continuous_arg(p0, t):
    """Continuous argument of z(t) = (cos t + 2 alpha0 sin t) + i beta0^2 sin t.

    The winding of z matches e^{it} exactly (the residual factor never
    circles the origin), so arg z - t always lies in (-pi, pi); remainder
    against 2*pi recovers the continuous branch from the principal one.
    This is the branch `sqstates.ermakov` takes for gamma(t).
    """
    s, c = math.sin(t), math.cos(t)
    im, re = p0.beta * p0.beta * s, c + 2.0 * p0.alpha * s
    return t + math.remainder(math.atan2(im, re) - t, 2.0 * math.pi)


def _leading_phase(c, t):
    """Continuous branch of arctan(beta0^2 tan t)."""
    probe = ErmakovParameters(0.0, c.beta0, 0.0, 0.0, 0.0, 0.0)
    return _continuous_arg(probe, t)


def psi_2d(c, x, y, t):
    """The channeled packet wavefunction at depth t.

    Four factors: a normalizing amplitude with the continuous leading
    phase (the principal branch would make psi jump at quarter
    periods), a radial chirp, a plane-wave factor from the transverse
    momentum offset, and the displaced Gaussian envelope.  Accepts
    scalar or array x, y (broadcast together); unit L2 norm over the
    transverse plane.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = width_squared(c, t)
    s, co = math.sin(t), math.cos(t)
    bsq = c.beta0 * c.beta0
    rsq = x * x + y * y
    shift = x - c.delta0 * s
    front = math.pi ** -0.5 * w ** -0.5 * np.exp(-1j * _leading_phase(c, t))
    chirp = (bsq - 1.0 / bsq) * rsq * (2.0 * s * co) / (4.0 * w)
    ray = c.delta0 * (2.0 * x - c.delta0 * s) * co / (2.0 * bsq * w)
    envelope = -(shift * shift + y * y) / (2.0 * w)
    return front * np.exp(1j * (chirp + ray) + envelope)


def from_complex(c, gamma0=0.0, kappa0=0.0):
    """Invert `to_complex`, with beta0 = sqrt(|c1|^2 - |c2|^2) > 0."""
    bsq = abs(c.c1) ** 2 - abs(c.c2) ** 2
    if not bsq > 0.0:
        raise ValueError("require |c1|^2 - |c2|^2 > 0")
    b0 = math.sqrt(bsq)
    a0 = (0.5j * (c.c1 * c.c2.conjugate() - c.c1.conjugate() * c.c2)).real
    d0 = 0.5 * b0 * (c.c3 + c.c3.conjugate()).real
    e0 = (0.5j * (c.c3 - c.c3.conjugate())).real
    return ErmakovParameters(a0, b0, float(gamma0), d0, e0, float(kappa0))


def invariant_vectors(p, n_dim):
    """Eigenvectors of the invariant E, zero-padded to dimension N.

    Column k is `numpy.linalg.eigh`'s k-th eigenvector of the exact
    (N-1)-block whose eigenvalues `operators.energy_levels` returns, with
    its phase as eigh gives it and a zero last amplitude.
    """
    _, vecs = np.linalg.eigh(interior(invariant_E(p, n_dim).entries, 1))
    full = np.zeros((n_dim, n_dim - 1), dtype=complex)
    full[:-1] = vecs
    return full


def var_h_operator(n, p, n_dim=256):
    """Energy variance of the n-th invariant eigenstate, operator route.

    Builds the n-th eigenvector of the invariant E on the interior block
    and evaluates <H^2> - <H>^2 with the truncated H: the independent
    oracle of the closed-form `states.var_h`.  The level is capped at
    n_dim // 8 so that the eigenvector is resolved inside the truncation.
    """
    n = _check_int(n, "n", 0)
    if n > n_dim // 8:
        raise ValueError("level %d too close to the truncation %d; "
                         "raise n_dim" % (n, n_dim))
    vecs = invariant_vectors(p, n_dim)
    state = vecs[:, n]
    ham = fock_operators(n_dim)["H"].entries
    h_state = ham @ state
    mean = float(np.real(np.vdot(state, h_state)))
    square = float(np.real(np.vdot(h_state, h_state)))
    return square - mean * mean


def ladder_action_check(p, n_dim, levels=7):
    """Worst deviation of the invariant eigenvectors from ladder action.

    Applies b and b+ to the lowest eigenvectors of E and measures the
    distance from sqrt(n) |psi_{n-1}> and sqrt(n+1) |psi_{n+1}>, allowing
    one global phase per level (anchored at the ground level, then fixed
    recursively by the b overlaps).  Includes |b psi_0| -- the ground
    vector must be annihilated.
    """
    levels = _check_int(levels, "levels", 1, n_dim // 8)
    vecs = invariant_vectors(p, n_dim)
    ladder = b_operators(p, n_dim)
    low = ladder["b"].entries
    high = ladder["b_dag"].entries
    phased = [vecs[:, 0]]
    for k in range(1, levels + 1):
        overlap = complex(np.vdot(phased[k - 1], low @ vecs[:, k]))
        if abs(overlap) < 1e-8:
            raise ArithmeticError("ladder overlap vanished at level %d" % k)
        phased.append(vecs[:, k] * (abs(overlap) / overlap))
    gaps = [np.linalg.norm(low @ phased[0])]
    for k in range(1, levels + 1):
        gaps.append(np.linalg.norm(low @ phased[k]
                                   - math.sqrt(k) * phased[k - 1]))
        if k < levels:
            gaps.append(np.linalg.norm(high @ phased[k]
                                       - math.sqrt(k + 1.0) * phased[k + 1]))
    return float(np.max(gaps))  # a NaN gap gives NaN
