"""Wigner pictures of the evolving wave packets.

The same states that ``states`` evaluates pointwise in x have strikingly
simple phase-space portraits: every displaced squeezed packet is a rigid
Gaussian hill, every number state a ringed Laguerre profile, and the whole
picture just *rotates* about the origin at unit angular speed.  This module
evaluates those portraits three ways and checks them against each other:

* closed forms -- a Gaussian expression for the coherent-squeezed packet
  (written equivalently through the displacement eigenvalue, through the
  centroid, or through the covariance matrix; all three are computed and
  compared on every call), and a Laguerre-polynomial expression for the
  cross function of a pair of number states;
* a direct Fourier quadrature of the defining transform

      W(x, p) = (1/2 pi) Integral psi*(x + y/2) psi(x - y/2) e^{i p y} dy,

  which takes an arbitrary wavefunction callable and serves as the
  module's independent oracle;
* superpositions, assembled as double sums of the cross functions, with
  the imaginary residual asserted small before it is dropped.

Conventions.  Phase-space grids store ``values[i, j] = W(x_range[i],
p_range[j])`` -- row index is position, column index is momentum -- and
`write_tcs_csv` and `write_superposition_csv` write rows in that
(row-major) order.  Every grid is evaluated in the row blocks of
`_csv.mesh_blocks`; the writers hand those blocks to `_csv.block_lines`,
which checks each to be finite before it is formatted, and the held
grids are the same blocks stacked.  The rotated coordinates used
throughout are

    Q = beta x + epsilon,      P = (p - 2 alpha x - delta) / beta,

with the parameters evolved to the requested time; the area element is
preserved, dQ dP = dx dp, which is what makes the normalisation and
purity integrals below come out grid-independent.

One printed sign deserves a comment: the Laguerre form of the cross
function carries a factor 2^{(n-m)/2} (so each unit of n - m contributes
sqrt(2) (Q - iP)).  With the opposite exponent the m=0, n=1 function
disagrees with the defining quadrature by a factor of 2 and the pair
integral Integral |W_01|^2 dx dp lands at 1/(8 pi) instead of 1/(2 pi);
both checks pin the convention used here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._csv import block_lines, format_axis, mesh_blocks, write_csv
from .ermakov import ErmakovParameters, classical_trajectory, evolve
from .specfun import _check_degree, _check_int, laguerre_assoc
from .states import TCSState, covariance

__all__ = [
    "PhaseSpacePoint",
    "PhaseSpaceGrid",
    "tcs_center",
    "wigner_tcs",
    "wigner_numeric",
    "moyal",
    "rotate_evolution_check",
    "default_grid",
    "tcs_grid",
    "grid_normalization",
    "purity",
    "write_tcs_csv",
    "write_superposition_csv",
]

#: Convergence flag threshold for the Fourier quadrature: the run is
#: rejected when the combined discretisation + truncation estimate
#: exceeds this value.
QUADRATURE_TOL = 1e-8


@dataclass(frozen=True)
class PhaseSpacePoint:
    """A single (x, p) argument of the Wigner function.

    Attributes
    ----------
    x, p : float
        Position and momentum; both must be finite.
    """

    x: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.p)):
            raise ValueError("phase-space point must be finite, got (%r, %r)"
                             % (self.x, self.p))


@dataclass(frozen=True, eq=False)
class PhaseSpaceGrid:
    """Wigner data sampled on a rectangular, uniformly spaced mesh.

    Attributes
    ----------
    x_range, p_range : ndarray
        Strictly increasing, uniformly spaced 1D meshes.
    values : ndarray
        Real samples ``values[i, j] = W(x_range[i], p_range[j])``, the
        row index over position; complex values raise ValueError.
    """

    x_range: np.ndarray
    p_range: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_range, dtype=float)
        p = np.asarray(self.p_range, dtype=float)
        v = np.asarray(self.values)
        if np.iscomplexobj(v):
            raise ValueError("values must be real")
        for name, mesh in (("x_range", x), ("p_range", p)):
            if mesh.ndim != 1 or mesh.size < 2:
                raise ValueError("%s must be a 1D mesh with >= 2 points" % name)
            steps = np.diff(mesh)
            if np.any(steps <= 0.0):
                raise ValueError("%s must be strictly increasing" % name)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
                raise ValueError("%s must be uniformly spaced" % name)
        if v.shape != (x.size, p.size):
            raise ValueError(
                "values shape %r does not match (len(x_range), len(p_range))"
                " = (%d, %d)" % (v.shape, x.size, p.size))
        for field, arr in (("x_range", x), ("p_range", p), ("values", v)):
            arr.setflags(write=False)
            object.__setattr__(self, field, arr)

    @property
    def dx(self) -> float:
        return float(self.x_range[1] - self.x_range[0])

    @property
    def dp(self) -> float:
        return float(self.p_range[1] - self.p_range[0])


# ----------------------------------------------------------------------
# shared coordinate helpers
# ----------------------------------------------------------------------

def _rotated_coords(p: ErmakovParameters, x, mom):
    """Return (Q, P) = (beta x + epsilon, (p - 2 alpha x - delta)/beta)."""
    q = p.beta * x + p.epsilon
    pp = (mom - 2.0 * p.alpha * x - p.delta) / p.beta
    return q, pp


def _displacement_eigenvalue(s: TCSState, p: ErmakovParameters) -> complex:
    """The rotating displacement label eta at the instant described by p."""
    return complex(s.zeta) * cmath.exp(2j * p.gamma)


def _tcs_values(s: TCSState, p: ErmakovParameters, x, mom):
    """Vectorised Gaussian form of the packet Wigner function.

    Evaluates the displacement-eigenvalue form only; the scalar
    `wigner_tcs` additionally cross-checks the centroid and covariance
    forms on every call, so grid evaluation can skip the redundancy.
    """
    q, pp = _rotated_coords(p, x, mom)
    eta = _displacement_eigenvalue(s, p)
    dq = q - math.sqrt(2.0) * eta.real
    dp_ = pp - math.sqrt(2.0) * eta.imag
    return np.exp(-(dq * dq + dp_ * dp_)) / math.pi


def tcs_center(s: TCSState, t: float) -> tuple[float, float]:
    """Centroid (<x>, <p>) of the displaced packet at time t.

    The displacement label shifts the bare classical orbit of the
    underlying parameters: the Gaussian hill peaks where both rotated
    coordinates match the label, Q = sqrt(2) Re eta and
    P = sqrt(2) Im eta.
    """
    p = evolve(s.params0, t)
    eta = _displacement_eigenvalue(s, p)
    x_mean = (math.sqrt(2.0) * eta.real - p.epsilon) / p.beta
    p_mean = p.beta * math.sqrt(2.0) * eta.imag + 2.0 * p.alpha * x_mean + p.delta
    return x_mean, p_mean


def wigner_tcs(s: TCSState, pt: PhaseSpacePoint, t: float) -> float:
    """Closed-form Wigner function of the displaced squeezed packet.

    Three algebraically equivalent expressions are evaluated -- through
    the displacement eigenvalue in the rotated coordinates, through the
    centroid, and through the covariance matrix -- and any disagreement
    beyond roundoff raises, since it would mean the coordinate or
    covariance bookkeeping has drifted.

    Parameters
    ----------
    s : TCSState
        Displacement label and initial parameters.
    pt : PhaseSpacePoint
        Evaluation point.
    t : float
        Time; the parameters are evolved internally.

    Returns
    -------
    float
        W(x, p; t), a positive Gaussian of total integral 1.
    """
    p = evolve(s.params0, t)

    # form 1: displacement eigenvalue in rotated coordinates
    w1 = float(_tcs_values(s, p, pt.x, pt.p))

    # form 2: centroid form, exponent collecting the cross term
    x_mean, p_mean = tcs_center(s, t)
    du, dv = pt.x - x_mean, pt.p - p_mean
    bsq = p.beta * p.beta
    expo2 = (dv * dv - 4.0 * p.alpha * dv * du
             + (4.0 * p.alpha * p.alpha + bsq * bsq) * du * du) / bsq
    w2 = math.exp(-expo2) / math.pi

    # form 3: covariance form (det of the second-moment matrix is 1/4)
    cov = covariance(p)
    expo3 = 2.0 * (cov.sigma_x * dv * dv - 2.0 * cov.sigma_px * dv * du
                   + cov.sigma_p * du * du)
    w3 = math.exp(-expo3) / math.pi

    # np.maximum keeps a NaN of either form, where max would drop it
    spread = np.maximum(abs(w1 - w2), abs(w1 - w3))
    if not spread <= 1e-10 * (1.0 + abs(w1)):
        raise ArithmeticError(
            "equivalent Wigner forms disagree by %.3e at (x=%g, p=%g, t=%g)"
            % (spread, pt.x, pt.p, t))
    return w1


# ----------------------------------------------------------------------
# defining transform, by quadrature
# ----------------------------------------------------------------------

def wigner_numeric(psi: Callable, pt: PhaseSpacePoint,
                   extent: float = 12.0, nodes: int = 1281) -> float:
    """Fourier quadrature of the defining Wigner transform.

    Computes (1/2 pi) Integral psi*(x + y/2) psi(x - y/2) e^{i p y} dy by
    the trapezoid rule on [-extent, extent].  Serves as the module's
    independent oracle: it knows nothing about the closed forms.  The
    transforms of (psi_m + psi_n)/sqrt 2 and (psi_m - i psi_n)/sqrt 2 are
    (W_mm + W_nn)/2 plus Re W_mn and Im W_mn of the cross function.

    Parameters
    ----------
    psi : callable
        Wavefunction of a single array argument x, returning complex
        values with Gaussian decay.
    pt : PhaseSpacePoint
        Evaluation point.
    extent : float, optional
        Half-width of the y window.  The integrand decays like
        exp(-beta^2 y^2 / 4) for packets of scale parameter beta, so
        strongly spread states (small beta) need a proportionally wider
        window -- pass something like 12/beta.
    nodes : int, optional
        Number of quadrature nodes (at least 1024; forced odd so that
        the half-resolution error estimate reuses the same samples).

    Returns
    -------
    float
        W(x, p), less the roundoff imaginary part of the quadrature.

    Raises
    ------
    ArithmeticError
        When the combined discretisation + window-truncation estimate
        exceeds 1e-8 or is NaN, i.e. the quadrature cannot vouch for the
        value.
    """
    nodes = _check_int(nodes, "nodes", 1024)
    if nodes % 2 == 0:
        nodes += 1
    if not (extent > 0.0 and math.isfinite(extent)):
        raise ValueError("extent must be positive and finite")
    y, step = np.linspace(-extent, extent, nodes, retstep=True)
    integrand = (np.conj(psi(pt.x + 0.5 * y)) * psi(pt.x - 0.5 * y)
                 * np.exp(1j * pt.p * y))
    total = np.trapezoid(integrand, dx=step) / (2.0 * math.pi)
    coarse = np.trapezoid(integrand[::2], dx=2.0 * step) / (2.0 * math.pi)
    # trapezoid error is O(h^2): Richardson difference /3 estimates the
    # fine-grid discretisation error; edge magnitudes estimate the mass
    # cut off by the finite window, assuming no slower-than-linear decay
    discretisation = abs(total - coarse) / 3.0
    truncation = (abs(integrand[0]) + abs(integrand[-1])) * extent / (2.0 * math.pi)
    estimate = discretisation + truncation
    if not estimate <= QUADRATURE_TOL:
        raise ArithmeticError(
            "Wigner quadrature did not converge: error estimate %.3e "
            "(discretisation %.3e, window truncation %.3e); increase "
            "extent and/or nodes" % (estimate, discretisation, truncation))
    return float(total.real)


# ----------------------------------------------------------------------
# number-state cross functions
# ----------------------------------------------------------------------

def _moyal_values(m: int, n: int, p: ErmakovParameters, x, mom):
    """Vectorised cross function for m <= n at fixed evolved parameters."""
    q, pp = _rotated_coords(p, x, mom)
    rsq = q * q + pp * pp
    order = n - m
    log_amp = 0.5 * (math.lgamma(m + 1) - math.lgamma(n + 1)) \
        + 0.5 * order * math.log(2.0)
    try:
        phase = cmath.exp(2j * order * p.gamma)
    except ValueError as exc:   # 2 order gamma overflowed to infinity
        raise ArithmeticError(
            f"cross-function phase 2 * {order} * gamma overflows at "
            f"gamma = {p.gamma!r}") from exc
    phase = phase * (-1.0) ** m / math.pi
    core = np.exp(-rsq + log_amp) * laguerre_assoc(m, order, 2.0 * rsq)
    if order == 0:
        return phase * core
    return phase * core * (q - 1j * pp) ** order


def moyal(m: int, n: int, p0: ErmakovParameters, pt: PhaseSpacePoint,
          t: float) -> complex:
    """Cross Wigner function of the m-th and n-th number states.

    The value is the Laguerre closed form in the rotated coordinates,
    with the relative phase 2(n - m) gamma(t) carried explicitly.  Only
    m <= n is evaluated directly; the opposite order follows from the
    Hermitian symmetry W_mn = conj(W_nm) of the defining transform,
    which also sidesteps the negative upper Laguerre index the printed
    form would otherwise request.

    Parameters
    ----------
    m, n : int
        Integer basis labels, each in [0, MAX_DEGREE].
    p0 : ErmakovParameters
        Initial parameters of the evolving basis.
    pt : PhaseSpacePoint
        Evaluation point.
    t : float
        Time.

    Returns
    -------
    complex
        W_mn(x, p; t); real when m == n.
    """
    m, n = _check_degree(m, "m"), _check_degree(n, "n")
    if m > n:
        return complex(np.conj(moyal(n, m, p0, pt, t)))
    p = evolve(p0, t)
    return complex(_moyal_values(m, n, p, pt.x, pt.p))


def _check_coeffs(coeffs) -> list[tuple[complex, int]]:
    """Validate a (coefficient, level) list and its normalisation."""
    pairs = []
    total = 0.0
    for i, item in enumerate(coeffs):
        try:
            c, n = item
        except (TypeError, ValueError):
            raise ValueError("superposition term %d is not a (coefficient, "
                             "level) pair: %r" % (i, item)) from None
        n = _check_degree(n, "basis label")
        c = complex(c)
        pairs.append((c, n))
        try:
            total += abs(c) ** 2
        except OverflowError:   # |c| or |c|^2 beyond the float range
            total = math.inf
    if not pairs:
        raise ValueError("superposition needs at least one term")
    if len({n for _, n in pairs}) != len(pairs):
        raise ValueError("duplicate basis labels in superposition")
    if not abs(total - 1.0) <= 1e-12:  # a NaN total fails too
        raise ValueError("coefficients are not normalized: sum |c|^2 = %.17g"
                         % total)
    return pairs


def _superposition_values(pairs, p: ErmakovParameters, x, mom):
    """Double sum of cross functions at fixed evolved parameters.

    The terms are added in row-major (j, k) order, but each cross
    function is evaluated once per unordered pair: the term (k, j) of
    a pair j < k is the conjugate W_kj = conj(W_jk) of the array
    evaluated for (j, k), held until it is added.  So T terms cost
    T (T + 1) / 2 evaluations instead of T^2, and the sum is the bits
    of the full double loop.
    """
    acc = np.zeros(np.broadcast(x, mom).shape, dtype=complex)
    held = {}
    for j, (cj, nj) in enumerate(pairs):
        for k, (ck, nk) in enumerate(pairs):
            if k < j:
                w = np.conj(held.pop((k, j)))
            elif nj <= nk:
                w = _moyal_values(nj, nk, p, x, mom)
            else:
                w = np.conj(_moyal_values(nk, nj, p, x, mom))
            if k > j:
                held[j, k] = w
            acc += np.conj(cj) * ck * w
    return acc


def rotate_evolution_check(coeffs: Sequence, p0: ErmakovParameters,
                           grid: PhaseSpaceGrid, t: float) -> float:
    """Largest violation of the rigid-rotation evolution law on a grid.

    The whole phase-space portrait revolves clockwise at unit angular
    speed: W(x, p; t) = W(x cos t - p sin t, x sin t + p cos t; 0).
    This evaluates both sides of that identity for a superposition state
    over the grid's mesh (the grid's stored values are ignored; it only
    supplies the sampling domain) and returns the maximum absolute
    difference.  The mesh is visited in the row blocks that
    `write_superposition_csv` writes, and their imaginary-residual check
    applies too.

    Returns
    -------
    float
        max |W(x, p; t) - W(rotated; 0)| over the mesh.
    """
    gaps = []
    for _ in _superposition_rows(coeffs, p0, grid, t, gaps):
        pass
    return float(_running_max(gaps))


def _rotation_gap(pairs, p0: ErmakovParameters, t: float):
    """The block form of the rotation law, given the evolved values.

    Returns ``gap(now, x, mom)``: the largest |now - W(rotated; 0)| over
    one block, where ``now`` holds the complex superposition values at
    time t on the block's mesh (x, mom).
    """
    then = evolve(p0, 0.0)
    c, s = math.cos(t), math.sin(t)

    def gap(now, x, mom):
        back = _superposition_values(pairs, then, x * c - mom * s,
                                     x * s + mom * c)
        return np.max(np.abs(now - back))

    return gap


# ----------------------------------------------------------------------
# grids, integrals, CSV output
# ----------------------------------------------------------------------

def default_grid(p0: ErmakovParameters, t: float = 0.0,
                 levels: Sequence[int] = (0,),
                 points: int | tuple[int, int] = 201,
                 spread: float = 5.0,
                 center: Optional[tuple] = None) -> PhaseSpaceGrid:
    """Build a mesh that captures essentially all of a state's mass.

    Centred on the classical centroid at time t (or on an explicit
    ``center`` -- displaced packets peak away from the bare orbit, see
    `tcs_center`), extending ``spread`` packet standard deviations on
    each side, inflated by sqrt(2 n + 1) for the highest populated
    level n (number states widen with the square root of the level).
    ``points`` is one count for both axes or an ``(nx, np)`` pair.
    Values are a read-only view of a single zero, so no array of the
    whole mesh is allocated; pass the grid to an evaluator to populate
    it.
    """
    nx, np_ = (points, points) if np.ndim(points) == 0 else points
    nx, np_ = _check_int(nx, "points", 2), _check_int(np_, "points", 2)
    levels = [_check_degree(n, "levels") for n in levels]
    if not levels:
        raise ValueError("levels must name at least one level")
    nmax = max(levels)
    x_mean, p_mean = (classical_trajectory(p0, t) if center is None
                      else (float(center[0]), float(center[1])))
    cov = covariance(evolve(p0, t))
    scale = math.sqrt(2.0 * nmax + 1.0)
    half_x = spread * math.sqrt(cov.sigma_x) * scale
    half_p = spread * math.sqrt(cov.sigma_p) * scale
    return PhaseSpaceGrid(
        np.linspace(x_mean - half_x, x_mean + half_x, nx),
        np.linspace(p_mean - half_p, p_mean + half_p, np_),
        np.broadcast_to(0.0, (nx, np_)))


def _running_max(blocks):
    """The largest entry over all blocks; a NaN anywhere gives NaN.

    ``np.maximum`` keeps a NaN as ``np.max`` over the whole grid would,
    and a max does not depend on order, so the result is exact.
    """
    top = 0.0
    for block in blocks:
        top = np.maximum(top, np.max(block))
    return top


def _collect(grid: PhaseSpaceGrid, blocks) -> PhaseSpaceGrid:
    """A grid over ``grid``'s mesh holding the real row blocks in order."""
    # every block is drawn, so a check that ends the blocks still runs
    return PhaseSpaceGrid(grid.x_range, grid.p_range,
                          np.concatenate(list(blocks)))


def _tcs_rows(s: TCSState, grid: PhaseSpaceGrid, t: float):
    """Row blocks of the packet Wigner function over the grid's mesh."""
    p = evolve(s.params0, t)
    return mesh_blocks(lambda x, mom: _tcs_values(s, p, x, mom),
                       grid.x_range, grid.p_range)


def _superposition_rows(coeffs, p0: ErmakovParameters,
                        grid: PhaseSpaceGrid, t: float, gaps=None):
    """Real row blocks of a superposition Wigner function.

    With a list ``gaps``, the rotation-law gap of each block (see
    `rotate_evolution_check`) is appended to it, computed from the same
    evolved values.
    """
    pairs = _check_coeffs(coeffs)
    p = evolve(p0, t)
    gap = None if gaps is None else _rotation_gap(pairs, p0, t)

    def evaluate(x, mom):
        vals = _superposition_values(pairs, p, x, mom)
        if gap is not None:
            gaps.append(gap(vals, x, mom))
        return vals

    return _real_parts(mesh_blocks(evaluate, grid.x_range, grid.p_range))


def _real_parts(blocks):
    """The real parts of complex blocks whose imaginary parts are roundoff.

    The imaginary residual is checked against 1e-10 relative to the
    largest |value| of the whole grid.  Both are running maxima over
    the blocks, so the check is exact; it raises after the last block.
    """
    top = residual = 0.0
    for vals in blocks:
        top = np.maximum(top, np.max(np.abs(vals)))
        residual = np.maximum(residual, np.max(np.abs(vals.imag)))
        yield vals.real
    if not residual <= 1e-10 * (1.0 + top):
        raise ArithmeticError(
            "superposition Wigner grid has imaginary residual %.3e" % residual)


def tcs_grid(s: TCSState, grid: PhaseSpaceGrid, t: float) -> PhaseSpaceGrid:
    """Evaluate the packet Wigner function over a grid's mesh."""
    return _collect(grid, _tcs_rows(s, grid, t))


def grid_normalization(grid: PhaseSpaceGrid) -> float:
    """Integral of the stored values over the whole grid (trapezoid)."""
    inner = np.trapezoid(grid.values, dx=grid.dp, axis=1)
    return float(np.trapezoid(inner, dx=grid.dx))


def purity(grid: PhaseSpaceGrid) -> float:
    """Phase-space purity integral of a Wigner grid.

    For every pure state the squared Wigner function integrates to
    1/(2 pi); mixtures fall below.
    """
    return grid_normalization(PhaseSpaceGrid(
        grid.x_range, grid.p_range, grid.values * grid.values))


def write_tcs_csv(path, s: TCSState, grid: PhaseSpaceGrid, t: float) -> None:
    """Write ``tcs_grid(s, grid, t)`` as (x, p, W) rows, position-major.

    The values are computed, checked to be finite, formatted and
    written one row block at a time (`_csv.block_lines`), so no array
    of the whole mesh is ever held.
    """
    write_csv(path, "x,p,W", block_lines(
        format_axis(grid.x_range), format_axis(grid.p_range),
        _tcs_rows(s, grid, t), "Wigner value at t = %r" % (t,)))


def write_superposition_csv(path, coeffs: Sequence, p0: ErmakovParameters,
                            grid: PhaseSpaceGrid, t: float,
                            rotation_check: bool = False):
    """Write a superposition's Wigner grid as (x, p, W) rows, position-major.

    ``coeffs`` is a sequence of (coefficient, level) pairs with distinct
    levels and sum |c|^2 = 1 to within 1e-12; anything else, a NaN
    coefficient included, raises ``ValueError`` before the file is
    opened.  The values are computed, checked, formatted and written
    one row block at a time (`_csv.block_lines`), so no array of the
    whole mesh is ever held.  A block that is not finite raises
    ``FloatingPointError`` before it is written: at high basis levels
    an underflowed Gaussian factor meets an overflowed Laguerre value
    in `_moyal_values`.  The imaginary-residual check spans the whole
    grid, so it raises only after the last block is written; the
    command-line front end writes into a staging directory, which keeps
    a failed file out of sight.

    Returns
    -------
    float or None
        With ``rotation_check``, the value of `rotate_evolution_check`
        on the same mesh, taken from the same evolved values; else None.
    """
    gaps = [] if rotation_check else None
    write_csv(path, "x,p,W", block_lines(
        format_axis(grid.x_range), format_axis(grid.p_range),
        _superposition_rows(coeffs, p0, grid, t, gaps),
        "Wigner value at t = %r" % (t,)))
    return float(_running_max(gaps)) if rotation_check else None
