"""Dynamic squeezed states: wavefunctions, variances, and energy moments.

A DynamicState is the n-th excited wave packet carried by one set of
Gaussian parameters; a TCSState is the coherent superposition of all of
them driven by a single complex amplitude.  Both evaluate in closed form
at any time, with all time dependence delegated to the exact parameter
flow in `ermakov`.

The covariance algebra is plain arithmetic (no square roots), so it works
verbatim with exact rational inputs; tests use that to check the
determinant identity exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .ermakov import ErmakovParameters, classical_trajectory, evolve
from .specfun import _check_degree, hermite_function_table

__all__ = [
    "DynamicState",
    "TCSState",
    "CovarianceTriple",
    "ScaleRangeError",
    "UncertaintyExtrema",
    "psi_n",
    "psi_tcs",
    "covariance",
    "variance_series",
    "uncertainty_extrema",
    "energy",
    "var_h",
]


@dataclass(frozen=True)
class DynamicState:
    """The n-th wave packet on top of initial parameters `params0`."""

    n: int
    params0: ErmakovParameters

    def __post_init__(self):
        _check_degree(self.n, "n")


@dataclass(frozen=True)
class TCSState:
    """Coherent superposition of dynamic packets with complex amplitude zeta."""

    zeta: complex
    params0: ErmakovParameters

    def __post_init__(self):
        z = complex(self.zeta)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"zeta must be finite, got {self.zeta!r}")


@dataclass(frozen=True)
class CovarianceTriple:
    """Second moments (sigma_p, sigma_x, sigma_px) of a Gaussian packet.

    From `covariance` of a flow over an array of times, each field is a
    1-d float64 array, one entry per time, and the checks hold entrywise.
    """

    sigma_p: float
    sigma_x: float
    sigma_px: float

    def __post_init__(self):
        sp, sx, spx = self.sigma_p, self.sigma_x, self.sigma_px
        if isinstance(sp, np.ndarray):
            with np.errstate(all="ignore"):  # a bad entry is reported below
                prod = sp * sx
                good = ((sp > 0) & (sx > 0)
                        & (abs(prod - spx * spx - 0.25)
                           <= 1e-12 * np.maximum(1.0, abs(prod))))
            if not good.all():
                for row in zip(sp.tolist(), sx.tolist(), spx.tolist()):
                    CovarianceTriple(*row)  # raises at the first bad entry
            return
        if not (sp > 0 and sx > 0):
            raise ValueError("sigma_p and sigma_x must be positive")
        det = sp * sx - spx * spx
        scale = max(1.0, abs(sp * sx))
        if not abs(det - 0.25) <= 1e-12 * scale:  # a NaN fails too
            raise ValueError(f"determinant {det!r} violates the 1/4 identity")


class ScaleRangeError(ArithmeticError):
    """A power of beta left the float range inside `covariance`.

    sigma_p and sigma_x are positive for every finite beta > 0, so
    when one of them is not, beta^2 overflowed or beta^4 underflowed.
    """


@dataclass(frozen=True)
class UncertaintyExtrema:
    """Extrema of the uncertainty product over one period."""

    t_min: float
    product_min: float
    var_p_at_min: float
    var_x_at_min: float
    t_max: float
    product_max: float


def _shape_like(values: np.ndarray, x) -> np.ndarray | complex:
    ref = np.asarray(x)
    if ref.ndim == 0:
        return values.reshape(-1)[0]
    return values.reshape(ref.shape)


def _phase_factor(p: ErmakovParameters, x: np.ndarray) -> np.ndarray:
    return np.exp(1j * (p.alpha * x * x + p.delta * x + p.kappa))


def psi_n(s: DynamicState, x, t: float):
    """Evaluate the n-th dynamic wavefunction at positions x and time t."""
    p = evolve(s.params0, t)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    xi = p.beta * xv + p.epsilon
    h = hermite_function_table(s.n, xi)[-1]
    # not math.sqrt, which differs in the last bit for ~1 beta in 1250
    root_beta = complex(p.beta) ** 0.5
    vals = (root_beta * np.exp(1j * (2 * s.n + 1) * p.gamma)
            * _phase_factor(p, xv) * h)
    return _shape_like(vals, x)


def psi_tcs(s: TCSState, x, t: float):
    """Evaluate the coherent superposition state at positions x and time t.

    The complex drive rotates as eta = zeta * exp(2 i gamma(t)); the result
    is an eigenfunction of the instantaneous lowering operator with
    eigenvalue eta.
    """
    p = evolve(s.params0, t)
    eta = complex(s.zeta) * cmath.exp(2j * p.gamma)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    xi = p.beta * xv + p.epsilon
    root = complex(p.beta) ** 0.5 * math.pi ** -0.25  # as in `psi_n`
    envelope = np.exp(-0.5 * (xi - math.sqrt(2.0) * eta) ** 2)
    front = cmath.exp(0.5 * (eta * eta - abs(eta) ** 2) + 1j * p.gamma)
    vals = root * front * _phase_factor(p, xv) * envelope
    return _shape_like(vals, x)


def _moments(a, b):
    """(sigma_p, sigma_x, sigma_px) from alpha and beta, scalars or arrays."""
    bsq = b * b
    return (4 * a * a + bsq * bsq) / (2 * bsq), 1 / (2 * bsq), a / bsq


def _covariance(a, b) -> CovarianceTriple:
    sigma_p, sigma_x, sigma_px = _moments(a, b)
    if not (sigma_p > 0 and sigma_x > 0):
        raise ScaleRangeError(
            f"sigma_p = {sigma_p!r} and sigma_x = {sigma_x!r} at "
            f"beta = {b!r}: beta^2 or beta^4 is out of the float range")
    try:
        return CovarianceTriple(sigma_p, sigma_x, sigma_px)
    except ValueError as exc:
        terms = (sigma_p, sigma_x, sigma_px, sigma_p * sigma_x,
                 sigma_px * sigma_px)
        if all(map(math.isfinite, terms)):
            raise ArithmeticError(
                f"the second moments fail the determinant check: {exc}"
            ) from exc
        raise ArithmeticError(f"the second moments overflow: {exc}") from exc


def covariance(p: ErmakovParameters) -> CovarianceTriple:
    """Second moments at one instant; plain arithmetic, exact for rationals.

    For parameters from `evolve` over an array of times the moments are
    arrays, one entry per time, bit for bit those of each instant.

    Raises
    ------
    ZeroDivisionError
        If beta^2 underflows to 0.
    ScaleRangeError
        If beta^2 overflows or beta^4 underflows, so that sigma_p or
        sigma_x is not positive.
    ArithmeticError
        If the determinant identity fails; the message says "overflow"
        only when a moment or a product of two is not finite.

    For arrays, the error is that of the first bad entry.
    """
    a, b = p.alpha, p.beta
    if not isinstance(b, np.ndarray):
        return _covariance(a, b)
    # every entry is checked (a zero beta^2 gives a NaN moment or
    # determinant), so numpy's warnings are noise
    with np.errstate(all="ignore"):
        moments = _moments(a, b)
    try:
        return CovarianceTriple(*moments)
    except ValueError:
        for entry in zip(a.tolist(), b.tolist()):
            _covariance(*entry)  # raises at the first bad entry
        raise


def variance_series(p0: ErmakovParameters, t):
    """Closed-form (var_p(t), var_x(t), product(t)); t may be an array.

    Both variances are a constant plus one harmonic at frequency 2; their
    product dips to exactly 1/4 twice per period.
    """
    tv = np.asarray(t, dtype=float)
    a0, b0 = p0.alpha, p0.beta
    b0sq = b0 * b0
    s_const = 1.0 + 4.0 * a0 * a0 + b0sq * b0sq
    a_coef = 4.0 * a0 * a0 + b0sq * b0sq - 1.0
    osc = a_coef * np.cos(2.0 * tv) - 4.0 * a0 * np.sin(2.0 * tv)
    var_p = (s_const + osc) / (4.0 * b0sq)
    var_x = (s_const - osc) / (4.0 * b0sq)
    return var_p, var_x, var_p * var_x


def uncertainty_extrema(p0: ErmakovParameters) -> UncertaintyExtrema:
    """Locate the extrema of var_p * var_x over one period.

    The oscillating part is R cos(2t - phi); the product minimum (exactly
    1/4) sits where |cos| = 1 and the maximum where cos = 0.  Which of
    var_p/var_x is large at the minimum is read off from the evaluated
    series rather than assumed.  At alpha0 = 0, beta0^2 = 1 the product
    is constant, and t_min = 0, t_max = pi/4 are returned.
    """
    a0, b0sq = p0.alpha, p0.beta * p0.beta
    phi = math.atan2(-4.0 * a0, 4.0 * a0 * a0 + b0sq * b0sq - 1.0)
    t_min = (phi % math.pi) / 2.0
    t_max = ((phi + math.pi / 2.0) % math.pi) / 2.0
    vp_min, vx_min, prod_min = variance_series(p0, t_min)
    _, _, prod_max = variance_series(p0, t_max)
    return UncertaintyExtrema(t_min, float(prod_min), float(vp_min),
                              float(vx_min), t_max, float(prod_max))


def energy(s: DynamicState) -> float:
    """Time-independent <H> of the n-th dynamic state."""
    p0 = s.params0
    a0, b0, d0, e0 = p0.alpha, p0.beta, p0.delta, p0.epsilon
    b0sq = b0 * b0
    drift = (2.0 * a0 * e0 - b0 * d0) ** 2 + e0 * e0
    return ((s.n + 0.5) * (1.0 + 4.0 * a0 * a0 + b0sq * b0sq) / (2.0 * b0sq)
            + drift / (2.0 * b0sq))


def var_h(s: DynamicState) -> float:
    """Energy variance of the n-th dynamic state.

    Evaluated from the initial-data closed form and cross-checked against
    the equivalent covariance/centroid form before returning.
    """
    p0 = s.params0
    n_half = s.n + 0.5
    a0, b0, d0, e0 = p0.alpha, p0.beta, p0.delta, p0.epsilon
    b0sq = b0 * b0
    b0q = b0sq * b0sq
    plus = 4.0 * a0 * a0 + (b0sq + 1.0) ** 2
    minus = 4.0 * a0 * a0 + (b0sq - 1.0) ** 2
    drift = (2.0 * a0 * e0 - b0 * d0) ** 2 + e0 * e0
    value = (plus * minus / (8.0 * b0q) * (n_half**2 + 0.75)
             + ((4.0 * a0 * a0 + b0q + 1.0) * drift / b0q
                - (e0 * e0 + d0 * d0 / b0sq)) * n_half)

    cov = covariance(p0)
    x_mean, p_mean = classical_trajectory(p0, 0.0)
    sigma_sum = cov.sigma_p + cov.sigma_x
    alt = (0.5 * (sigma_sum**2 - 1.0) * (n_half**2 + 0.75)
           + 2.0 * (cov.sigma_p * p_mean**2
                    + 2.0 * cov.sigma_px * p_mean * x_mean
                    + cov.sigma_x * x_mean**2) * n_half)
    if not abs(value - alt) <= 1e-10 * max(1.0, abs(value)):
        raise ArithmeticError(
            f"energy-variance forms disagree: {value!r} vs {alt!r}")
    return value
