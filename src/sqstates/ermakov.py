"""Closed-form time evolution of Gaussian wave-packet parameters.

Six real parameters (alpha, beta, gamma, delta, epsilon, kappa) fix a
normalized Gaussian wave packet of the unit-frequency harmonic oscillator
at one instant: alpha, delta, kappa are quadratic/linear/constant phase
coefficients, beta scales the envelope, epsilon shifts it, gamma is the
accumulated phase of the lowest mode.  The time dependence of all six is
known in closed form, so "evolution" here is exact substitution, never
numerical integration.

Two equivalent forms of the flow are provided: the real trigonometric one
(`evolve`) and a complex three-parameter one (`evolve_complex`) in which
the whole motion is a rigid rotation of complex constants.  They must
agree to near machine precision; tests rely on the pair as mutual
cross-checks.

Branch convention: the lowest-mode phase gamma(t) is continuous in t.  It
is obtained from the continuous argument of z(t) = c1*e^{it} + c2*e^{-it},
never from a principal-branch arctangent, so gamma decreases by exactly
pi over each period 2*pi.

Units: hbar = omega = m = 1 throughout; everything is dimensionless.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

__all__ = [
    "MAX_TIME",
    "ErmakovParameters",
    "ComplexGroupParameters",
    "InvariantSet",
    "evolve",
    "classical_trajectory",
    "invariants",
    "to_complex",
    "from_complex",
    "evolve_complex",
]

_PARAM_FIELDS = ("alpha", "beta", "gamma", "delta", "epsilon", "kappa")

#: largest admissible |t|: the flow evaluates sin 2t and cos 2t, and a
#: range of times from -MAX_TIME to MAX_TIME must have a finite span
MAX_TIME = 0.25 * sys.float_info.max


@dataclass(frozen=True)
class ErmakovParameters:
    """One instant of the six-parameter Gaussian packet.

    beta must be nonzero (it scales the envelope width as 1/beta**2); the
    canonical sign at construction from real data is beta > 0, but negative
    beta is representable and evolves consistently.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float
    kappa: float

    def __post_init__(self):
        for name in _PARAM_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.beta == 0.0:
            raise ValueError("beta must be nonzero")


@dataclass(frozen=True)
class ComplexGroupParameters:
    """Complex constants (c1, c2, c3) of the rigid-rotation form of the flow.

    c1 and c2 encode the squeeze/phase sector (|c1|^2 - |c2|^2 = beta0^2 > 0,
    and c1 + c2 = 1 whenever built from real parameters); c3 encodes the
    displacement sector.
    """

    c1: complex
    c2: complex
    c3: complex

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            value = getattr(self, name)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not abs(self.c1) ** 2 - abs(self.c2) ** 2 > 0.0:
            raise ValueError("require |c1|^2 - |c2|^2 > 0")


@dataclass(frozen=True)
class InvariantSet:
    """The four combinations conserved exactly along the flow."""

    sum_variances: float
    phase_invariant: float
    displacement_invariant_1: float
    displacement_invariant_2: float


def _check_time(t: float) -> float:
    t = float(t)
    if not abs(t) <= MAX_TIME:
        raise ValueError(f"time must be finite with |t| <= {MAX_TIME!r}, "
                         f"got {t!r}")
    return t


def _continuous_arg(p0: ErmakovParameters, t: float) -> float:
    """Continuous argument of z(t) = (cos t + 2 alpha0 sin t) + i beta0^2 sin t.

    The winding of z matches e^{it} exactly (the residual factor never
    circles the origin), so arg z - t always lies in (-pi, pi); remainder
    against 2*pi recovers the continuous branch from the principal one.
    """
    s, c = math.sin(t), math.cos(t)
    re = c + 2.0 * p0.alpha * s
    im = p0.beta * p0.beta * s
    return t + math.remainder(math.atan2(im, re) - t, 2.0 * math.pi)


def evolve(p0: ErmakovParameters, t: float) -> ErmakovParameters:
    """Evolve initial parameters to time t through the real closed forms.

    Parameters
    ----------
    p0 : ErmakovParameters
        Initial data at t = 0.
    t : float
        Target time (any finite real; the flow is globally defined).

    Returns
    -------
    ErmakovParameters
        The parameter set at time t.  gamma uses the continuous branch.

    Raises
    ------
    ArithmeticError
        If finite initial data overflow on the way to time t.
    """
    t = _check_time(t)
    a0, b0, d0, e0 = p0.alpha, p0.beta, p0.delta, p0.epsilon
    s, c = math.sin(t), math.cos(t)
    b0sq = b0 * b0
    den = b0sq * b0sq * s * s + (2.0 * a0 * s + c) ** 2
    if not den > 0.0:  # mathematically impossible; guards NaN propagation
        raise ArithmeticError(f"degenerate denominator {den!r} at t={t!r}")

    alpha = (a0 * math.cos(2.0 * t)
             + 0.25 * math.sin(2.0 * t) * (b0sq * b0sq + 4.0 * a0 * a0 - 1.0)) / den
    beta = b0 / math.sqrt(den)
    gamma = p0.gamma - 0.5 * _continuous_arg(p0, t)
    delta = (d0 * (2.0 * a0 * s + c) + e0 * b0sq * b0 * s) / den
    epsilon = (e0 * (2.0 * a0 * s + c) - b0 * d0 * s) / math.sqrt(den)
    kappa = (p0.kappa
             + s * s * (e0 * b0sq * (a0 * e0 - b0 * d0) - a0 * d0 * d0) / den
             + 0.25 * math.sin(2.0 * t) * (e0 * e0 * b0sq - d0 * d0) / den)
    try:
        return ErmakovParameters(alpha, beta, gamma, delta, epsilon, kappa)
    except ValueError as exc:  # p0 and t are valid, so this is an overflow
        raise ArithmeticError(f"the flow overflows at t={t!r}: {exc}") from exc


def classical_trajectory(p0: ErmakovParameters, t: float) -> tuple[float, float]:
    """Return (<x>, <p>) at time t; the centroid follows the classical orbit."""
    t = _check_time(t)
    a0, b0, d0, e0 = p0.alpha, p0.beta, p0.delta, p0.epsilon
    s, c = math.sin(t), math.cos(t)
    w = 2.0 * a0 * e0 - b0 * d0
    x_mean = -(w * s + e0 * c) / b0
    p_mean = -(w * c - e0 * s) / b0
    return x_mean, p_mean


def invariants(p: ErmakovParameters) -> InvariantSet:
    """Evaluate the four conserved combinations at one instant."""
    a, b, d, e = p.alpha, p.beta, p.delta, p.epsilon
    bsq = b * b
    sum_var = (4.0 * a * a + bsq * bsq + 1.0) / (2.0 * bsq)
    phase = p.kappa - d * e / (2.0 * b)
    disp1 = e * e + d * d / bsq
    disp2 = e * e / bsq + (d - 2.0 * a * e / b) ** 2
    return InvariantSet(sum_var, phase, disp1, disp2)


def to_complex(p0: ErmakovParameters) -> ComplexGroupParameters:
    """Map real initial data to the complex constants of the rotation form.

    The sign of beta0 is not encoded (only beta0^2 enters); use the sign
    argument of `from_complex` to recover a negative-beta representative.
    gamma0 and kappa0 ride along separately.
    """
    a0, b0 = p0.alpha, p0.beta
    b0sq = b0 * b0
    c1 = complex(0.5 * (1.0 + b0sq), -a0)
    c2 = complex(0.5 * (1.0 - b0sq), a0)
    c3 = complex(p0.delta / b0, -p0.epsilon)
    return ComplexGroupParameters(c1, c2, c3)


def from_complex(
    c: ComplexGroupParameters,
    gamma0: float = 0.0,
    kappa0: float = 0.0,
    sign: int = 1,
) -> ErmakovParameters:
    """Invert `to_complex`; sign picks the branch of beta0 = +/- sqrt(|c1|^2-|c2|^2)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    bsq = abs(c.c1) ** 2 - abs(c.c2) ** 2
    if not bsq > 0.0:
        raise ValueError("require |c1|^2 - |c2|^2 > 0")
    b0 = sign * math.sqrt(bsq)
    a0 = (0.5j * (c.c1 * c.c2.conjugate() - c.c1.conjugate() * c.c2)).real
    d0 = 0.5 * b0 * (c.c3 + c.c3.conjugate()).real
    e0 = (0.5j * (c.c3 - c.c3.conjugate())).real
    return ErmakovParameters(a0, b0, float(gamma0), d0, e0, float(kappa0))


def evolve_complex(
    c: ComplexGroupParameters,
    gamma0: float,
    kappa0: float,
    t: float,
) -> ErmakovParameters:
    """Evolve through the complex rotation form; returns the beta > 0 representative.

    z(t) = c1 e^{it} + c2 e^{-it} never vanishes, and its continuous
    argument is t + Arg(c1) + Arg(1 + (c2/c1) e^{-2it}) with both principal
    arguments in (-pi/2, pi/2), so no stepwise unwrapping is needed.
    """
    t = _check_time(t)
    z = c.c1 * cmath.exp(1j * t) + c.c2 * cmath.exp(-1j * t)
    mod = abs(z)
    arg = t + cmath.phase(c.c1) + cmath.phase(1.0 + (c.c2 / c.c1) * cmath.exp(-2j * t))

    b0 = math.sqrt(abs(c.c1) ** 2 - abs(c.c2) ** 2)
    rot = c.c3 * cmath.exp(1j * arg)
    alpha = -(c.c1 * c.c2.conjugate() * cmath.exp(2j * t)).imag / (mod * mod)
    beta = b0 / mod
    gamma = gamma0 - 0.5 * arg
    delta = (b0 / mod) * rot.real
    epsilon = -rot.imag
    kappa = kappa0 + 0.25 * (c.c3 * c.c3 * (1.0 - cmath.exp(2j * arg))).imag
    return ErmakovParameters(alpha, beta, gamma, delta, epsilon, kappa)

