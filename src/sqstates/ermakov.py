"""Closed-form time evolution of Gaussian wave-packet parameters.

Six real parameters (alpha, beta, gamma, delta, epsilon, kappa) fix a
normalized Gaussian wave packet of the unit-frequency harmonic oscillator
at one instant: alpha, delta, kappa are quadratic/linear/constant phase
coefficients, beta > 0 scales the envelope, epsilon shifts it, gamma is the
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

Array route: `evolve` and `classical_trajectory` also take a 1-d float64
array of times and then return struct-of-arrays results (an
`ErmakovParameters` whose six fields are arrays, one entry per time), the
same bits the scalar route gives time by time.  The closed forms are
written once (`_closed_form`) for both routes: numpy runs only + - * /
and sqrt, which IEEE 754 rounds the same on arrays as on floats, while
sin, cos, atan2, remainder and the ``**2`` square (libm ``pow``, which
``x*x`` does not always match) stay libm calls on Python floats, one per
entry, because numpy's own versions may take SIMD paths that differ in
the last bit.  Every scalar check holds entrywise; when an entry fails
one, the array is evaluated again through the scalar route, which raises
the scalar error at the first bad entry.

Units: hbar = omega = m = 1 throughout; everything is dimensionless.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace

import numpy as np

__all__ = [
    "MAX_TIME",
    "ErmakovParameters",
    "ComplexGroupParameters",
    "InvariantSet",
    "evolve",
    "classical_trajectory",
    "invariants",
    "to_complex",
    "evolve_complex",
]

_PARAM_FIELDS = ("alpha", "beta", "gamma", "delta", "epsilon", "kappa")

#: largest admissible |t|: the flow evaluates sin 2t and cos 2t, and a
#: range of times from -MAX_TIME to MAX_TIME must have a finite span
MAX_TIME = 0.25 * sys.float_info.max


@dataclass(frozen=True)
class ErmakovParameters:
    """One instant of the six-parameter Gaussian packet, or many.

    beta must be positive (it scales the envelope width as 1/beta**2);
    `evolve` keeps it positive at every time.  `evolve` over an array of
    times gives six 1-d float64 arrays, one entry per time, and the checks
    then hold entrywise.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float
    kappa: float

    def __post_init__(self):
        if isinstance(self.beta, np.ndarray):
            values = [getattr(self, name) for name in _PARAM_FIELDS]
            if (all(np.isfinite(v).all() for v in values)
                    and (self.beta > 0.0).all()):
                return
            for row in zip(*[v.tolist() for v in values]):
                ErmakovParameters(*row)  # raises at the first bad entry
            return
        for name in _PARAM_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        _check_beta(self.beta)


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


def _check_beta(beta, name: str = "beta") -> None:
    """Raise ValueError, naming the argument ``name``, unless beta > 0."""
    if not beta > 0.0:
        raise ValueError(f"{name} must be positive, got {beta!r}")


def _check_time(t: float) -> float:
    t = float(t)
    if not abs(t) <= MAX_TIME:
        raise ValueError(f"time must be finite with |t| <= {MAX_TIME!r}, "
                         f"got {t!r}")
    return t


def _libm(fn, values: list, *more) -> np.ndarray:
    """``fn`` over the entries of its arguments, one call per entry."""
    return np.fromiter(map(fn, values, *more), float, len(values))


#: The elementwise functions of the closed forms at one float time ...
_ONE = SimpleNamespace(sin=math.sin, cos=math.cos, sqrt=math.sqrt,
                       atan2=math.atan2, remainder=math.remainder,
                       square=lambda x: x ** 2)

#: ... and at a 1-d array of times: libm on each entry as a Python float,
#: and numpy only for sqrt, which IEEE 754 rounds exactly.
_EACH = SimpleNamespace(
    sin=lambda x: _libm(math.sin, x.tolist()),
    cos=lambda x: _libm(math.cos, x.tolist()),
    sqrt=np.sqrt,
    atan2=lambda y, x: _libm(math.atan2, y.tolist(), x.tolist()),
    remainder=lambda x, y: _libm(math.remainder, x.tolist(), repeat(y)),
    square=lambda x: _libm(pow, x.tolist(), repeat(2)))


def _times(t):
    """The checked time(s) ``t`` and the elementwise functions for them.

    A 1-d array goes with `_EACH`, anything else is one float time and
    goes with `_ONE`.
    """
    if isinstance(t, np.ndarray) and t.ndim == 1:
        t = np.asarray(t, dtype=float)
        if not (np.abs(t) <= MAX_TIME).all():
            for x in t.tolist():
                _check_time(x)  # raises at the first bad time
        return t, _EACH
    return _check_time(t), _ONE


def _branch(t, im, re, m):
    """The continuous argument of z(t) = re + i im at time(s) ``t``.

    For z(t) = (cos t + 2 alpha0 sin t) + i beta0^2 sin t the winding of
    z matches e^{it} exactly (the residual factor never circles the
    origin), so arg z - t always lies in (-pi, pi); remainder against
    2*pi recovers the continuous branch from the principal one.
    """
    return t + m.remainder(m.atan2(im, re) - t, 2.0 * math.pi)


def _closed_form(p0: ErmakovParameters, t, m):
    """The flow at time(s) ``t``: its denominator and the six parameters.

    Written once for the scalar and the array route; ``m`` holds the
    elementwise functions for ``t`` (see `_times`).  The rest is + - * /
    on floats or float64 arrays alike, in the same order, so both routes
    give the same bits.
    """
    a0, b0, d0, e0 = p0.alpha, p0.beta, p0.delta, p0.epsilon
    s, c = m.sin(t), m.cos(t)
    sin2t, cos2t = m.sin(2.0 * t), m.cos(2.0 * t)
    b0sq = b0 * b0
    lin = 2.0 * a0 * s + c  # the real part of z(t), see `_branch`
    den = b0sq * b0sq * s * s + m.square(lin)
    root = m.sqrt(den)

    alpha = (a0 * cos2t
             + 0.25 * sin2t * (b0sq * b0sq + 4.0 * a0 * a0 - 1.0)) / den
    beta = b0 / root
    gamma = p0.gamma - 0.5 * _branch(t, b0sq * s, lin, m)
    delta = (d0 * lin + e0 * b0sq * b0 * s) / den
    epsilon = (e0 * lin - b0 * d0 * s) / root
    kappa = (p0.kappa
             + s * s * (e0 * b0sq * (a0 * e0 - b0 * d0) - a0 * d0 * d0) / den
             + 0.25 * sin2t * (e0 * e0 * b0sq - d0 * d0) / den)
    return den, (alpha, beta, gamma, delta, epsilon, kappa)


def evolve(p0: ErmakovParameters, t) -> ErmakovParameters:
    """Evolve initial parameters to time t through the real closed forms.

    Parameters
    ----------
    p0 : ErmakovParameters
        Initial data at t = 0.
    t : float or 1-d float64 array
        Target time (any finite real; the flow is globally defined), or
        an array of them.

    Returns
    -------
    ErmakovParameters
        The parameter set at time t, or for an array of times six arrays
        with one entry per time, bit for bit the parameter sets the
        times give one by one.  gamma uses the continuous branch.

    Raises
    ------
    ArithmeticError
        If finite initial data overflow on the way to time t; for an
        array, the error of the first time at which they do.
    """
    t, m = _times(t)
    if m is _EACH:
        return _evolve_each(p0, t)
    try:
        den, values = _closed_form(p0, t, m)
    except OverflowError as exc:  # the float ``**`` square in the denominator
        raise ArithmeticError(f"the flow overflows at t={t!r}: its "
                              f"denominator leaves the float range") from exc
    if not den > 0.0:  # mathematically impossible; guards NaN propagation
        raise ArithmeticError(f"degenerate denominator {den!r} at t={t!r}")
    try:
        return ErmakovParameters(*values)
    except ValueError as exc:  # p0 and t are valid, so this is an overflow
        raise ArithmeticError(f"the flow overflows at t={t!r}: {exc}") from exc


def _evolve_each(p0: ErmakovParameters, ts: np.ndarray) -> ErmakovParameters:
    """The array route of `evolve`, over checked times ``ts``."""
    try:
        # every entry is checked, so numpy's warnings are noise
        with np.errstate(all="ignore"):
            den, values = _closed_form(p0, ts, _EACH)
        if not (den > 0.0).all():
            raise ArithmeticError("degenerate denominator")
        return ErmakovParameters(*values)
    except (ArithmeticError, ValueError):
        for t in ts.tolist():
            evolve(p0, t)  # raises at the first bad time
        raise


def classical_trajectory(p0: ErmakovParameters, t):
    """Return (<x>, <p>) at time t; the centroid follows the classical orbit.

    For an array of times both are arrays, one entry per time, bit for
    bit the values the times give one by one.
    """
    t, m = _times(t)
    a0, b0, d0, e0 = p0.alpha, p0.beta, p0.delta, p0.epsilon
    s, c = m.sin(t), m.cos(t)
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

    beta0 > 0 comes back as sqrt(|c1|^2 - |c2|^2), so the map is one to
    one; gamma0 and kappa0 ride along separately.
    """
    c1, c2 = _c_pair(p0.alpha, p0.beta)
    c3 = complex(p0.delta / p0.beta, -p0.epsilon)
    return ComplexGroupParameters(c1, c2, c3)


def _c_pair(alpha: float, beta: float) -> tuple[complex, complex]:
    """The squeeze-sector constants (c1, c2) of (alpha, beta)."""
    bsq = beta * beta
    return complex(0.5 * (1.0 + bsq), -alpha), complex(0.5 * (1.0 - bsq), alpha)


def evolve_complex(
    c: ComplexGroupParameters,
    gamma0: float,
    kappa0: float,
    t: float,
) -> ErmakovParameters:
    """Evolve through the complex rotation form.

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

