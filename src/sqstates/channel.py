"""A transversely harmonic focusing channel in two dimensions.

A collimated beam entering a channel whose averaged transverse potential
is (x^2 + y^2)/2 behaves, after trading the longitudinal coordinate for
time (unit velocity), like a 2D oscillator packet.  A beam prepared
wide and slow (width parameter beta0 < 1, transverse momentum offset
delta0) periodically collapses to a waist beta0 times the channel
scale: the peak density is amplified by 1/beta0^4 at every quarter
period -- four orders of magnitude for beta0 = 0.1.  The packet centre
meanwhile swings along delta0 sin t, the isochronic transverse
oscillation, so the focal spot walks across the channel axis.

Everything here is one closed-form wavefunction (a product of two 1D
ground packets, one displaced) and readouts of its Gaussian envelope

    w(t) = beta0^2 sin^2 t + beta0^{-2} cos^2 t,

the squared width scale: |psi|^2 = exp(-((x - delta0 sin t)^2 + y^2)/w)
/ (pi w).  The leading phase carries the continuous branch of
arctan(beta0^2 tan t), the same winding bookkeeping as the parameter
evolution module -- the principal branch would make psi discontinuous
at quarter periods.

The longitudinal coordinate is reported as t throughout; output files
label it "depth" since that is what a beamline measures.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ._csv import FLOAT, format_axis, mesh_lines, write_csv
from .ermakov import ErmakovParameters, _continuous_arg

__all__ = [
    "ChannelParameters",
    "FocusMetrics",
    "width_squared",
    "psi_2d",
    "density",
    "focus_metrics",
    "density_grid",
    "write_snapshot_series",
]


@dataclass(frozen=True)
class ChannelParameters:
    """Entry data of the channeled beam.

    Attributes
    ----------
    beta0 : float
        Initial transverse width parameter (> 0); the waist radius, in
        channel units, reached at every odd quarter period.  Its
        reciprocal is the entry beam radius -- the two scales are tied
        by construction (their product is 1).
    delta0 : float
        Transverse momentum offset (minus the entry transverse
        momentum); drives the sideways swing of the focal spot.
    """

    beta0: float
    delta0: float = 0.0

    def __post_init__(self):
        if not (self.beta0 > 0.0 and math.isfinite(self.beta0)):
            raise ValueError("beta0 must be positive and finite, got %r"
                             % (self.beta0,))
        if not math.isfinite(self.delta0):
            raise ValueError("delta0 must be finite")

    @property
    def waist(self) -> float:
        """The focused radius scale."""
        return self.beta0

    @property
    def entry_radius(self) -> float:
        """The defocused radius scale, 1/beta0."""
        return 1.0 / self.beta0


@dataclass(frozen=True)
class FocusMetrics:
    """Gaussian readouts of the transverse density at one depth.

    Attributes
    ----------
    peak : float
        On-axis (centre) density, 1/(pi w(t)).
    rms_width : float
        Root-mean-square radius per transverse axis, sqrt(w(t)/2).
    center_x : float
        Transverse position of the packet centre, delta0 sin t.
    """

    peak: float
    rms_width: float
    center_x: float


def width_squared(c: ChannelParameters, t: float) -> float:
    """The envelope scale w(t) = beta0^2 sin^2 t + beta0^{-2} cos^2 t."""
    s, co = math.sin(t), math.cos(t)
    bsq = c.beta0 * c.beta0
    return bsq * s * s + co * co / bsq


def _leading_phase(c: ChannelParameters, t: float) -> float:
    """Continuous branch of arctan(beta0^2 tan t)."""
    probe = ErmakovParameters(0.0, c.beta0, 0.0, 0.0, 0.0, 0.0)
    return _continuous_arg(probe, t)


def psi_2d(c: ChannelParameters, x, y, t: float):
    """The channeled packet wavefunction at depth t.

    Four factors: a normalizing amplitude with the continuous leading
    phase, a radial chirp, a plane-wave factor from the transverse
    momentum offset, and the displaced Gaussian envelope.  Accepts
    scalar or array x, y (broadcast together).

    Returns
    -------
    complex or ndarray
        psi(x, y, t), unit L2 norm over the transverse plane.
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


def density(c: ChannelParameters, x, y, t: float):
    """Transverse flux density |psi|^2 at depth t, in closed form.

    A single displaced Gaussian of squared scale w(t); evaluated
    directly (no wavefunction round trip), and required by the tests to
    match |psi_2d|^2 to 1e-12.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = width_squared(c, t)
    shift = x - c.delta0 * math.sin(t)
    return np.exp(-(shift * shift + y * y) / w) / (math.pi * w)


def focus_metrics(c: ChannelParameters, t: float) -> FocusMetrics:
    """Peak density, per-axis rms width, and centre position at depth t.

    The amplification ratio focus_metrics(c, pi/2).peak /
    focus_metrics(c, 0).peak equals beta0^{-4} exactly -- the
    superfocusing factor.
    """
    w = width_squared(c, t)
    return FocusMetrics(
        peak=1.0 / (math.pi * w),
        rms_width=math.sqrt(0.5 * w),
        center_x=c.delta0 * math.sin(t),
    )


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------

def _snapshot_axes(c: ChannelParameters, points: int, half_width):
    if points < 2:
        raise ValueError("points must be >= 2")
    if half_width is None:
        widest = max(c.beta0, 1.0 / c.beta0)
        half_width = 6.0 * widest + abs(c.delta0)
    x = np.linspace(-half_width, half_width, points)
    return x, x.copy()


def density_grid(c: ChannelParameters, t: float, points: int = 301,
                 half_width=None):
    """Sample the density on a centred square grid.

    The default half-width, 6 times the widest phase of the breathing
    envelope plus the swing amplitude, keeps both the focused and the
    defocused frames of one series on a common grid.  That grid is
    sized for the widest frame, so it under-resolves a strong focus:
    at beta0 = 0.1 the half-width is 60 and 401 points are 0.3 apart,
    while the waist has an rms width of 0.071, so the focused frame
    holds its packet in about one cell.  The sampled values stay exact
    pointwise; pass a smaller ``half_width`` to resolve the waist.

    Returns
    -------
    (ndarray, ndarray, ndarray)
        x axis, y axis, and values with ``values[i, j]`` at
        ``(x[i], y[j])``.
    """
    x, y = _snapshot_axes(c, points, half_width)
    vals = density(c, x[:, None], y[None, :], t)
    return x, y, vals


def write_snapshot_series(directory, c: ChannelParameters, times,
                          points: int = 301, half_width=None) -> list:
    """Write snapshot_t{index}.csv per requested depth; returns the paths.

    Each file is a (depth, x, y, density) table in x-major row order.

    Index is the position in ``times`` (zero-based), so the file order
    matches the requested series regardless of the depth values.  Every
    frame is sampled before ``directory`` is created (when missing) or
    any file is written, so a depth that fails, or whose grid is not
    finite (an ``ArithmeticError``), leaves nothing behind.
    Only the sampled grids are held; a frame's text is written row
    block by row block, never held whole.
    """
    times = [float(t) for t in times]
    frames = [density_grid(c, t, points, half_width) for t in times]
    for t, (x, _, vals) in zip(times, frames):
        if not (np.isfinite(x).all() and np.isfinite(vals).all()):
            raise ArithmeticError("non-finite density snapshot at depth %r"
                                  % (t,))
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, (t, (x, y, vals)) in enumerate(zip(times, frames)):
        target = os.path.join(directory, "snapshot_t%d.csv" % index)
        depth = FLOAT % t + ","
        write_csv(target, "depth,x,y,density",
                  mesh_lines([depth + text for text in format_axis(x)],
                             format_axis(y), vals))
        paths.append(target)
    return paths

