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

The packet is one closed-form wavefunction (a product of two 1D ground
packets, one displaced), and everything here reads its Gaussian
envelope

    w(t) = beta0^2 sin^2 t + beta0^{-2} cos^2 t,

the squared width scale: |psi|^2 = exp(-((x - delta0 sin t)^2 + y^2)/w)
/ (pi w).  The wavefunction itself, whose leading phase carries the
continuous branch of arctan(beta0^2 tan t), is the reference the tests
hold this density to (`psi_2d` in ``tests/oracles.py``).

The longitudinal coordinate is reported as t throughout; output files
label it "depth" since that is what a beamline measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import FLOAT, block_lines, format_axis, mesh_blocks, write_csv
from .specfun import _check_int

__all__ = [
    "ChannelParameters",
    "FocusMetrics",
    "width_squared",
    "density",
    "focus_metrics",
    "write_snapshot_csv",
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


def density(c: ChannelParameters, x, y, t: float):
    """Transverse flux density |psi|^2 at depth t, in closed form.

    A single displaced Gaussian of squared scale w(t); evaluated
    directly (no wavefunction round trip), and required by the tests to
    match |psi|^2 of the channeled wavefunction to 1e-12.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = width_squared(c, t)
    shift = x - c.delta0 * math.sin(t)
    return np.exp(-(shift * shift + y * y) / w) / (math.pi * w)


def _channel_norm(c: ChannelParameters, t: float) -> float:
    """Density quadrature on a grid matched to the instantaneous width.

    The metrics column must stay meaningful for strongly focusing
    channels, where a fixed plotting grid can badly under-resolve the
    waist, so the norm is integrated on its own adaptive mesh.  The
    inner integrals are taken over the row blocks of
    `sqstates._csv.mesh_blocks`; each row's sum is the same as on the
    whole mesh, and the outer integral sums them in the same order.
    """
    w = width_squared(c, t)
    half = 7.0 * math.sqrt(w) + 1.0
    cx = c.delta0 * math.sin(t)
    xs = np.linspace(cx - half, cx + half, 401)
    ys = np.linspace(-half, half, 401)
    inner = np.concatenate([
        np.trapezoid(block, ys, axis=1) for block in
        mesh_blocks(lambda x, y: density(c, x, y, t), xs, ys)])
    return float(np.trapezoid(inner, xs))


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
    """The x and y axes of a snapshot grid, checked to be finite."""
    points = _check_int(points, "points", 2)
    if half_width is None:
        widest = max(c.beta0, 1.0 / c.beta0)
        half_width = 6.0 * widest + abs(c.delta0)
    x = np.linspace(-half_width, half_width, points)
    if not np.isfinite(x).all():
        raise FloatingPointError("non-finite snapshot axis for half-width %r"
                                 % (half_width,))
    return x, x.copy()


def write_snapshot_csv(path, c: ChannelParameters, t: float,
                       points: int, half_width=None) -> None:
    """Write the density at depth t on a centred square grid as one CSV file.

    Each row is (depth, x, y, density), x-major, with 17 significant
    digits.  The default half-width, 6 times the widest phase of the
    breathing envelope plus the swing amplitude, keeps both the focused
    and the defocused frames of one series on a common grid.  That grid
    is sized for the widest frame, so it under-resolves a strong focus:
    at beta0 = 0.1 the half-width is 60 and 401 points are 0.3 apart,
    while the waist has an rms width of 0.071, so the focused frame
    holds its packet in about one cell.  The sampled values stay exact
    pointwise; pass a smaller ``half_width`` to resolve the waist.
    Axes that are not finite raise ``FloatingPointError``.

    The grid is sampled, checked to be finite, formatted and written
    one row block at a time (`_csv.block_lines`), so no whole grid and
    no whole text is held.  A block that is not finite raises
    ``FloatingPointError`` when it arrives, after the blocks before it
    are written; the command-line front end writes into a staging
    directory, which keeps a failed file out of sight.
    """
    x, y = _snapshot_axes(c, points, half_width)
    depth = FLOAT % t + ","
    write_csv(path, "depth,x,y,density", block_lines(
        [depth + text for text in format_axis(x)], format_axis(y),
        mesh_blocks(lambda xs, ys: density(c, xs, ys, t), x, y),
        "density at depth %r" % (t,)))
