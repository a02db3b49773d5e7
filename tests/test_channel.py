"""Focusing-channel closed forms: PDE residual, norms, Gaussian readouts."""

import math
import os

import numpy as np
import pytest

from sqstates.channel import (
    ChannelParameters,
    density,
    focus_metrics,
    width_squared,
    write_snapshot_csv,
)
from sqstates.ermakov import ErmakovParameters
from sqstates.states import DynamicState, psi_n

from oracles import density_grid, gauss_grid, psi_2d, schrodinger_residual_2d


def draw_channel(rng):
    return ChannelParameters(rng.uniform(0.15, 1.9), rng.uniform(-1.8, 1.8))


class TestParameters:
    def test_positivity(self):
        with pytest.raises(ValueError):
            ChannelParameters(0.0)
        with pytest.raises(ValueError):
            ChannelParameters(-0.3)
        with pytest.raises(ValueError):
            ChannelParameters(0.5, math.inf)


class TestWavefunction:
    def test_isotropic_ground_state(self):
        c = ChannelParameters(1.0, 0.0)
        for t in (0.0, 0.9, 2.0, 4.9):
            got = psi_2d(c, 0.7, -0.3, t)
            want = (math.pi ** -0.5 * np.exp(-1j * t)
                    * math.exp(-0.5 * (0.7**2 + 0.3**2)))
            assert abs(got - want) < 1e-14

    def test_is_product_of_ground_packets(self, rng):
        # the 2D solution separates into a displaced and a centred 1D
        # ground packet evolving with the same width parameter
        c = draw_channel(rng)
        along = ErmakovParameters(0.0, c.beta0, 0.0, c.delta0, 0.0, 0.0)
        across = ErmakovParameters(0.0, c.beta0, 0.0, 0.0, 0.0, 0.0)
        xs = rng.uniform(-2.5, 2.5, size=6)
        ys = rng.uniform(-2.5, 2.5, size=6)
        for t in (0.0, 0.4, 1.3, 2.9, 7.7):
            got = psi_2d(c, xs, ys, t)
            want = (psi_n(DynamicState(0, along), xs, t)
                    * psi_n(DynamicState(0, across), ys, t))
            assert np.max(np.abs(got - want)) < 1e-13

    def test_unit_norm_by_quadrature(self, rng):
        for _ in range(4):
            c = draw_channel(rng)
            t = rng.uniform(0.0, 2.0 * math.pi)
            half = 8.0 * max(c.beta0, 1.0 / c.beta0) + abs(c.delta0)
            x, wx = gauss_grid(half, n=400)
            vals = np.abs(psi_2d(c, x[:, None], x[None, :], t)) ** 2
            total = float(wx @ vals @ wx)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_pde_residual(self, rng):
        c = draw_channel(rng)
        xs = np.linspace(-2.2, 2.6, 9)
        ys = np.linspace(-2.0, 2.0, 7)
        for t in (0.3, 1.2, 2.7):
            resid = schrodinger_residual_2d(
                lambda xx, yy, tt: psi_2d(c, xx, yy, tt), xs, ys, t)
            assert resid <= 1e-5

    def test_phase_continuous_through_quarter_period(self):
        # the principal arctan branch would jump by pi at t = pi/2
        c = ChannelParameters(0.3, 0.8)
        ts = np.linspace(math.pi / 2 - 0.05, math.pi / 2 + 0.05, 21)
        vals = np.array([psi_2d(c, 0.4, 0.1, t) for t in ts])
        assert np.max(np.abs(np.diff(vals))) < 0.05


class TestDensity:
    def test_matches_wavefunction_square(self, rng):
        for _ in range(40):
            c = draw_channel(rng)
            t = rng.uniform(0.0, 10.0)
            x, y = rng.uniform(-3.0, 3.0, size=2)
            gap = abs(abs(psi_2d(c, x, y, t)) ** 2 - density(c, x, y, t))
            assert gap < 1e-12

    def test_entry_and_focus_peaks(self):
        c = ChannelParameters(0.3, 1.5)
        b2 = 0.09
        assert density(c, 0.0, 0.0, 0.0) == pytest.approx(b2 / math.pi,
                                                          abs=1e-15)
        assert density(c, 1.5, 0.0, math.pi / 2) == pytest.approx(
            1.0 / (math.pi * b2), abs=1e-12)

    def test_separability(self, rng):
        # a product density satisfies f(x,y) f(0,0) = f(x,0) f(0,y)
        c = draw_channel(rng)
        t = rng.uniform(0.0, 6.0)
        xs = rng.uniform(-2.0, 2.0, size=8)
        ys = rng.uniform(-2.0, 2.0, size=8)
        lhs = density(c, xs, ys, t) * density(c, 0.0, 0.0, t)
        rhs = density(c, xs, 0.0, t) * density(c, 0.0, ys, t)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestMetrics:
    def test_width_extremes_pair_to_one(self):
        for b in (0.1, 0.37, 0.9, 1.6):
            c = ChannelParameters(b)
            assert width_squared(c, 0.0) * width_squared(c, math.pi / 2) == 1.0

    def test_superfocusing_amplification(self):
        for b in (0.5, 0.25, 0.1):
            c = ChannelParameters(b)
            ratio = focus_metrics(c, math.pi / 2).peak / focus_metrics(c, 0.0).peak
            assert ratio == pytest.approx(b ** -4.0, rel=1e-14)

    def test_ten_thousandfold_at_tenth(self):
        c = ChannelParameters(0.1)
        ratio = focus_metrics(c, math.pi / 2).peak / focus_metrics(c, 0.0).peak
        assert ratio == pytest.approx(1e4, rel=1e-12)
        assert focus_metrics(c, math.pi / 2).rms_width == pytest.approx(
            0.1 / math.sqrt(2.0), abs=1e-15)

    def test_narrow_beam_focuses_at_odd_quarter_periods(self):
        c = ChannelParameters(0.4)
        ts = np.linspace(0.0, 2.0 * math.pi, 2001)
        widths = np.array([focus_metrics(c, t).rms_width for t in ts])
        minima = ts[np.argsort(widths)[:4]]
        for tm in minima:
            k = round((tm - math.pi / 2) / math.pi)
            assert abs(tm - (math.pi / 2 + k * math.pi)) < 0.01

    def test_center_swings_sinusoidally(self, rng):
        c = draw_channel(rng)
        for t in np.linspace(0.0, 7.0, 15):
            assert focus_metrics(c, t).center_x == pytest.approx(
                c.delta0 * math.sin(t), abs=1e-15)

    def test_period_pi_of_envelope(self, rng):
        c = draw_channel(rng)
        for t in rng.uniform(0.0, 3.0, size=10):
            assert width_squared(c, t + math.pi) == pytest.approx(
                width_squared(c, t), rel=1e-12)


class TestSnapshots:
    def test_grid_layout_and_peak_location(self):
        c = ChannelParameters(0.5, 1.0)
        x, y, vals = density_grid(c, math.pi / 2, points=121)
        assert vals.shape == (121, 121)
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        assert abs(x[i] - 1.0) < x[1] - x[0]
        assert abs(y[j]) < y[1] - y[0]

    def test_series_files_and_naming(self, tmp_path):
        c = ChannelParameters(0.4)
        path = tmp_path / "snapshot_t2.csv"
        write_snapshot_csv(path, c, math.pi / 2, points=11)
        assert sorted(os.listdir(tmp_path)) == ["snapshot_t2.csv"]
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "depth,x,y,density"
        assert len(rows) == 1 + 11 * 11
        depth = float(rows[1].split(",")[0])
        assert depth == pytest.approx(math.pi / 2)

    def test_overflowing_half_width_raises(self):
        # linspace over [-1.7e308, 1.7e308] overflows its step: the axes
        # would hold inf and NaN
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError, match="snapshot axis"):
            density_grid(ChannelParameters(1.0), 0.5, 5, half_width=1.7e308)

    def test_grid_is_the_whole_mesh_density(self):
        # 70 rows are three row blocks, the last one short
        c = ChannelParameters(0.6, -0.4)
        x, y, vals = density_grid(c, 0.9, points=70)
        whole = density(c, x[:, None], y[None, :], 0.9)
        assert vals.tobytes() == whole.tobytes()
