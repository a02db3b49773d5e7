"""Byte pins for the one CSV writer.

Every table must come out exactly as the per-cell ``"%.17g" % v`` loops
that used to write it.  Those loops are kept here as the reference
formatters; each test writes a table through the package (library call
or CLI run) and compares the bytes with the reference text of the same
numbers.  A transposed x/p loop only shows on a non-square grid, so the
grids below are non-square.
"""

import json
import math

import numpy as np
import pytest

from sqstates._csv import (
    BLOCK_ROWS,
    block_lines,
    format_axis,
    mesh_blocks,
    write_csv,
)
from sqstates.channel import (
    ChannelParameters,
    _channel_norm,
    focus_metrics,
)
from sqstates.cli import main
from sqstates.ermakov import ErmakovParameters, classical_trajectory, evolve
from sqstates.fockexp import expansion_table, pascal_odd, write_statistics_csv
from sqstates.phasespace import PhaseSpaceGrid, default_grid
from sqstates.states import covariance

from oracles import density_grid, superposition_grid

SQUEEZED = {"alpha": 0.6, "beta": 1.4, "gamma": 0.3, "delta": -0.8,
            "epsilon": 0.5, "kappa": 0.1}

#: Values whose text is easy to get wrong: signed zero, the smallest
#: subnormal, a huge and a tiny normal, exact integers, a negative.
SPECIAL = [-0.0, 5e-324, 1e308, 1e-17, 3.0, -2.0, 0.1, -1e-300,
           2.0**53 + 2.0, 1.0 / 3.0, -7.0, 0.0]


def text(lines):
    return ("\n".join(lines) + "\n").encode()


def ref_grid(grid):
    lines = ["x,p,W"]
    for i, xv in enumerate(grid.x_range):
        for j, pv in enumerate(grid.p_range):
            lines.append("%.17g,%.17g,%.17g" % (xv, pv, grid.values[i, j]))
    return text(lines)


def write_blocks(path, grid):
    """Write a grid as the CLI's grid writers do: axes formatted once,
    values in the row blocks of `mesh_blocks` through `block_lines`."""
    rows, cols = grid.values.shape
    write_csv(path, "x,p,W", block_lines(
        format_axis(grid.x_range), format_axis(grid.p_range),
        mesh_blocks(lambda i, j: grid.values[i, j],
                    np.arange(rows), np.arange(cols)), "test value"))


def ref_snapshot(t, x, y, vals):
    lines = ["depth,x,y,density"]
    for i, xv in enumerate(x):
        for j, yv in enumerate(y):
            lines.append("%.17g,%.17g,%.17g,%.17g" % (t, xv, yv, vals[i, j]))
    return text(lines)


def ref_rows(header, rows):
    return text([header] + [",".join("%.17g" % v for v in row)
                            for row in rows])


def ref_mesh(p0, t, levels, shape, spread, center=None):
    """The two-axis sizing rule, as the CLI applied it on its own."""
    nx, np_ = shape
    nmax = max(int(n) for n in levels)
    x_mean, p_mean = (classical_trajectory(p0, t) if center is None
                      else (float(center[0]), float(center[1])))
    cov = covariance(evolve(p0, t))
    scale = math.sqrt(2.0 * nmax + 1.0)
    half_x = spread * math.sqrt(cov.sigma_x) * scale
    half_p = spread * math.sqrt(cov.sigma_p) * scale
    return PhaseSpaceGrid(
        np.linspace(x_mean - half_x, x_mean + half_x, nx),
        np.linspace(p_mean - half_p, p_mean + half_p, np_),
        np.zeros((nx, np_)))


def run(tmp_path, command, cfg, *flags):
    path = tmp_path / ("%s.json" % command)
    path.write_text(json.dumps(cfg))
    out = tmp_path / command
    assert main([command, "--config", str(path), "--out", str(out),
                 *flags]) == 0
    return out


class TestGrid:
    def test_special_values_nonsquare(self, tmp_path):
        x = np.array([-0.0, 1.0, 2.0, 3.0])
        p = np.linspace(-1e-17, 1e-17, 3)
        grid = PhaseSpaceGrid(x, p, np.array(SPECIAL).reshape(4, 3))
        write_blocks(tmp_path / "g.csv", grid)
        assert (tmp_path / "g.csv").read_bytes() == ref_grid(grid)

    def test_wigner_nonsquare_grid_flag(self, tmp_path):
        amp = 1.0 / math.sqrt(2.0)
        terms = [(amp + 0j, 0), (1j * amp, 3)]
        cfg = {"params": SQUEEZED,
               "state": {"kind": "superposition",
                         "terms": [{"level": 0, "amplitude": [amp, 0.0]},
                                   {"level": 3, "amplitude": [0.0, amp]}]},
               "times": [0.0, 1.1], "spread": 4.5}
        out = run(tmp_path, "wigner", cfg, "--grid", "9,7")
        p0 = ErmakovParameters(**SQUEEZED)
        for i, t in enumerate(cfg["times"]):
            mesh = ref_mesh(p0, t, (0, 3), (9, 7), 4.5)
            grid = superposition_grid(terms, p0, mesh, t)
            assert grid.values.shape == (9, 7)
            assert ((out / ("wigner_t%d.csv" % i)).read_bytes()
                    == ref_grid(grid))

    def test_default_grid_takes_an_axis_pair(self):
        p0 = ErmakovParameters(**SQUEEZED)
        for points in ((9, 7), (2, 5)):
            got = default_grid(p0, 0.8, (0, 2), points, 5.0)
            want = ref_mesh(p0, 0.8, (0, 2), points, 5.0)
            assert np.array_equal(got.x_range, want.x_range)
            assert np.array_equal(got.p_range, want.p_range)
            assert got.values.shape == points
        square = default_grid(p0, 0.8, (0, 2), 11, 5.0)
        assert np.array_equal(
            square.x_range, default_grid(p0, 0.8, (0, 2), (11, 11)).x_range)
        with pytest.raises(ValueError):
            default_grid(p0, 0.0, (0,), (9, 1))

    def test_mesh_shape_must_match_axes(self):
        with pytest.raises(ValueError):
            list(block_lines(["0", "1"], ["0", "1", "2"], [np.zeros((3, 2))],
                             "test value"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_block_names_its_rows(self, bad):
        # 70 rows: blocks of 32, 32 and 6; the bad cell is in the second
        values = np.zeros((70, 3))
        values[40, 1] = bad
        blocks = mesh_blocks(lambda i, j: values[i, j], np.arange(70),
                             np.arange(3))
        lines = block_lines(format_axis(np.arange(70)), ["0", "1", "2"],
                            blocks, "test value at t = 0.5")
        done = []
        with pytest.raises(FloatingPointError,
                           match="^non-finite test value at t = 0.5 in "
                                 "mesh rows 32 to 63$"):
            for line in lines:
                done.append(line)
        # the first block's rows came out before the bad block arrived
        assert len(done) == BLOCK_ROWS

    def test_mesh_blocks_are_row_blocks_of_the_mesh(self):
        x = np.linspace(-1.0, 2.0, 70)
        y = np.linspace(0.5, 3.0, 5)
        blocks = list(mesh_blocks(lambda a, b: a * b + b, x, y))
        assert [len(b) for b in blocks] == [32, 32, 6]
        whole = x[:, None] * y[None, :] + y[None, :]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()


class TestTables:
    def test_demkov_snapshots_and_metrics(self, tmp_path):
        times = [0.0, 0.7853981633974483, 1.5707963267948966]
        cfg = {"channel": {"beta0": 0.3, "delta0": -0.0}, "times": times,
               "points": 9}
        out = run(tmp_path, "demkov", cfg)
        c = ChannelParameters(0.3, -0.0)
        for i, t in enumerate(times):
            assert ((out / ("snapshot_t%d.csv" % i)).read_bytes()
                    == ref_snapshot(t, *density_grid(c, t, 9)))
        rows = []
        for t in times:
            fm = focus_metrics(c, t)
            rows.append((t, fm.peak, fm.rms_width, fm.center_x,
                         _channel_norm(c, t)))
        assert ((out / "metrics.csv").read_bytes()
                == ref_rows("t,peak,rms_width,center_x,norm", rows))

    def test_evolve(self, tmp_path):
        cfg = {"params": SQUEEZED,
               "times": {"start": -0.0, "stop": 9.5, "count": 37}}
        out = run(tmp_path, "evolve", cfg)
        p0 = ErmakovParameters(**SQUEEZED)
        rows = []
        for t in np.linspace(-0.0, 9.5, 37):
            t = float(t)
            p = evolve(p0, t)
            cov = covariance(p)
            x_mean, p_mean = classical_trajectory(p0, t)
            rows.append((t, p.alpha, p.beta, p.gamma, p.delta, p.epsilon,
                         p.kappa, cov.sigma_p, cov.sigma_x, cov.sigma_px,
                         cov.sigma_p * cov.sigma_x, x_mean, p_mean))
        header = ("t,alpha,beta,gamma,delta,epsilon,kappa,"
                  "sigma_p,sigma_x,sigma_px,product,x_mean,p_mean")
        assert (out / "evolve.csv").read_bytes() == ref_rows(header, rows)

    def test_expand(self, tmp_path):
        cfg = {"params": SQUEEZED, "columns": [0, 3, 1], "truncation": 64}
        out = run(tmp_path, "expand", cfg)
        table = expansion_table(ErmakovParameters(**SQUEEZED), (0, 3, 1),
                                size=64)
        lines = ["m,n,real,imag,probability"]
        weight = abs(table.beta0)
        for j, n in enumerate(table.columns):
            for m in range(table.truncation):
                c = table.coeffs[m, j]
                lines.append("%d,%d,%s,%s,%s" % (
                    m, n, "%.17g" % c.real, "%.17g" % c.imag,
                    "%.17g" % (weight * (c.real**2 + c.imag**2))))
        assert (out / "expansion.csv").read_bytes() == text(lines)

    def test_statistics(self, tmp_path):
        stats = pascal_odd(2.7, 41)
        write_statistics_csv(tmp_path / "s.csv", stats)
        lines = ["m,probability"]
        for m, p in enumerate(stats.probabilities):
            lines.append("%d,%.17g" % (m, p))
        assert (tmp_path / "s.csv").read_bytes() == text(lines)
