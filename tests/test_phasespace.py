"""Wigner/Moyal closed forms against the defining Fourier transform."""

import math

import numpy as np
import pytest

import sqstates.phasespace as phasespace
from sqstates._csv import block_lines, format_axis, write_csv
from sqstates.ermakov import ErmakovParameters, evolve
from sqstates.phasespace import (
    PhaseSpaceGrid,
    PhaseSpacePoint,
    default_grid,
    grid_normalization,
    moyal,
    purity,
    rotate_evolution_check,
    tcs_center,
    tcs_grid,
    wigner_numeric,
    wigner_tcs,
)
from sqstates.states import DynamicState, TCSState, psi_n, psi_tcs

from conftest import draw_params
from oracles import psi_superposition, superposition_grid


def fourier_momentum_density(psi_x, x, p_range):
    """|psi-hat(p)|^2 by direct quadrature of the Fourier integral."""
    step = x[1] - x[0]
    out = np.empty(len(p_range))
    for k, p in enumerate(p_range):
        amp = np.trapezoid(psi_x * np.exp(-1j * p * x), dx=step)
        out[k] = abs(amp) ** 2 / (2.0 * math.pi)
    return out


def superposition_value(coeffs, p0, pt, t):
    """A superposition's Wigner value at one point, by the grid route."""
    mesh = PhaseSpaceGrid([pt.x, pt.x + 1.0], [pt.p, pt.p + 1.0],
                          np.zeros((2, 2)))
    return float(superposition_grid(coeffs, p0, mesh, t).values[0, 0])


def draw_tcs(rng, radius=1.0):
    zeta = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
    return TCSState(zeta, draw_params(rng))


class TestPoints:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PhaseSpacePoint(math.inf, 0.0)
        with pytest.raises(ValueError):
            PhaseSpacePoint(0.0, math.nan)

    def test_grid_validation(self):
        x = np.linspace(-1, 1, 11)
        with pytest.raises(ValueError, match="strictly increasing"):
            PhaseSpaceGrid(x[::-1], x, np.zeros((11, 11)))
        with pytest.raises(ValueError, match="uniformly"):
            PhaseSpaceGrid(np.array([0.0, 0.1, 0.3]), x, np.zeros((3, 11)))
        with pytest.raises(ValueError, match="shape"):
            PhaseSpaceGrid(x, x, np.zeros((11, 10)))
        with pytest.raises(ValueError, match="real"):
            PhaseSpaceGrid(x, x, np.zeros((11, 11), dtype=complex))

    def test_grid_spacing_properties(self):
        g = default_grid(ErmakovParameters(0, 1, 0, 0, 0, 0), points=51)
        assert g.dx == pytest.approx(g.x_range[1] - g.x_range[0])
        assert g.values.shape == (51, 51)

    def test_default_grid_needs_a_level(self):
        with pytest.raises(ValueError, match="levels"):
            default_grid(ErmakovParameters(0, 1, 0, 0, 0, 0), 0.0, (), 5)


class TestClosedGaussian:
    def test_ground_state_form(self):
        s = TCSState(0j, ErmakovParameters(0, 1, 0, 0, 0, 0))
        for x, p in [(0.0, 0.0), (0.3, -0.7), (1.5, 2.0)]:
            target = math.exp(-(x * x + p * p)) / math.pi
            assert wigner_tcs(s, PhaseSpacePoint(x, p), 0.0) == pytest.approx(
                target, abs=1e-15)

    def test_three_forms_agree_across_draws(self, rng):
        # the equivalence assert lives inside the call; exercise it hard
        for _ in range(200):
            s = draw_tcs(rng)
            t = rng.uniform(0.0, 4.0 * math.pi)
            pt = PhaseSpacePoint(rng.uniform(-3, 3), rng.uniform(-3, 3))
            w = wigner_tcs(s, pt, t)
            assert 0.0 <= w <= 1.0 / math.pi + 1e-15

    def test_normalization_on_wide_grid(self, rng):
        for _ in range(5):
            s = draw_tcs(rng)
            t = rng.uniform(0.0, 2.0 * math.pi)
            g = default_grid(s.params0, t, points=401, spread=6.0,
                             center=tcs_center(s, t))
            total = grid_normalization(tcs_grid(s, g, t))
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_position_marginal_matches_density(self, rng):
        s = draw_tcs(rng)
        t = 0.8
        g = default_grid(s.params0, t, points=601, spread=7.0,
                         center=tcs_center(s, t))
        marg = np.trapezoid(tcs_grid(s, g, t).values, dx=g.dp, axis=1)
        dens = np.abs(psi_tcs(s, g.x_range, t)) ** 2
        assert np.max(np.abs(marg - dens)) < 1e-7

    def test_momentum_marginal_matches_fourier_density(self, rng):
        s = draw_tcs(rng)
        t = 2.1
        g = default_grid(s.params0, t, points=501, spread=7.0,
                         center=tcs_center(s, t))
        marg = np.trapezoid(tcs_grid(s, g, t).values, dx=g.dx, axis=0)
        half = 0.5 * (g.x_range[-1] - g.x_range[0])
        x = np.linspace(g.x_range[0] - half, g.x_range[-1] + half, 4001)
        dens = fourier_momentum_density(psi_tcs(s, x, t), x, g.p_range)
        assert np.max(np.abs(marg - dens)) < 1e-6

    def test_rigid_rotation_of_packet(self, rng):
        # W(x, p; t) = W(rotated; 0) holds for the displaced packet too
        s = draw_tcs(rng)
        t = 1.7
        c, sn = math.cos(t), math.sin(t)
        for _ in range(50):
            x, p = rng.uniform(-2, 2), rng.uniform(-2, 2)
            now = wigner_tcs(s, PhaseSpacePoint(x, p), t)
            back = wigner_tcs(s, PhaseSpacePoint(x * c - p * sn,
                                                 x * sn + p * c), 0.0)
            assert now == pytest.approx(back, abs=1e-12)


class TestNumericTransform:
    def test_ground_state_gaussian(self):
        f = lambda x: np.pi ** -0.25 * np.exp(-0.5 * x * x)
        for x, p in [(0.0, 0.0), (0.7, -0.2), (-1.1, 1.4)]:
            got = wigner_numeric(f, PhaseSpacePoint(x, p))
            assert got == pytest.approx(math.exp(-(x * x + p * p)) / math.pi,
                                        abs=1e-8)

    def test_agrees_with_closed_form_50_draws(self, rng):
        for _ in range(50):
            s = draw_tcs(rng)
            t = rng.uniform(0.0, 4.0 * math.pi)
            pt = PhaseSpacePoint(rng.uniform(-2, 2), rng.uniform(-2, 2))
            beta_t = evolve(s.params0, t).beta
            got = wigner_numeric(lambda x: psi_tcs(s, x, t), pt,
                                 extent=12.0 / beta_t, nodes=1537)
            assert got == pytest.approx(wigner_tcs(s, pt, t), abs=1e-7)

    def test_flags_underresolved_window(self):
        f = lambda x: np.pi ** -0.25 * np.exp(-0.5 * (0.2 * x) ** 2) * 0.2 ** 0.5
        with pytest.raises(ArithmeticError, match="did not converge"):
            wigner_numeric(f, PhaseSpacePoint(0.0, 0.0), extent=6.0)

    def test_rejects_tiny_node_count(self):
        f = lambda x: np.exp(-0.5 * x * x)
        with pytest.raises(ValueError, match="nodes"):
            wigner_numeric(f, PhaseSpacePoint(0.0, 0.0), nodes=256)


class TestMoyal:
    def test_diagonal_ground_is_gaussian(self):
        p0 = ErmakovParameters(0, 1, 0, 0, 0, 0)
        w = moyal(0, 0, p0, PhaseSpacePoint(0.4, -1.0), 0.0)
        assert w == pytest.approx(math.exp(-(0.16 + 1.0)) / math.pi, abs=1e-15)
        assert w.imag == 0.0

    def test_cross_term_against_quadrature(self, rng):
        p0 = draw_params(rng)
        t = rng.uniform(0.0, 2.0 * math.pi)
        beta_t = evolve(p0, t).beta
        extent = 16.0 / min(beta_t, 1.0)
        f0 = lambda x: psi_n(DynamicState(0, p0), x, t)
        f1 = lambda x: psi_n(DynamicState(1, p0), x, t)
        pt = PhaseSpacePoint(0.3, 0.8)

        def transform(f):
            return wigner_numeric(f, pt, extent=extent, nodes=2049)

        # (f0 + c f1)/sqrt 2 has W = (W00 + W11)/2 + Re(c W01), so c = 1
        # gives Re W01 and c = -i gives Im W01
        mean = 0.5 * (transform(f0) + transform(f1))
        re = transform(lambda x: (f0(x) + f1(x)) / math.sqrt(2.0)) - mean
        im = transform(lambda x: (f0(x) - 1j * f1(x)) / math.sqrt(2.0)) - mean
        assert abs(complex(re, im) - moyal(0, 1, p0, pt, t)) < 1e-7

    def test_diagonal_against_quadrature_n_to_4(self, rng):
        p0 = draw_params(rng)
        t = rng.uniform(0.0, 2.0 * math.pi)
        beta_t = evolve(p0, t).beta
        extent = 18.0 / min(beta_t, 1.0)
        pt = PhaseSpacePoint(-0.5, 0.6)
        for n in range(5):
            f = lambda x: psi_n(DynamicState(n, p0), x, t)
            got = wigner_numeric(f, pt, extent=extent, nodes=3073)
            assert abs(got - moyal(n, n, p0, pt, t).real) < 1e-7

    def test_hermitian_symmetry(self, rng):
        p0 = draw_params(rng)
        t = 1.2
        for _ in range(20):
            m, n = rng.integers(0, 9, size=2)
            pt = PhaseSpacePoint(rng.uniform(-2, 2), rng.uniform(-2, 2))
            a = moyal(int(m), int(n), p0, pt, t)
            b = moyal(int(n), int(m), p0, pt, t)
            assert a == pytest.approx(np.conj(b), abs=1e-15)

    def test_orthonormality_integrals(self):
        from sqstates.phasespace import _moyal_values

        p0 = ErmakovParameters(0.2, 0.9, 0.1, 0.0, 0.3, 0.0)
        t = 0.6
        ev = evolve(p0, t)
        base = default_grid(p0, t, levels=(4,), points=401, spread=6.0)
        xg, pg = np.meshgrid(base.x_range, base.p_range, indexing="ij")
        for m, n in [(0, 0), (2, 2), (4, 4), (0, 2), (1, 4), (0, 1)]:
            # a cross function is complex, which a PhaseSpaceGrid refuses
            vals = _moyal_values(m, n, ev, xg, pg)
            total = np.trapezoid(np.trapezoid(vals, dx=base.dp, axis=1),
                                 dx=base.dx)
            target = 1.0 if m == n else 0.0
            assert abs(total - target) < 1e-6

    def test_negativity_witness_at_center(self):
        # the first excited state dips to exactly -1/pi at Q = P = 0
        p0 = ErmakovParameters(0.4, 1.3, 0.2, 0.6, -0.1, 0.0)
        t = 1.9
        pe = evolve(p0, t)
        x0 = -pe.epsilon / pe.beta
        w = moyal(1, 1, p0, PhaseSpacePoint(x0, 2 * pe.alpha * x0 + pe.delta), t)
        assert w.real == pytest.approx(-1.0 / math.pi, abs=1e-12)

    def test_rejects_out_of_range_labels(self):
        p0 = ErmakovParameters(0, 1, 0, 0, 0, 0)
        pt = PhaseSpacePoint(0.0, 0.0)
        with pytest.raises(ValueError):
            moyal(-1, 0, p0, pt, 0.0)
        with pytest.raises(ValueError):
            moyal(0, 513, p0, pt, 0.0)


class TestSuperposition:
    def test_single_term_reduces_to_diagonal(self, rng):
        p0 = draw_params(rng)
        pt = PhaseSpacePoint(0.4, -0.3)
        w = superposition_value([(1.0, 2)], p0, pt, 0.9)
        assert w == pytest.approx(moyal(2, 2, p0, pt, 0.9).real, abs=1e-15)

    def test_two_term_state_real_and_normalized(self):
        p0 = ErmakovParameters(0.1, 1.1, 0.0, 0.4, -0.2, 0.0)
        coeffs = [(1 / math.sqrt(2), 0), (1j / math.sqrt(2), 3)]
        g = superposition_grid(coeffs, p0,
                               default_grid(p0, 0.7, levels=(0, 3),
                                            points=401, spread=6.0), 0.7)
        assert not np.iscomplexobj(g.values)
        assert grid_normalization(g) == pytest.approx(1.0, abs=1e-6)

    def test_matches_wavefunction_quadrature(self, rng):
        p0 = draw_params(rng)
        t = rng.uniform(0.0, 2.0 * math.pi)
        c = [1 / math.sqrt(3), 0.0, 1j / math.sqrt(3), -1 / math.sqrt(3)]
        coeffs = [(c[0], 0), (c[2], 2), (c[3], 3)]
        beta_t = evolve(p0, t).beta
        f = lambda x: psi_superposition(c, p0, x, t)
        for _ in range(5):
            pt = PhaseSpacePoint(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            got = wigner_numeric(f, pt, extent=18.0 / min(beta_t, 1.0),
                                 nodes=3073)
            assert got == pytest.approx(
                superposition_value(coeffs, p0, pt, t), abs=1e-7)

    def test_rejects_unnormalized(self):
        p0 = ErmakovParameters(0, 1, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="normal"):
            superposition_value([(0.8, 0), (0.7, 1)], p0,
                                PhaseSpacePoint(0, 0), 0.0)

    def test_rejects_duplicate_labels(self):
        p0 = ErmakovParameters(0, 1, 0, 0, 0, 0)
        bad = [(1 / math.sqrt(2), 1), (1 / math.sqrt(2), 1)]
        with pytest.raises(ValueError, match="duplicate"):
            superposition_value(bad, p0, PhaseSpacePoint(0, 0), 0.0)

    @pytest.mark.parametrize("bad", [[1.0], [(1.0,)], [(1.0, 0, 3)]])
    def test_rejects_malformed_term(self, bad):
        p0 = ErmakovParameters(0, 1, 0, 0, 0, 0)
        with pytest.raises(ValueError,
                           match=r"term 0 is not a \(coefficient, level\) pair"):
            superposition_value(bad, p0, PhaseSpacePoint(0, 0), 0.0)

    def test_nan_coefficient_is_not_normalized(self, tmp_path):
        # a NaN total once passed `abs(total - 1) > tol` and failed later,
        # as an imaginary residual of nan
        p0 = ErmakovParameters(0, 1, 0, 0, 0, 0)
        path = tmp_path / "w.csv"
        with pytest.raises(ValueError, match="not normalized"):
            phasespace.write_superposition_csv(
                path, [(math.nan, 0)], p0, default_grid(p0, points=5), 0.0)
        assert not path.exists()

    def test_purity_of_pure_states(self, rng):
        p0 = draw_params(rng)
        coeffs = [(0.6, 0), (0.8j, 2)]
        g = superposition_grid(coeffs, p0,
                               default_grid(p0, 1.3, levels=(0, 2),
                                            points=401, spread=6.0), 1.3)
        assert purity(g) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-5)


class TestRotationLaw:
    def test_zero_time_is_exact(self):
        p0 = ErmakovParameters(0.3, 0.8, 0.1, 0.2, 0.5, 0.0)
        coeffs = [(0.6, 1), (0.8, 4)]
        g = default_grid(p0, 0.0, levels=(1, 4))
        assert rotate_evolution_check(coeffs, p0, g, 0.0) == 0.0

    def test_full_turn_closes(self):
        p0 = ErmakovParameters(0.3, 0.8, 0.1, 0.2, 0.5, 0.0)
        coeffs = [(0.6, 1), (0.8, 4)]
        g = default_grid(p0, 0.0, levels=(1, 4))
        assert rotate_evolution_check(coeffs, p0, g, 2.0 * math.pi) < 1e-10

    def test_random_draw_on_standard_grid(self, rng):
        p0 = draw_params(rng)
        coeffs = [(1 / math.sqrt(2), 0), (-1j / math.sqrt(2), 3)]
        g = default_grid(p0, 0.0, levels=(0, 3), points=201)
        assert rotate_evolution_check(coeffs, p0, g, 1.1) <= 1e-9


class TestSerialization:
    def test_csv_rows_are_position_major(self, tmp_path):
        x = np.linspace(0.0, 1.0, 3)
        p = np.linspace(-1.0, 1.0, 2)
        vals = np.arange(6, dtype=float).reshape(3, 2)
        path = tmp_path / "grid.csv"
        write_csv(path, "x,p,W",
                  block_lines(format_axis(x), format_axis(p), [vals],
                              "Wigner value"))
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "x,p,W"
        assert len(rows) == 7
        # second row: first x, second p, value vals[0, 1]
        cells = rows[2].split(",")
        assert float(cells[0]) == 0.0
        assert float(cells[1]) == 1.0
        assert float(cells[2]) == 1.0


class TestRowBlocks:
    """Grids are evaluated in row blocks; whole-grid checks see every block.

    The references evaluate the whole mesh at once, as the grids were
    evaluated before they were split into blocks.  A 70-row mesh has
    three blocks, the last one short.
    """

    COEFFS = [(math.sqrt(0.4), 0), (1j * math.sqrt(0.6), 2)]

    @staticmethod
    def mesh(grid):
        return np.meshgrid(grid.x_range, grid.p_range, indexing="ij")

    def test_grids_match_whole_mesh_evaluation(self, rng):
        p0 = draw_params(rng)
        t = 0.7
        g = default_grid(p0, t, (0, 2), points=(70, 45))
        xg, pg = self.mesh(g)
        pairs = phasespace._check_coeffs(self.COEFFS)
        whole = phasespace._superposition_values(pairs, evolve(p0, t), xg, pg)
        assert np.array_equal(superposition_grid(self.COEFFS, p0, g, t).values,
                              whole.real)
        s = TCSState(0.4 - 0.3j, p0)
        assert np.array_equal(
            tcs_grid(s, g, t).values,
            phasespace._tcs_values(s, evolve(p0, t), xg, pg))

    def test_rotation_check_is_the_whole_mesh_max(self, rng):
        p0 = draw_params(rng)
        t = 1.3
        g = default_grid(p0, 0.0, (0, 2), points=(70, 45))
        xg, pg = self.mesh(g)
        pairs = phasespace._check_coeffs(self.COEFFS)
        now = phasespace._superposition_values(pairs, evolve(p0, t), xg, pg)
        c, s = math.cos(t), math.sin(t)
        back = phasespace._superposition_values(
            pairs, evolve(p0, 0.0), xg * c - pg * s, xg * s + pg * c)
        assert (rotate_evolution_check(self.COEFFS, p0, g, t)
                == float(np.max(np.abs(now - back))))

    @pytest.mark.parametrize("row", [0, 40, 69])
    def test_imaginary_residual_in_any_block_raises(self, monkeypatch, row):
        p0 = ErmakovParameters(0.3, 0.8, 0.1, 0.2, 0.5, 0.0)
        g = default_grid(p0, 0.0, (0, 2), points=(70, 45))
        real = phasespace._superposition_values

        def leaky(pairs, p, x, mom):
            return real(pairs, p, x, mom) + 1e-6j * (x == g.x_range[row])

        monkeypatch.setattr(phasespace, "_superposition_values", leaky)
        with pytest.raises(ArithmeticError, match="imaginary residual"):
            superposition_grid(self.COEFFS, p0, g, 0.0)


class TestCrossFunctionReuse:
    """Each unordered pair's cross function is evaluated once per block."""

    # four terms with unsorted labels, so both branches of the pair
    # order are taken, and complex weights, so a wrong conjugate shows
    COEFFS = [(0.5, 3), (0.5j, 0), (-0.5, 5), (0.3 + 0.4j, 1)]

    @staticmethod
    def double_loop(pairs, p, x, mom):
        """The double sum with every term evaluated, in row-major order."""
        acc = np.zeros(np.broadcast(x, mom).shape, dtype=complex)
        for cj, nj in pairs:
            for ck, nk in pairs:
                if nj <= nk:
                    w = phasespace._moyal_values(nj, nk, p, x, mom)
                else:
                    w = np.conj(phasespace._moyal_values(nk, nj, p, x, mom))
                acc += np.conj(cj) * ck * w
        return acc

    def test_one_evaluation_per_unordered_pair(self, monkeypatch, rng):
        p0 = draw_params(rng)
        g = default_grid(p0, 0.4, (0, 5), points=(70, 45))
        real = phasespace._moyal_values
        calls = []

        def counted(m, n, p, x, mom):
            calls.append((m, n))
            return real(m, n, p, x, mom)

        monkeypatch.setattr(phasespace, "_moyal_values", counted)
        superposition_grid(self.COEFFS, p0, g, 0.4)
        terms = len(self.COEFFS)
        blocks = 3                      # 70 rows: 32 + 32 + 6
        assert len(calls) == blocks * terms * (terms + 1) // 2
        assert all(m <= n for m, n in calls)
        assert len(set(calls)) == terms * (terms + 1) // 2

    def test_bits_equal_the_double_loop(self, rng):
        for _ in range(3):
            p0 = draw_params(rng)
            t = rng.uniform(-2.0, 2.0)
            p = evolve(p0, t)
            g = default_grid(p0, t, (0, 5), points=(37, 29))
            xg, pg = np.meshgrid(g.x_range, g.p_range, indexing="ij")
            pairs = phasespace._check_coeffs(self.COEFFS)
            fast = phasespace._superposition_values(pairs, p, xg, pg)
            assert fast.tobytes() == self.double_loop(pairs, p, xg,
                                                      pg).tobytes()
            point = phasespace._superposition_values(pairs, p, 0.3, -0.2)
            assert point.tobytes() == self.double_loop(pairs, p, 0.3,
                                                       -0.2).tobytes()


class TestFiniteBlocks:
    def test_nonfinite_block_raises_before_it_is_written(self, tmp_path):
        # a lone level 200 overflows its Laguerre factor off centre
        g = default_grid(ErmakovParameters(0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
                         0.0, (200,), 51)
        path = tmp_path / "w.csv"
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError,
                              match="non-finite Wigner value at t = 0.0 "
                                    "in mesh rows 0 to 31"):
            phasespace.write_superposition_csv(
                path, [(1.0, 200)],
                ErmakovParameters(0.0, 1.0, 0.0, 0.0, 0.0, 0.0), g, 0.0)
        assert path.read_text() == "x,p,W\n"
