"""Truncated-basis operator algebra against eigen- and FD oracles."""

import math

import numpy as np
import pytest

from sqstates.ermakov import ErmakovParameters, evolve
from sqstates.operators import (
    OperatorMatrix,
    b_evolved,
    b_operators,
    energy_levels,
    fock_operators,
    hamiltonian_in_ladder,
    heisenberg_residual,
    interior,
    invariant_E,
    ladder_coefficients,
)
from sqstates.states import DynamicState, var_h

from conftest import draw_params
from oracles import invariant_vectors, ladder_action_check, var_h_operator

GROUND = ErmakovParameters(0, 1, 0, 0, 0, 0)


def draw_resolvable(rng, sigma_cap=4.5):
    """Draw parameters whose invariant sits well inside truncation 256.

    The n-th eigenvector of the invariant occupies Fock levels up to
    roughly sigma*(2n+1) plus a comparable spread; past sigma ~ 5 the
    n <= 5 eigenvectors leak beyond dimension 256 and eigen-based
    oracles lose accuracy, so eigen tests draw below the cap.
    """
    while True:
        p = draw_params(rng)
        sigma = (4 * p.alpha**2 + p.beta**4 + 1) / (2 * p.beta**2)
        if sigma <= sigma_cap:
            return p


class TestOperatorMatrix:
    def test_shape_and_finite_validation(self):
        for shape in ((4,), (2, 3), (2, 2, 2)):
            with pytest.raises(ValueError, match="square matrix"):
                OperatorMatrix(np.zeros(shape))
        bad = np.zeros((2, 2), dtype=complex)
        bad[0, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            OperatorMatrix(bad)

    def test_hermitian_claim_is_verified(self):
        skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            OperatorMatrix(skew, hermitian=True)
        OperatorMatrix(skew + skew.conj().T, hermitian=True)

    def test_entries_read_only(self):
        op = fock_operators(4)["x"]
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


class TestFockOperators:
    def test_canonical_commutator_interior(self):
        ops = fock_operators(64)
        x, p = ops["x"].entries, ops["p"].entries
        comm = x @ p - p @ x
        gap = np.abs(interior(comm) - 1j * np.eye(63))
        assert np.max(gap) < 1e-12

    def test_hamiltonian_diagonal(self):
        ops = fock_operators(32)
        ham = ops["H"].entries
        assert np.max(np.abs(ham - np.diag(np.diag(ham)))) < 1e-15
        levels = np.diag(ham).real[:31]
        assert np.max(np.abs(levels - (np.arange(31) + 0.5))) < 1e-13

    def test_vacuum_position_variance(self):
        ops = fock_operators(16)
        xsq = ops["x"].entries @ ops["x"].entries
        assert xsq[0, 0].real == pytest.approx(0.5, abs=1e-15)

    def test_annihilator_superdiagonal(self):
        a = fock_operators(6)["a"].entries
        for k in range(1, 6):
            assert a[k - 1, k] == pytest.approx(math.sqrt(k), abs=0)
        assert np.count_nonzero(a) == 5

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            fock_operators(1)


class TestBOperators:
    def test_ground_params_give_standard_ladder(self):
        ops = fock_operators(48)
        pair = b_operators(GROUND, 48)
        assert np.max(np.abs(pair["b"].entries - ops["a"].entries)) < 1e-14

    def test_commutator_is_identity_interior(self, rng):
        n_dim = 96
        for _ in range(8):
            p = evolve(draw_params(rng), rng.uniform(0, 6))
            pair = b_operators(p, n_dim)
            b, b_dag = pair["b"].entries, pair["b_dag"].entries
            comm = b @ b_dag - b_dag @ b
            gap = np.abs(interior(comm) - np.eye(n_dim - 1))
            assert np.max(gap) < 1e-12

    def test_adjoint_pairing(self, rng):
        p = draw_params(rng)
        pair = b_operators(p, 32)
        assert np.max(np.abs(pair["b_dag"].entries
                             - pair["b"].entries.conj().T)) < 1e-14

    def test_heisenberg_residual_small(self, rng):
        for _ in range(4):
            p0 = draw_params(rng)
            t = rng.uniform(0.0, 2.0 * math.pi)
            assert heisenberg_residual(p0, t, 64) <= 1e-6

    def test_reversed_convention_differs(self, rng):
        # the textbook sign, db/dt = -i[b, H], fails the ladder dynamics
        p0 = draw_params(rng)
        step, t = 1e-5, 0.8
        ham = fock_operators(48)["H"].entries

        def ladder(at):
            return b_operators(evolve(p0, at), 48)["b"].entries

        rate = (ladder(t + step) - ladder(t - step)) / (2.0 * step)
        here = ladder(t)
        resid = rate + 1j * (here @ ham - ham @ here)
        assert np.max(np.abs(interior(resid, 1))) > 1e-2

    def test_evolved_ladder_matches_rebuild(self, rng):
        for _ in range(6):
            p0 = draw_params(rng)
            t = rng.uniform(0.0, 4.0 * math.pi)
            direct = b_operators(evolve(p0, t), 64)["b"].entries
            rotated = b_evolved(p0, t, 64).entries
            assert np.max(np.abs(direct - rotated)) < 1e-12


class TestInvariant:
    def test_ground_params_reduce_to_hamiltonian(self):
        e_op = invariant_E(GROUND, 40).entries
        ham = fock_operators(40)["H"].entries
        assert np.max(np.abs(e_op - ham)) < 1e-13

    def test_matches_symmetrized_ladder_product(self, rng):
        n_dim = 96
        p = evolve(draw_params(rng), 1.7)
        pair = b_operators(p, n_dim)
        b, b_dag = pair["b"].entries, pair["b_dag"].entries
        sym = 0.5 * (b @ b_dag + b_dag @ b)
        gap = np.abs(interior(invariant_E(p, n_dim).entries, 2)
                     - interior(sym, 2))
        assert np.max(gap) < 1e-12

    def test_oscillator_spectrum(self, rng):
        for _ in range(4):
            p = evolve(draw_resolvable(rng), rng.uniform(0, 6))
            low = energy_levels(p, 256)[:6]
            assert np.max(np.abs(low - (np.arange(6) + 0.5))) < 1e-8

    def test_levels_are_one_ascending_array(self):
        # the spectrum alone, one level per interior dimension
        vals = energy_levels(GROUND, 16)
        assert isinstance(vals, np.ndarray) and vals.shape == (15,)
        assert np.all(np.diff(vals) > 0.0)

    def test_expectation_conserved_under_exact_phases(self, rng):
        # a fixed vector phase-propagated by e^{-i(k+1/2)t} must see a
        # constant invariant expectation as the parameters evolve
        n_dim = 64
        p0 = draw_params(rng)
        raw = rng.normal(size=12) + 1j * rng.normal(size=12)
        vec = np.zeros(n_dim, dtype=complex)
        vec[:12] = raw / np.linalg.norm(raw)
        levels = np.arange(n_dim) + 0.5
        base = None
        for t in np.linspace(0.0, 4.0 * math.pi, 17):
            amps = vec * np.exp(-1j * levels * t)
            e_op = invariant_E(evolve(p0, t), n_dim).entries
            val = float(np.real(np.vdot(amps, e_op @ amps)))
            base = val if base is None else base
            assert val == pytest.approx(base, abs=1e-8)

    def test_commutes_with_number_operator(self, rng):
        n_dim = 96
        p = evolve(draw_params(rng), 0.4)
        pair = b_operators(p, n_dim)
        number = pair["b_dag"].entries @ pair["b"].entries
        e_op = invariant_E(p, n_dim).entries
        comm = e_op @ number - number @ e_op
        assert np.max(np.abs(interior(comm, 2))) < 1e-10


class TestHamiltonianInLadder:
    def test_ground_params_reduce_to_symmetric_term(self):
        rebuilt = hamiltonian_in_ladder(GROUND, 32).entries
        ham = fock_operators(32)["H"].entries
        assert np.max(np.abs(rebuilt - ham)) < 1e-13
        cf = ladder_coefficients(GROUND)
        assert cf["lower_sq"] == 0
        assert cf["symmetric"] == pytest.approx(0.5, abs=0)
        assert cf["lower"] == 0
        assert cf["scalar"] == 0

    def test_rebuild_matches_interior(self, rng):
        n_dim = 96
        for _ in range(6):
            p = evolve(draw_params(rng), rng.uniform(0, 6))
            rebuilt = hamiltonian_in_ladder(p, n_dim).entries
            ham = fock_operators(n_dim)["H"].entries
            gap = np.abs(interior(rebuilt, 2) - interior(ham, 2))
            assert np.max(gap) < 1e-10

    def test_squared_lowering_coefficient_at_zero_alpha(self):
        for beta in (0.5, 0.9, 1.7):
            p = ErmakovParameters(0.0, beta, 0.3, 0.1, -0.4, 0.0)
            cf = ladder_coefficients(p)
            want = (1.0 - beta**4) / (4.0 * beta**2)
            assert cf["lower_sq"] == pytest.approx(want, abs=1e-15)
            assert cf["lower_sq"].imag == 0.0


class TestVarH:
    def test_h_eigenstates_have_zero_variance(self):
        for n in (0, 3, 11):
            assert abs(var_h_operator(n, GROUND, 128)) < 1e-10

    def test_coherent_displacement_value(self):
        p = ErmakovParameters(0.0, 1.0, 0.0, math.sqrt(2.0), 2.0, 0.0)
        assert var_h_operator(0, p, 256) == pytest.approx(3.0, abs=1e-8)

    def test_matches_closed_form(self, rng):
        for _ in range(3):
            p0 = draw_resolvable(rng)
            for n in range(6):
                got = var_h_operator(n, p0, 256)
                want = var_h(DynamicState(n, p0))
                assert got == pytest.approx(want, abs=1e-7, rel=1e-7)

    def test_level_too_close_to_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            var_h_operator(40, GROUND, 128)


class TestLadderAction:
    def test_ground_params_exact(self):
        assert ladder_action_check(GROUND, 96) < 1e-12

    def test_annihilates_dynamic_vacuum(self, rng):
        p = evolve(draw_resolvable(rng), 0.9)
        vecs = invariant_vectors(p, 256)
        low = b_operators(p, 256)["b"].entries
        assert np.linalg.norm(low @ vecs[:, 0]) < 1e-10

    def test_random_params_ladder(self, rng):
        for _ in range(3):
            p = evolve(draw_resolvable(rng), rng.uniform(0, 6))
            assert ladder_action_check(p, 256, levels=6) <= 1e-8

    def test_levels_validation(self):
        with pytest.raises(ValueError):
            ladder_action_check(GROUND, 32, levels=30)
