"""Truncated number-basis matrices for the dynamic oscillator algebra.

Everything the rest of the package derives from wavefunctions has an
operator-side mirror: a finite Fock-basis realization of x, p and the
standard Hamiltonian H = (p^2 + x^2)/2, a *time-dependent* ladder pair

    b(t)  = (e^{-2i gamma}/sqrt 2) (beta x + epsilon + i (p - 2 alpha x - delta)/beta),
    b+(t) = its adjoint,

and the quadratic invariant E(t) = (b b+ + b+ b)/2 whose spectrum stays
k + 1/2 for all parameter values.  The pair solves the Heisenberg
equations db/dt = i[b, H] as printed in the source convention (the
standard textbook sign corresponds to running time backwards, exposed
here as the ``time_reversed`` switch), so b(t) is obtainable either by
rebuilding (substituting evolved parameters into the definition) or by
rotating the (a, a+, 1) components of b(0) with e^{+-it} -- both paths
are implemented and must agree.

Truncation discipline.  A hard cutoff at dimension N corrupts only the
top of the matrices: products of tridiagonal/pentadiagonal operators are
exact on the leading block.  Every identity this module asserts is
therefore an *interior-block* statement -- (N-1)x(N-1) for single
commutators, (N-2)x(N-2) for nested products -- and the `interior`
helper makes that explicit at call sites.  The truncation edge is never
silently trusted.

Eigenvector phases.  `numpy.linalg.eigh` returns eigenvectors with
arbitrary phases; where ladder relations between *different* levels are
checked, each level is allowed exactly one global phase, anchored by
making the first component of modulus > 1e-8 real and positive.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .ermakov import ErmakovParameters, classical_trajectory, evolve
from .specfun import _check_int

__all__ = [
    "OperatorMatrix",
    "ModeState",
    "fock_operators",
    "b_operators",
    "b_evolved",
    "heisenberg_residual",
    "invariant_E",
    "ladder_coefficients",
    "hamiltonian_in_ladder",
    "var_h_operator",
    "ladder_action_check",
    "field_expectation",
    "interior",
    "energy_levels",
]

#: Hermiticity acceptance for matrices claiming the flag.
HERMITIAN_TOL = 1e-12

#: Minimum eigenvalue spacing below which a level is reported unresolved.
DEGENERACY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A finite operator in the number basis.

    Attributes
    ----------
    dim : int
        Matrix dimension N.
    entries : ndarray
        Complex N x N matrix, read-only.
    hermitian : bool
        Set by the constructor that claims it; verified on creation
        (max |A - A^dagger| <= 1e-12) rather than trusted.
    """

    dim: int
    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError("entries shape %r does not match dim %d"
                             % (mat.shape, self.dim))
        if not np.all(np.isfinite(mat)):
            raise ValueError("operator entries must be finite")
        if self.hermitian:
            gap = np.max(np.abs(mat - mat.conj().T))
            if gap > HERMITIAN_TOL:
                raise ValueError(
                    "matrix claimed Hermitian but |A - A^dagger| = %.3e" % gap)
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)


@dataclass(frozen=True)
class ModeState:
    """A normalized state vector of the single retained cavity mode.

    Attributes
    ----------
    amplitudes : ndarray
        Complex N-vector of unit norm (1e-12).
    """

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        vec = np.asarray(self.amplitudes, dtype=complex)
        if vec.ndim != 1 or vec.size < 2:
            raise ValueError("amplitudes must be a vector of length >= 2")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("mode state norm %.17g is not 1" % norm)
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)


def interior(matrix: np.ndarray, pad: int = 1) -> np.ndarray:
    """Drop ``pad`` truncation-edge rows and columns.

    Single products of the tridiagonal generators are exact on the
    (N-1) block, nested products on the (N-2) block; identities are
    asserted there and nowhere closer to the edge.
    """
    pad = _check_int(pad, "pad", 1)
    return np.asarray(matrix)[:-pad, :-pad]


def fock_operators(n_dim: int) -> dict:
    """Standard truncated oscillator operators.

    Parameters
    ----------
    n_dim : int
        Fock-space dimension N (>= 2).

    Returns
    -------
    dict
        Keys ``x``, ``p``, ``a``, ``a_dag``, ``H``; the annihilation
        matrix carries sqrt(k) on the superdiagonal, x = (a + a+)/sqrt 2
        and p = (a - a+)/(i sqrt 2) are exactly Hermitian, and
        H = (a a+ + a+ a)/2 is diagonal with k + 1/2 on the first N - 1
        levels (the last diagonal entry is a truncation artifact).
    """
    n_dim = _check_int(n_dim, "n_dim", 2)
    lower = np.zeros((n_dim, n_dim), dtype=complex)
    roots = np.sqrt(np.arange(1.0, n_dim))
    lower[np.arange(n_dim - 1), np.arange(1, n_dim)] = roots
    raise_ = lower.conj().T
    x = (lower + raise_) / math.sqrt(2.0)
    p = (lower - raise_) / (1j * math.sqrt(2.0))
    ham = 0.5 * (lower @ raise_ + raise_ @ lower)
    return {
        "a": OperatorMatrix(n_dim, lower),
        "a_dag": OperatorMatrix(n_dim, raise_),
        "x": OperatorMatrix(n_dim, x, hermitian=True),
        "p": OperatorMatrix(n_dim, p, hermitian=True),
        "H": OperatorMatrix(n_dim, ham, hermitian=True),
    }


def _quadratures(p: ErmakovParameters, n_dim: int):
    """The two rotated quadratures (beta x + epsilon, (p-2 alpha x-delta)/beta)."""
    ops = fock_operators(n_dim)
    x, mom = ops["x"].entries, ops["p"].entries
    one = np.eye(n_dim)
    q_op = p.beta * x + p.epsilon * one
    p_op = (mom - 2.0 * p.alpha * x - p.delta * one) / p.beta
    return q_op, p_op


def b_operators(p: ErmakovParameters, n_dim: int) -> dict:
    """The time-dependent ladder pair at one instant.

    Parameters
    ----------
    p : ErmakovParameters
        Parameters at the instant of interest (evolve them first).
    n_dim : int
        Fock-space dimension.

    Returns
    -------
    dict
        ``b`` and ``b_dag``; the adjoint relation holds to strict
        roundoff and is verified before returning.
    """
    q_op, p_op = _quadratures(p, n_dim)
    phase = cmath.exp(-2j * p.gamma)
    b = phase / math.sqrt(2.0) * (q_op + 1j * p_op)
    b_dag = np.conj(phase) / math.sqrt(2.0) * (q_op - 1j * p_op)
    if np.max(np.abs(b_dag - b.conj().T)) > 1e-14:
        raise ArithmeticError("ladder adjoint relation lost to roundoff")
    return {
        "b": OperatorMatrix(n_dim, b),
        "b_dag": OperatorMatrix(n_dim, b_dag),
    }


def b_evolved(p0: ErmakovParameters, t: float, n_dim: int,
              time_reversed: bool = False) -> OperatorMatrix:
    """b(t) from b(0) by the exact ladder dynamics, without re-evolving.

    b(0) is a linear combination u a + v a+ + w; under db/dt = i[b, H]
    with H = (p^2 + x^2)/2 the components simply rotate, u -> u e^{it},
    v -> v e^{-it}, w -> w.  The ``time_reversed`` switch selects the
    textbook sign convention instead (components rotate the other way).
    Must agree with rebuilding `b_operators` from evolved parameters;
    the two routes solve the same equations with the same data.
    """
    ops = fock_operators(n_dim)
    a0, b0 = p0.alpha, p0.beta
    phase0 = cmath.exp(-2j * p0.gamma)
    # components of b(0) over (a, a+, 1): collect x = (a+a+)/sqrt2 etc.
    u = phase0 * complex(b0 * b0 + 1.0, -2.0 * a0) / (2.0 * b0)
    v = phase0 * complex(b0 * b0 - 1.0, -2.0 * a0) / (2.0 * b0)
    w = phase0 * complex(p0.epsilon, -p0.delta / b0) / math.sqrt(2.0)
    rot = cmath.exp(-1j * t) if time_reversed else cmath.exp(1j * t)
    mat = (u * rot * ops["a"].entries
           + v * np.conj(rot) * ops["a_dag"].entries
           + w * np.eye(n_dim))
    return OperatorMatrix(n_dim, mat)


def heisenberg_residual(p0: ErmakovParameters, t: float, n_dim: int,
                        time_reversed: bool = False) -> float:
    """Interior-block residual of the ladder Heisenberg equation.

    Differentiates the rebuilt b(t) by central differences of step 1e-5
    and measures max |db/dt - i[b, H]| on the (N-1) block (or
    db/dt + i[b, H] under the time-reversed convention).
    """
    step = 1e-5
    ops = fock_operators(n_dim)
    ham = ops["H"].entries
    ahead = b_operators(evolve(p0, t + step), n_dim)["b"].entries
    behind = b_operators(evolve(p0, t - step), n_dim)["b"].entries
    rate = (ahead - behind) / (2.0 * step)
    here = b_operators(evolve(p0, t), n_dim)["b"].entries
    sign = -1.0 if time_reversed else 1.0
    resid = rate - sign * 1j * (here @ ham - ham @ here)
    return float(np.max(np.abs(interior(resid, 1))))


def invariant_E(p: ErmakovParameters, n_dim: int) -> OperatorMatrix:
    """The quadratic invariant whose spectrum is k + 1/2 at every instant.

    E = [((p - 2 alpha x - delta)/beta)^2 + (beta x + epsilon)^2] / 2,
    equal (interior) to the symmetrized ladder product (b b+ + b+ b)/2.
    Conserved along the evolution: d<E>/dt = 0 for any fixed state.
    """
    q_op, p_op = _quadratures(p, n_dim)
    mat = 0.5 * (p_op @ p_op + q_op @ q_op)
    return OperatorMatrix(n_dim, mat, hermitian=True)


def ladder_coefficients(p: ErmakovParameters) -> dict:
    """The six scalars expanding H over the instantaneous ladder pair.

    Returns
    -------
    dict
        ``lower_sq`` (coefficient of a(t)^2), ``raise_sq`` (of a+(t)^2,
        the conjugate), ``symmetric`` (of a a+ + a+ a), ``lower`` and
        ``raise`` (linear terms, mutually conjugate), and ``scalar``.
    """
    al, be, de, ep = p.alpha, p.beta, p.delta, p.epsilon
    bsq = be * be
    quad = (4.0 * al * al - bsq * bsq + 1.0) / (4.0 * bsq)
    sym = (4.0 * al * al + bsq * bsq + 1.0) / (4.0 * bsq)
    drift = de - 2.0 * al * ep / be
    lin_re = al * drift / be - ep / (2.0 * bsq)
    lin_im = 0.5 * be * drift
    return {
        "lower_sq": complex(quad, -al),
        "raise_sq": complex(quad, al),
        "symmetric": sym,
        "lower": math.sqrt(2.0) * complex(lin_re, -lin_im),
        "raise": math.sqrt(2.0) * complex(lin_re, lin_im),
        "scalar": 0.5 * drift * drift + ep * ep / (2.0 * bsq),
    }


def hamiltonian_in_ladder(p: ErmakovParameters, n_dim: int) -> OperatorMatrix:
    """Standard H reassembled from the instantaneous ladder pair.

    Expands H = (p^2 + x^2)/2 over the *unphased* ladder operators
    a(t) = (beta x + epsilon + i(p - 2 alpha x - delta)/beta)/sqrt 2 in
    six terms: quadratic (a^2, a+^2, symmetrized product), linear, and a
    scalar (see `ladder_coefficients`).  The result must reproduce
    `fock_operators`' H on the interior block for every parameter draw
    -- a strong consistency test of the coefficient bookkeeping.
    """
    q_op, p_op = _quadratures(p, n_dim)
    low = (q_op + 1j * p_op) / math.sqrt(2.0)
    high = (q_op - 1j * p_op) / math.sqrt(2.0)
    cf = ladder_coefficients(p)
    mat = (cf["lower_sq"] * (low @ low)
           + cf["raise_sq"] * (high @ high)
           + cf["symmetric"] * (low @ high + high @ low)
           + cf["lower"] * low
           + cf["raise"] * high
           + cf["scalar"] * np.eye(n_dim))
    return OperatorMatrix(n_dim, mat)


def energy_levels(p: ErmakovParameters, n_dim: int):
    """Interior spectrum and (phase-fixed, zero-padded) eigenvectors of E.

    Diagonalizes the exact (N-1)-block of the invariant, checks that
    consecutive levels are separated by more than the degeneracy
    tolerance, and returns eigenvalues with eigenvectors embedded back
    into dimension N (last amplitude zero).

    Returns
    -------
    (ndarray, ndarray)
        Eigenvalues ascending, and a matrix whose column k is the k-th
        eigenvector.
    """
    block = interior(invariant_E(p, n_dim).entries, 1)
    vals, vecs = np.linalg.eigh(block)
    gaps = np.diff(vals)
    if np.any(gaps < DEGENERACY_TOL):
        k = int(np.argmin(gaps))
        raise ArithmeticError(
            "levels %d and %d unresolved (gap %.3e); raise the truncation"
            % (k, k + 1, float(gaps[k])))
    full = np.zeros((n_dim, vecs.shape[1]), dtype=complex)
    full[:-1, :] = vecs
    for k in range(full.shape[1]):
        col = full[:, k]
        lead = col[np.abs(col) > 1e-8]
        if lead.size:
            full[:, k] = col * (np.conj(lead[0]) / abs(lead[0]))
    return vals, full


def var_h_operator(n: int, p: ErmakovParameters, n_dim: int = 256) -> float:
    """Energy variance of the n-th invariant eigenstate, operator route.

    Builds the n-th eigenvector of the invariant E on the interior block
    and evaluates <H^2> - <H>^2 with the truncated H.  Serves as the
    independent oracle for the closed-form variance.

    Parameters
    ----------
    n : int
        Level index; capped at n_dim // 8 so the eigenvector is fully
        resolved inside the truncation.
    p : ErmakovParameters
        Parameters at the instant of interest.
    n_dim : int, optional
        Fock dimension (default 256).
    """
    n = _check_int(n, "n", 0)
    if n > n_dim // 8:
        raise ValueError("level %d too close to the truncation %d; "
                         "raise n_dim" % (n, n_dim))
    _, vecs = energy_levels(p, n_dim)
    state = vecs[:, n]
    ham = fock_operators(n_dim)["H"].entries
    h_state = ham @ state
    mean = float(np.real(np.vdot(state, h_state)))
    square = float(np.real(np.vdot(h_state, h_state)))
    return square - mean * mean


def ladder_action_check(p: ErmakovParameters, n_dim: int,
                        levels: int = 7) -> float:
    """Worst deviation of the invariant eigenvectors from ladder action.

    Applies b and b+ to the lowest eigenvectors of E and measures the
    distance from sqrt(n) |psi_{n-1}> and sqrt(n+1) |psi_{n+1}>, allowing
    one global phase per level (anchored at the ground level, then fixed
    recursively by the b overlaps).  Includes |b psi_0| -- the ground
    vector must be annihilated.
    """
    levels = _check_int(levels, "levels", 1, n_dim // 8)
    _, vecs = energy_levels(p, n_dim)
    ladder = b_operators(p, n_dim)
    low = ladder["b"].entries
    high = ladder["b_dag"].entries
    phased = [vecs[:, 0]]
    for k in range(1, levels + 1):
        overlap = complex(np.vdot(phased[k - 1], low @ vecs[:, k]))
        if abs(overlap) < 1e-8:
            raise ArithmeticError("ladder overlap vanished at level %d" % k)
        phased.append(vecs[:, k] * (abs(overlap) / overlap))
    gaps = [np.linalg.norm(low @ phased[0])]
    for k in range(1, levels + 1):
        gaps.append(np.linalg.norm(low @ phased[k]
                                   - math.sqrt(k) * phased[k - 1]))
        if k < levels:
            gaps.append(np.linalg.norm(high @ phased[k]
                                       - math.sqrt(k + 1.0) * phased[k + 1]))
    return float(np.max(gaps))  # a NaN gap gives NaN


def field_expectation(e_mode: float, h_mode: float, state_n: int,
                      p0: ErmakovParameters, t: float) -> tuple[float, float]:
    """Mean electric and magnetic single-mode fields at time t.

    For the retained unit-frequency cavity mode with caller-supplied
    scalar mode amplitudes (the geometry factors), the expectations are
    proportional to the packet centroid:

        <E> = -sqrt(4 pi) * e_mode * <p>(t),
        <H> = +sqrt(4 pi) * h_mode * <x>(t).

    The centroid is the same for every level n of the dynamic Fock
    space (displacement is carried by the parameters, not the level),
    so ``state_n`` only participates through validation.
    """
    _check_int(state_n, "state_n", 0)
    x_mean, p_mean = classical_trajectory(p0, t)
    root = math.sqrt(4.0 * math.pi)
    return -root * e_mode * p_mean, root * h_mode * x_mean

