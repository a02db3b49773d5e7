"""Truncated number-basis matrices for the dynamic oscillator algebra.

Everything the rest of the package derives from wavefunctions has an
operator-side mirror: a finite Fock-basis realization of x, p and the
standard Hamiltonian H = (p^2 + x^2)/2, a *time-dependent* ladder pair

    b(t)  = (e^{-2i gamma}/sqrt 2) (beta x + epsilon + i (p - 2 alpha x - delta)/beta),
    b+(t) = its adjoint,

and the quadratic invariant E(t) = (b b+ + b+ b)/2 whose spectrum stays
k + 1/2 for all parameter values.  The pair solves the Heisenberg
equations db/dt = i[b, H] as printed in the source convention (the
standard textbook sign, db/dt = -i[b, H], corresponds to running time
backwards and fails them), so b(t) is obtainable either by rebuilding
(substituting evolved parameters into the definition) or by rotating
the (a, a+, 1) components of b(0) with e^{+-it} -- both paths are
implemented and must agree.

Truncation discipline.  A hard cutoff at dimension N corrupts only the
top of the matrices: products of tridiagonal/pentadiagonal operators are
exact on the leading block.  Every identity this module asserts is
therefore an *interior-block* statement -- (N-1)x(N-1) for single
commutators, (N-2)x(N-2) for nested products -- and the `interior`
helper makes that explicit at call sites.  The truncation edge is never
silently trusted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .ermakov import ErmakovParameters, evolve
from .specfun import _check_int

__all__ = [
    "OperatorMatrix",
    "fock_operators",
    "b_operators",
    "b_evolved",
    "heisenberg_residual",
    "invariant_E",
    "ladder_coefficients",
    "hamiltonian_in_ladder",
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
    entries : ndarray
        Complex N x N matrix, read-only.
    hermitian : bool
        Set by the constructor that claims it; verified on creation
        (max |A - A^dagger| <= 1e-12) rather than trusted.
    """

    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("entries of shape %r are not a square matrix"
                             % (mat.shape,))
        if not np.all(np.isfinite(mat)):
            raise ValueError("operator entries must be finite")
        if self.hermitian:
            gap = np.max(np.abs(mat - mat.conj().T))
            if gap > HERMITIAN_TOL:
                raise ValueError(
                    "matrix claimed Hermitian but |A - A^dagger| = %.3e" % gap)
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)


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
        "a": OperatorMatrix(lower),
        "a_dag": OperatorMatrix(raise_),
        "x": OperatorMatrix(x, hermitian=True),
        "p": OperatorMatrix(p, hermitian=True),
        "H": OperatorMatrix(ham, hermitian=True),
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
        "b": OperatorMatrix(b),
        "b_dag": OperatorMatrix(b_dag),
    }


def b_evolved(p0: ErmakovParameters, t: float, n_dim: int) -> OperatorMatrix:
    """b(t) from b(0) by the exact ladder dynamics, without re-evolving.

    b(0) is a linear combination u a + v a+ + w; under db/dt = i[b, H]
    with H = (p^2 + x^2)/2 the components simply rotate, u -> u e^{it},
    v -> v e^{-it}, w -> w.  Must agree with rebuilding `b_operators`
    from evolved parameters; the two routes solve the same equations
    with the same data.
    """
    ops = fock_operators(n_dim)
    a0, b0 = p0.alpha, p0.beta
    phase0 = cmath.exp(-2j * p0.gamma)
    # components of b(0) over (a, a+, 1): collect x = (a+a+)/sqrt2 etc.
    u = phase0 * complex(b0 * b0 + 1.0, -2.0 * a0) / (2.0 * b0)
    v = phase0 * complex(b0 * b0 - 1.0, -2.0 * a0) / (2.0 * b0)
    w = phase0 * complex(p0.epsilon, -p0.delta / b0) / math.sqrt(2.0)
    rot = cmath.exp(1j * t)
    mat = (u * rot * ops["a"].entries
           + v * np.conj(rot) * ops["a_dag"].entries
           + w * np.eye(n_dim))
    return OperatorMatrix(mat)


def heisenberg_residual(p0: ErmakovParameters, t: float, n_dim: int) -> float:
    """Interior-block residual of the ladder Heisenberg equation.

    Differentiates the rebuilt b(t) by central differences of step 1e-5
    and measures max |db/dt - i[b, H]| on the (N-1) block.
    """
    step = 1e-5
    ops = fock_operators(n_dim)
    ham = ops["H"].entries
    ahead = b_operators(evolve(p0, t + step), n_dim)["b"].entries
    behind = b_operators(evolve(p0, t - step), n_dim)["b"].entries
    rate = (ahead - behind) / (2.0 * step)
    here = b_operators(evolve(p0, t), n_dim)["b"].entries
    resid = rate - 1j * (here @ ham - ham @ here)
    return float(np.max(np.abs(interior(resid, 1))))


def invariant_E(p: ErmakovParameters, n_dim: int) -> OperatorMatrix:
    """The quadratic invariant whose spectrum is k + 1/2 at every instant.

    E = [((p - 2 alpha x - delta)/beta)^2 + (beta x + epsilon)^2] / 2,
    equal (interior) to the symmetrized ladder product (b b+ + b+ b)/2.
    Conserved along the evolution: d<E>/dt = 0 for any fixed state.
    """
    q_op, p_op = _quadratures(p, n_dim)
    mat = 0.5 * (p_op @ p_op + q_op @ q_op)
    return OperatorMatrix(mat, hermitian=True)


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
    return OperatorMatrix(mat)


def energy_levels(p: ErmakovParameters, n_dim: int) -> np.ndarray:
    """Interior spectrum of E, ascending.

    Diagonalizes the exact (N-1)-block of the invariant with
    `numpy.linalg.eigh` and checks that consecutive levels are separated
    by more than the degeneracy tolerance.
    """
    block = interior(invariant_E(p, n_dim).entries, 1)
    vals, _ = np.linalg.eigh(block)
    gaps = np.diff(vals)
    if np.any(gaps < DEGENERACY_TOL):
        k = int(np.argmin(gaps))
        raise ArithmeticError(
            "levels %d and %d unresolved (gap %.3e); raise the truncation"
            % (k, k + 1, float(gaps[k])))
    return vals
