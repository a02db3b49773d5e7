"""Polynomial special functions and the Gaussian-weighted Hermite integral.

Everything here terminates: the normalized Hermite functions and
associated Laguerre polynomials of integer order, the nonnegative zeros
of the Hermite functions, terminating 2F1 sums, and the closed form of
integral(exp(-lambda2 x^2) H_m(a x) H_n(b x) dx).  Degrees and
Laguerre orders are capped at MAX_DEGREE to keep silent overflow out of
the library.  Only
numpy and the standard library are used.

The closed form of the Gaussian-Hermite integral is evaluated through the
even/odd reduction of the degenerate-lower-parameter 2F1 (half-integer
lower parameter).  After that reduction the result is a finite polynomial
in (a^2 - lambda2), (b^2 - lambda2) and (a b)^2, so no square-root branch
ever enters the value; this also makes the a^2 = lambda2 limit exact.
"""

from __future__ import annotations

import functools
import math
from typing import Union

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "ParameterDegeneracyError",
    "hermite_function_table",
    "hermite_zeros",
    "gauss_hermite_rule",
    "laguerre_ratios",
    "laguerre_ratio_table",
    "laguerre_assoc",
    "hyp2f1_terminating",
    "hyp2f1_even_odd",
    "bailey_integral",
]

MAX_DEGREE = 512

Scalar = Union[float, complex]


class ParameterDegeneracyError(ValueError):
    """A lower Pochhammer factor vanished before the series terminated."""


def _check_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int, if it is an integer in [low, high].

    An integer is an ``int`` or a numpy integer, never a ``bool`` or a
    float; ``high=None`` leaves the range open above.  Anything else
    raises ValueError naming the argument ``name``.
    """
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return int(value)
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _check_degree(n, name="degree"):
    """``n`` as an int, if it is a degree or basis level in [0, MAX_DEGREE]."""
    return _check_int(n, name, 0, MAX_DEGREE)


def _hermite_rows(nmax: int, x):
    """Yield the normalized Hermite functions h_0(x), ..., h_nmax(x).

    The recurrence works on the weighted, unit-norm functions, so nothing
    overflows; no degree cap is applied here.
    """
    h_prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    yield h_prev
    if nmax == 0:
        return
    h = math.sqrt(2.0) * x * h_prev
    yield h
    for k in range(1, nmax):
        h, h_prev = (x * math.sqrt(2.0 / (k + 1)) * h
                     - math.sqrt(k / (k + 1.0)) * h_prev), h
        yield h


def hermite_function_table(nmax: int, x) -> np.ndarray:
    """All normalized Hermite functions 0..nmax at once, shape (nmax+1, ...).

    Row n is H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)), stable for any
    degree up to MAX_DEGREE.
    """
    nmax = _check_degree(nmax)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((nmax + 1,) + x.shape)
    for k, row in enumerate(_hermite_rows(nmax, x)):
        out[k] = row
    return out


#: Newton steps allowed when polishing the Hermite zeros (3 suffice up to
#: MAX_DEGREE + 1 nodes from the Tricomi start)
_ZERO_MAX_STEPS = 10


def hermite_zeros(n: int) -> np.ndarray:
    """The (n + 1) // 2 nonnegative zeros of H_n (equivalently of h_n).

    They are in increasing order, 0 first for odd n; the negative zeros
    are their mirror images.  These are the half-line Gauss-Hermite
    nodes; n may be MAX_DEGREE + 1 so that a rule exact for degree
    2 MAX_DEGREE is available.  The positive zeros
    start from Tricomi's asymptotic guess x = sqrt(2n+1) cos(phi) with
    phi - sin(phi) cos(phi) = pi (4k-1) / (4n+2), k = 1, ..., n // 2 (the
    phi equation is solved by Newton from cbrt(1.5 t)), and are then
    polished by Newton on the normalized recurrence with
    h_n' = sqrt(2n) h_{n-1} - x h_n.  No eigenvalue solver is used.

    Raises
    ------
    ArithmeticError
        If the Newton polish does not converge.
    """
    n = _check_int(n, "n", 1, MAX_DEGREE + 1)
    t = math.pi * (4.0 * np.arange(1, n // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    phi = np.cbrt(1.5 * t)
    for _ in range(6):
        phi = phi - (phi - np.sin(phi) * np.cos(phi) - t) / (2.0 * np.sin(phi) ** 2)
    x = math.sqrt(2.0 * n + 1.0) * np.cos(phi)
    tol = 1e-12 * math.sqrt(2.0 * n + 1.0)
    for _ in range(_ZERO_MAX_STEPS):
        *_, h_prev, h = _hermite_rows(n, x)
        step = h / (math.sqrt(2.0 * n) * h_prev - x * h)
        x = x - step
        if np.all(np.abs(step) <= tol):
            break
    else:
        raise ArithmeticError(
            f"Hermite zeros for n={n} did not converge in "
            f"{_ZERO_MAX_STEPS} Newton steps")
    middle = [0.0] if n % 2 else []
    return np.concatenate((middle, x[::-1]))


# One entry per valid node count and integer type (invalid counts raise and
# are not cached), so the cache holds about (MAX_DEGREE + 1)^2 / 2 floats
# per type at most.  `typed` keeps True from sharing the entry of 1:
# hermite_zeros rejects bools.
@functools.lru_cache(maxsize=None, typed=True)
def gauss_hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-line form of the n-node Gauss-Hermite rule, cached per n.

    Returns ``(nodes, weights)``: the nonnegative zeros u_j of
    `hermite_zeros` and their modified weights
    w_j exp(u_j^2) = 1 / (n h_{n-1}(u_j)^2), with the zero node's weight
    halved.  For an even function f,

        integral(exp(-u^2) f(u) du) = 2 sum_j weights_j exp(-u_j^2) f(u_j)

    exactly when f is a polynomial of degree below 2n.  Working with the
    modified weights keeps every factor O(1) at any n up to
    MAX_DEGREE + 1.  Both arrays are read-only, because every caller
    shares them; the rule is computed on first use, never at import.
    """
    u = hermite_zeros(n)
    for h_last in _hermite_rows(n - 1, u):
        pass                    # keep only the last of n rows
    weights = 1.0 / (n * h_last**2)
    if n % 2:
        weights[0] *= 0.5
    u.flags.writeable = False
    weights.flags.writeable = False
    return u, weights


def _laguerre_step(k: int, ka1, x, p, delta, out=None):
    """Advance the difference form of `laguerre_ratios` from k to k + 1.

    ``ka1`` holds k + a + 1 for the orders a that ``p`` and ``delta``
    carry; returns ``(p_{k+1}, delta_{k+1})``, with p_{k+1} written to
    ``out`` when given.
    """
    delta = -x / ka1 * p + (k / ka1) * delta
    return np.add(p, delta, out=out), delta


def laguerre_ratios(nmax: int, a: int, x):
    """Yield p_k = L_k^a(x) / C(k + a, k) for k = 0, 1, ..., nmax.

    Difference form of the three-term Laguerre recurrence: with
    delta_1 = -x/(a+1) and p_1 = 1 + delta_1,

        delta_{k+1} = -x/(k+a+1) p_k + k/(k+a+1) delta_k,
        p_{k+1} = p_k + delta_{k+1}.

    Carrying the increment keeps full accuracy at small x, where every
    p_k is close to 1; the normalized three-term form loses it there.
    The order a is an integer in [0, MAX_DEGREE]; vectorized over x.
    """
    a1 = _check_degree(a, "order") + 1.0
    p = np.ones(np.shape(x))
    yield p
    if nmax == 0:
        return
    delta = -x / a1
    p = delta + 1.0
    yield p
    for k in range(1, nmax):
        p, delta = _laguerre_step(k, k + a1, x, p, delta)
        yield p


def laguerre_ratio_table(rows: int, size: int, x: float) -> np.ndarray:
    """The ratios L_n^d(x) / C(n + d, n) on the triangle n < rows, n + d < size.

    Entry [n, n + d] of the returned (rows, size) array holds the ratio
    of degree n and order d; the entries below the diagonal are zeros
    and nothing is evaluated there.  Row n + 1 is one step of the
    `laguerre_ratios` recurrence over the orders d < size - n - 1, so
    every step is one order shorter than the one before, and each entry
    has the bits `laguerre_ratios` gives it.  Requires 1 <= rows <= size.
    """
    if not 1 <= rows <= size:
        raise ValueError(f"need 1 <= rows <= size, got {rows} and {size}")
    out = np.zeros((rows, size))
    out[0] = 1.0
    if rows == 1:
        return out
    ka1 = np.arange(1.0, size + 1.0)       # k + d + 1 sits at ka1[k + d]
    delta = -x / ka1[:-1]
    p = np.add(delta, 1.0, out=out[1, 1:])
    for k in range(1, rows - 1):
        width = size - k - 1
        p, delta = _laguerre_step(k, ka1[k:k + width], x, p[:width],
                                  delta[:width], out=out[k + 1, k + 1:])
    return out


def _binom(top: int, k: int) -> float:
    """Binomial coefficient C(top, k) for integers 0 <= k <= top, by products.

    Uses the symmetry C(top, k) = C(top, top - k) and rescales the
    running product before it can overflow.
    """
    k = min(k, top - k)
    num = den = 1.0
    for i in range(1, k + 1):
        num *= i + top - k
        den *= i
        if abs(num) > 1e50:
            num /= den
            den = 1.0
    return num / den


def laguerre_assoc(m: int, a: int, x):
    """Associated Laguerre polynomial L_m^a(x), vectorized over x.

    Evaluated as C(m + a, m) times the last ratio of `laguerre_ratios`;
    the order a is an integer in [0, MAX_DEGREE].
    """
    m = _check_degree(m)
    a = _check_degree(a, "order")
    x = np.asarray(x)
    if m == 1:
        out = -x + a + 1.0      # direct, without the ratio form's roundings
    else:
        for ratio in laguerre_ratios(m, a, x):
            pass                # keep only the last of m + 1 grids
        out = _binom(m + a, m) * ratio
    return out if out.shape else out[()]


def hyp2f1_terminating(m: int, n: int, c: Scalar, z: Scalar) -> Scalar:
    """Terminating 2F1(-m, -n; c; z) summed exactly to min(m, n) terms.

    Raises ParameterDegeneracyError when c + k = 0 is hit for some
    k < min(m, n), i.e. when a lower Pochhammer factor vanishes while the
    numerator is still alive.
    """
    m = _check_degree(m, "m")
    n = _check_degree(n, "n")
    kmax = min(m, n)
    total = 1.0 + 0.0 * z  # promotes to complex when z is complex
    term = total
    for k in range(kmax):
        den = c + k
        if den == 0:
            raise ParameterDegeneracyError(
                f"lower parameter c={c!r} hits zero at k={k + 1} "
                f"before termination at {kmax}")
        term = term * ((k - m) * (k - n) * z) / (den * (k + 1))
        total += term
    return total


def _even_odd_split(m: int, n: int) -> tuple[int, int, float, float]:
    """The reduced degrees, lower parameter and log ratio, m + n even.

    m = 2r, n = 2s gives c = 1/2 and m = 2r + 1, n = 2s + 1 gives
    c = 3/2; the ratio is (c)_r (c)_s / (c)_{r+s}, returned as its log.
    """
    r, s, c = m // 2, n // 2, 1.5 if m % 2 else 0.5
    log_ratio = (math.lgamma(c + r) + math.lgamma(c + s)
                 - math.lgamma(c + r + s) - math.lgamma(c))
    return r, s, c, log_ratio


def hyp2f1_even_odd(k: int, n: int, zeta: Scalar) -> complex:
    """2F1(-k, -n; (1-k-n)/2; (1 + i zeta)/2) via the even/odd reduction.

    Defined for k + n even only.  The reduction maps the half-integer
    lower parameter to a plain terminating sum with lower parameter 1/2
    (both degrees even) or 3/2 (both odd):

        k=2r, n=2s   ->  [(1/2)_r (1/2)_s / (1/2)_{r+s}] 2F1(-r,-s; 1/2; -zeta^2)
        k=2r+1,n=2s+1 -> -[(3/2)_r (3/2)_s / (3/2)_{r+s}] i zeta
                                                  2F1(-r,-s; 3/2; -zeta^2)
    """
    k = _check_degree(k, "k")
    n = _check_degree(n, "n")
    if (k + n) % 2:
        raise ValueError(f"k + n must be even, got k={k}, n={n}")
    r, s, c, log_ratio = _even_odd_split(k, n)
    front = -1j * zeta if k % 2 else 1.0 + 0j
    return (front * math.exp(log_ratio)
            * hyp2f1_terminating(r, s, c, -(zeta * zeta)))


def _bailey_core(m: int, n: int, a: Scalar, b: Scalar, lam2: Scalar) -> complex:
    """integral(exp(-lam2 x^2) H_m(a x) H_n(b x) dx), lam2 in the right half plane.

    For m + n even.  Uses the even/odd-reduced closed form multiplied
    through so the value is a polynomial in sa2 = a^2 - lam2,
    sb2 = b^2 - lam2 and (a b)^2; the only branched factor left is
    lam2^(-(m+n+1)/2) (principal).
    """
    sa2 = a * a - lam2
    sb2 = b * b - lam2
    ab2 = (a * b) * (a * b)
    r, s, c, log_ratio = _even_odd_split(m, n)
    front = complex(a * b) if m % 2 else 1.0 + 0j
    # sum_k [(-r)_k (-s)_k / ((c)_k k!)] (ab)^(2k) sa2^(r-k) sb2^(s-k)
    kmax = min(r, s)
    terms = []
    coeff = 1.0
    for k in range(kmax + 1):
        terms.append(coeff * ab2**k * sa2 ** (r - k) * sb2 ** (s - k))
        coeff = coeff * ((k - r) * (k - s)) / ((c + k) * (k + 1))
    poly = sum(terms)
    log_front = ((m + n) * math.log(2.0)
                 + math.lgamma(0.5 * (m + n + 1))
                 - 0.5 * (m + n + 1) * np.log(complex(lam2)))
    return front * poly * complex(np.exp(log_front + log_ratio))


def bailey_integral(m: int, n: int, a: float, b: float, lambda2: float) -> float:
    """Closed form of integral(exp(-lambda2 x^2) H_m(a x) H_n(b x) dx).

    Defined for m + n even only (it vanishes by parity otherwise);
    requires lambda2 > 0.  Exact (not a limit) at the degenerate points
    a^2 = lambda2 or b^2 = lambda2, where orthogonality of the Hermite
    system reappears.
    """
    m = _check_degree(m, "m")
    n = _check_degree(n, "n")
    if (m + n) % 2:
        raise ValueError(f"m + n must be even, got m={m}, n={n}")
    lambda2 = float(lambda2)
    if not lambda2 > 0.0:
        raise ValueError(f"lambda2 must be positive, got {lambda2!r}")
    value = _bailey_core(m, n, float(a), float(b), lambda2)
    scale = max(1.0, abs(value))
    if abs(value.imag) > 1e-10 * scale:
        raise ArithmeticError(f"unexpected imaginary residual {value.imag!r}")
    return value.real
