"""Gegenbauer and Jacobi polynomial kernel.

Evaluation, endpoint values, weighted L2 norms, endpoint derivative values,
and the connection matrices (differentiation, multiplication by x) that the
operator builders are assembled from.

The Gegenbauer family used throughout is the rescaled one with

    G_0 = 1,  G_1 = x,  G_2 = (g + 1) x^2 - 1/2,
    (n + 1) G_{n+1} = 2 (n + g) x G_n - (n - 1 + 2 g) G_{n-1},   n >= 2,

which stays finite as g -> 0 (where G_n = T_n / n for n >= 1) and reduces to
Legendre at g = 1/2 and to U_n / 2 at g = 1.  Note the three-term recurrence
is only valid from n = 2 on; the n = 1 step would need the conventional
normalization of G_0, which this family does not use.

Arithmetic is written division-last with integer constants so the same code
paths work for float, numpy arrays, and fractions.Fraction (exact mode).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "GegenbauerIndex",
    "JacobiIndex",
    "Parity",
    "as_gegenbauer",
    "as_jacobi",
    "gegenbauer_eval",
    "gegenbauer_at_one",
    "gegenbauer_at_one_upto",
    "gegenbauer_norms",
    "apply_derivative",
    "jacobi_derivs_at_one",
]


@dataclass(frozen=True)
class GegenbauerIndex:
    """Finite family parameter g > -1/2 of the rescaled Gegenbauer basis.

    gamma may be a float or a fractions.Fraction; Fraction input switches
    downstream routines into exact arithmetic.
    """

    gamma: object

    def __post_init__(self):
        if not (2 * self.gamma + 1 > 0):
            raise ValueError(f"gamma must exceed -1/2, got {self.gamma}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")

    def shifted(self, k: int = 1) -> "GegenbauerIndex":
        """Index with gamma raised by the integer k."""
        return GegenbauerIndex(self.gamma + k)


@dataclass(frozen=True)
class JacobiIndex:
    """Jacobi exponent pair (alpha, beta), both > -1."""

    alpha: object
    beta: object

    def __post_init__(self):
        if not (self.alpha + 1 > 0):
            raise ValueError(f"alpha must exceed -1, got {self.alpha}")
        if not (self.beta + 1 > 0):
            raise ValueError(f"beta must exceed -1, got {self.beta}")


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"

    @property
    def offset(self) -> int:
        return 0 if self is Parity.EVEN else 1

    def degree(self, k: int) -> int:
        """Polynomial degree of the k-th mode of this parity class."""
        return 2 * k + self.offset

    def flipped(self) -> "Parity":
        return Parity.ODD if self is Parity.EVEN else Parity.EVEN


def as_gegenbauer(idx) -> GegenbauerIndex:
    """Coerce a bare number into a GegenbauerIndex (validating it)."""
    if isinstance(idx, GegenbauerIndex):
        return idx
    return GegenbauerIndex(idx)


def as_jacobi(idx) -> JacobiIndex:
    if isinstance(idx, JacobiIndex):
        return idx
    if isinstance(idx, tuple) and len(idx) == 2:
        return JacobiIndex(*idx)
    raise TypeError(f"cannot interpret {idx!r} as a Jacobi index")


def as_parity(parity) -> Parity:
    if isinstance(parity, Parity):
        return parity
    return Parity(str(parity).lower())


def gegenbauer_eval(n: int, idx, x):
    """Evaluate G_n at x (scalar, Fraction, or ndarray) by forward recurrence."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    g = as_gegenbauer(idx).gamma
    one = x * 0 + 1  # broadcasts and preserves exact types
    if n == 0:
        return one
    if n == 1:
        return x * one
    prev = x * one
    cur = ((2 * (g + 1)) * x * x - 1) / 2
    for k in range(2, n):
        prev, cur = cur, ((2 * (k + g)) * x * cur - (k - 1 + 2 * g) * prev) / (k + 1)
    return cur


def gegenbauer_at_one_upto(nmax: int, idx) -> list:
    """Endpoint values [G_0(1), ..., G_nmax(1)] by one running product.

    G_n(1) = G_{n-1}(1) (2g + n - 1) / n for n >= 2, so all nmax + 1 values
    cost O(nmax).  Exact when gamma is a Fraction; empty for nmax < 0.  The
    product runs in sequence, val * (2g + j) / (j + 1), which fixes the
    bits of a float gamma.
    """
    g = as_gegenbauer(idx).gamma
    val = g * 0 + 1
    out = [val] * min(nmax + 1, 2)
    g2 = 2 * g
    for j in range(1, nmax):
        val = val * (g2 + j) / (j + 1)
        out.append(val)
    return out


def gegenbauer_at_one(n: int, idx):
    """Endpoint value G_n(1) = prod_{j=1}^{n-1} (2g + j) / n!.

    Exact when gamma is a Fraction.  Equals 1 for n in {0, 1} and 1/n in the
    Chebyshev limit g = 0.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    return gegenbauer_at_one_upto(n, idx)[n]


def gegenbauer_norms(degrees, idx) -> np.ndarray:
    """Weighted L2 norms h_n = int_{-1}^{1} (1-x^2)^{g-1/2} G_n(x)^2 dx of
    the given degrees.

    n = 0 is special because G_0 = 1 rather than following the n >= 1
    normalization; there h_0 is the total mass of the weight.  Uses lgamma
    so large n and g stay in range (OverflowError past the float range).
    Each h_n is one scalar expression, so its bits do not depend on the
    other degrees.  Its log is a sum of lgamma terms that cancel, so h_n is
    off by about 2^-53 times the sum of their magnitudes (within a factor of
    2 of mpmath up to gamma 1e14).  Where that sum passes 2^27, from gamma
    2.34e6 on at n >= 1, h_n may have lost half its bits, and OverflowError
    is raised too.
    """
    g = float(as_gegenbauer(idx).gamma)
    head = math.log(math.pi) - (1.0 + 2.0 * g) * math.log(2.0)
    tail = 2.0 * math.lgamma(g + 1.0)
    out = []
    for n in map(int, degrees):
        if n < 0:
            raise ValueError(f"degree must be nonnegative, got {n}")
        if n == 0:
            a, b = math.lgamma(g + 0.5), math.lgamma(g + 1.0)
            span = abs(a) + abs(b)
        else:
            a, b, c = math.lgamma(n + 2.0 * g), math.log(n + g), math.lgamma(n + 1.0)
            span = abs(head) + abs(a) + abs(b) + abs(c) + abs(tail)
        if span > 2.0**27:
            raise OverflowError(f"the lgamma terms of h_{n} at gamma = {g} are too large to keep half its bits")
        out.append(math.sqrt(math.pi) * math.exp(a - b) if n == 0 else math.exp(head + a - b - c - tail))
    return np.array(out, dtype=float)


def apply_derivative(coeffs, idx):
    """Differentiate a coefficient sequence (list, any scalar type).

    Input are coefficients of u = sum a_n G_n for n = 0..N; output the N
    coefficients of Du.  O(N) via parity suffix sums; exact for Fractions.
    """
    g = as_gegenbauer(idx).gamma
    N = len(coeffs) - 1
    if N < 0:
        raise ValueError("empty coefficient sequence")
    if N == 0:
        return []
    zero = coeffs[0] * 0 + g * 0
    suffix = [zero] * (N + 2)  # suffix[k] = sum of a_n, n > k, n opposite parity
    for k in range(N - 1, -1, -1):
        suffix[k] = coeffs[k + 1] + suffix[k + 2]
    out = [zero] * N
    out[0] = suffix[0] * 1
    for k in range(1, N):
        out[k] = (2 * (k + g)) * suffix[k]
    return out


def _second_derivative_rows(start: int, stop: int, cols: int, g: float, ip: int) -> np.ndarray:
    """Rows start..stop-1 of the dense parity block of the second-derivative
    connection, in O((stop - start) cols).

    Entry [k, l] is the G_{2k+ip} coefficient of D^2 G_{2l+ip} with ip = 0
    (even) or 1 (odd); the block is strictly upper triangular.  A row tile
    takes the float operations of the whole block, so it has its bits.
    """
    # cumulative weights of the intermediate (opposite-parity) levels:
    # even block: intermediates 2i+1, i = k..l-1; odd block: 2i+2, i = k..l-1
    inter = 2.0 * (2.0 * np.arange(max(stop, cols)) + (1 + ip) + g)
    csum = np.concatenate(([0.0], np.cumsum(inter)))  # csum[i] = sum of first i
    roww = 2.0 * (2.0 * np.arange(start, stop) + ip + g)
    if ip == 0 and start == 0 < stop:
        roww[0] = 1.0
    block = csum[:cols] - csum[start:stop, None]
    block *= roww[:, None]
    for i in range(stop - start):
        block[i, : start + i + 1] = 0.0
    return block


def _mult_x_bands(nmax: int, g: float):
    """Sub/super bands of multiplication by x: x G_n = up[n] G_{n+1} + down[n] G_{n-1}."""
    n = np.arange(nmax + 1, dtype=float)
    up = np.empty(nmax + 1)
    down = np.empty(nmax + 1)
    up[0] = 1.0
    down[0] = np.nan  # unused, G_{-1} does not exist
    if nmax >= 1:
        up[1] = 1.0 / (g + 1.0)
        down[1] = 0.5 / (g + 1.0)
    if nmax >= 2:
        up[2:] = (n[2:] + 1.0) / (2.0 * (n[2:] + g))
        down[2:] = (n[2:] - 1.0 + 2.0 * g) / (2.0 * (n[2:] + g))
    return up, down


def _one_minus_x2_bands(cols: int, g: float, ip: int) -> np.ndarray:
    """The parity block S of multiplication by (1 - x^2), columns 0..cols-1.

    S[j, l] is the G_{2j+ip} coefficient of (1 - x^2) G_{2l+ip}; S is
    tridiagonal in the parity index (pentadiagonal in degree).  Its nonzero
    entries come in scipy.linalg.solve_banded's (1, 1) layout: row 0 holds
    S[l - 1, l] (0 at l = 0), row 1 S[l, l] and row 2 S[l + 1, l].
    """
    up, down = _mult_x_bands(2 * cols + ip + 2, g)
    n = 2 * np.arange(cols) + ip
    ab = np.zeros((3, cols))
    ab[1] = 1.0 - down[n + 1] * up[n]
    inner = n >= 1
    ab[1, inner] -= up[n[inner] - 1] * down[n[inner]]
    ab[2] = -up[n + 1] * up[n]
    ab[0, 1:] = -down[n[1:] - 1] * down[n[1:]]
    return ab


def _binom_prod(top, k: int):
    """binom(top, k) as a product, exact for Fraction tops."""
    val = top * 0 + 1
    for j in range(1, k + 1):
        val = val * (top - k + j) / j
    return val


def jacobi_derivs_at_one(n: int, idx) -> list:
    """Endpoint derivatives [D^k P_n^(alpha,beta)(1) for k = 0..n].

    D^k P_n is 2^{-k} prod_{j=1}^{k} (n + alpha + beta + j) times the degree
    n-k Jacobi polynomial with both exponents raised by k, so its endpoint
    value is that prefactor times binom(n + alpha, n - k).  Consecutive
    values differ by the factor (n - k)(n + alpha + beta + k + 1) /
    (2 (alpha + k + 1)), so all n + 1 of them cost O(n) from
    D^0 = binom(n + alpha, n).  Exact when the exponents are Fractions.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    jdx = as_jacobi(idx)
    a, b = jdx.alpha, jdx.beta
    val = _binom_prod(a + n, n)
    out = [val]
    for k in range(n):
        val = val * (n - k) * (n + a + b + k + 1) / (2 * (a + k + 1))
        out.append(val)
    return out

