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
    "gegenbauer_norm",
    "gegenbauer_norms",
    "apply_derivative",
    "second_derivative_block",
    "one_minus_x2_block",
    "jacobi_eval",
    "jacobi_at_one",
    "jacobi_deriv_at_one",
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

    def swapped(self) -> "JacobiIndex":
        return JacobiIndex(self.beta, self.alpha)

    def raised(self, k: int = 1) -> "JacobiIndex":
        """Both exponents raised by k (the k-th derivative family)."""
        return JacobiIndex(self.alpha + k, self.beta + k)


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
    cost O(nmax).  Exact when gamma is a Fraction; empty for nmax < 0.
    """
    g = as_gegenbauer(idx).gamma
    val = g * 0 + 1
    out = [val] * min(nmax + 1, 2)
    for j in range(1, nmax):
        val = val * (2 * g + j) / (j + 1)
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


def gegenbauer_norm(n: int, idx) -> float:
    """Weighted L2 norm h_n = int_{-1}^{1} (1-x^2)^{g-1/2} G_n(x)^2 dx.

    n = 0 is special because G_0 = 1 rather than following the n >= 1
    normalization; there h_0 is the total mass of the weight.
    Uses lgamma so large n and g stay in range.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    g = float(as_gegenbauer(idx).gamma)
    if n == 0:
        return math.sqrt(math.pi) * math.exp(math.lgamma(g + 0.5) - math.lgamma(g + 1.0))
    log_h = (
        math.log(math.pi)
        - (1.0 + 2.0 * g) * math.log(2.0)
        + math.lgamma(n + 2.0 * g)
        - math.log(n + g)
        - math.lgamma(n + 1.0)
        - 2.0 * math.lgamma(g + 1.0)
    )
    return math.exp(log_h)


def gegenbauer_norms(degrees, idx) -> np.ndarray:
    return np.array([gegenbauer_norm(int(n), idx) for n in degrees], dtype=float)


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


def second_derivative_block(rows: int, cols: int, idx, parity) -> np.ndarray:
    """Dense parity block of the second-derivative connection.

    Entry [k, l] is the G_{2k+ip} coefficient of D^2 G_{2l+ip} with
    ip = 0 (even) or 1 (odd).  Strictly upper triangular.  Equivalent to
    the parity rows and columns of the square of the full first-derivative
    connection matrix, but built in O(rows*cols).
    """
    g = float(as_gegenbauer(idx).gamma)
    ip = as_parity(parity).offset
    if rows < 0 or cols < 0:
        raise ValueError("block dimensions must be nonnegative")
    nmid = max(rows, cols)
    # cumulative weights of the intermediate (opposite-parity) levels:
    # even block: intermediates 2i+1, i = k..l-1; odd block: 2i+2, i = k..l-1
    inter = 2.0 * (2.0 * np.arange(nmid) + (1 + ip) + g)
    csum = np.concatenate(([0.0], np.cumsum(inter)))  # csum[i] = sum of first i
    roww = 2.0 * (2.0 * np.arange(rows) + ip + g)
    if ip == 0 and rows > 0:
        roww[0] = 1.0
    k = np.arange(rows)[:, None]
    l = np.arange(cols)[None, :]
    block = roww[:, None] * (csum[np.minimum(l, nmid)] - csum[np.minimum(k, nmid)])
    return np.where(l > k, block, 0.0)


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


def one_minus_x2_block(rows: int, cols: int, idx, parity) -> np.ndarray:
    """Dense parity block of multiplication by (1 - x^2).

    Entry [j, l] is the G_{2j+ip} coefficient of (1 - x^2) G_{2l+ip};
    tridiagonal in the parity index (pentadiagonal in degree).
    """
    g = float(as_gegenbauer(idx).gamma)
    ip = as_parity(parity).offset
    nmax = 2 * max(rows, cols) + ip + 2
    up, down = _mult_x_bands(nmax, g)
    S = np.zeros((rows, cols))
    for l in range(cols):
        n = 2 * l + ip
        diag = 1.0 - down[n + 1] * up[n]
        if n >= 1:
            diag -= up[n - 1] * down[n]
        if l < rows:
            S[l, l] = diag
        if l + 1 < rows:
            S[l + 1, l] = -up[n + 1] * up[n]
        if l >= 1 and l - 1 < rows:
            S[l - 1, l] = -down[n - 1] * down[n]
    return S


def _binom_prod(top, k: int):
    """binom(top, k) as a product, exact for Fraction tops."""
    val = top * 0 + 1
    for j in range(1, k + 1):
        val = val * (top - k + j) / j
    return val


def jacobi_eval(n: int, idx, x):
    """Evaluate the Jacobi polynomial P_n^(alpha,beta) by forward recurrence."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    jdx = as_jacobi(idx)
    a, b = jdx.alpha, jdx.beta
    one = x * 0 + 1
    if n == 0:
        return one
    prev = one
    cur = ((a - b) + (a + b + 2) * x) / 2
    for k in range(1, n):
        c1 = 2 * (k + 1) * (k + a + b + 1) * (2 * k + a + b)
        c2 = (2 * k + a + b + 1) * (a * a - b * b)
        c3 = (2 * k + a + b) * (2 * k + a + b + 1) * (2 * k + a + b + 2)
        c4 = 2 * (k + a) * (k + b) * (2 * k + a + b + 2)
        prev, cur = cur, ((c2 + c3 * x) * cur - c4 * prev) / c1
    return cur


def jacobi_at_one(n: int, idx):
    """P_n^(alpha,beta)(1) = binom(n + alpha, n)."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    return _binom_prod(as_jacobi(idx).alpha + n, n)


def jacobi_deriv_at_one(n: int, idx, k: int):
    """k-th derivative of P_n^(alpha,beta) at x = 1.

    D^k P_n is 2^{-k} prod_{j=1}^{k} (n + alpha + beta + j) times the degree
    n-k Jacobi polynomial with both exponents raised by k, so the endpoint
    value is that prefactor times binom(n + alpha, n - k).  Zero for k > n.
    """
    if k < 0:
        raise ValueError(f"derivative order must be nonnegative, got {k}")
    jdx = as_jacobi(idx)
    if k > n:
        return jdx.alpha * 0
    a, b = jdx.alpha, jdx.beta
    val = _binom_prod(a + n, n - k)
    for j in range(1, k + 1):
        val = val * (n + a + b + j) / 2
    return val
