"""Characteristic polynomials of the Tau-discretized second derivative.

Everything here is a polynomial in mu = 1/lambda.  The parity-separated
sequences p_m (even modes) and q_m (odd modes) are generated by a three-term
recurrence whose extra constant K_n encodes the boundary rows; they can also
be formed directly by differentiating the top basis function repeatedly,
which is what charpoly_direct does and what the recurrence is tested against.

With a fractions.Fraction family parameter every routine below runs in exact
rational arithmetic, which is the intended oracle mode for moderate degrees
(the coefficients grow factorially, so keep m at a few dozen at most).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .orthopoly import (
    Parity,
    as_gegenbauer,
    as_jacobi,
    as_parity,
    apply_derivative,
    gegenbauer_at_one,
    gegenbauer_at_one_upto,
    jacobi_deriv_at_one,
)

__all__ = [
    "MuPolynomial",
    "poly_roots",
    "k_constant",
    "k_constants",
    "charpoly_sequence",
    "charpoly_direct",
    "omega_poly",
    "jacobi_char_poly",
    "mixed_char_poly",
]


@dataclass(frozen=True)
class MuPolynomial:
    """Dense polynomial with coefficients in ascending powers of mu.

    Trailing zero coefficients are trimmed on construction so the leading
    coefficient is nonzero (the zero polynomial is stored as a single 0).
    Coefficients may be floats or Fractions; mixed arithmetic follows the
    usual Python promotion rules.
    """

    coeffs: tuple

    def __init__(self, coeffs):
        cs = list(coeffs)
        if not cs:
            raise ValueError("a polynomial needs at least one coefficient")
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, mu):
        acc = self.coeffs[-1] + mu * 0
        for c in self.coeffs[-2::-1]:
            acc = acc * mu + c
        return acc

    def __add__(self, other):
        if not isinstance(other, MuPolynomial):
            cs = list(self.coeffs)
            cs[0] = cs[0] + other
            return MuPolynomial(cs)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for k, c in enumerate(b):
            cs[k] = cs[k] + c
        return MuPolynomial(cs)

    __radd__ = __add__

    def __neg__(self):
        return MuPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, MuPolynomial) else -1 * other)

    def __mul__(self, other):
        if not isinstance(other, MuPolynomial):
            return MuPolynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i in range(len(self.coeffs) - 1, -1, -1):
            for j, bj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + self.coeffs[i] * bj
        return MuPolynomial(out)

    __rmul__ = __mul__

    def shifted(self, k: int = 1) -> "MuPolynomial":
        """Multiply by mu^k."""
        if self.is_zero():
            return self
        zero = self.coeffs[0] * 0
        return MuPolynomial([zero] * k + list(self.coeffs))

    def to_float(self) -> "MuPolynomial":
        return MuPolynomial([float(c) for c in self.coeffs])

    def to_json_obj(self) -> list:
        """Ascending coefficient array; Fractions serialize as 'p/q' strings."""
        out = []
        for c in self.coeffs:
            out.append(str(c) if isinstance(c, Fraction) else float(c))
        return out


def poly_roots(p) -> np.ndarray:
    """All roots of p via the companion matrix, sorted by (real, imag).

    When the roots cluster inside the unit disk (geometric mean below one,
    read off the coefficient ends) the companion of the reversed polynomial
    is much better conditioned, so the roots are computed there and
    inverted.  Exact zero roots are stripped first.
    """
    if not isinstance(p, MuPolynomial):
        p = MuPolynomial(p)
    if p.is_zero():
        raise ValueError("the zero polynomial has no well-defined roots")
    if p.degree == 0:
        return np.array([], dtype=complex)
    asc = np.array([float(c) for c in p.coeffs], dtype=float)
    nzero = 0
    while asc[nzero] == 0.0:
        nzero += 1
    core = asc[nzero:]
    if core.size > 1:
        gmean = (abs(core[0]) / abs(core[-1])) ** (1.0 / (core.size - 1))
        if gmean < 1.0:
            roots = (1.0 / np.roots(core)).astype(complex)
        else:
            roots = np.roots(core[::-1]).astype(complex)
    else:
        roots = np.array([], dtype=complex)
    if nzero:
        roots = np.concatenate([roots, np.zeros(nzero, dtype=complex)])
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def k_constants(degrees, idx) -> list:
    """Boundary constants K_n of the first matrix row (closed forms).

    Returns K_n for each n in degrees.  n = 0, 1, 2 have their own
    expressions; n >= 3 uses the product form built on the endpoint value of
    the degree n-2 basis function, and all degrees share one running product
    of those values, so the cost is O(max(degrees)).  Exact for Fraction
    family parameters.  Vanishes for n >= 3 at gamma in {1/2, 3/2}.
    """
    degrees = list(degrees)
    if degrees and min(degrees) < 0:
        raise ValueError(f"K_n is defined for n >= 0, got {min(degrees)}")
    g = as_gegenbauer(idx).gamma
    at1 = gegenbauer_at_one_upto(max(degrees, default=0) - 2, idx)
    out = []
    for n in degrees:
        if n == 0:
            out.append((2 * g + 1) / (4 * (g + 1)))
        elif n == 1:
            out.append((2 * g + 1) / (12 * (g + 2)))
        elif n == 2:
            out.append(((2 * g + 1) * (2 * g * g + g - 7)) / (48 * (g + 1) * (g + 2)))
        else:
            out.append(((2 * g - 1) * (2 * g - 3)) * at1[n - 2] / (n * (n * n - 1) * (n + 2)))
    return out


def k_constant(n: int, idx):
    """Boundary constant K_n of the first matrix row; see k_constants."""
    return k_constants([n], idx)[0]


def charpoly_sequence(m_max: int, idx, parity) -> list:
    """Characteristic polynomials of the first m_max+1 truncations.

    Returns [p_0, ..., p_m_max] for the requested parity class; p_m has
    degree m and its roots are the mu values (reciprocal eigenvalues) of the
    m-mode truncation.  Generated by the boundary-augmented three-term
    recurrence; exact when gamma is a Fraction.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    g = as_gegenbauer(idx).gamma
    par = as_parity(parity)
    ip = par.offset
    one = g * 0 + 1
    polys = [MuPolynomial([one])]
    if m_max == 0:
        return polys
    if par is Parity.EVEN:
        polys.append(MuPolynomial([gegenbauer_at_one(2, idx), 2 * (g + 1)]))
    else:
        polys.append(MuPolynomial([gegenbauer_at_one(3, idx), 4 * (g + 1) * (g + 2)]))
    ks = k_constants([2 * j + ip for j in range(1, m_max)], idx)
    for j in range(1, m_max):
        n = 2 * j + ip
        scale = 4 * (g + n + 1) * (g + n)
        mid = 1 / (2 * (g + n + 1) * (g + n - 1))
        acc = polys[j].shifted() + polys[j] * mid + MuPolynomial([ks[j - 1]])
        if not (par is Parity.EVEN and j == 1):
            # the even j = 1 step folds the p_0 coupling into K_2 already
            acc = acc - polys[j - 1] * (1 / (4 * (g + n) * (g + n - 1)))
        polys.append(acc * scale)
    return polys


def charpoly_direct(n: int, idx) -> MuPolynomial:
    """Characteristic polynomial assembled from repeated differentiation.

    Coefficient k is the endpoint value of the 2k-th derivative of the
    degree-n basis function, computed by applying the derivative connection
    twice per step to a unit coefficient vector.  Slower than the recurrence
    but independent of it; exact with Fraction gamma.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    g = as_gegenbauer(idx).gamma
    zero = g * 0
    at1 = gegenbauer_at_one_upto(n, idx)
    vec = [zero] * n + [zero + 1]
    coeffs = [at1[n] * 1]
    for _ in range(n // 2):
        vec = apply_derivative(apply_derivative(vec, idx), idx)
        coeffs.append(sum((v * a for v, a in zip(vec, at1)), zero))
    return MuPolynomial(coeffs)


def omega_poly(n: int, idx) -> MuPolynomial:
    """Even-order endpoint derivative generating polynomial for Jacobi.

    Coefficient k is the value of the 2k-th derivative of P_n^(alpha,beta)
    at x = 1; degree floor(n/2).
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    jdx = as_jacobi(idx)
    return MuPolynomial([jacobi_deriv_at_one(n, jdx, 2 * k) for k in range(n // 2 + 1)])


def jacobi_char_poly(n: int, idx) -> MuPolynomial:
    """Degree n-1 characteristic polynomial of the Jacobi Dirichlet problem.

    Symmetrized product of the even-order endpoint polynomials at (alpha,
    beta) and (beta, alpha); its roots are the reciprocal eigenvalues.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    jdx = as_jacobi(idx)
    swp = jdx.swapped()
    return omega_poly(n, jdx) * omega_poly(n - 1, swp) + omega_poly(n, swp) * omega_poly(n - 1, jdx)


def mixed_char_poly(n: int, idx) -> MuPolynomial:
    """Characteristic polynomial for one Dirichlet end and one Neumann end.

    Built from the swapped-exponent endpoint polynomials together with the
    raised-exponent family that represents first derivatives.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    jdx = as_jacobi(idx)
    a, b = jdx.alpha, jdx.beta
    swp = jdx.swapped()
    up = jdx.raised()
    k_prev = (n + a + b) / 2  # (n-1) + a + b + 1
    k_cur = (n + a + b + 1) / 2
    return omega_poly(n, swp) * omega_poly(n - 2, up) * k_prev + omega_poly(n - 1, swp) * omega_poly(n - 1, up) * k_cur
