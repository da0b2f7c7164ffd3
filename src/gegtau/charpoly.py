"""Characteristic polynomials of the Tau-discretized second derivative.

Everything here is a polynomial in mu = 1/lambda.  The parity-separated
sequences p_m (even modes) and q_m (odd modes) obey a three-term recurrence
whose extra constant K_n encodes the boundary rows.  Coefficient k of p_m is
also the endpoint value D^{2k} G_n(1) of the 2k-th derivative of the top
basis function, which charpoly_direct computes by repeated differentiation.

charpoly_sequence follows that endpoint-derivative closed form for every
family parameter: each coefficient is the one before times a small positive
ratio, so nothing cancels.  The first is G_n(1), which _endpoint_chain runs
along one parity chain, the one source of the K_n of k_constants too.  A
float gamma multiplies float ratios: each coefficient of p_j lies within
about 2.5 (j + 1) units of roundoff of the exact one, and past m of about 75
the largest overflow to inf.  A fractions.Fraction family parameter runs
every routine below in exact rational arithmetic, in reduced integer pairs
with no gcd between two large integers.  The paper's recurrence is the
cross-check in tests/oracles.py.  Roots are computed in floating point from
companion matrices (poly_roots, or poly_roots_batch for many at once).
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._stacks import jacobi_char_stacks, mixed_char_stacks, poly_roots_stacks
from .orthopoly import (
    Parity,
    as_gegenbauer,
    as_parity,
    apply_derivative,
    gegenbauer_at_one_upto,
)

__all__ = [
    "MuPolynomial",
    "poly_roots",
    "poly_roots_batch",
    "k_constant",
    "k_constants",
    "charpoly_sequence",
    "charpoly_direct",
    "jacobi_char_poly",
    "mixed_char_poly",
]


@dataclass(frozen=True)
class MuPolynomial:
    """Dense polynomial with coefficients in ascending powers of mu.

    Trailing zero coefficients are trimmed on construction so the leading
    coefficient is nonzero (the zero polynomial is stored as a single 0).
    Coefficients may be floats or Fractions.  A record, not an arithmetic
    type: the routines that build polynomials work on coefficient rows.
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
    inverted.  Exact zero roots are stripped first, and so are leading
    coefficients that are 0.0 in floating point.  The same as
    poly_roots_batch([p])[0].
    """
    return poly_roots_batch([p])[0]


def poly_roots_batch(polys) -> list:
    """poly_roots of every polynomial in polys (MuPolynomials or ascending
    coefficient sequences, rows of a 2-D array included).

    The float coefficients are grouped by degree into the stacks of one
    poly_roots_stacks call, so the roots are bitwise those of a call per
    polynomial while the per-call overhead is paid once per companion size.
    """
    rows = []
    for p in polys:
        if not isinstance(p, MuPolynomial):
            p = MuPolynomial(p)
        asc = [float(c) for c in p.coeffs]
        while len(asc) > 1 and asc[-1] == 0.0:
            asc.pop()
        if asc == [0.0]:
            raise ValueError("the zero polynomial has no well-defined roots")
        rows.append(asc)
    by_width = {}
    for i, asc in enumerate(rows):
        by_width.setdefault(len(asc), []).append(i)
    out = [None] * len(rows)
    stacks = poly_roots_stacks([[rows[i] for i in members] for members in by_width.values()])
    for members, roots in zip(by_width.values(), stacks):
        for i, r in zip(members, roots):
            out[i] = r
    return out


def k_constants(m: int, idx, parity) -> list:
    """Boundary constants K_n of the first matrix row for the column degrees
    n = 2j + ip, j < m, of build_gi2 (ip the parity offset).

    n <= 2 have closed forms of their own; n >= 3 is
    K_n = (2g - 1)(2g - 3) G_{n-2}(1) / (n (n^2 - 1)(n + 2)) with G_{n-2}(1)
    from _endpoint_chain, O(m) in all.  A float gamma gives the floats of
    _k_binary, inf past the float range; a Fraction gamma the exact K_n of
    _k_exact.  Vanishes for n >= 3 at gamma in {1/2, 3/2}.
    """
    g = as_gegenbauer(idx).gamma
    ip = as_parity(parity).offset
    if not isinstance(g, Fraction):
        with np.errstate(over="ignore"):  # inf past the float range, as in scalar arithmetic
            return np.ldexp(*_k_binary(m, g, ip)).tolist()
    low = [_k_low(k, g) for k in range(ip, min(2 * m + ip, 3), 2)]
    return low + [Fraction(_LowestTerms(next(_folded([(c, d)], a, b)))) for a, b, c, d in _k_exact(m, g, ip)]


def _k_exact(m: int, g: Fraction, ip: int):
    """The exact K_n, n >= 3, of k_constants for gamma = P/Q, one at a time,
    as (a, b, c, d) with K_n = a c / (b d): a / b the chain's reduced
    G_{n-2}(1), c / d = (2P - Q)(2P - 3Q) / (Q^2 n (n^2 - 1)(n + 2))."""
    P, Q = g.numerator, g.denominator
    head = (2 * P - Q) * (2 * P - 3 * Q)
    for n, (a, b) in zip(range(ip + 2, 2 * m + ip, 2), _endpoint_chain(g, max(m - 1, 0), ip)):
        if n >= 3:
            yield a, b, head, Q * Q * (n * (n * n - 1) * (n + 2))


def _k_binary(m: int, g, ip: int) -> tuple:
    """k_constants' K_n as arrays (mantissa, exponent) with |mantissa| in
    [1/2, 1) or 0, so no K_n leaves the float range: for a float gamma the
    float expression of K_n on the chain's mantissas (the same bits wherever
    K_n is finite), for a Fraction gamma each exact K_n rounded once."""
    low = [float(_k_low(k, g)) for k in range(ip, min(2 * m + ip, 3), 2)]
    vals, exp = np.empty(m), np.zeros(m, dtype=int)
    if isinstance(g, Fraction):  # int / int rounds once; the shift by bit lengths keeps it in range
        for j, (a, b, c, d) in enumerate(_k_exact(m, g, ip), len(low)):
            num, den = a * c, b * d
            exp[j] = e = abs(num).bit_length() - den.bit_length()
            vals[j] = num / (den << e) if e > 0 else (num << -e) / den
    else:
        n = 2 * np.arange(1, m) + ip  # n >= 2; K_2 is overwritten below
        vals[1:], exp[1:] = _endpoint_chain(g, max(m - 1, 0), ip)  # G_{n-2}(1)
        exact_n = n if 2 * m < 55000 else n.astype(object)  # so that n^4 is exact: below 2^63, or ints
        head, den = (2 * g - 1) * (2 * g - 3), (exact_n * (n * n - 1) * (n + 2)).astype(float)
        with np.errstate(over="ignore", invalid="ignore"):  # the head is inf past gamma ~1e154
            vals[1:] = head * vals[1:] / den
    vals[: len(low)], exp[: len(low)] = low, 0
    mant, up = np.frexp(vals)
    return mant, exp + up


def _k_low(n: int, g):
    """K_0, K_1 and K_2, which have closed forms of their own."""
    if n == 0:
        return (2 * g + 1) / (4 * (g + 1))
    if n == 1:
        return (2 * g + 1) / (12 * (g + 2))
    return ((2 * g + 1) * (2 * g * g + g - 7)) / (48 * (g + 1) * (g + 2))


def k_constant(n: int, idx):
    """Boundary constant K_n of the first matrix row; see k_constants."""
    if n < 0:
        raise ValueError(f"K_n is defined for n >= 0, got {n}")
    return k_constants(n // 2 + 1, idx, (Parity.EVEN, Parity.ODD)[n % 2])[-1]


def charpoly_sequence(m_max: int, idx, parity) -> list:
    """Characteristic polynomials of the first m_max+1 truncations.

    Returns [p_0, ..., p_m_max] for the requested parity class; p_m has
    degree m and its roots are the mu values (reciprocal eigenvalues) of the
    m-mode truncation.  Every gamma follows the endpoint-derivative closed
    form of _closed_form_factors.  A float gamma takes each coefficient as a
    running product of float ratios.  A Fraction gamma takes it in reduced
    integer pairs; the polynomials' coeffs are the reduced Fractions, built
    on first use.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    g = as_gegenbauer(idx).gamma
    par = as_parity(parity)
    if isinstance(g, Fraction):
        return _charpoly_sequence_exact(m_max, g, par)
    return _charpoly_sequence_float(m_max, float(g), par)


def _closed_form_factors(P, Q, m_max: int, ip: int) -> tuple:
    """The factors of the closed form for gamma = P/Q and parity offset ip.

    Coefficient k of p_j is D^{2k} G_n(1), n = 2j + ip (what charpoly_direct
    computes).  p_j starts from G_n(1), which is G_{n-2}(1) times
    (2g + n - 2)(2g + n - 1) / (n (n - 1)), and steps from k to k + 1 by
    (n - 2k)(n - 2k - 1)(2g + n + 2k)(2g + n + 2k + 1) / ((2g + 4k + 1)(2g + 4k + 3)).
    With u_t = Q (2g + t) = 2P + tQ and u_0 = Q (so that G_2(1) = (2g + 1) / 2),
    w_t = u_t u_{t+1}, f_t = t (t - 1) and low_k = u_{4k+1} u_{4k+3}, the head
    ratio is w_{n-2} / (f_n Q^2) and step k is f_{n-2k} w_{n+2k} / low_k, in
    which Q^2 cancels.  Every factor is positive for gamma > -1/2.  Returns
    the arrays w, f and low, of Python integers for integers P and Q; for a
    float P, w and low are inf from gamma ~1e154 on.
    """
    t = np.arange(4 * m_max + ip + 1, dtype=None if isinstance(P, float) else object)
    u = 2 * P + t * Q
    u[0] = Q
    with np.errstate(over="ignore"):
        w = u[:-1] * u[1:]
        low = u[1 : 4 * m_max : 4] * u[3 : 4 * m_max + 2 : 4]
    return w, t * (t - 1), low


def _endpoint_chain(g, count: int, ip: int):
    """G_n(1) for the count degrees n = ip, ip + 2, ... of one parity chain,
    from G_ip(1) = 1 by the head ratios w_{n-2} / (f_n Q^2) of
    _closed_form_factors: for a float gamma the arrays (mantissa, exponent)
    of _binary_cumprod of the ratios at (P, Q) = (g, 1), for a Fraction
    gamma = P/Q reduced integer pairs (num, den) one at a time (_folded), so
    a caller holds only what it keeps."""
    exact = isinstance(g, Fraction)
    P, Q = (g.numerator, g.denominator) if exact else (float(g), 1)
    w, f, _ = _closed_form_factors(P, Q, max(count - 1, 0), ip)
    n = np.arange(ip + 2, ip + 2 * count, 2)
    if exact:
        return _folded([(1, 1), *zip(w[n - 2], f[n] * Q * Q)][:count])
    ratios = np.ones(count)
    ratios[1:] = w[n - 2] / f[n]
    return _binary_cumprod(ratios)


def _binary_cumprod(ratios: np.ndarray) -> tuple:
    """np.cumprod(ratios) of positive ratios as arrays (mantissa, exponent),
    the mantissa in [1/2, 1): one np.cumprod per block, each started from the
    np.frexp mantissa of the value before it and short enough (by the
    ratios' exponents) to move by at most 1000 binades, so its products stay
    normal.  Powers of two rescale exactly, so the mantissas are the plain
    product's wherever that is a normal float."""
    e = np.frexp(ratios)[1]  # a ratio in [2**(e - 1), 2**e) moves a product by at most max(e, 1 - e) binades
    moved = np.cumsum(np.maximum(e, 1 - e))
    vals, shift = ratios.copy(), np.zeros(ratios.size, dtype=int)
    start, mant, exp = 0, 1.0, 0
    while start < ratios.size:
        stop = max(np.searchsorted(moved, (moved[start - 1] if start else 0) + 1000, "right"), start + 1)
        vals[start] *= mant
        np.cumprod(vals[start:stop], out=vals[start:stop])
        shift[start:stop] = exp
        mant, up = math.frexp(vals[stop - 1])
        exp += up
        start = stop
    mant, up = np.frexp(vals)
    return mant, up + shift


def _folded(ratios, num: int = 1, den: int = 1):
    """The running products num/den * a_1/b_1 * a_2/b_2 ... of integer
    ratios (b_i > 0) as reduced pairs: each ratio is reduced by one small gcd
    and cancelled crosswise as Fraction.__mul__ does, so no gcd is taken
    between two large integers."""
    for a, b in ratios:
        c = math.gcd(a, b)
        a, b = a // c, b // c
        g1, g2 = math.gcd(num, b), math.gcd(a, den)
        num, den = (num // g1) * (a // g2), (den // g2) * (b // g1)
        yield num, den


def _charpoly_sequence_float(m_max: int, g: float, par: Parity) -> list:
    """charpoly_sequence for a float gamma, the closed form at (P, Q) = (g, 1).

    Row j of a lower-triangular table holds G_n(1) (_endpoint_chain) and the
    j step ratios of p_j; one cumulative product along the row gives p_j's
    coefficients, so a value overflows to inf only where its coefficient
    does, and each lies within a few (j + 1) units of roundoff of the exact
    one.  A step ratio inf / inf (gamma past ~1e154) is taken as inf.
    """
    ip = par.offset
    w, f, low = _closed_form_factors(g, 1, m_max, ip)
    n = 2 * np.arange(m_max + 1) + ip
    table = np.ones((m_max + 1, m_max + 1))
    j, k = np.tril_indices(m_max + 1, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # past m ~ 75 the largest coefficients overflow
        table[:, 0] = np.ldexp(*_endpoint_chain(g, m_max + 1, ip))
        table[j, k + 1] = f[n[j] - 2 * k] * w[n[j] + 2 * k] / low[k]
        table[np.isnan(table)] = np.inf
        coeffs = np.cumprod(table, axis=1)
    return [MuPolynomial(row[: i + 1].tolist()) for i, row in enumerate(coeffs)]


def _charpoly_sequence_exact(m_max: int, g: Fraction, par: Parity) -> list:
    """charpoly_sequence for gamma = P/Q in reduced integer pairs: p_j
    starts from _endpoint_chain's G_n(1), and _folded takes it through the
    step ratios of _closed_form_factors."""
    ip = par.offset
    w, f, low = (a.tolist() for a in _closed_form_factors(g.numerator, g.denominator, m_max, ip))
    seq = []
    for j, head in enumerate(_endpoint_chain(g, m_max + 1, ip)):
        n = 2 * j + ip
        steps = zip(map(operator.mul, f[n:ip:-2], w[n : n + 2 * j : 2]), low)
        seq.append(_ExactPolynomial([head, *_folded(steps, *head)]))
    return seq


class _ExactPolynomial(MuPolynomial):
    """Exact coefficients held as reduced integer pairs (denominator > 0).

    coeffs builds the Fractions on first use; to_float and to_json_obj read
    the pairs (n / d is float() of the Fraction), so output builds none.
    """

    def __init__(self, pairs):
        object.__setattr__(self, "pairs", tuple(pairs))

    @functools.cached_property
    def coeffs(self) -> tuple:
        return tuple(Fraction(_LowestTerms(p)) for p in self.pairs)

    def to_float(self) -> MuPolynomial:
        return MuPolynomial([n / d for n, d in self.pairs])

    def to_json_obj(self) -> list:
        return [f"{n}/{d}" if d != 1 else str(n) for n, d in self.pairs]


class _LowestTerms(tuple):
    """A (numerator, denominator) pair in lowest terms with a positive
    denominator, as numbers.Rational promises: Fraction(r) of a Rational r
    takes the pair over without the gcd of Fraction(n, d)."""

    __slots__ = ()
    numerator = property(operator.itemgetter(0))
    denominator = property(operator.itemgetter(1))


numbers.Rational.register(_LowestTerms)


def charpoly_direct(n: int, idx) -> MuPolynomial:
    """Characteristic polynomial assembled from repeated differentiation.

    Coefficient k is the endpoint value of the 2k-th derivative of the
    degree-n basis function, computed by applying the derivative connection
    twice per step to a unit coefficient vector.  Slower than
    charpoly_sequence but independent of it; exact with Fraction gamma.
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


def jacobi_char_poly(n: int, idx) -> MuPolynomial:
    """Degree n-1 characteristic polynomial of the Jacobi Dirichlet problem.

    Symmetrized product of the even-order endpoint polynomials at (alpha,
    beta) and (beta, alpha); its roots are the reciprocal eigenvalues.
    Exact for Fraction exponents.  The one-member case of
    jacobi_char_stacks.
    """
    return MuPolynomial(jacobi_char_stacks([n], [idx])[0][0].tolist())


def mixed_char_poly(n: int, idx) -> MuPolynomial:
    """Characteristic polynomial for one Dirichlet end and one Neumann end.

    Built from the swapped-exponent endpoint polynomials together with the
    raised-exponent family that represents first derivatives.  The
    one-member case of mixed_char_stacks.
    """
    return MuPolynomial(mixed_char_stacks([n], [idx])[0][0].tolist())


