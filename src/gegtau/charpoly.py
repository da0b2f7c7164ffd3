"""Characteristic polynomials of the Tau-discretized second derivative.

Everything here is a polynomial in mu = 1/lambda.  The parity-separated
sequences p_m (even modes) and q_m (odd modes) are generated by a three-term
recurrence whose extra constant K_n encodes the boundary rows; they can also
be formed directly by differentiating the top basis function repeatedly,
which is what charpoly_direct does and what the recurrence is tested against.

charpoly_sequence has two routes.  A float family parameter runs the
recurrence on numpy coefficient rows, one array operation per step.  With a
fractions.Fraction family parameter every routine below runs in exact
rational arithmetic, and charpoly_sequence follows the closed form instead:
coefficient k of p_j is the endpoint value D^{2k} G_n(1), and each step from
one coefficient to the next multiplies by a small rational, so the
coefficients come out as reduced integer pairs without a gcd between two
large integers, and output that needs no Fraction builds none.  The
coefficients grow factorially, so their digits, and with them the cost per
operation, grow with m.  Both routes are checked against the one-polynomial
recurrence of tests/oracles.py, the float one bit for bit.  Roots are
computed in floating point from companion matrices (poly_roots, or
poly_roots_batch for many polynomials at once).
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
    gegenbauer_at_one,
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


def k_constants(degrees, idx, as_float: bool = False) -> list:
    """Boundary constants K_n of the first matrix row (closed forms).

    Returns K_n for each n in degrees.  n = 0, 1, 2 have their own
    expressions; n >= 3 uses the product form
    K_n = (2g - 1)(2g - 3) G_{n-2}(1) / (n (n^2 - 1)(n + 2)), and all
    degrees share one running product of the endpoint values, so the cost
    is O(max(degrees)).  A float gamma forms every K_n, n >= 3, in one array
    expression on gegenbauer_at_one_upto's values, its integer denominator
    exact before its one rounding to float.  Exact for Fraction family
    parameters: gamma = P/Q runs the product on integer numerators and
    denominators, G_m(1) = prod_{j=1}^{m-1} (2P + jQ) / (Q^{m-1} m!), forms
    each K_n when the product reaches its degree, so only one numerator and
    denominator of it are held, and reduces once per returned K_n.
    Vanishes for n >= 3 at gamma in {1/2, 3/2}.

    as_float=True returns floats.  For a Fraction gamma each K_n with
    n >= 3 is then the correctly rounded quotient of its unreduced integer
    numerator and denominator, which is float() of the reduced Fraction
    without the gcd that reduces it: build_gi2 at m = 4000 and gamma = 12/7
    takes 0.32 s this way, against 24 s through reduced Fractions.  That
    quotient raises OverflowError past the float range; a float gamma gives
    inf there instead.
    """
    ns = np.asarray(degrees if isinstance(degrees, np.ndarray) else list(degrees), dtype=np.int64)
    if ns.size and ns.min() < 0:
        raise ValueError(f"K_n is defined for n >= 0, got {ns.min()}")
    g = as_gegenbauer(idx).gamma
    high = ns >= 3
    if not isinstance(g, Fraction):
        top = int(ns.max(initial=3))
        at1 = np.array(gegenbauer_at_one_upto(top - 2, idx))
        n = np.maximum(ns, 3)  # n <= 2 are overwritten below
        exact_n = n if top < 55000 else n.astype(object)  # so that n^4 is exact: below 2^63, or ints
        with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range, as in scalar arithmetic
            out = ((2 * g - 1) * (2 * g - 3)) * at1[n - 2] / (exact_n * (n * n - 1) * (n + 2)).astype(float)
        for i in np.flatnonzero(~high).tolist():
            out[i] = _k_low(ns[i], g)
        return out.tolist()
    P, Q = g.numerator, g.denominator
    head = (2 * P - Q) * (2 * P - 3 * Q)
    ks, num, den, i = {}, 1, 1, 1  # num / den = G_i(1)
    for n in sorted(set(ns[high].tolist())):
        while i < n - 2:
            num, den, i = num * (2 * P + i * Q), den * Q * (i + 1), i + 1
        kn, kd = head * num, Q * Q * den * (n * (n * n - 1) * (n + 2))
        ks[n] = kn / kd if as_float else Fraction(kn, kd)
    out = [ks[n] if n >= 3 else _k_low(n, g) for n in ns.tolist()]
    return [float(k) for k in out] if as_float else out


def _k_low(n: int, g):
    """K_0, K_1 and K_2, which have closed forms of their own."""
    if n == 0:
        return (2 * g + 1) / (4 * (g + 1))
    if n == 1:
        return (2 * g + 1) / (12 * (g + 2))
    return ((2 * g + 1) * (2 * g * g + g - 7)) / (48 * (g + 1) * (g + 2))


def k_constant(n: int, idx):
    """Boundary constant K_n of the first matrix row; see k_constants."""
    return k_constants([n], idx)[0]


def charpoly_sequence(m_max: int, idx, parity) -> list:
    """Characteristic polynomials of the first m_max+1 truncations.

    Returns [p_0, ..., p_m_max] for the requested parity class; p_m has
    degree m and its roots are the mu values (reciprocal eigenvalues) of the
    m-mode truncation.  A float gamma runs the boundary-augmented three-term
    recurrence on float coefficient rows.  A Fraction gamma follows the
    endpoint-derivative closed form, each coefficient the previous one times
    a small rational, in reduced integer pairs; the polynomials' coeffs are
    the reduced Fractions, built on first use.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative, got {m_max}")
    g = as_gegenbauer(idx).gamma
    par = as_parity(parity)
    if isinstance(g, Fraction):
        return _charpoly_sequence_exact(m_max, g, par)
    return _charpoly_sequence_float(m_max, idx, par)


def _charpoly_seed(idx, par: Parity) -> list:
    """Coefficients of p_1, the first step of the recurrence."""
    g = as_gegenbauer(idx).gamma
    if par is Parity.EVEN:
        return [gegenbauer_at_one(2, idx), 2 * (g + 1)]
    return [gegenbauer_at_one(3, idx), 4 * (g + 1) * (g + 2)]


def _charpoly_sequence_float(m_max: int, idx, par: Parity) -> list:
    """charpoly_sequence for a float gamma, on numpy coefficient rows.

    Every coefficient takes the float operations of the recurrence in the
    same order as the coefficient-list arithmetic of
    tests/oracles.charpoly_sequence_one_by_one,
    p_{j+1} = (((mu p_j + mid p_j) + K_n) + (-(f p_{j-1}))) * scale, so each
    finite coefficient is bitwise that route's.
    """
    g = as_gegenbauer(idx).gamma
    ip = par.offset
    rows = [np.ones(1), np.array(_charpoly_seed(idx, par), dtype=float)][: m_max + 1]
    ks = k_constants([2 * j + ip for j in range(1, m_max)], idx)
    with np.errstate(over="ignore", invalid="ignore"):  # past m ~ 80 the coefficients overflow
        for j in range(1, m_max):
            n = 2 * j + ip
            cur = rows[j]
            acc = np.concatenate((cur[:1] * 0, cur))  # mu p_j; the zero keeps p_j[0]'s sign
            acc[:-1] += cur * (1 / (2 * (g + n + 1) * (g + n - 1)))
            acc[0] += ks[j - 1]
            if not (par is Parity.EVEN and j == 1):
                # the even j = 1 step folds the p_0 coupling into K_2 already
                acc[:j] += -(rows[j - 1] * (1 / (4 * (g + n) * (g + n - 1))))
            rows.append(acc * (4 * (g + n + 1) * (g + n)))
    return [MuPolynomial(row.tolist()) for row in rows]


def _charpoly_sequence_exact(m_max: int, g: Fraction, par: Parity) -> list:
    """charpoly_sequence for gamma = P/Q from the endpoint-derivative closed form.

    Coefficient k of p_j is D^{2k} G_n(1), n = 2j + offset (what
    charpoly_direct computes).  p_j starts from G_n(1), which is G_{n-2}(1)
    times (2g + n - 2)(2g + n - 1) / (n (n - 1)), and steps from k to k + 1 by
    (n - 2k)(n - 2k - 1)(2g + n + 2k)(2g + n + 2k + 1) / ((2g + 4k + 1)(2g + 4k + 3)).
    With u_t = Q (2g + t) = 2P + tQ the Q^2 cancels; every factor is positive
    for gamma > -1/2.  Each ratio, reduced by one small gcd, is folded into
    the running reduced pair and cancelled crosswise as Fraction.__mul__
    does, so no gcd is taken between two large integers.
    """
    P, Q = g.numerator, g.denominator
    ip = par.offset
    u = [Q] + [2 * P + t * Q for t in range(1, 4 * m_max + ip + 1)]  # u_0 = Q: G_2(1) = (2g + 1) / 2
    w = list(map(operator.mul, u, u[1:]))  # w_t = u_t u_{t+1}
    f = [t * (t - 1) for t in range(2 * m_max + ip + 1)]  # (n - 2k)(n - 2k - 1) at t = n - 2k
    low = [u[4 * k + 1] * u[4 * k + 3] for k in range(m_max)]
    seq, head = [], (1, 1)  # G_{n-2}(1), then G_n(1)
    for j in range(m_max + 1):
        n = 2 * j + ip
        steps = [(w[n - 2], f[n] * Q * Q) if n >= 2 else (1, 1)]
        steps += zip(map(operator.mul, f[n:ip:-2], w[n : n + 2 * j : 2]), low)
        num, den = head
        pairs = []
        for a, b in steps:
            c = math.gcd(a, b)
            a, b = a // c, b // c
            g1, g2 = math.gcd(num, b), math.gcd(a, den)
            num, den = (num // g1) * (a // g2), (den // g2) * (b // g1)
            pairs.append((num, den))
        head = pairs[0]
        seq.append(_ExactPolynomial(pairs))
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


