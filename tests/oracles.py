"""Independent reference implementations the test suite checks against.

Every numerical claim in the tests is compared to a second route to the
same number: classical recurrences from scipy.special, the binomial-sum
definition of Jacobi polynomials in exact rational arithmetic, plain
bisection on the real line, high-precision polynomial roots via mpmath,
finite differences, and a deliberately un-vectorized transcription of the
banded integration-matrix construction.

Nothing here imports from gegtau.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np


def binomial(top, k: int):
    """binom(top, k) as an explicit product; exact for Fraction/int input."""
    val = top * 0 + 1
    for j in range(1, k + 1):
        val = val * (top - k + j) / j
    return val


def jacobi_reference(n: int, alpha, beta, x):
    """Binomial-sum definition of the Jacobi polynomial.

    P_n = sum_s binom(n+a, n-s) binom(n+b, s) ((x-1)/2)^s ((x+1)/2)^(n-s),
    exact when all arguments are Fractions.
    """
    acc = (alpha + beta + x) * 0
    for s in range(n + 1):
        term = binomial(alpha + n, n - s) * binomial(beta + n, s)
        acc = acc + term * ((x - 1) / 2) ** s * ((x + 1) / 2) ** (n - s)
    return acc


def _mul_linear(coeffs, c0, c1):
    """Multiply an ascending coefficient list by (c0 + c1 x)."""
    out = [c0 * c for c in coeffs] + [coeffs[0] * 0]
    for k, c in enumerate(coeffs):
        out[k + 1] = out[k + 1] + c1 * c
    return out


def jacobi_monomial(n: int, alpha, beta):
    """Ascending monomial coefficients of the Jacobi polynomial, exact for
    Fraction indices."""
    half = Fraction(1, 2)
    coeffs = [alpha * 0 + beta * 0] * (n + 1)
    for s in range(n + 1):
        pref = binomial(alpha + n, n - s) * binomial(beta + n, s)
        poly = [pref]
        for _ in range(s):
            poly = _mul_linear(poly, -half, half)
        for _ in range(n - s):
            poly = _mul_linear(poly, half, half)
        for k, c in enumerate(poly):
            coeffs[k] = coeffs[k] + c
    return coeffs


def poly_diff(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:] or [coeffs[0] * 0]


def poly_at(coeffs, x):
    acc = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def endpoint_char_poly(n: int, alpha, beta):
    """Characteristic polynomial of the Dirichlet problem by the 2x2 route.

    Expand the inverted-residual series applied to the top two basis modes,
    evaluate at both endpoints exactly (monomial coefficients, repeated
    formal differentiation), and take the determinant of the resulting 2x2
    system in mu.  Returns ascending-mu Fraction coefficients.
    """

    def series_values(nn, x):
        # mu-coefficients: value of the 2j-th derivative at x, j = 0..nn//2
        coeffs = jacobi_monomial(nn, alpha, beta)
        vals = []
        for _ in range(nn // 2 + 1):
            vals.append(poly_at(coeffs, x))
            coeffs = poly_diff(poly_diff(coeffs))
        return vals

    a_plus = series_values(n, Fraction(1))
    a_minus = series_values(n, Fraction(-1))
    b_plus = series_values(n - 1, Fraction(1))
    b_minus = series_values(n - 1, Fraction(-1))

    def poly_mul(u, v):
        out = [u[0] * 0] * (len(u) + len(v) - 1)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                out[i + j] = out[i + j] + ui * vj
        return out

    det = poly_mul(a_plus, b_minus)
    neg = poly_mul(b_plus, a_minus)
    size = max(len(det), len(neg))
    det = det + [Fraction(0)] * (size - len(det))
    neg = neg + [Fraction(0)] * (size - len(neg))
    out = [d - e for d, e in zip(det, neg)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def endpoint_value(n: int, g):
    """G_n(1) = prod_{j=1}^{n-1} (2g + j) / n! as a fresh product per degree,
    in the multiplication order val * (2g + j) / (j + 1)."""
    val = g * 0 + 1
    for j in range(1, n):
        val = val * (2 * g + j) / (j + 1)
    return val


def k_constant_recursive(n: int, g):
    """Boundary constant K_n by the two-step upward recurrence from the
    seeds K_3 and K_4; n <= 2 use their own closed forms.  Exact for
    Fraction g."""
    if n == 0:
        return (2 * g + 1) / (4 * (g + 1))
    if n == 1:
        return (2 * g + 1) / (12 * (g + 2))
    if n == 2:
        return ((2 * g + 1) * (2 * g * g + g - 7)) / (48 * (g + 1) * (g + 2))
    if n % 2 == 1:
        j, val = 3, ((2 * g - 1) * (2 * g - 3)) / 120
    else:
        j, val = 4, ((4 * g * g - 1) * (2 * g - 3)) / 720
    while j < n:
        val = val * ((2 * g + j - 1) * (2 * g + j - 2)) / ((j + 4) * (j + 3))
        j += 2
    return val


def gegenbauer_derivative_matrix(nmax: int, g: float) -> np.ndarray:
    """Connection matrix D with (D a) the coefficients of the derivative.

    D[k, n] is the G_k coefficient of D G_n: zero unless k < n with opposite
    parity, in which case it is 1 for k = 0 and 2 (k + g) for k >= 1.
    Squaring D gives the second-derivative connection.
    """
    D = np.zeros((nmax + 1, nmax + 1))
    for n in range(1, nmax + 1):
        ks = np.arange(1 - n % 2, n, 2)
        D[ks, n] = 2.0 * (ks + g)
        if n % 2 == 1:
            D[0, n] = 1.0
    return D


def unbalanced_tau_spectrum(square: np.ndarray):
    """(lambda, mu) of the integration route without pre-balancing.

    The plain dense eigenvalues mu of the square integration matrix, sorted
    by (real, imag), inverted, and then sorted by |lambda| (stable).
    """
    mu = np.linalg.eigvals(square)
    mu = mu[np.lexsort((mu.imag, mu.real))]
    lam = 1.0 / mu
    order = np.argsort(np.abs(lam), kind="stable")
    return lam[order], mu[order]


def reference_gi2(MG: int, g: float, ip: int) -> np.ndarray:
    """Straight-line construction of the (MG+1) x MG integration matrix.

    Assembles the bands and the boundary-constant recurrence step by step
    with explicit loops and concatenation; kept deliberately independent of
    the library's banded builder.
    """
    n = 2.0 * np.arange(1, MG) + ip
    dm = 1.0 / (4 * (g + n + 1) * (g + n))
    d0 = -1.0 / (2 * (g + n + 1) * (g + n - 1))
    dp = 1.0 / (4 * (g + n) * (g + n - 1))
    T = np.diag(dm[: MG - 2], -1) + np.diag(d0) + np.diag(dp[1 : MG - 1], 1)
    K3 = (2 * g - 1) * (3 - 2 * g) / 120.0
    Kn = np.zeros(MG - 2)
    if MG > 2:
        if ip == 0:
            Kn[0] = (4 * g**2 - 1) * (3 - 2 * g) / 720.0
        else:
            Kn[0] = K3 * (2 * g + 2) * (2 * g + 1) / 42.0
        for m in range(2, MG - 1):
            nn = 2 * m + ip
            Kn[m - 1] = Kn[m - 2] * (2 * g + nn - 1) * (2 * g + nn - 2) / ((nn + 4) * (nn + 3))
    if ip == 0:
        M00 = -(2 * g + 1) / (4 * g + 4)
        M01 = (7 - g - 2 * g**2) * (1 + 2 * g) / (48 * (2 + g) * (1 + g))
        M10 = 1 / (2 * g + 2)
    else:
        M00 = -(2 * g + 1) / (12 * g + 24)
        M01 = 1 / (4 * (g + 3) * (g + 2)) + K3
        M10 = 1 / (4 * (g + 1) * (g + 2))
    r1 = np.concatenate(([M00, M01], Kn))
    c1 = np.concatenate(([M10], np.zeros(MG - 2)))
    re = np.concatenate((np.zeros(MG - 1), [dm[-1]]))
    return np.vstack([r1, np.column_stack([c1, T]), re])


def reference_gi2_exact(MG: int, g: Fraction, ip: int):
    """Exact-rational version of reference_gi2; returns nested lists."""
    one = Fraction(1)
    n = [2 * j + ip for j in range(1, MG)]
    dm = [one / (4 * (g + nn + 1) * (g + nn)) for nn in n]
    d0 = [-one / (2 * (g + nn + 1) * (g + nn - 1)) for nn in n]
    dp = [one / (4 * (g + nn) * (g + nn - 1)) for nn in n]
    K3 = Fraction(2 * g - 1) * (3 - 2 * g) / 120
    Kn = [Fraction(0)] * (MG - 2)
    if MG > 2:
        if ip == 0:
            Kn[0] = (4 * g * g - 1) * (3 - 2 * g) / 720
        else:
            Kn[0] = K3 * (2 * g + 2) * (2 * g + 1) / 42
        for m in range(2, MG - 1):
            nn = 2 * m + ip
            Kn[m - 1] = Kn[m - 2] * (2 * g + nn - 1) * (2 * g + nn - 2) / ((nn + 4) * (nn + 3))
    if ip == 0:
        M00 = -(2 * g + 1) / (4 * g + 4)
        M01 = (7 - g - 2 * g * g) * (1 + 2 * g) / (48 * (2 + g) * (1 + g))
        M10 = one / (2 * g + 2)
    else:
        M00 = -(2 * g + 1) / (12 * g + 24)
        M01 = one / (4 * (g + 3) * (g + 2)) + K3
        M10 = one / (4 * (g + 1) * (g + 2))
    rows = [[M00, M01] + Kn]
    for i in range(MG - 1):
        row = [Fraction(0)] * MG
        if i == 0:
            row[0] = M10
        row[i + 1] = d0[i]
        if i >= 1:
            row[i] = dm[i - 1]
        if i + 2 < MG:
            row[i + 2] = dp[i + 1]
        rows.append(row)
    last = [Fraction(0)] * MG
    last[MG - 1] = dm[-1]
    rows.append(last)
    return rows


def sturm_interlace(f, g) -> bool:
    """Exact strict-interlacing test for real polynomials f (degree n) and
    g (degree n-1) with positive leading coefficients.

    Classical criterion: the roots of f are real and distinct and strictly
    interlaced by the roots of g iff the negative-remainder Euclidean
    sequence f, g, -(f mod g), ... is regular (each degree drops by one)
    and every leading coefficient is positive.  Exact over Fractions, so
    gaps of any size are decided correctly.
    """

    def degree(p):
        return len(p) - 1

    def negrem(a, b):
        a = list(a)
        while degree(a) >= degree(b) and any(c != 0 for c in a):
            lead = a[-1] / b[-1]
            shift = degree(a) - degree(b)
            for i, c in enumerate(b):
                a[i + shift] -= lead * c
            while len(a) > 1 and a[-1] == 0:
                a.pop()
            if degree(a) < degree(b):
                break
        return [-c for c in a]

    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    if f[-1] <= 0 or g[-1] <= 0 or degree(f) != degree(g) + 1:
        return False
    while degree(g) >= 0:
        if g[-1] <= 0:
            return False
        if degree(g) == 0:
            return True
        r = negrem(f, g)
        if degree(r) != degree(g) - 1:
            return False
        f, g = g, r
    return False


def bisect_roots(f, lo: float, hi: float, samples: int = 20000, iters: int = 200):
    """All simple real roots of f on [lo, hi] by sign scan plus bisection."""
    xs = np.linspace(lo, hi, samples)
    vals = np.array([f(x) for x in xs])
    roots = []
    for i in range(samples - 1):
        a, b = float(xs[i]), float(xs[i + 1])
        fa, fb = float(vals[i]), float(vals[i + 1])
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            for _ in range(iters):
                mid = 0.5 * (a + b)
                fm = float(f(mid))
                if fa * fm <= 0.0:
                    b, fb = mid, fm
                else:
                    a, fa = mid, fm
                if b - a <= abs(mid) * 1e-17:
                    break
            roots.append(0.5 * (a + b))
    if float(vals[-1]) == 0.0:
        roots.append(float(xs[-1]))
    return roots


def _to_mpf(c):
    if isinstance(c, Fraction):
        return mp.mpf(c.numerator) / mp.mpf(c.denominator)
    return mp.mpf(c)


def mp_real_roots(coeffs, dps: int = 60):
    """Roots of the ascending-coefficient polynomial in high precision.

    Asserts every root is real (to half the working precision) and returns
    them sorted ascending as mpmath floats at the working precision.
    """
    with mp.workdps(dps):
        desc = [_to_mpf(c) for c in reversed(list(coeffs))]
        roots = mp.polyroots(desc, maxsteps=400, extraprec=400)
        out = []
        for z in roots:
            assert abs(mp.im(z)) <= mp.mpf(10) ** (-dps // 2), f"non-real root {z}"
            out.append(mp.re(z))
        return sorted(out)


def mp_horner(coeffs, x, dps: int = 60):
    with mp.workdps(dps):
        acc = mp.mpf(0)
        for c in reversed(list(coeffs)):
            acc = acc * x + _to_mpf(c)
        return acc


def central_kth_derivative(f, x: float, k: int, h: float = 1e-2) -> float:
    """k-th derivative by central differences with one Richardson step."""

    def d(hh):
        total = 0.0
        for i in range(k + 1):
            total += (-1.0) ** i * math.comb(k, i) * f(x + (k / 2.0 - i) * hh)
        return total / hh**k

    return (4.0 * d(h / 2.0) - d(h)) / 3.0
