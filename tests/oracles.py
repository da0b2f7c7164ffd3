"""Independent reference implementations the test suite checks against.

Every numerical claim in the tests is compared to a second route to the
same number: classical recurrences from scipy.special, the binomial-sum
definition of Jacobi polynomials in exact rational arithmetic, plain
bisection on the real line, high-precision polynomial roots via mpmath,
finite differences, and deliberately un-vectorized transcriptions of the
banded integration-matrix construction, of the characteristic-polynomial
recurrence and of the verify suites' per-polynomial builders and
positive-pair test.

Nothing here imports from gegtau.
"""

from __future__ import annotations

import ctypes
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import scipy.linalg.cython_lapack
import scipy.linalg.lapack


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


def jacobi_deriv_product(n: int, alpha, beta, k: int):
    """k-th derivative of P_n^(alpha,beta) at x = 1 as a fresh product per k:
    binom(n + alpha, n - k) prod_{j=1}^{k} (n + alpha + beta + j) / 2, zero
    for k > n.  Exact for Fraction exponents."""
    if k > n:
        return alpha * 0
    val = binomial(alpha + n, n - k)
    for j in range(1, k + 1):
        val = val * (n + alpha + beta + j) / 2
    return val


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


def gegenbauer_at_one_loop(nmax: int, g) -> list:
    """[G_0(1), ..., G_nmax(1)] by one running product in plain scalar
    arithmetic, val * (2g + j) / (j + 1) for j = 1..nmax-1."""
    val = g * 0 + 1
    out = [val] * min(nmax + 1, 2)
    for j in range(1, nmax):
        val = val * (2 * g + j) / (j + 1)
        out.append(val)
    return out


def endpoint_chain_loop(count: int, g: float, ip: int) -> list:
    """G_n(1) for n = ip, ip + 2, ... (count values) by one running product
    of the closed form's head ratios in plain scalar arithmetic:
    val * (u_{n-2} u_{n-1} / (n (n - 1))) with u_t = 2g + t and u_0 = 1."""
    val = 1.0
    out = [val] * min(count, 1)
    for n in range(ip + 2, ip + 2 * count, 2):
        u = 1.0 if n == 2 else 2 * g + (n - 2)
        val = val * (u * (2 * g + (n - 1)) / (n * (n - 1)))
        out.append(val)
    return out


def k_constants_loop(degrees, g: float) -> list:
    """K_n for each n in degrees, one scalar expression per degree: the
    closed forms of k_constant_recursive for n <= 2, and
    ((2g - 1)(2g - 3)) G_{n-2}(1) / (n (n^2 - 1)(n + 2)) with
    G_{n-2}(1) from endpoint_chain_loop of n's parity for n >= 3."""
    top = max(degrees, default=0)
    at1 = {ip: endpoint_chain_loop(max(top - ip, 0) // 2, g, ip) for ip in (0, 1)}
    return [
        k_constant_recursive(n, g)
        if n < 3
        else ((2 * g - 1) * (2 * g - 3)) * at1[n % 2][(n - 2) // 2] / (n * (n * n - 1) * (n + 2))
        for n in degrees
    ]


def gi2_bands_loop(m: int, g: float, ip: int) -> dict:
    """The TauMatrix arrays of gegtau's build_gi2 (first_row, lo, dg, up,
    last) for a float g, with the boundary constants of k_constants_loop."""
    n = 2.0 * np.arange(1, m) + ip
    dm = 1.0 / (4.0 * (g + n + 1.0) * (g + n))
    d0 = -1.0 / (2.0 * (g + n + 1.0) * (g + n - 1.0))
    dp = 1.0 / (4.0 * (g + n) * (g + n - 1.0))
    lo, dg, up = np.zeros(m), np.zeros(m), np.zeros(m)
    lo[2:], dg[1:], up[1:-1] = dm[:-1], d0, dp[1:]
    ks = k_constants_loop([ip] + [2 * j + ip for j in range(1, m)], g)
    first = -np.array(ks)
    if ip == 0:
        lo[1] = 1.0 / (2.0 * (g + 1.0))
    else:
        first[1] = 1.0 / (4.0 * (g + 3.0) * (g + 2.0)) - ks[1]
        lo[1] = 1.0 / (4.0 * (g + 1.0) * (g + 2.0))
    return {"first_row": first, "lo": lo, "dg": dg, "up": up, "last": np.array([dm[-1]])}


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


def k_constant_closed_form(n: int, g):
    """Boundary constant K_n for n >= 3 from its product form
    ((2g - 1)(2g - 3)) G_{n-2}(1) / (n (n^2 - 1)(n + 2)), with G_{n-2}(1)
    from endpoint_value, in that operation order.  Exact for Fraction g."""
    return ((2 * g - 1) * (2 * g - 3)) * endpoint_value(n - 2, g) / (n * (n * n - 1) * (n + 2))


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


def general_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues by scipy's LAPACK dgeev (balance, Hessenberg reduction,
    QR), with the queried workspace, returned as numpy.linalg.eigvals does:
    real when every imaginary part is zero.

    numpy and scipy each link their own OpenBLAS, and the multishift QR's
    matrix products round differently with the BLAS thread count; calling
    the LAPACK that gegtau's dense routes use keeps a bitwise
    comparison meaningful at any thread count.
    """
    lwork = int(scipy.linalg.lapack.dgeev_lwork(a.shape[0], compute_vl=0, compute_vr=0)[0])
    wr, wi, _, _, info = scipy.linalg.lapack.dgeev(a, compute_vl=0, compute_vr=0, lwork=lwork)
    assert info == 0, info
    if not wi.any():
        return wr
    w = np.empty(wr.size, dtype=complex)
    w.real, w.imag = wr, wi
    return w


def unbalanced_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues by LAPACK dgeevx with BALANC = 'N' (Hessenberg reduction
    and QR, no balancing), with the queried workspace, returned as
    general_eigvals returns them.

    scipy has no wrapper for dgeevx, so its C entry point comes from the
    capsule scipy.linalg.cython_lapack exports; every argument is passed by
    reference, INFO last.
    """
    capsule = scipy.linalg.cython_lapack.__pyx_capi__["dgeevx"]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    dgeevx = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 23)(get_pointer(capsule, get_name(capsule)))
    n = a.shape[0]
    work_a = np.array(a, dtype=float, order="F")
    wr, wi, scale, iwork, one = np.empty(n), np.empty(n), np.empty(n), np.empty(max(2 * n - 2, 1), np.int32), np.empty(1)
    ilo, ihi, info = np.zeros(1, np.int32), np.zeros(1, np.int32), np.zeros(1, np.int32)

    def call(work, lwork):
        args = [b"N", b"N", b"N", b"N", np.array([n], np.int32), work_a, np.array([n], np.int32), wr, wi]
        args += [one, np.array([1], np.int32), one, np.array([1], np.int32), ilo, ihi, scale, one, one, one]
        args += [work, np.array([lwork], np.int32), iwork, info]
        dgeevx(*[v if isinstance(v, bytes) else v.ctypes.data for v in args])
        assert info[0] == 0, int(info[0])

    query = np.empty(1)
    call(query, -1)
    lwork = int(query[0])
    call(np.empty(lwork), lwork)
    if not wi.any():
        return wr
    w = np.empty(wr.size, dtype=complex)
    w.real, w.imag = wr, wi
    return w


def companion_roots_one_by_one(asc) -> np.ndarray:
    """Roots of the polynomial with ascending coefficients asc, one
    numpy.roots call per polynomial, sorted by (real, imag).

    The per-call form of gegtau's root finder: exact zero roots stripped,
    the reversed polynomial's companion (and inverted roots) when the
    geometric mean of the roots is below one.
    """
    asc = np.array([float(c) for c in asc], dtype=float)
    while asc.size > 1 and asc[-1] == 0.0:
        asc = asc[:-1]
    if asc.size == 1:
        return np.array([], dtype=complex)
    nzero = 0
    while asc[nzero] == 0.0:
        nzero += 1
    core = asc[nzero:]
    roots = np.array([], dtype=complex)
    if core.size > 1:
        with np.errstate(divide="ignore"):
            gmean = (abs(core[0]) / abs(core[-1])) ** (1.0 / (core.size - 1))
        if gmean < 1.0:
            roots = (1.0 / np.roots(core)).astype(complex)
        else:
            roots = np.roots(core[::-1]).astype(complex)
    roots = np.concatenate([roots, np.zeros(nzero, dtype=complex)])
    return roots[np.lexsort((roots.imag, roots.real))]


_TINY = 1e-300


def root_stats_one_by_one(roots) -> list:
    """Per root array, the statistics the verify checks read, one numpy call
    per array: (largest real part by np.max, largest modulus, largest
    |imag| / |root|, smallest relative step of the sorted real parts, the
    last sorted real part, the Hurwitz margin largest real part / max(1,
    largest modulus)).  An empty array gives (-inf, 0, 0, inf, -inf, -inf).
    """
    out = []
    for r in roots:
        if r.size == 0:
            out.append((-math.inf, 0.0, 0.0, math.inf, -math.inf, -math.inf))
            continue
        top = float(np.max(r.real))
        radius = float(np.max(np.abs(r)))
        real_sorted = np.sort(r.real)
        gap = min_rel_gap_one_by_one(real_sorted)
        out.append((top, radius, reality_one_by_one(r), gap, float(real_sorted[-1]), top / max(1.0, radius)))
    return out


def reality_one_by_one(values: np.ndarray) -> float:
    """Largest |imag| / |value| of a 1-D array (0 when it is empty)."""
    if values.size == 0:
        return 0.0
    return float(np.max(np.abs(values.imag) / np.maximum(np.abs(values), _TINY)))


def min_rel_gap_one_by_one(values: np.ndarray) -> float:
    """Smallest signed step of a real 1-D array relative to the larger
    magnitude of its two ends (inf for fewer than two entries)."""
    if values.size < 2:
        return math.inf
    scales = np.maximum(np.abs(values[:-1]), np.abs(values[1:]))
    return float(np.min(np.diff(values) / np.maximum(scales, _TINY)))


def positive_pair_one_by_one(roots1, roots2, lead1, lead2, tol_real: float = 1e-9, tol_gap: float = 1e-8):
    """(passed, margin, reason) of the positive-pair test of two polynomials
    from their roots (as many as the degree) and leading coefficients, one
    numpy call per array: real roots, the interleaved merge of the sorted
    real parts (equal degrees: the second polynomial's roots first), its
    smallest relative gap, no nonnegative root and leading coefficients of
    like sign.  reason is None unless a structural test failed."""
    n = roots1.size
    if n < 1 or roots2.size not in (n - 1, n):
        return False, -math.inf, "degree-mismatch"
    reality = max(reality_one_by_one(roots1), reality_one_by_one(roots2))
    if reality > tol_real:
        return False, -math.inf, f"non-real-roots ratio={reality:.3e}"
    r1 = np.sort(roots1.real)
    r2 = np.sort(roots2.real)
    merged = np.empty(n + r2.size)
    if r2.size == n:
        merged[0::2], merged[1::2] = r2, r1
    else:
        merged[0::2], merged[1::2] = r1, r2
    margin = min_rel_gap_one_by_one(merged)
    if merged[-1] >= 0.0:
        return False, margin, "nonnegative-root"
    if float(lead1) * float(lead2) <= 0.0:
        return False, margin, "leading-sign-mismatch"
    return bool(margin > tol_gap), margin, None


def mu_trim(coeffs) -> list:
    """Coefficients without trailing zeros (one kept), as a gegtau
    MuPolynomial stores them."""
    cs = list(coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs


def mu_add(a, b) -> list:
    """Sum of two ascending coefficient lists: the shorter list added term
    by term into a copy of the longer one."""
    if len(a) < len(b):
        a, b = b, a
    cs = list(a)
    for k, c in enumerate(b):
        cs[k] = cs[k] + c
    return mu_trim(cs)


def mu_scale(a, s) -> list:
    return mu_trim([c * s for c in a])


def mu_mul(a, b) -> list:
    """Product of two ascending coefficient lists: a's high coefficients
    first, each against b in ascending order."""
    out = [0] * (len(a) + len(b) - 1)
    for i in range(len(a) - 1, -1, -1):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + a[i] * bj
    return mu_trim(out)


def charpoly_sequence_one_by_one(m_max: int, g, offset: int) -> list:
    """The characteristic polynomials p_0, ..., p_m_max of
    gegtau.charpoly.charpoly_sequence as coefficient lists, by the paper's
    three-term recurrence plus a constant term, one polynomial at a time in
    mu_add/mu_scale arithmetic; offset 0 is the even parity class and 1 the
    odd one.  In float arithmetic the subtraction cancels, so the float
    coefficients are a reference for where they overflow, not for their
    digits.  Step j, n = 2j + offset, forms

        p_{j+1} = (((mu p_j + mid p_j) + K_n) + (-(f p_{j-1}))) * scale

    (the even j = 1 step has no p_0 term, K_2 holds it), with K_n from
    k_constant_recursive (n = 2) or k_constant_closed_form and the endpoint
    values from endpoint_value.  Exact for Fraction g."""
    if offset == 0:
        seed = [endpoint_value(2, g), 2 * (g + 1)]
    else:
        seed = [endpoint_value(3, g), 4 * (g + 1) * (g + 2)]
    seq = [[g * 0 + 1], mu_trim(seed)][: m_max + 1]
    for j in range(1, m_max):
        n = 2 * j + offset
        cur = seq[j]
        acc = mu_add([cur[0] * 0] + cur, mu_scale(cur, 1 / (2 * (g + n + 1) * (g + n - 1))))
        acc = mu_add(acc, [k_constant_recursive(n, g) if n == 2 else k_constant_closed_form(n, g)])
        if not (offset == 0 and j == 1):
            acc = mu_add(acc, [-c for c in mu_scale(seq[j - 1], 1 / (4 * (g + n) * (g + n - 1)))])
        seq.append(mu_scale(acc, 4 * (g + n + 1) * (g + n)))
    return seq


def poly_from_roots_one_by_one(roots, lead) -> list:
    """Ascending coefficients of np.real(np.poly(roots)) * lead: one
    polynomial of a random positive pair, built by numpy's convolutions."""
    desc = np.atleast_1d(np.real(np.poly(np.asarray(roots)))) * lead
    return mu_trim(list(desc[::-1]))


def hb_compose_one_by_one(p1, p2) -> list:
    """p1(z^2) + z p2(z^2), each coefficient added to a zero of p1's type."""
    zero = p1[0] * 0
    out = [zero] * max(2 * len(p1) - 1, 2 * len(p2))
    for k, c in enumerate(p1):
        out[2 * k] = out[2 * k] + c
    for k, c in enumerate(p2):
        out[2 * k + 1] = out[2 * k + 1] + c
    return mu_trim(out)


def phi_one_by_one(base, prev, variant: str, weight) -> list:
    """The endpoint polynomial of gegtau.verify.phi_poly from the derivative
    lists base (degree n) and prev (degree n - 1)."""
    if variant == "base":
        return mu_trim(base)
    if variant == "prev":
        return mu_add(mu_trim(base), mu_scale(mu_trim(prev), weight))
    shifted = [prev[0] * 0] * 2 + mu_trim(prev)
    return mu_add(mu_trim(base), mu_scale(shifted, weight))


def jacobi_char_one_by_one(om_n, om_prev_swapped, om_n_swapped, om_prev) -> list:
    """omega_n(a, b) omega_{n-1}(b, a) + omega_n(b, a) omega_{n-1}(a, b)
    from the even-order endpoint derivative lists."""
    return mu_add(mu_mul(om_n, om_prev_swapped), mu_mul(om_n_swapped, om_prev))


def mixed_char_one_by_one(om_n_swapped, om_low_raised, om_prev_swapped, om_prev_raised, k_prev, k_cur) -> list:
    """omega_n(b, a) omega_{n-2}(a+1, b+1) k_prev + omega_{n-1}(b, a)
    omega_{n-1}(a+1, b+1) k_cur from the even-order derivative lists."""
    low = mu_scale(mu_mul(om_n_swapped, om_low_raised), k_prev)
    return mu_add(low, mu_scale(mu_mul(om_prev_swapped, om_prev_raised), k_cur))


def unbalanced_tau_spectrum(square: np.ndarray):
    """(lambda, mu) of the integration route without balancing.

    The square integration matrix A is first taken to diag(1/s) A diag(s),
    s_j = 2^min(e_0 - e_j, 0) with e_j the binary exponent of A[0, j] (s_j = 1
    where A[0, j] = 0), entry by entry as A[i, j] * s[j] / s[i] (exact:
    powers of two).  Its dense
    eigenvalues mu by dgeevx with BALANC = 'N' (unbalanced_eigvals) are
    sorted by (real, imag), inverted, and then sorted by |lambda| (stable).
    """
    e = np.frexp(square[0])[1]
    s = np.ldexp(1.0, np.where(square[0] == 0.0, 0, np.minimum(e[0] - e, 0)))
    mu = unbalanced_eigvals(square * s / s[:, None])
    mu = mu[np.lexsort((mu.imag, mu.real))]
    lam = 1.0 / mu
    order = np.argsort(np.abs(lam), kind="stable")
    return lam[order], mu[order]


# The structures of A and B in each differentiation variant's pencil, the
# kinds of assert_structure.
PENCIL_STRUCTURES = {
    "diff-elim-last": ("full", "diagonal"),
    "diff-elim-first": ("upper-triangular", "first-row-subdiagonal"),
    "galerkin-basis": ("upper-triangular", "tridiagonal"),
    "ierley-legendre": ("diagonal", "tridiagonal"),
}


def pencil_a(pencil) -> np.ndarray:
    """A of a differentiation pencil as a dense C-ordered matrix, from its
    write_a."""
    A = np.empty((pencil.m, pencil.m))
    pencil.write_a(A)
    return A


def pencil_b(pencil) -> np.ndarray:
    """B of a differentiation pencil as a dense matrix, from its O(m)
    factors: diag(h), the first row b_first_row() over the subdiagonal
    h[1:], or the tridiagonal b_bands()."""
    m, h = pencil.m, pencil.h
    kind = PENCIL_STRUCTURES[pencil.variant][1]
    if kind == "diagonal":
        return np.diag(h)
    B = np.zeros((m, m))
    i = np.arange(m)
    if kind == "first-row-subdiagonal":
        B[0] = pencil.b_first_row()
        B[i[1:], i[:-1]] = h[1:]
    else:
        ab = pencil.b_bands()
        B[i[:-1], i[1:]], B[i, i], B[i[1:], i[:-1]] = ab[0, 1:], ab[1], ab[2, :-1]
    return B


def solve_structured_row_major(pencil) -> np.ndarray:
    """B^{-1} A of a pencil, C-ordered, in the operations and memory order
    that fix the bits of the pencil route's eigenvalues: one division per
    entry for a diagonal B, LAPACK's banded solve for a tridiagonal one, and
    for a first row plus subdiagonal the subdiagonal divisions followed by
    the closure row, one gemv on the row-major top block."""
    A, B = pencil_a(pencil), pencil_b(pencil)
    b_structure = PENCIL_STRUCTURES[pencil.variant][1]
    m = B.shape[0]
    if b_structure == "diagonal":
        return A / np.diag(B)[:, None]
    if b_structure == "tridiagonal":
        ab = np.zeros((3, m))
        ab[0, 1:], ab[1, :], ab[2, :-1] = np.diag(B, 1), np.diag(B), np.diag(B, -1)
        return np.ascontiguousarray(scipy.linalg.solve_banded((1, 1), ab, A))
    X = np.zeros_like(A)
    X[: m - 1, :] = A[1:, :] / np.diag(B, -1)[:, None]
    X[m - 1, :] = (A[0, :] - B[0, : m - 1] @ X[: m - 1, :]) / B[0, m - 1]
    return X


# Diagonal offsets (column - row) each structure allows; upper-triangular
# allows every offset >= 0 and first-row-subdiagonal the whole first row too.
_BANDS = {"diagonal": (0,), "tridiagonal": (-1, 0, 1), "first-row-subdiagonal": (-1,)}
_CHECK_ROWS = 32


def assert_structure(mat: np.ndarray, kind: str, variant: str) -> None:
    """Raise AssertionError when an entry outside the pattern of kind exceeds
    1e-13 of the largest |entry|; the check of the pencils' materialized A
    and B.

    The check runs over blocks of _CHECK_ROWS rows, zeroing the allowed
    entries of each block's |entries| through diagonal views, so it holds
    no m x m temporary.
    """
    if kind == "full":
        return
    if kind != "upper-triangular" and kind not in _BANDS:
        raise ValueError(f"unknown structure kind {kind!r}")
    tol = 1e-13 * (max(mat.max(), -mat.min()) or 1.0)
    worst = 0.0
    for r0 in range(0, mat.shape[0], _CHECK_ROWS):
        off = np.abs(mat[r0 : r0 + _CHECK_ROWS])
        if kind == "upper-triangular":
            off = np.tril(off, r0 - 1)
        else:
            for k in _BANDS[kind]:  # block row i is matrix row r0 + i, column r0 + i + k
                np.fill_diagonal(off[:, r0 + k :] if r0 + k >= 0 else off[-(r0 + k) :], 0.0)
            if kind == "first-row-subdiagonal" and r0 == 0:
                off[0] = 0.0
        worst = max(worst, off.max())
    if worst > tol:
        raise AssertionError(f"variant {variant}: matrix is not {kind} (worst off-pattern entry {worst:.3e})")


def pencil_spectrum_row_major(pencil):
    """(lambda, mu) of a pencil from general_eigvals of the C-ordered
    B^{-1} A: sorted by (real, imag), mu = 1 / lambda (inf at zero), then
    sorted by |lambda| (stable)."""
    lam = general_eigvals(solve_structured_row_major(pencil))
    lam = lam[np.lexsort((lam.imag, lam.real))]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(lam != 0, 1.0 / lam, np.inf)
    order = np.argsort(np.abs(lam), kind="stable")
    return lam[order], mu[order]


def second_derivative_block_masked(rows: int, cols: int, g: float, ip: int) -> np.ndarray:
    """The parity block of D^2 as the full broadcast product, with the lower
    part masked out by np.where afterwards."""
    nmid = max(rows, cols)
    inter = 2.0 * (2.0 * np.arange(nmid) + (1 + ip) + g)
    csum = np.concatenate(([0.0], np.cumsum(inter)))
    roww = 2.0 * (2.0 * np.arange(rows) + ip + g)
    if ip == 0 and rows > 0:
        roww[0] = 1.0
    k = np.arange(rows)[:, None]
    l = np.arange(cols)[None, :]
    block = roww[:, None] * (csum[np.minimum(l, nmid)] - csum[np.minimum(k, nmid)])
    return np.where(l > k, block, 0.0)


def one_minus_x2_block(rows: int, cols: int, g: float, ip: int) -> np.ndarray:
    """Parity block of multiplication by (1 - x^2): entry [j, l] is the
    G_{2j+ip} coefficient of (1 - x^2) G_{2l+ip}, read off I - X @ X with X
    the dense multiplication-by-x matrix of the recurrence: x G_0 = G_1,
    x G_1 = (G_2 + G_0 / 2) / (g + 1) and, from n = 2 on,
    x G_n = ((n + 1) G_{n+1} + (n - 1 + 2 g) G_{n-1}) / (2 (n + g))."""
    nmax = 2 * max(rows, cols) + ip + 2
    X = np.zeros((nmax + 1, nmax + 1))
    X[1, 0] = 1.0
    X[2, 1], X[0, 1] = 1.0 / (g + 1.0), 0.5 / (g + 1.0)
    for n in range(2, nmax):
        X[n + 1, n] = (n + 1) / (2.0 * (n + g))
        X[n - 1, n] = (n - 1 + 2.0 * g) / (2.0 * (n + g))
    full = np.eye(nmax + 1) - X @ X
    return full[ip : 2 * rows + ip : 2, ip : 2 * cols + ip : 2]


def structured_pencil_a(variant: str, d2: np.ndarray, h: np.ndarray, ends=None, s_bands=None) -> np.ndarray:
    """A of diff-elim-last or galerkin-basis from the whole m x (m + 1)
    second-derivative block d2, in the fixed order of operations that the
    pencil's row tiles use: a0[:, :m] + a0[:, m] row with a0 = h d2 and
    row = -ends[:m] / ends[m], or ((s1 d2[:, j] + s2 d2[:, j+1]) +
    s0 d2[:, j-1]) h from the bands (s0, s1, s2) of the (1 - x^2) block."""
    m = d2.shape[0]
    if variant == "diff-elim-last":
        a0 = h[:, None] * d2
        return a0[:, :m] + a0[:, m:] * (-ends[:m] / ends[m])
    assert variant == "galerkin-basis", variant
    s0, s1, s2 = s_bands
    prod = d2[:, :m] * s1 + d2[:, 1:] * s2
    prod[:, 1:] += d2[:, : m - 1] * s0[1:]
    return prod * h[:, None]


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
