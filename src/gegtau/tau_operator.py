"""Discrete operators for u'' = lambda u on [-1, 1] with u(+-1) = 0.

Two families:

* the integration form: a banded (tridiagonal plus a boundary first row)
  matrix M acting on the parity-reduced coefficients of f = u'', held
  row-scaled; its rectangular extension maps f to the coefficients of the
  double antiderivative that vanishes at both endpoints, and eigenvalues
  are the reciprocals of those of the square part.

* differentiation/Galerkin pencils (A, B) with A x = lambda B x obtained by
  eliminating one coefficient against the boundary condition or by building
  the bubble trial basis (1 - x^2) G_n; these are the classically
  ill-conditioned routes kept for comparison.

Entries are float64.  A pencil is a recipe of O(m) factors; its dense
matrices are built tile by tile where they are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .charpoly import _k_binary
from .orthopoly import (
    Parity,
    _one_minus_x2_bands,
    _second_derivative_rows,
    as_gegenbauer,
    as_parity,
    gegenbauer_at_one_upto,
    gegenbauer_norms,
)

__all__ = [
    "TauMatrix",
    "GeneralizedPencil",
    "build_gi2",
    "build_diff_pencil",
    "matrix_to_csv",
    "matrix_to_coord",
    "DIFF_VARIANTS",
]

DIFF_VARIANTS = ("diff-elim-last", "diff-elim-first", "galerkin-basis", "ierley-legendre")


def _check_modes(m: int) -> None:
    if m < 2:
        raise ValueError(f"need at least 2 modes, got {m}")


def _padded_lda(m: int) -> int:
    """Leading dimension of an m x m LAPACK work matrix: m rounded up to a
    multiple of 8, plus 8 more when that is a multiple of 16, so a column is
    an odd multiple of 64 bytes and the row walks of a power-of-two m do not
    fall into the same few cache sets (a quarter of dgeev's time on B^{-1} A
    at m = 1024).  The arithmetic is the same, so are the bits.
    """
    lda = -(-m // 8) * 8
    return lda + 8 if lda % 16 == 0 else lda


def _work_matrix(m: int, zero: bool = False) -> np.ndarray:
    """An m x m Fortran-ordered view into one flat buffer of
    _padded_lda(m) x m float64 entries (the view's base), uninitialized
    unless zero."""
    lda = _padded_lda(m)
    return (np.zeros if zero else np.empty)(lda * m).reshape((lda, m), order="F")[:m]


@dataclass(frozen=True, eq=False)
class TauMatrix:
    """Banded integration operator for one parity class, held row-scaled.

    Column j holds the j-th basis function of the parity class (degree
    2j or 2j + 1).  The square part A is upper Hessenberg: a boundary row of
    K_n (past the float range at large gamma and m) on top of a tridiagonal
    block.  Stored is S = diag(1/s) A diag(s), s_j = 2**scale[j] the powers
    of two that bring every first-row entry above the binade of A[0, 0]
    down into it (s_j = 1 for the others, zeros too; all of them up to gamma
    5/2 at least): A's eigenvalues, and x is S's eigenvector when diag(s) x
    is A's.  square, apply, null_vector and inverse_iteration act on S,
    rectangular gives A.  By rows:

    first_row   length m, row 0 whole (the boundary row)
    lo, dg, up  length m, S[i, i-1], S[i, i] and S[i, i+1] for rows i >= 1;
                zero at i = 0 and where the entry falls outside the matrix
                (up[m-1])
    scale       length m, the integer exponents of s (<= 0)
    last        entry of the extra rectangular row, A[m, m-1] (that row
                scaled by s_{m-1})
    """

    m: int
    gamma: float
    parity: Parity
    first_row: np.ndarray
    lo: np.ndarray
    dg: np.ndarray
    up: np.ndarray
    scale: np.ndarray
    last: float

    def square(self) -> np.ndarray:
        """Dense m x m matrix S, whose eigenvalues are the reciprocal spectrum.

        Fortran-ordered with a padded leading dimension (_work_matrix), so
        LAPACK works in it without a copy.
        """
        m = self.m
        M = _work_matrix(m, zero=True)
        M[0, :] = self.first_row
        i = np.arange(1, m)
        M[i, i - 1] = self.lo[1:]
        M[i, i] = self.dg[1:]
        M[i[:-1], i[:-1] + 1] = self.up[1:-1]
        return M

    def rectangular(self) -> np.ndarray:
        """(m+1) x m extension of A, unscaled, whose action is the double
        integration; ValueError where an entry is past the float range."""
        m, e = self.m, self.scale
        R = np.zeros((m + 1, m))
        with np.errstate(over="ignore"):
            R[:m] = np.ldexp(self.square(), e[:, None] - e)  # A[i, j] = S[i, j] s_i / s_j
        R[m, m - 1] = self.last
        if not np.isfinite(R).all():
            past = f"the boundary constants K_n of m = {m} modes at gamma = {self.gamma}"
            raise ValueError(f"{past} exceed the float range")
        return R

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Rectangular action of S, extended by the row last * f[m-1], on a
        real or complex coefficient vector, O(m)."""
        f = np.asarray(f)
        f = f.astype(np.result_type(f, float), copy=False)
        if f.shape != (self.m,):
            raise ValueError(f"expected {self.m} coefficients, got shape {f.shape}")
        m = self.m
        u = np.zeros(m + 1, dtype=f.dtype)
        u[0] = self.first_row @ f
        u[1:m] = self.lo[1:] * f[:-1] + self.dg[1:] * f[1:]
        u[1 : m - 1] += self.up[1:-1] * f[2:]
        u[m] = self.last * f[m - 1]
        return u

    def null_vector(self, mu) -> np.ndarray:
        """Solution x of rows 1..m-1 of (S - mu I) x = 0, O(m).

        With x[m-1] = 1 each row i, from the last up, fixes x[i-1] through
        the nonzero subdiagonal entry lo[i] (Hyman's method).  At an
        eigenvalue mu, row 0 holds as well and x is the right eigenvector of
        S (diag(s) x is A's).  The entries grow upward (past the float range
        at m = 1000), so the part solved so far is rescaled whenever it
        passes 2**500; the result has largest |entry| 1.  Real for a real mu,
        complex for a complex one.
        """
        lo, dg, up = self.lo.tolist(), self.dg.tolist(), self.up.tolist()
        x = np.zeros(self.m, dtype=complex if np.iscomplexobj(mu) else float)
        below, here = 0.0, 1.0  # x[i+1], x[i]
        x[-1] = here
        for i in range(self.m - 1, 0, -1):
            above = -((dg[i] - mu) * here + up[i] * below) / lo[i]
            if abs(above) > 2.0**500:
                s = 1.0 / abs(above)
                x[i:] *= s
                here, above = here * s, above * s
            x[i - 1] = above
            below, here = here, above
        return x / np.abs(x).max()

    def inverse_iteration(self, sigma: float, start: np.ndarray, steps: int):
        """Right and left unit vectors after `steps` steps of inverse
        iteration with S - sigma I from start, O(m) each and no m x m array;
        sigma real, m >= 3 (scipy's dgttrf wrapper refuses order 2).

        S - sigma I is T + e_0 r^T, T tridiagonal (the first two entries of
        row 0 and the bands of rows 1..m-1, shifted) and r the first row
        beyond column 1.  LAPACK dgttrf factors T once; a step solves with
        the factors (dgttrs, transposed for the left vector) and adds the
        Sherman-Morrison correction (1 + r^T z) w - (r^T w) z, w = T^{-1} b
        and z = T^{-1} e_0: the solution times 1 + r^T z, which vanishes at
        an eigenvalue sigma, where the step returns the eigenvector z, so
        nothing is divided by it.  LinAlgError if T is exactly singular.
        """
        if self.m < 3:
            raise ValueError(f"inverse iteration needs m >= 3, got {self.m}")
        lapack = scipy.linalg.lapack
        top = self.first_row
        d, du = self.dg - sigma, self.up[:-1].copy()
        d[0], du[0] = top[0] - sigma, top[1]
        lu = lapack.dgttrf(self.lo[1:], d, du)
        if lu[-1] != 0:
            raise np.linalg.LinAlgError(f"the tridiagonal part of S - {sigma!r} I is singular")

        def solve(b, trans="N"):
            return lapack.dgttrs(*lu[:-1], b, trans=trans)[0]

        r = top.copy()
        r[:2] = 0.0
        e0 = np.zeros(self.m)
        e0[0] = 1.0
        z, zt = solve(e0), solve(r, "T")
        rz, rzt = 1.0 + r @ z, 1.0 + zt[0]  # both det(A - sigma I) / det(T)
        x = y = start
        for _ in range(steps):
            w = solve(x)
            x = rz * w - (r @ w) * z
            x /= np.linalg.norm(x)
            w = solve(y, "T")
            y = rzt * w - w[0] * zt
            y /= np.linalg.norm(y)
        return x, y


_TILE_ROWS = 48  # rows of the tiles the dense pencil matrices are built in


@dataclass(frozen=True, eq=False)
class GeneralizedPencil:
    """Recipe for the pair (A, B) of A x = lambda B x: O(m) factors and no
    m x m array.

    h        weighted norms of the m test degrees; row i of A and B carries
             h[i]
    ends     G_n(1) of the m + 1 trial degrees (elimination variants)
    s_bands  the (m + 1) x m block of multiplication by (1 - x^2) in
             scipy.linalg.solve_banded's (1, 1) layout (galerkin-basis,
             ierley-legendre); B is its top m rows times h
    a_diag   the diagonal of A (ierley-legendre)

    write_a writes A into a caller's array row tile by row tile from the
    closed form of the second-derivative block and these factors, with no
    matrix product.  B is diag(h) for diff-elim-last, b_first_row() on top
    of the subdiagonal h[1:] for diff-elim-first, and the tridiagonal
    b_bands() for the two Galerkin variants.  The eigenvalue route
    (spectra.pencil_spectrum) forms B^{-1} A from these alone; neither A nor
    B is ever a dense m x m array of its own.
    """

    variant: str
    m: int
    gamma: float
    parity: Parity
    h: np.ndarray
    ends: np.ndarray | None = None
    s_bands: np.ndarray | None = None
    a_diag: np.ndarray | None = None

    def b_bands(self) -> np.ndarray:
        """Tridiagonal B in scipy.linalg.solve_banded's (1, 1) layout."""
        s, h = self.s_bands, self.h
        ab = np.zeros((3, self.m))
        ab[0, 1:] = h[:-1] * s[0, 1:]
        ab[1] = h * s[1]
        ab[2, :-1] = h[1:] * s[2, :-1]
        return ab

    def b_first_row(self) -> np.ndarray:
        """Row 0 of B for diff-elim-first: the boundary condition times h[0]."""
        return -self.h[0] * self.ends[1:] / self.ends[0]

    def write_a(self, out: np.ndarray, rows=None, over_h: bool = False) -> None:
        """Write rows start..stop-1 of A (rows = (start, stop), default all)
        into out, an array of shape (stop - start, m) in any memory order.

        D2, the second-derivative block, is generated _TILE_ROWS rows at a
        time.  Every step on a tile is elementwise, so neither the tiling,
        the memory order of out nor the BLAS thread count changes a bit.
        The products come from their structure, in this fixed order:

        diff-elim-last   a0 C with a0 = h D2 and C = [I; row], row =
                         -G(1)[:m] / G_m(1):  a0[:, :m] + a0[:, m] row
        galerkin-basis   (D2 S) h with S the tridiagonal (1 - x^2) block:
                         ((s1[j] D2[:, j] + s2[j] D2[:, j+1])
                          + s0[j] D2[:, j-1]) h, the last term from j = 1

        Each product and sum is rounded on its own.  With over_h, for the
        elimination variants, row i is divided by h[i]: B is diag(h) for
        diff-elim-last, and h[i] is row i's subdiagonal entry of B for
        diff-elim-first.
        """
        m, h, variant = self.m, self.h, self.variant
        start, stop = rows or (0, m)
        for r0 in range(start, stop, _TILE_ROWS):
            r1 = min(r0 + _TILE_ROWS, stop)
            dest, hr = out[r0 - start : r1 - start], h[r0:r1, None]
            if variant == "ierley-legendre":
                dest[...] = 0.0
                dest[np.arange(r1 - r0), np.arange(r0, r1)] = self.a_diag[r0:r1]
                continue
            left = _second_derivative_rows(r0, r1, m + 1, self.gamma, self.parity.offset)
            if variant == "galerkin-basis":
                s0, s1, s2 = self.s_bands
                prod = left[:, :m] * s1
                prod += left[:, 1:] * s2
                prod[:, 1:] += left[:, : m - 1] * s0[1:]
                np.multiply(prod, hr, out=dest)
                continue
            left *= hr
            if variant == "diff-elim-first":
                np.copyto(dest, left[:, 1:])
            else:
                np.add(left[:, :m], left[:, m:] * (-self.ends[:m] / self.ends[m]), out=dest)
            if over_h:
                dest /= hr


def build_gi2(m: int, idx, parity) -> TauMatrix:
    """Assemble the banded double-integration operator, row-scaled (TauMatrix).

    The bands are reciprocals of quadratic polynomials in the mode degree;
    the first row carries the boundary constants (negated K values of
    k_constants, O(m)), which grow like G_{n-2}(1), about (2 gamma)^n / n!.
    They come as (mantissa, exponent) pairs (charpoly._k_binary), the
    scaling is read off the exponents and the scaled bands are written
    directly: each entry is the unscaled one times a power of two, with its
    bits wherever that is finite.  Needs m >= 2 so the band structure
    exists.  ValueError from gamma = 2^53 on, where gamma + 1 rounds to
    gamma and the bands lose their dependence on the degree.
    """
    _check_modes(m)
    gdx = as_gegenbauer(idx)
    g = float(gdx.gamma)
    par = as_parity(parity)
    if g + 1.0 == g:
        bands = f"at gamma = {gdx.gamma} the bands of m = {m} modes"
        raise ValueError(f"{bands} lose their degree dependence (gamma + 1 rounds to gamma)")
    n = 2.0 * np.arange(1, m) + par.offset  # degrees of columns 1..m-1
    dm = 1.0 / (4.0 * (g + n + 1.0) * (g + n))  # A[j+1, j] of column j
    d0 = -1.0 / (2.0 * (g + n + 1.0) * (g + n - 1.0))  # A[j, j]
    dp = 1.0 / (4.0 * (g + n) * (g + n - 1.0))  # A[j-1, j]
    lo, dg, up = np.zeros(m), np.zeros(m), np.zeros(m)
    lo[2:], dg[1:], up[1:-1] = dm[:-1], d0, dp[1:]
    mant, exp = _k_binary(m, gdx.gamma, par.offset)  # K_n of the m column degrees
    mant = -mant
    if par is Parity.EVEN:
        lo[1] = 1.0 / (2.0 * (g + 1.0))
    else:
        lo[1] = 1.0 / (4.0 * (g + 1.0) * (g + 2.0))
        mant[1], exp[1] = math.frexp(1.0 / (4.0 * (g + 3.0) * (g + 2.0)) + math.ldexp(mant[1], int(exp[1])))
    scale = np.where(mant == 0.0, 0, np.minimum(exp[0] - exp, 0))
    step = np.diff(scale)
    lo[1:] = np.ldexp(lo[1:], -step)  # S[i, i-1] = A[i, i-1] s_{i-1} / s_i
    up[:-1] = np.ldexp(up[:-1], step)  # S[i, i+1] = A[i, i+1] s_{i+1} / s_i
    first = np.ldexp(mant, exp + scale)
    return TauMatrix(m=m, gamma=g, parity=par, first_row=first, lo=lo, dg=dg, up=up, scale=scale, last=dm[-1])


def build_diff_pencil(m: int, idx, variant: str, parity=Parity.EVEN) -> GeneralizedPencil:
    """Differentiation/Galerkin pencil for one parity class.

    Variants:

    diff-elim-last    boundary condition eliminates the top coefficient;
                      A full, B diagonal
    diff-elim-first   boundary condition eliminates the lowest coefficient;
                      A upper triangular, B first row plus subdiagonal
    galerkin-basis    bubble trial functions (1 - x^2) G_n; A upper
                      triangular, B tridiagonal
    ierley-legendre   same trial functions at gamma = 3/2 where they are
                      eigenfunctions of the weighted second derivative;
                      A diagonal (negative), B symmetric tridiagonal

    Only O(m) factors are computed here (see GeneralizedPencil), so the
    build holds no m x m array.  ValueError when a norm h_n or, for the
    elimination variants, a G_n(1) (first: m = 128 from gamma 706) exceeds
    the float range.
    """
    _check_modes(m)
    gdx = as_gegenbauer(idx)
    g = float(gdx.gamma)
    par = as_parity(parity)
    degrees = [par.degree(k) for k in range(m + 1)]
    try:
        h = gegenbauer_norms(degrees[:m], gdx)
    except OverflowError:
        raise ValueError(f"the norms h_n of m = {m} modes at gamma = {gdx.gamma} exceed the float range") from None
    factors = dict(variant=variant, m=m, gamma=g, parity=par, h=h)
    if variant in ("diff-elim-last", "diff-elim-first"):
        ends = np.array([float(v) for v in gegenbauer_at_one_upto(degrees[-1], gdx)[par.offset :: 2]])
        if not np.isfinite(ends).all():
            past = f"the endpoint values G_n(1) of m = {m} modes at gamma = {gdx.gamma}"
            raise ValueError(f"{past} exceed the float range")
        return GeneralizedPencil(ends=ends, **factors)
    s_bands = _one_minus_x2_bands(m, g, par.offset)
    if variant == "galerkin-basis":
        return GeneralizedPencil(s_bands=s_bands, **factors)
    if variant == "ierley-legendre":
        if abs(g - 1.5) > 1e-12:
            raise ValueError(f"ierley-legendre requires gamma = 3/2, got {g}")
        nvec = np.array(degrees[:m], dtype=float)
        a_diag = -(nvec + 1.0) * (nvec + 2.0) * h
        return GeneralizedPencil(s_bands=s_bands, a_diag=a_diag, **factors)
    raise ValueError(f"unknown variant {variant!r}; expected one of {DIFF_VARIANTS}")


def matrix_to_csv(mat: np.ndarray) -> str:
    """Dense row-major CSV, 17 significant digits, LF line endings."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    lines = [",".join(f"{v:.17g}" for v in row) for row in mat]
    return "\n".join(lines) + "\n"


def matrix_to_coord(mat: np.ndarray) -> str:
    """Sparse coordinate text: header 'rows cols nnz', then 'i j value'.

    Indices are zero-based and emitted in row-major order; exact zeros are
    skipped.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    ii, jj = np.nonzero(mat)
    lines = [f"{mat.shape[0]} {mat.shape[1]} {ii.size}"]
    for i, j in zip(ii, jj):
        lines.append(f"{i} {j} {mat[i, j]:.17g}")
    return "\n".join(lines) + "\n"
