"""Discrete operators for u'' = lambda u on [-1, 1] with u(+-1) = 0.

Two families:

* the integration form: a banded (tridiagonal plus a boundary first row)
  matrix M acting on the parity-reduced coefficients of f = u''; the
  rectangular extension of M maps f to the coefficients of the double
  antiderivative that vanishes at both endpoints, and eigenvalues come from
  the square part as reciprocals of its eigenvalues.

* differentiation/Galerkin pencils (A, B) with A x = lambda B x obtained by
  eliminating one coefficient against the boundary condition or by building
  the bubble trial basis (1 - x^2) G_n; these are the classically
  ill-conditioned routes kept for comparison.

Entries are float64; the assembled structures are asserted at build time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charpoly import k_constants
from .orthopoly import (
    Parity,
    as_gegenbauer,
    as_parity,
    gegenbauer_at_one_upto,
    gegenbauer_norms,
    one_minus_x2_block,
    second_derivative_block,
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


@dataclass(frozen=True)
class TauMatrix:
    """Banded integration operator for one parity class.

    Column j corresponds to mode degree n_j = 2(j+1) - 2 + offset... in
    plain terms the matrix couples the m parity-reduced coefficients of
    u'' and is stored by its bands:

    first_row   length m, the boundary row (row 0)
    m10         the single entry in row 1, column 0
    diag        d0 entries for columns 1..m-1 (rows 1..m-1)
    sup         dp entries for columns 2..m-1 (rows 1..m-2)
    sub         dm entries for columns 1..m-2 (rows 2..m-1)
    last        dm entry of the extra rectangular row (row m, column m-1)
    """

    m: int
    gamma: float
    parity: Parity
    first_row: np.ndarray
    m10: float
    diag: np.ndarray
    sup: np.ndarray
    sub: np.ndarray
    last: float

    def square(self) -> np.ndarray:
        """Dense m x m matrix whose eigenvalues are the reciprocal spectrum."""
        m = self.m
        M = np.zeros((m, m))
        M[0, :] = self.first_row
        M[1, 0] = self.m10
        cols = np.arange(1, m)
        M[cols, cols] = self.diag
        if m >= 3:
            M[np.arange(1, m - 1), np.arange(2, m)] = self.sup
            M[np.arange(2, m), np.arange(1, m - 1)] = self.sub
        return M

    def rectangular(self) -> np.ndarray:
        """(m+1) x m extension whose action is the double integration."""
        R = np.zeros((self.m + 1, self.m))
        R[: self.m, :] = self.square()
        R[self.m, self.m - 1] = self.last
        return R

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Rectangular action on a coefficient vector, O(m)."""
        f = np.asarray(f, dtype=float)
        if f.shape != (self.m,):
            raise ValueError(f"expected {self.m} coefficients, got shape {f.shape}")
        m = self.m
        u = np.zeros(m + 1)
        u[0] = self.first_row @ f
        u[1] = self.m10 * f[0] + self.diag[0] * f[1] + (self.sup[0] * f[2] if m >= 3 else 0.0)
        if m >= 3:
            u[2 : m - 1] = self.sub[: m - 3] * f[1 : m - 2] + self.diag[1 : m - 2] * f[2 : m - 1] + self.sup[1:] * f[3:]
            u[m - 1] = self.sub[m - 3] * f[m - 2] + self.diag[m - 2] * f[m - 1]
        u[m] = self.last * f[m - 1]
        return u


@dataclass(frozen=True)
class GeneralizedPencil:
    """Matrix pair (A, B) for A x = lambda B x plus structure bookkeeping."""

    A: np.ndarray
    B: np.ndarray
    variant: str
    a_structure: str
    b_structure: str
    m: int
    gamma: float
    parity: Parity


def build_gi2(m: int, idx, parity) -> TauMatrix:
    """Assemble the banded double-integration operator.

    The bands are reciprocals of quadratic polynomials in the mode degree;
    the first row carries the boundary constants (negated K values).  Needs
    m >= 2 so the band structure exists.
    """
    if m < 2:
        raise ValueError(f"need at least 2 modes, got {m}")
    gdx = as_gegenbauer(idx)
    g = float(gdx.gamma)
    par = as_parity(parity)
    ip = par.offset
    n = 2.0 * np.arange(1, m) + ip  # degrees of columns 1..m-1
    dm = 1.0 / (4.0 * (g + n + 1.0) * (g + n))
    d0 = -1.0 / (2.0 * (g + n + 1.0) * (g + n - 1.0))
    dp = 1.0 / (4.0 * (g + n) * (g + n - 1.0))
    # K_ip, then K_n for the column degrees n = 2j + ip, j = 1..m-1
    ks = k_constants([ip] + [2 * j + ip for j in range(1, m)], gdx)
    first = -np.array([float(k) for k in ks])
    if par is Parity.EVEN:
        m10 = 1.0 / (2.0 * (g + 1.0))
    else:
        first[1] = 1.0 / (4.0 * (g + 3.0) * (g + 2.0)) - float(ks[1])
        m10 = 1.0 / (4.0 * (g + 1.0) * (g + 2.0))
    return TauMatrix(
        m=m,
        gamma=g,
        parity=par,
        first_row=first,
        m10=m10,
        diag=d0,
        sup=dp[1:],
        sub=dm[:-1],
        last=dm[-1],
    )


def _assert_structure(mat: np.ndarray, kind: str, variant: str) -> None:
    n = mat.shape[0]
    scale = np.max(np.abs(mat)) or 1.0
    tol = 1e-13 * scale
    i, j = np.indices(mat.shape)
    if kind == "diagonal":
        bad = np.abs(mat[i != j])
    elif kind == "upper-triangular":
        bad = np.abs(mat[i > j])
    elif kind == "tridiagonal":
        bad = np.abs(mat[np.abs(i - j) > 1])
    elif kind == "first-row-subdiagonal":
        bad = np.abs(mat[(i != 0) & (i != j + 1)])
    elif kind == "full":
        return
    else:
        raise ValueError(f"unknown structure kind {kind!r}")
    if bad.size and bad.max() > tol:
        raise AssertionError(f"variant {variant}: matrix is not {kind} (worst off-pattern entry {bad.max():.3e})")


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
    """
    if m < 2:
        raise ValueError(f"need at least 2 modes, got {m}")
    gdx = as_gegenbauer(idx)
    g = float(gdx.gamma)
    par = as_parity(parity)
    degrees = [par.degree(k) for k in range(m + 1)]
    h = gegenbauer_norms(degrees[:m], gdx)
    if variant in ("diff-elim-last", "diff-elim-first"):
        d2 = second_derivative_block(m, m + 1, gdx, par)
        a0 = h[:, None] * d2
        gv = np.array([float(v) for v in gegenbauer_at_one_upto(degrees[-1], gdx)[par.offset :: 2]])
        if variant == "diff-elim-last":
            C = np.vstack([np.eye(m), -gv[:m] / gv[m]])
            A = a0 @ C
            B = np.diag(h)
            astr, bstr = "full", "diagonal"
        else:
            A = a0[:, 1:].copy()
            B = np.zeros((m, m))
            B[0, :] = -h[0] * gv[1:] / gv[0]
            B[np.arange(1, m), np.arange(0, m - 1)] = h[1:]
            astr, bstr = "upper-triangular", "first-row-subdiagonal"
    elif variant == "galerkin-basis":
        S = one_minus_x2_block(m + 1, m, gdx, par)
        d2 = second_derivative_block(m, m + 1, gdx, par)
        A = h[:, None] * (d2 @ S)
        B = h[:, None] * S[:m, :]
        astr, bstr = "upper-triangular", "tridiagonal"
    elif variant == "ierley-legendre":
        if abs(g - 1.5) > 1e-12:
            raise ValueError(f"ierley-legendre requires gamma = 3/2, got {g}")
        S = one_minus_x2_block(m, m, gdx, par)
        nvec = np.array(degrees[:m], dtype=float)
        A = np.diag(-(nvec + 1.0) * (nvec + 2.0) * h)
        B = h[:, None] * S
        astr, bstr = "diagonal", "tridiagonal"
    else:
        raise ValueError(f"unknown variant {variant!r}; expected one of {DIFF_VARIANTS}")
    _assert_structure(A, astr, variant)
    _assert_structure(B, bstr, variant)
    return GeneralizedPencil(A=A, B=B, variant=variant, a_structure=astr, b_structure=bstr, m=m, gamma=g, parity=par)


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
