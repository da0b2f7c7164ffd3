"""Eigenvalue computation and bookkeeping for the discrete operators.

The robust route never inverts anything: eigenvalues of the banded
integration matrix are reciprocal eigenvalues of the differential operator,
so the large end of the spectrum comes out of small, well-scaled numbers.
The pencil route (A x = lambda B x) reduces B^{-1} A with a solve that
exploits whatever structure B has and is provided for conditioning studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .orthopoly import Parity, as_gegenbauer, as_parity
from .tau_operator import GeneralizedPencil, TauMatrix, build_gi2

__all__ = [
    "Spectrum",
    "SweepResult",
    "EigenPair",
    "dense_eigs",
    "tau_spectrum",
    "pencil_spectrum",
    "exact_spectrum",
    "eigenfunction",
]


def dense_eigs(a: np.ndarray, vectors: bool = False):
    """Eigenvalues (and optionally right eigenvectors) of a dense matrix.

    Wraps the LAPACK general solver; output is sorted by (real, imag) so
    repeated calls are deterministic.  Raises numpy.linalg.LinAlgError if
    the QR iteration fails to converge.
    """
    a = np.asarray(a, dtype=float)
    if vectors:
        w, v = np.linalg.eig(a)
        order = np.lexsort((w.imag, w.real))
        return w[order], v[:, order]
    w = np.linalg.eigvals(a)
    return w[np.lexsort((w.imag, w.real))]


_TINY = 1e-300


def reality_ratio(values: np.ndarray) -> float:
    """Largest |imag| / |value| over the entries (0 when there are none)."""
    if values.size == 0:
        return 0.0
    return float(np.max(np.abs(values.imag) / np.maximum(np.abs(values), _TINY)))


def min_rel_gap(values: np.ndarray) -> float:
    """Smallest step between consecutive entries relative to the larger
    magnitude of the two.

    Real steps keep their sign, so entries out of ascending order (a broken
    interlacing) give a negative ratio; complex steps are measured by their
    modulus.
    """
    if values.size < 2:
        return math.inf
    gaps = np.diff(values)
    if np.iscomplexobj(gaps):
        gaps = np.abs(gaps)
    scales = np.maximum(np.abs(values[:-1]), np.abs(values[1:]))
    return float(np.min(gaps / np.maximum(scales, _TINY)))


@dataclass
class SweepResult:
    """Table of rows under named columns, with metadata and optional
    per-series fits: every tabular output of the package is one of these."""

    name: str
    columns: list
    rows: list
    meta: dict = field(default_factory=dict)
    fits: dict | None = None

    def to_csv(self) -> str:
        """Header row, then one line per row; floats with 17 significant
        digits, LF line endings."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        meta = {"name": self.name, "columns": list(self.columns), **self.meta}
        if self.fits is not None:
            meta["fits"] = self.fits
        return {"meta": meta, "data": {"rows": [list(r) for r in self.rows]}}


@dataclass
class Spectrum:
    """Eigenvalues of one discretization, ascending in magnitude.

    mu holds the reciprocals (the natural variable of the integration
    route); it is +inf at an exact zero eigenvalue.  Reality and negativity
    flags are derived with the stored relative tolerance.
    """

    eigenvalues: np.ndarray
    mu: np.ndarray
    m: int
    gamma: float
    parity: Parity
    bc: str = "dirichlet"
    source: str = "integration"
    tol_real: float = 1e-9

    @property
    def count(self) -> int:
        return self.eigenvalues.size

    @property
    def is_real(self) -> np.ndarray:
        return np.abs(self.eigenvalues.imag) <= self.tol_real * np.abs(self.eigenvalues)

    @property
    def is_negative(self) -> np.ndarray:
        return self.eigenvalues.real < 0.0

    def max_imag_ratio(self) -> float:
        return reality_ratio(self.eigenvalues)

    def min_gap_ratio(self) -> float:
        """Smallest relative spacing between consecutive eigenvalues.

        Eigenvalues are compared in the (real, imag) sort order; the gap is
        measured in the complex plane relative to the larger magnitude.
        """
        return min_rel_gap(self.eigenvalues[np.lexsort((self.eigenvalues.imag, self.eigenvalues.real))])

    def table(self) -> SweepResult:
        """Per-mode error table: k, lambda_re, lambda_im, lambda_exact, rel_err.

        rel_err is |lambda - exact| / |exact|, or the plain distance at an
        exact zero eigenvalue (the Neumann even mode).  The modulus is taken
        by hypot because numpy's vectorized complex abs can differ from it in
        the last bit, and every CSV and JSON output reads this one number.
        """
        lam = self.eigenvalues
        exact = exact_spectrum(self.count, self.parity, self.bc)
        d = lam - exact
        err = np.hypot(d.real, d.imag) / np.where(exact == 0, 1.0, np.abs(exact))
        return SweepResult(
            name="spectrum",
            columns=["k", "lambda_re", "lambda_im", "lambda_exact", "rel_err"],
            rows=list(zip(range(self.count), lam.real.tolist(), lam.imag.tolist(), exact.tolist(), err.tolist())),
            meta={
                "m": self.m,
                "gamma": self.gamma,
                "parity": self.parity.value,
                "bc": self.bc,
                "source": self.source,
                "tol_real": self.tol_real,
            },
        )

    def csv(self) -> str:
        """The per-mode error table as CSV."""
        return self.table().to_csv()

    def to_json_dict(self) -> dict:
        """The per-mode error table as a meta/data envelope, one list per column."""
        table = self.table()
        data = dict(zip(table.columns, map(list, zip(*table.rows))))
        del data["k"]
        return {"meta": table.meta, "data": data}


def _sorted_by_magnitude(lam: np.ndarray, mu: np.ndarray):
    order = np.argsort(np.abs(lam), kind="stable")
    return lam[order], mu[order]


# LAPACK dgebal's safe range: sfmin1 = dlamch('S') / dlamch('P')
_SFMIN1 = 2.0**-1022 / 2.0**-52
_SFMAX1 = 1.0 / _SFMIN1
_SFMIN2 = 2.0 * _SFMIN1
_SFMAX2 = 1.0 / _SFMIN2


def _balance_scales(tau: TauMatrix) -> np.ndarray:
    """Diagonal scaling of LAPACK dgebal (job 'S') on the banded storage.

    Replays dgebal's Parlett-Reinsch loop: for each index in Gauss-Seidel
    order, compare the 2-norms of its column and row, pick the power of two
    f that balances them, and rescale row i by 1/f and column i by f when
    that lowers their sum below 0.95 of what it was (with the same max-norm,
    sfmin/sfmax and NaN guards).  dgebal re-reads every row and column on
    every sweep at O(m^2) each; here an index is re-evaluated only when its
    row or column changed since it was last seen: rescaling j >= 1 touches
    indices j-1, j, j+1 and 0 (the full first row), and rescaling 0 touches
    every index.  Power-of-two scalings are exact, so diag(1/s) M diag(s)
    equals the matrix dgebal produces, and dgebal inside the dense solve
    then stops after one sweep without a change.
    """
    m = tau.m
    # row 0 is stored whole; rows i >= 1 as lo[i], dg[i], up[i] = A[i, i-1..i+1]
    top = tau.first_row.tolist()
    lo = [0.0, tau.m10] + tau.sub.tolist() + [0.0]
    dg = [0.0] + tau.diag.tolist()
    up = [0.0] + tau.sup.tolist() + [0.0]
    scale = [1.0] * m
    dirty = bytearray(b"\x01" * m)
    hypot = math.hypot
    i = -1
    while True:
        i = dirty.find(1, i + 1)
        if i < 0:
            i = dirty.find(1)  # wrap around: the next sweep
            if i < 0:
                break
        dirty[i] = 0
        if i == 0:
            c, ca = hypot(top[0], lo[1]), max(abs(top[0]), abs(lo[1]))
            r, ra = hypot(*top), max(map(abs, top))
        else:
            # column i: A[0, i], A[i-1, i], A[i, i], A[i+1, i] (padding zeros where absent)
            col = (top[i], up[i - 1], dg[i], lo[i + 1])
            row = (lo[i], dg[i], up[i])
            c, ca = hypot(*col), max(map(abs, col))
            r, ra = hypot(*row), max(map(abs, row))
        if c == 0.0 or r == 0.0:
            continue
        if math.isnan(c + ca + r + ra):
            break
        g, f, s = r / 2.0, 1.0, c + r
        while c < g and max(f, c, ca) < _SFMAX2 and min(r, g, ra) > _SFMIN2:
            f, c, ca, r, g, ra = 2.0 * f, 2.0 * c, 2.0 * ca, r / 2.0, g / 2.0, ra / 2.0
        g = c / 2.0
        while g >= r and max(r, ra) < _SFMAX2 and min(f, c, g, ca) > _SFMIN2:
            f, c, g, ca, r, ra = f / 2.0, c / 2.0, g / 2.0, ca / 2.0, 2.0 * r, 2.0 * ra
        si = scale[i]
        if (
            c + r >= 0.95 * s
            or (f < 1.0 and si < 1.0 and f * si <= _SFMIN1)
            or (f > 1.0 and si > 1.0 and si >= _SFMAX1 / f)
        ):
            continue
        scale[i] = si * f
        g = 1.0 / f
        if i == 0:
            top = [v * g for v in top]
            top[0] *= f
            lo[1] *= f
            dirty[:] = b"\x01" * m
        else:
            lo[i] *= g
            dg[i] *= g
            up[i] *= g
            top[i] *= f
            up[i - 1] *= f
            dg[i] *= f
            lo[i + 1] *= f
            dirty[0] = dirty[i - 1] = dirty[i] = 1
            if i + 1 < m:
                dirty[i + 1] = 1
    return np.array(scale)


def tau_spectrum(m: int, idx, parity, bc: str = "dirichlet", tol_real: float = 1e-9) -> Spectrum:
    """Spectrum of the m-mode discretization via the integration route.

    Dirichlet eigenvalues are reciprocals of the eigenvalues of the banded
    square matrix, which is balanced from its bands before the dense solve
    (same eigenvalues, bit for bit, as solving it unbalanced).  Neumann reduces by differentiating the eigenfunctions:
    even modes give a zero eigenvalue plus the odd Dirichlet spectrum with
    the family parameter raised by one, odd modes give the even Dirichlet
    spectrum at the raised parameter with no zero mode.
    """
    gdx = as_gegenbauer(idx)
    par = as_parity(parity)
    if bc == "neumann":
        inner = tau_spectrum(m, gdx.shifted(), par.flipped(), "dirichlet", tol_real)
        if par is Parity.EVEN:
            lam = np.concatenate(([0.0 + 0.0j], inner.eigenvalues))
            mu = np.concatenate(([np.inf], inner.mu))
        else:
            lam, mu = inner.eigenvalues, inner.mu
        return Spectrum(lam, mu, m, float(gdx.gamma), par, bc="neumann", source="integration", tol_real=tol_real)
    if bc != "dirichlet":
        raise ValueError(f"unknown boundary condition {bc!r}")
    tau = build_gi2(m, gdx, par)
    scale = _balance_scales(tau)
    M = tau.square()
    M *= scale
    M /= scale[:, None]
    mu = dense_eigs(M)
    lam, mu = _sorted_by_magnitude(1.0 / mu, mu)
    return Spectrum(lam, mu, m, float(gdx.gamma), par, bc="dirichlet", source="integration", tol_real=tol_real)


def _solve_structured(pencil: GeneralizedPencil) -> np.ndarray:
    """B^{-1} A using the recorded structure of B."""
    A, B = pencil.A, pencil.B
    if pencil.b_structure == "diagonal":
        d = np.diag(B).copy()
        if np.min(np.abs(d)) == 0.0:
            raise np.linalg.LinAlgError(f"variant {pencil.variant}: diagonal B is singular")
        return A / d[:, None]
    if pencil.b_structure == "tridiagonal":
        m = B.shape[0]
        ab = np.zeros((3, m))
        ab[0, 1:] = np.diag(B, 1)
        ab[1, :] = np.diag(B)
        ab[2, :-1] = np.diag(B, -1)
        return scipy.linalg.solve_banded((1, 1), ab, A)
    if pencil.b_structure == "first-row-subdiagonal":
        # rows 1..m-1 determine x_0..x_{m-2} directly; row 0 closes x_{m-1}
        m = B.shape[0]
        sub = B[np.arange(1, m), np.arange(0, m - 1)]
        X = np.zeros_like(A)
        X[: m - 1, :] = A[1:, :] / sub[:, None]
        X[m - 1, :] = (A[0, :] - B[0, : m - 1] @ X[: m - 1, :]) / B[0, m - 1]
        return X
    return np.linalg.solve(B, A)


def pencil_spectrum(pencil: GeneralizedPencil, tol_real: float = 1e-9) -> Spectrum:
    """Spectrum of a generalized pencil A x = lambda B x via B^{-1} A.

    The integration route has no pencil form here: tau_spectrum takes the
    eigenvalues of the banded matrix directly and inverts them afterwards.
    """
    lam = dense_eigs(_solve_structured(pencil))
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(lam != 0, 1.0 / lam, np.inf)
    lam, mu = _sorted_by_magnitude(lam, mu)
    return Spectrum(
        lam,
        mu,
        pencil.m,
        pencil.gamma,
        pencil.parity,
        bc="dirichlet",
        source=pencil.variant,
        tol_real=tol_real,
    )


def exact_spectrum(count: int, parity, bc: str = "dirichlet") -> np.ndarray:
    """First `count` eigenvalues of u'' = lambda u on [-1, 1], ascending |.|.

    Dirichlet even modes are -(2k-1)^2 pi^2 / 4, odd modes -k^2 pi^2.
    Neumann even modes are 0, -pi^2, -4 pi^2, ...; Neumann odd modes match
    the Dirichlet even sequence.
    """
    par = as_parity(parity)
    k = np.arange(1, count + 1, dtype=float)
    pi2 = math.pi * math.pi
    if bc == "dirichlet":
        if par is Parity.EVEN:
            return -((2.0 * k - 1.0) ** 2) * pi2 / 4.0
        return -(k * k) * pi2
    if bc == "neumann":
        if par is Parity.EVEN:
            return np.concatenate(([0.0], -(k[: count - 1] ** 2) * pi2))
        return -((2.0 * k - 1.0) ** 2) * pi2 / 4.0
    raise ValueError(f"unknown boundary condition {bc!r}")


@dataclass
class EigenPair:
    """One eigenvalue with the coefficients of u and of u''.

    u_coeffs has one more entry than d2u_coeffs (double integration raises
    the degree); both are scaled so the largest-magnitude entry of u_coeffs
    is exactly 1.
    """

    eigenvalue: complex
    u_coeffs: np.ndarray
    d2u_coeffs: np.ndarray
    m: int
    gamma: float
    parity: Parity

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate u at the given points from its coefficients."""
        from .orthopoly import gegenbauer_eval

        x = np.asarray(x, dtype=float)
        acc = np.zeros(x.shape, dtype=complex)
        for k, c in enumerate(self.u_coeffs):
            if c != 0:
                acc = acc + c * gegenbauer_eval(self.parity.degree(k), self.gamma, x)
        return acc


def eigenfunction(j: int, m: int, idx, parity) -> EigenPair:
    """The j-th (ascending magnitude) Dirichlet eigenpair of the m-mode
    discretization, reconstructed through the double integration so the
    boundary conditions hold by construction."""
    gdx = as_gegenbauer(idx)
    par = as_parity(parity)
    if not 0 <= j < m:
        raise ValueError(f"eigenvalue index {j} out of range for m = {m}")
    tau = build_gi2(m, gdx, par)
    w, V = dense_eigs(tau.square(), vectors=True)
    lam = 1.0 / w
    order = np.argsort(np.abs(lam), kind="stable")
    pick = order[j]
    c = V[:, pick]
    if np.max(np.abs(c.imag)) <= 1e-12 * np.max(np.abs(c)):
        c = c.real.copy()
    u = tau.apply(c.real) if np.isrealobj(c) else tau.apply(c.real) + 1j * tau.apply(c.imag)
    scale = u[np.argmax(np.abs(u))]
    return EigenPair(
        eigenvalue=complex(lam[pick]),
        u_coeffs=u / scale,
        d2u_coeffs=np.asarray(c) / scale,
        m=m,
        gamma=float(gdx.gamma),
        parity=par,
    )
