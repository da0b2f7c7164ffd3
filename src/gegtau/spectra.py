"""Eigenvalue computation and bookkeeping for the discrete operators.

The robust route never inverts anything: eigenvalues of the banded
integration matrix are reciprocal eigenvalues of the differential operator,
so the large end of the spectrum comes out of small, well-scaled numbers.
The pencil route (A x = lambda B x) reduces B^{-1} A with a solve that
exploits whatever structure B has and is provided for conditioning studies.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.cython_lapack

from .orthopoly import Parity, as_gegenbauer, as_parity
from .tau_operator import GeneralizedPencil, TauMatrix, _check_modes, _work_matrix, build_gi2

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


class _Scratch(np.ndarray):
    """A matrix handed to dense_eigs to work in: tau_spectrum and
    pencil_spectrum build theirs only for its eigenvalues and pass it as a
    view of this type (or of _Hessenberg), which dense_eigs may overwrite,
    so the solve makes no m x m copy.  Any other array it leaves as it was.
    """


class _Hessenberg(_Scratch):
    """tau_spectrum's square: upper Hessenberg, and on purpose not balanced
    (see _hessenberg_eigvals), so dense_eigs gives it to dhseqr alone."""


def dense_eigs(a: np.ndarray, vectors: bool = False):
    """Eigenvalues (and optionally right eigenvectors) of a square matrix,
    sorted by (real, imag) so repeated calls are deterministic.

    The route follows what the caller knows: tau_spectrum's square, passed
    as a _Hessenberg view, goes to LAPACK's Hessenberg QR iteration dhseqr
    alone (_hessenberg_eigvals); any other matrix to LAPACK's dgeev
    (_general_eigvals), and every eigenvector request to numpy's.  Both
    LAPACK routes call scipy's own LAPACK (_lapack) on a Fortran-ordered work
    matrix with a padded leading dimension (tau_operator._work_matrix).
    numpy.linalg.LinAlgError on non-finite input, where the QR iteration
    fails, and on the dgeev route for a largest |entry| outside [2^-459,
    2^459], which dgeev would rescale (scipy 1.17 then returns the rescaled
    matrix's eigenvalues; B^{-1} A reads 4.3e3 to 6.5e35).  The input is never
    modified, unless it is a _Scratch view with unit row stride: then LAPACK
    works in it; any other input is copied into a padded work matrix first.
    """
    hessenberg, overwrite_a = isinstance(a, _Hessenberg), isinstance(a, _Scratch)
    a = np.asarray(a, dtype=float)
    if vectors:
        w, v = np.linalg.eig(a)
        order = np.lexsort((w.imag, w.real))
        return w[order], v[:, order]
    anrm = max(a.max(), -a.min())  # not a.max() - a.min(), which can overflow on finite input
    if not math.isfinite(anrm):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    if not hessenberg and (0.0 < anrm < _GEEV_SMLNUM or anrm > _GEEV_BIGNUM):
        raise np.linalg.LinAlgError(f"largest |entry| {anrm:.3g} is outside dgeev's unscaled range [2^-459, 2^459]")
    work = a
    if not (overwrite_a and _lda(a)):
        work = _work_matrix(a.shape[0])
        work[...] = a
    w = _hessenberg_eigvals(work) if hessenberg else _general_eigvals(work)
    return w[np.lexsort((w.imag, w.real))]


@functools.cache
def _lapack_entry(name: str, nargs: int):
    """The C entry point of LAPACK routine name as a ctypes function of
    nargs pointers."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(get_pointer(capsule, get_name(capsule)))


def _lapack(name: str, *args) -> int:
    """Call the LAPACK routine name of scipy's own LAPACK and return INFO.

    scipy exports the C entry point of each routine in a capsule of
    scipy.linalg.cython_lapack; unlike its f2py wrappers, which copy any
    matrix that is not contiguous, the entry point takes a leading dimension
    and works in a padded matrix as it is.  args are LAPACK's arguments in
    order, INFO left out, each passed by reference: bytes for a character
    flag, an int for an integer input (32 bits), an array for an array or an
    integer output (an int32 array).  Arrays are not checked: the caller
    passes them with LAPACK's sizes.
    """
    args = [np.array([v], np.int32) if isinstance(v, int) else v for v in args]
    info = np.zeros(1, np.int32)
    _lapack_entry(name, len(args) + 1)(*[v if isinstance(v, bytes) else v.ctypes.data for v in args], info.ctypes.data)
    return int(info[0])


def _lda(a: np.ndarray) -> int:
    """The leading dimension LAPACK can work in the square float64 a with,
    in place, or 0 when a needs a copy (not Fortran-ordered, read-only or
    misaligned)."""
    step, stride = a.strides
    fits = step == 8 and stride % 8 == 0 and stride >= 8 * a.shape[0]
    return stride // 8 if fits and a.dtype == np.float64 and a.flags.writeable and a.flags.aligned else 0


@functools.cache
def _geev_lwork(n: int) -> int:
    """The workspace dgeev (eigenvalues only) asks for at order n."""
    query, one = np.empty(1), np.empty(1)
    _lapack("dgeev", b"N", b"N", n, one, n, one, one, one, 1, one, 1, query, -1)
    return int(query[0])


# dgeev rescales its input first when the largest |entry| lies outside
# [smlnum, bignum], smlnum = sqrt(dlamch('S')) / dlamch('P')
_GEEV_SMLNUM = 2.0**-511 / 2.0**-52
_GEEV_BIGNUM = 1.0 / _GEEV_SMLNUM


def _as_eigvals(wr: np.ndarray, wi: np.ndarray) -> np.ndarray:
    """LAPACK's (wr, wi) as numpy.linalg.eigvals returns them: real when
    every imaginary part is zero."""
    if not wi.any():
        return wr
    w = np.empty(wr.size, dtype=complex)
    w.real, w.imag = wr, wi  # wr + 1j * wi could flip the sign of a zero
    return w


def _general_eigvals(work: np.ndarray) -> np.ndarray:
    """Eigenvalues of the square work matrix by LAPACK dgeev (balance,
    Hessenberg reduction, QR) in place, unsorted.

    dgeev gets the workspace size its own query returns, as inside
    numpy.linalg.eigvals, whose bits it gives on one BLAS thread.
    """
    n = work.shape[0]
    wr, wi, none = np.empty(n), np.empty(n), np.empty(1)
    lwork = _geev_lwork(n)
    info = _lapack("dgeev", b"N", b"N", n, work, _lda(work), wr, wi, none, 1, none, 1, np.empty(lwork), lwork)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return _as_eigvals(wr, wi)


def _hessenberg_eigvals(work: np.ndarray) -> np.ndarray:
    """Eigenvalues of the upper Hessenberg work matrix by LAPACK dhseqr in
    place, unsorted, with the bits of dgeevx with BALANC = 'N': that is
    dgehrd, whose reflectors are the identity on a Hessenberg matrix, and
    dhseqr with dgeev's workspace (dgeevx hands it n entries less, with the
    same bits).  Balancing is left out on purpose: on tau_spectrum's square
    it lost the low modes at large gamma (at m = 1024 and gamma 20 mode 5
    was 2e-5 off the closed form).
    """
    n = work.shape[0]
    # inside dgeev, dhseqr's workspace starts n entries into dgeev's own
    lwork = _geev_lwork(n) - n
    wr, wi, none = np.empty(n), np.empty(n), np.empty(1)
    info = _lapack("dhseqr", b"E", b"N", n, 1, n, work, _lda(work), wr, wi, none, 1, np.empty(max(lwork, 1)), lwork)
    if info != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return _as_eigvals(wr, wi)


_TINY = 1e-300


def reality_ratio(values: np.ndarray):
    """Largest |imag| / |value| along the last axis (0 where there are no
    entries): a float for a 1-D array, an array with one per row for a 2-D
    one."""
    if values.shape[-1] == 0:
        return _per_row(np.zeros(values.shape[:-1]))
    return _per_row(np.max(np.abs(values.imag) / np.maximum(np.abs(values), _TINY), axis=-1))


def min_rel_gap(values: np.ndarray):
    """Smallest step between consecutive entries along the last axis,
    relative to the larger magnitude of the two (inf for fewer than two
    entries): a float for a 1-D array, an array with one per row for a 2-D
    one.

    Real steps keep their sign, so entries out of ascending order (a broken
    interlacing) give a negative ratio; complex steps are measured by their
    modulus.
    """
    if values.shape[-1] < 2:
        return _per_row(np.full(values.shape[:-1], math.inf))
    gaps = np.diff(values, axis=-1)
    if np.iscomplexobj(gaps):
        gaps = np.abs(gaps)
    scales = np.maximum(np.abs(values[..., :-1]), np.abs(values[..., 1:]))
    return _per_row(np.min(gaps / np.maximum(scales, _TINY), axis=-1))


def _per_row(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


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


def _check_tolerance(name: str, value) -> None:
    """ValueError unless value is a finite tolerance >= 0."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value}")


def _sorted_by_magnitude(lam: np.ndarray, mu: np.ndarray):
    order = np.argsort(np.abs(lam), kind="stable")
    return lam[order], mu[order]


# Both partial routes serve count=k only for k <= m / _PARTIAL_MAX_SHARE;
# shifted inverse iteration does so at every m.
_PARTIAL_MAX_SHARE = 8
_SHIFTED_STEPS = 2  # inverse iteration steps per mode
_SHIFTED_MAX_STEPS = 4  # ... and at most, for a mode that fails its checks after fewer
_SHIFTED_REL = 1e-8  # how far a mode may lie from its exact value
_POWER_STEPS = 8  # deflated power iteration steps of the dominance check
_EPS = 2.0**-53


def _shifted_eigs(tau: TauMatrix, k: int):
    """The k largest-|mu| eigenvalues of tau.square(), from the largest
    down, or None when a check fails and the next route should serve.

    The low Dirichlet modes are known in closed form to about 1e-14, so
    inverse iteration shifted to sigma_j = 1 / exact_spectrum's j-th value
    (TauMatrix.inverse_iteration, two O(m) band solves per vector from a
    fixed start) gives the j-th right and left vectors x_j, y_j, and
    mu_j = y_j^T A x_j / y_j^T x_j with A x_j from TauMatrix.apply.  A is the
    row-scaled matrix TauMatrix holds, so ||A||_F and the vectors stay in
    range at every gamma build_gi2 accepts.  No m x m array.  A mode that
    fails the checks below after _SHIFTED_STEPS steps is tried again with
    one more step at a time, up to _SHIFTED_MAX_STEPS.  Accepted only if

    - each backward residual ||A x_j - mu_j x_j|| is at most m u ||A||_F;
    - each mu_j lies within _SHIFTED_REL of sigma_j, so the modes are
      distinct and in order;
    - each componentwise first-order error bound |y_j|^T |r_j| / |y_j^T x_j|,
      r_j = A x_j - mu_j x_j, is within _SHIFTED_REL of |mu_j|: eta kappa_c,
      the left-weighted backward error times the componentwise condition
      number, neither changed by a diagonal scaling of A.  It refuses where
      the values are off: m = 4000, gamma 10, k = 100 reads 1.3e7, with
      values 3.6e-5 from the closed form;
    - a deflated power iteration, _POWER_STEPS steps of
      (I - X (Y^T X)^{-1} Y^T) A from the same start, grows by less than
      |mu_k| in its last step: no other eigenvalue found that way is as
      large, which keeps the "k largest |mu|" of ARPACK's which="LM".  It is
      a check, not a certificate.
    """
    m = tau.m
    if _PARTIAL_MAX_SHARE * k > m:
        return None
    sigma = 1.0 / exact_spectrum(k, tau.parity)
    start = np.random.default_rng(0).uniform(-1.0, 1.0, m)
    mu, X, Y = np.empty(k), np.empty((k, m)), np.empty((k, m))
    with np.errstate(all="ignore"):  # a NaN or inf fails the checks below
        bands = (tau.first_row, tau.lo, tau.dg, tau.up)
        bound = m * _EPS * math.sqrt(sum(b @ b for b in bands))  # m u ||A||_F
        for j, s in enumerate(sigma):
            for steps in range(_SHIFTED_STEPS, _SHIFTED_MAX_STEPS + 1):
                try:
                    x, y = tau.inverse_iteration(s, start, steps)
                except np.linalg.LinAlgError:
                    return None
                ax = tau.apply(x)[:m]
                yx = y @ x
                mu[j] = (y @ ax) / yx
                r = ax - mu[j] * x
                tol = _SHIFTED_REL * abs(mu[j])
                if np.linalg.norm(r) <= bound and abs(mu[j] - s) <= tol and np.abs(y) @ np.abs(r) <= tol * abs(yx):
                    break
            else:
                return None
            X[j], Y[j] = x, y / yx
        v = start - (Y @ start) @ X
        for _ in range(_POWER_STEPS):
            v = tau.apply(v / np.linalg.norm(v))[:m]
            v -= (Y @ v) @ X
        if not np.linalg.norm(v) < abs(mu[-1]):
            return None
    return mu


# ARPACK serves the count=k requests that _shifted_eigs refuses, from m = 96
# modes and for k <= m / 8.  On one BLAS thread against the dense route, at
# gamma 0.5 and 2.4, k = 1 took 0.4-0.6 of the dense time at m = 96 and
# 0.01-0.06 at m = 1024, and k = m / 8 below 0.8 from m = 96 on; at m = 64
# and below the dense solve is as fast or faster.
_ARPACK_MIN_M = 96


def _arpack_eigs(tau: TauMatrix, k: int):
    """The k + 1 largest-|mu| eigenvalues of tau.square() in dense_eigs'
    (real, imag) order, or None when the dense route should serve instead
    (m < _ARPACK_MIN_M, k > m / _PARTIAL_MAX_SHARE, or ARPACK fails).

    ARPACK's implicitly restarted Arnoldi iteration (which="LM", tol=0) runs
    on the O(m) band matvec tau.apply of the row-scaled matrix and never
    forms it: unscaled, the Ritz values at gamma 20 and 50 with k = m / 8
    missed the lowest mode (100% off at m = 1024, gamma 20).  One value
    beyond k keeps both members of a conjugate pair cut at position k, so
    the caller's sort picks the one the dense order puts first.  A fixed
    start gives the same bits on repeated calls.
    """
    m = tau.m
    if m < _ARPACK_MIN_M or _PARTIAL_MAX_SHARE * k > m:
        return None
    import scipy.sparse.linalg  # deferred: 35-70 ms and 2 MB that only partial spectra need

    op = scipy.sparse.linalg.LinearOperator((m, m), matvec=lambda f: tau.apply(f)[:m], dtype=float)
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, m)
    try:
        w = scipy.sparse.linalg.eigs(op, k=k + 1, which="LM", tol=0, v0=v0, return_eigenvectors=False)
    except scipy.sparse.linalg.ArpackError:  # no convergence, or no Arnoldi basis: the dense route answers
        return None
    w = w[np.lexsort((w.imag, w.real))]
    return w if w.imag.any() else w.real


def tau_spectrum(
    m: int, idx, parity, bc: str = "dirichlet", tol_real: float = 1e-9, count: int | None = None
) -> Spectrum:
    """Spectrum of the m-mode discretization via the integration route.

    Dirichlet eigenvalues are reciprocals of the eigenvalues of the banded
    square matrix, held row-scaled by build_gi2 (TauMatrix), so its entries
    stay in the float range at every gamma below 2^53.  The square, upper
    Hessenberg (tridiagonal plus the first row), is handed to dense_eigs as
    a _Hessenberg view: one LAPACK call, the Hessenberg QR iteration dhseqr,
    with no balancing (see _hessenberg_eigvals) and no O(m^3) reduction,
    gives the eigenvalues, bit for bit, of LAPACK dgeevx with BALANC = 'N'
    on that matrix, in which it works (TauMatrix.square).

    Neumann reduces by differentiating the eigenfunctions: even modes give
    a zero eigenvalue plus the odd Dirichlet spectrum with the family
    parameter raised by one, odd modes give the even Dirichlet spectrum at
    the raised parameter with no zero mode.

    count=k keeps the k lowest-|lambda| modes (1 <= k <= m, or m + 1 with
    the even Neumann zero mode), in the full spectrum's order.  Three routes
    serve it, each taking what the one before refuses:

    - k <= m / 8: inverse iteration shifted to the exact values, O(m) band
      solves with no m x m array (_shifted_eigs).  On one BLAS thread
      count=1 takes 0.45-0.6 ms at m = 16-128 and 1-2 ms at m = 1024,
      m = 1024 and k = 128 32-34 ms, and k = 3 at m = 8000 and gamma 1000
      4-5 ms.  Its trust test serves k = 1 and 2 from m = 16 on, across a
      grid of gamma up to 100 and at m = 16-4000 and gamma 150 to 9e15; the
      largest k it serves falls with gamma: m / 8 up to gamma 3, 56-66 at
      gamma 5 and m >= 1024, 7-9 at gamma 10, 5-6 at gamma 20.  It refuses
      any request with a conjugate pair among its modes;
    - m >= 96 and k <= m / 8: ARPACK on the row-scaled O(m) matvec
      (_arpack_eigs);
    - anything else: the full dense spectrum, sliced.

    A request the first route refuses gets the bits it got before that
    route existed.
    """
    _check_modes(m)
    gdx = as_gegenbauer(idx)
    par = as_parity(parity)
    zero_mode = bc == "neumann" and par is Parity.EVEN
    if count is not None and not 1 <= count <= m + zero_mode:
        raise ValueError(f"count must be between 1 and {m + zero_mode}, got {count}")
    _check_tolerance("tol_real", tol_real)
    if bc == "neumann":
        inner_count = None if count is None else max(count - zero_mode, 1)
        inner = tau_spectrum(m, gdx.shifted(), par.flipped(), "dirichlet", tol_real, inner_count)
        lam, mu = inner.eigenvalues, inner.mu
        if zero_mode:
            lam = np.concatenate(([0.0 + 0.0j], lam))
            mu = np.concatenate(([np.inf], mu))
        return Spectrum(lam[:count], mu[:count], m, float(gdx.gamma), par, bc="neumann", tol_real=tol_real)
    if bc != "dirichlet":
        raise ValueError(f"unknown boundary condition {bc!r}")
    tau = build_gi2(m, gdx, par)
    mu = None if count is None else _shifted_eigs(tau, count)
    if mu is None and count is not None:
        mu = _arpack_eigs(tau, count)
    if mu is None:
        mu = dense_eigs(tau.square().view(_Hessenberg))
    if not mu.all():
        raise ValueError(f"the integration matrix at m = {m}, gamma = {gdx.gamma} has an exact zero eigenvalue")
    lam, mu = _sorted_by_magnitude(1.0 / mu, mu)
    return Spectrum(lam[:count], mu[:count], m, float(gdx.gamma), par, bc="dirichlet", tol_real=tol_real)


def _solve_structured(pencil: GeneralizedPencil) -> np.ndarray:
    """B^{-1} A written straight into one padded work matrix X
    (tau_operator._work_matrix), so dgeev can work in it without a copy; the
    pencil's O(m) factors give A tile by tile (GeneralizedPencil.write_a),
    and no other m x m array is made.  B = I needs no solve; diff-elim-first's
    B (ends[1:] over a unit subdiagonal) gives x_0..x_{m-2} from rows 1..m-1
    of A, and row 0 closes x_{m-1} with one gemv over them in X; the Galerkin
    variants' tridiagonal B is LAPACK dgtsv's."""
    m, variant = pencil.m, pencil.variant
    X = _work_matrix(m)
    if variant == "diff-elim-first":
        ends = pencil.ends
        pencil.write_a(X[: m - 1], rows=(1, m))
        boundary = np.empty((1, m))
        pencil.write_a(boundary, rows=(0, 1))
        X[m - 1] = (boundary[0] - ends[1:m] @ X[: m - 1]) / ends[m]
        return X
    pencil.write_a(X)
    if variant != "diff-elim-last":  # the Galerkin variants
        du, d, dl = pencil.s_bands.copy()  # dgtsv overwrites the bands with B's factors
        if _lapack("dgtsv", m, m, dl[:-1], d, du[1:], X, _lda(X)) != 0:
            raise np.linalg.LinAlgError(f"variant {variant}: tridiagonal B is singular")
    return X


def pencil_spectrum(pencil: GeneralizedPencil, tol_real: float = 1e-9) -> Spectrum:
    """Spectrum of a generalized pencil A x = lambda B x via B^{-1} A, written
    once into a padded work matrix (_solve_structured) that dgeev balances,
    reduces and iterates on in place (dense_eigs, a _Scratch view): the only
    m x m array of the solve.
    """
    _check_tolerance("tol_real", tol_real)
    lam = dense_eigs(_solve_structured(pencil).view(_Scratch))
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(lam != 0, 1.0 / lam, np.inf)
    lam, mu = _sorted_by_magnitude(lam, mu)
    return Spectrum(lam, mu, pencil.m, pencil.gamma, pencil.parity, source=pencil.variant, tol_real=tol_real)


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
    boundary conditions hold by construction.

    The eigenvalue is tau_spectrum(count=j + 1)'s j-th, and the coefficients
    of u'' are the O(m) TauMatrix.null_vector at its reciprocal (real for a
    real eigenvalue); it and apply's u are taken back from the row-scaled
    basis by the powers of two s_j.  No eigenvector matrix and no Ritz
    vectors are formed."""
    gdx = as_gegenbauer(idx)
    par = as_parity(parity)
    if not 0 <= j < m:
        raise ValueError(f"eigenvalue index {j} out of range for m = {m}")
    spec = tau_spectrum(m, gdx, par, count=j + 1)
    mu = spec.mu[j]
    tau = build_gi2(m, gdx, par)
    c = tau.null_vector(mu.real if mu.imag == 0 else mu)
    s = np.ldexp(1.0, tau.scale)
    u = tau.apply(c) * np.append(s, s[-1])
    c = c * s
    scale = u[np.argmax(np.abs(u))]
    return EigenPair(complex(spec.eigenvalues[j]), u / scale, c / scale, m, float(gdx.gamma), par)
