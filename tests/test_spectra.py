"""Tests for spectrum computation, exact references, and eigenfunctions."""

import dataclasses
import functools
import hashlib
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings, strategies as st

from gegtau.charpoly import charpoly_sequence, poly_roots
from gegtau.orthopoly import (
    GegenbauerIndex,
    Parity,
    gegenbauer_at_one,
    gegenbauer_eval,
)
from gegtau import spectra
from gegtau.spectra import (
    _arpack_eigs,
    _shifted_eigs,
    EigenPair,
    Spectrum,
    dense_eigs,
    eigenfunction,
    exact_spectrum,
    min_rel_gap,
    pencil_spectrum,
    reality_ratio,
    tau_spectrum,
)
from gegtau.tau_operator import DIFF_VARIANTS, TauMatrix, _padded_lda, build_diff_pencil, build_gi2
from gegtau.verify import DEFAULT_GAMMA_GRID, conditioning_sweep

import oracles


def test_exact_zero_eigenvalue_is_a_value_error():
    # one ulp above -1/2 the m = 2 even integration matrix has mu = 0, so no lambda = 1/mu
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = "the integration matrix at m = 2, gamma = -0.4999999999999999 has an exact zero eigenvalue"
        with pytest.raises(ValueError, match=f"^{message}$"):
            tau_spectrum(2, -0.4999999999999999, Parity.EVEN)
        assert np.isfinite(tau_spectrum(2, -0.4999999999999999, Parity.ODD).eigenvalues).all()


def test_dense_eigs_analytic_cases():
    np.testing.assert_allclose(
        dense_eigs(np.array([[0.0, 1.0], [-1.0, 0.0]])), [-1j, 1j], atol=1e-15
    )
    np.testing.assert_allclose(dense_eigs(np.array([[-0.25]])), [-0.25])
    vals, vecs = dense_eigs(np.diag([3.0, 1.0, 2.0]), vectors=True)
    np.testing.assert_allclose(vals, [1.0, 2.0, 3.0])
    for j, lam in enumerate(vals):
        np.testing.assert_allclose(
            np.diag([3.0, 1.0, 2.0]) @ vecs[:, j], lam * vecs[:, j], atol=1e-14
        )


def test_exact_spectrum_values():
    np.testing.assert_allclose(exact_spectrum(1, Parity.EVEN), [-np.pi**2 / 4])
    np.testing.assert_allclose(exact_spectrum(1, Parity.ODD), [-np.pi**2])
    np.testing.assert_allclose(
        exact_spectrum(3, Parity.ODD),
        [-np.pi**2, -4 * np.pi**2, -9 * np.pi**2],
    )
    np.testing.assert_allclose(
        exact_spectrum(3, Parity.EVEN, bc="neumann"),
        [0.0, -np.pi**2, -4 * np.pi**2],
    )
    # odd Neumann modes are cos((2k-1)pi x/2) derivatives' partners: same
    # magnitudes as the even Dirichlet sequence, no zero mode
    np.testing.assert_allclose(
        exact_spectrum(2, Parity.ODD, bc="neumann"),
        exact_spectrum(2, Parity.EVEN),
    )


def test_lowest_odd_mode_matches_pi_squared():
    spec = tau_spectrum(100, 0.0, Parity.ODD)
    lam = spec.eigenvalues[0]
    assert abs(lam.real + np.pi**2) <= 1e-12 * np.pi**2
    assert lam.imag == 0.0


def test_reciprocal_consistency_and_ordering():
    for gamma in (0.0, 1.5):
        for parity in (Parity.EVEN, Parity.ODD):
            spec = tau_spectrum(30, gamma, parity)
            assert spec.eigenvalues.size == 30
            prod = spec.eigenvalues * spec.mu
            np.testing.assert_allclose(prod, np.ones(30), rtol=1e-12, atol=0)
            mags = np.abs(spec.eigenvalues)
            assert np.all(np.diff(mags) >= 0)
            assert np.all(spec.eigenvalues != 0)


def test_two_mode_case_equals_quadratic_roots():
    spec = tau_spectrum(2, 0.0, Parity.EVEN)
    p2 = charpoly_sequence(2, Fraction(0), Parity.EVEN)[2]
    mu_roots = poly_roots(p2)
    got = np.sort(spec.mu.real)
    np.testing.assert_allclose(got, mu_roots.real, rtol=1e-12, atol=0)
    assert np.all(spec.eigenvalues.real < 0)
    assert np.all(spec.eigenvalues.imag == 0)


def test_three_mode_case_against_bisection():
    f = charpoly_sequence(3, Fraction(0), Parity.EVEN)[3].to_float()
    ref = sorted(1.0 / r for r in oracles.bisect_roots(lambda t: oracles.poly_at(f.coeffs, t), -10.0, -1e-12))
    spec = tau_spectrum(3, 0.0, Parity.EVEN)
    np.testing.assert_allclose(np.sort(spec.eigenvalues.real), ref, rtol=1e-10)


def test_neumann_reduces_to_shifted_dirichlet():
    m = 5
    neu = tau_spectrum(m, 0.0, Parity.EVEN, bc="neumann")
    dirs = tau_spectrum(m, 1.0, Parity.ODD)
    assert neu.eigenvalues.size == m + 1
    assert neu.eigenvalues[0] == 0.0
    np.testing.assert_allclose(neu.eigenvalues[1:], dirs.eigenvalues, rtol=1e-13)
    neu_odd = tau_spectrum(m, 0.0, Parity.ODD, bc="neumann")
    dirs_even = tau_spectrum(m, 1.0, Parity.EVEN)
    assert neu_odd.eigenvalues.size == m
    assert np.all(neu_odd.eigenvalues != 0)
    np.testing.assert_allclose(neu_odd.eigenvalues, dirs_even.eigenvalues, rtol=1e-13)


@settings(max_examples=100, deadline=None)
@given(
    gamma=st.floats(min_value=-0.49, max_value=20.0),
    m=st.integers(min_value=2, max_value=150),
    parity=st.sampled_from(Parity),
)
def test_neumann_is_the_flipped_dirichlet_spectrum_one_up(gamma, m, parity):
    neumann = tau_spectrum(m, gamma, parity, bc="neumann")
    dirichlet = tau_spectrum(m, gamma + 1, parity.flipped())
    lam, mu = dirichlet.eigenvalues, dirichlet.mu
    if parity is Parity.EVEN:  # plus the zero mode
        lam, mu = np.concatenate(([0j], lam)), np.concatenate(([np.inf], mu))
    assert neumann.eigenvalues.dtype == lam.dtype
    np.testing.assert_array_equal(neumann.eigenvalues, lam)
    np.testing.assert_array_equal(neumann.mu, mu)


@settings(max_examples=100, deadline=None)
@given(
    gamma=st.floats(min_value=-0.49, max_value=2.4),
    m=st.integers(min_value=2, max_value=150),
    parity=st.sampled_from(Parity),
)
def test_spectrum_is_real_negative_and_distinct_below_the_threshold(gamma, m, parity):
    lam = tau_spectrum(m, gamma, parity).eigenvalues
    assert np.isrealobj(lam) and np.all(lam < 0.0)
    assert min_rel_gap(np.sort(lam)) > 0.0


@settings(max_examples=100, deadline=None)
@given(
    gamma=st.floats(min_value=2.6, max_value=20.0),
    m=st.integers(min_value=2, max_value=150),
    parity=st.sampled_from(Parity),
)
def test_spectrum_is_its_own_conjugate_above_the_threshold(gamma, m, parity):
    lam = tau_spectrum(m, gamma, parity).eigenvalues
    np.testing.assert_array_equal(np.sort_complex(lam.conj()), np.sort_complex(lam))


def test_neumann_lowest_modes_converge():
    neu = tau_spectrum(60, 0.0, Parity.EVEN, bc="neumann")
    exact = exact_spectrum(60 + 1, Parity.EVEN, bc="neumann")
    for k in range(1, 6):
        rel = abs(neu.eigenvalues[k].real - exact[k]) / abs(exact[k])
        assert rel < 1e-12


def test_low_mode_convergence_across_gammas():
    m = 100
    exact = exact_spectrum(m, Parity.ODD)
    for gamma in (0.0, 0.5, 1.0, 1.5):
        spec = tau_spectrum(m, gamma, Parity.ODD)
        k_half = m // 2
        rel = np.abs(spec.eigenvalues[:k_half].real - exact[:k_half]) / np.abs(
            exact[:k_half]
        )
        assert rel.max() < 1e-10, (gamma, rel.max())


def test_matrix_and_polynomial_routes_agree_below_twenty():
    for gamma in (-0.49, 1.0, 2.5):
        for parity in (Parity.EVEN, Parity.ODD):
            seq = charpoly_sequence(18, GegenbauerIndex(gamma), parity)
            spec = tau_spectrum(18, gamma, parity)
            roots = np.sort(poly_roots(seq[18]).real)
            np.testing.assert_allclose(
                np.sort(spec.mu.real),
                roots,
                rtol=0,
                atol=1e-8 * np.abs(roots).max(),
            )


def test_parity_families_interlace_in_magnitude():
    # merged |lambda| sequences alternate: equal orders start even and
    # alternate strictly; order m vs odd order m-1 closes on the even side
    for gamma in (0.0, 2.5):
        for m in (5, 12, 20):
            le = np.abs(tau_spectrum(m, gamma, Parity.EVEN).eigenvalues.real)
            lo = np.abs(tau_spectrum(m, gamma, Parity.ODD).eigenvalues.real)
            lo_prev = np.abs(tau_spectrum(m - 1, gamma, Parity.ODD).eigenvalues.real)
            tags = [t for _, t in sorted([(v, "e") for v in le] + [(v, "o") for v in lo])]
            assert "".join(tags) == "eo" * m, (gamma, m)
            tags = [
                t for _, t in sorted([(v, "e") for v in le] + [(v, "o") for v in lo_prev])
            ]
            assert "".join(tags) == "eo" * (m - 1) + "e", (gamma, m)


def test_matrix_spectra_real_negative_distinct_at_scale():
    for gamma in (-0.49, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
        for parity in (Parity.EVEN, Parity.ODD):
            spec = tau_spectrum(50, gamma, parity)
            lam = spec.eigenvalues
            scale = np.abs(lam)
            assert np.all(np.abs(lam.imag) <= 1e-6 * scale)
            assert np.all(lam.real < 0)
            mags = np.sort(np.abs(lam.real))
            gaps = np.diff(mags) / mags[1:]
            assert gaps.min() > 1e-10


@pytest.mark.parametrize("m", [2, 3, 17, 120, 150, 256, 400, 512, 750])
def test_tau_spectrum_bitwise_matches_unbalanced_route(m):
    for gamma in (-0.45, 0.5, 1.5, 1.7, 1.8, 2.4, Fraction(7, 4)):
        for parity in (Parity.EVEN, Parity.ODD):
            spec = tau_spectrum(m, gamma, parity)
            lam, mu = oracles.unbalanced_tau_spectrum(build_gi2(m, gamma, parity).square())
            np.testing.assert_array_equal(spec.eigenvalues, lam)
            np.testing.assert_array_equal(spec.mu, mu)
            # Neumann: the flipped parity at gamma + 1, plus a zero mode for even
            spec = tau_spectrum(m, gamma, parity, bc="neumann")
            lam, mu = oracles.unbalanced_tau_spectrum(build_gi2(m, gamma + 1, parity.flipped()).square())
            if parity is Parity.EVEN:
                lam, mu = np.concatenate(([0j], lam)), np.concatenate(([np.inf], mu))
            np.testing.assert_array_equal(spec.eigenvalues, lam)
            np.testing.assert_array_equal(spec.mu, mu)


@pytest.mark.parametrize("m, gamma", [(256, 20.0), (256, 50.0), (1024, 5.0), (1024, 20.0), (512, 100.0), (128, 149.0)])
def test_dense_route_keeps_the_low_modes_at_large_gamma(m, gamma):
    # balanced as LAPACK dgebal balances it, the square lost these modes: mode 5 was 2e-5 off
    # at m = 1024, gamma 20, modes 7 and 8 were a conjugate pair at m = 256, gamma 50 (the exact
    # determinant has simple real roots there), and m = 1024, gamma 5 resolved 0.45 of its modes
    for parity in Parity:
        spec = tau_spectrum(m, gamma, parity)
        err = _rel_err(spec.eigenvalues, exact_spectrum(m, parity))
        assert err[:5].max() <= 1e-9, (parity, err[:5])
        if (m, gamma) == (256, 50.0):
            assert not spec.eigenvalues[:10].imag.any(), parity
        if (m, gamma) == (1024, 5.0):
            assert np.mean(err < 1e-8) >= 0.6, parity


def test_dense_eigs_hessenberg_route_matches_numpy():
    rng = np.random.default_rng(7)
    random_hessenberg = np.triu(rng.normal(size=(40, 40)), -1)
    split = random_hessenberg.copy()
    split[39, 38] = 0.0  # the last row isolates an eigenvalue: dgebal permutes
    assert scipy.linalg.lapack.dgebal(split, permute=1)[1:3] != (0, 39)
    cases = [
        np.array([[-0.25]]),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.zeros((3, 3)),
        random_hessenberg,
        split,
        np.asfortranarray(build_gi2(30, 2.4, Parity.ODD).square()),
    ]
    for a in cases:
        w = dense_eigs(a)
        ref = np.linalg.eigvals(a)
        ref = ref[np.lexsort((ref.imag, ref.real))]
        assert w.dtype == ref.dtype
        assert w.tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dense_eigs_rejects_non_finite_input(bad):
    hessenberg = build_gi2(6, 0.5, Parity.EVEN).square()
    hessenberg[2, 3] = bad
    full = np.ones((4, 4))
    full[3, 0] = bad
    for a in (hessenberg, full, hessenberg.view(spectra._Hessenberg)):
        with pytest.raises(np.linalg.LinAlgError):
            dense_eigs(a)
    # finite entries whose difference overflows are accepted on the Hessenberg route
    huge = np.diag([1e308, -1e308])
    np.testing.assert_array_equal(dense_eigs(huge.view(spectra._Hessenberg)), [-1e308, 1e308])


def test_dense_eigs_refuses_what_dgeev_would_rescale():
    # scipy's dgeev rescales these and returns eigenvalues of the rescaled matrix
    # (2^459 and 2^-459 in size), so the dgeev route refuses them
    random_hessenberg = np.triu(np.random.default_rng(7).normal(size=(40, 40)), -1)
    for a in (np.diag([1e308, -1e308]), np.diag([1e-300, 3e-300]), random_hessenberg * 1e-150):
        with pytest.raises(np.linalg.LinAlgError, match="outside dgeev's unscaled range"):
            dense_eigs(a)


def test_pencil_diff_elim_last_matches_tau():
    pen = build_diff_pencil(8, 0.0, "diff-elim-last")
    lam = np.sort(pencil_spectrum(pen).eigenvalues.real)
    base = np.sort(tau_spectrum(8, 0.0, Parity.EVEN).eigenvalues.real)
    np.testing.assert_allclose(lam, base, rtol=1e-9)


def test_pencil_ierley_real_negative():
    pen = build_diff_pencil(8, 1.5, "ierley-legendre")
    lam = pencil_spectrum(pen).eigenvalues
    assert np.all(np.abs(lam.imag) <= 1e-9 * np.abs(lam))
    assert np.all(lam.real < 0)


@pytest.mark.parametrize("m", [2, 3, 17, 200])
@pytest.mark.parametrize("variant", DIFF_VARIANTS)
def test_pencil_spectrum_bitwise_matches_the_row_major_solve(variant, m):
    # B^{-1} A is Fortran-ordered and reduced in place; the bits, signs of zeros included, are
    # those of dgeev on the C-ordered B^{-1} A
    gammas = (1.5,) if variant == "ierley-legendre" else DEFAULT_GAMMA_GRID
    for gamma in gammas:
        for parity in (Parity.EVEN, Parity.ODD):
            pen = build_diff_pencil(m, gamma, variant, parity)
            spec = pencil_spectrum(pen)
            lam, mu = oracles.pencil_spectrum_row_major(pen)
            assert spec.eigenvalues.dtype == lam.dtype, (gamma, parity)
            assert spec.eigenvalues.tobytes() == lam.tobytes(), (gamma, parity)
            assert spec.mu.tobytes() == mu.tobytes(), (gamma, parity)


@pytest.mark.parametrize("variant", DIFF_VARIANTS)
def test_pencil_spectrum_bitwise_matches_the_row_major_solve_at_tile_edges(variant):
    # row tiles of 48 cut these sizes at different offsets; from m = 512 on the work matrix's
    # leading dimension is padded past m (520 and 1032)
    gamma = 1.5 if variant == "ierley-legendre" else 1.9
    cases = [(m, parity) for m in (127, 128, 129, 255, 256, 257) for parity in Parity]
    cases.append((512, Parity.EVEN))
    if variant in ("diff-elim-last", "diff-elim-first"):
        cases.append((1024, Parity.ODD))
    for m, parity in cases:
        pen = build_diff_pencil(m, gamma, variant, parity)
        spec = pencil_spectrum(pen)
        lam, mu = oracles.pencil_spectrum_row_major(pen)
        assert spec.eigenvalues.dtype == lam.dtype, (m, parity)
        assert spec.eigenvalues.tobytes() == lam.tobytes(), (m, parity)
        assert spec.mu.tobytes() == mu.tobytes(), (m, parity)


def test_row_scaling_is_the_identity_where_the_boundary_constants_vanish():
    # K_n = 0 for n >= 3 at gamma 1/2 and 3/2; np.frexp(0.0) reads exponent 0,
    # and the zero entries must keep s_j = 1 all the same
    for gamma in (0.5, 1.5, Fraction(1, 2), Fraction(3, 2)):
        for parity in Parity:
            tau = build_gi2(64, gamma, parity)
            scaled = spectra._row_scaled(tau)
            for name in ("first_row", "lo", "dg", "up"):
                assert getattr(scaled, name).tobytes() == getattr(tau, name).tobytes(), (gamma, parity, name)
    # at gamma 50 the first row still comes down into the binade of A[0, 0]
    for parity in Parity:
        row = build_gi2(64, 50.0, parity).first_row
        scaled = spectra._row_scaled(build_gi2(64, 50.0, parity)).first_row
        assert (np.frexp(row)[1] > np.frexp(row)[1][0]).any()
        assert (np.frexp(scaled)[1] <= np.frexp(scaled)[1][0]).all()


def test_dense_eigs_never_modifies_its_input():
    rng = np.random.default_rng(2)
    tau = build_gi2(40, 1.8, Parity.EVEN)
    for a in (tau.square(), spectra._row_scaled(tau).square(), rng.normal(size=(40, 40))):
        for order in ("C", "F"):
            a = np.asarray(a, order=order)
            kept = a.copy()
            dense_eigs(a)
            np.testing.assert_array_equal(a, kept)
    # a C-ordered B^{-1} A goes to dgeev in a padded copy, also when it is a _Scratch view
    pen = build_diff_pencil(64, 0.7, "diff-elim-last")
    a = oracles.solve_structured_row_major(pen)
    kept = a.copy()
    w = dense_eigs(a)
    np.testing.assert_array_equal(a, kept)
    assert dense_eigs(a.view(spectra._Scratch)).tobytes() == w.tobytes()


def _traced_peak(fn):
    fn()  # first-call caches (LAPACK handles, workspace queries) stay out of the measurement
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant", DIFF_VARIANTS)
def test_pencil_route_holds_at_most_three_and_a_half_matrices(variant):
    m = 256
    gamma = 1.5 if variant == "ierley-legendre" else 0.7
    for parity in (Parity.EVEN, Parity.ODD):
        peak = _traced_peak(lambda: pencil_spectrum(build_diff_pencil(m, gamma, variant, parity)))
        assert peak <= 3.5 * 8 * m * m, (parity, peak / (8 * m * m))


@pytest.mark.parametrize("variant", DIFF_VARIANTS)
def test_pencil_cell_holds_one_and_a_half_matrices(variant, monkeypatch):
    # B^{-1} A is the cell's only m x m array: the tiles that build it add less than half of
    # one, and when dense_eigs is entered nothing else of that size is alive
    m = 512
    gamma = 1.5 if variant == "ierley-legendre" else 0.7
    entered = []

    def watched(a, *args, **kwargs):
        entered.append(tracemalloc.get_traced_memory()[0])
        return dense_eigs(a, *args, **kwargs)

    monkeypatch.setattr(spectra, "dense_eigs", watched)
    pencil_spectrum(build_diff_pencil(16, gamma, variant))  # first-call caches stay out of the measurement
    tracemalloc.start()
    try:
        pencil_spectrum(build_diff_pencil(m, gamma, variant))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = 8 * _padded_lda(m) * m  # the padded work matrix is the unit
    assert peak <= 1.5 * matrix, peak / matrix
    live = entered[-1] - matrix
    assert 0 <= live <= 64 * m, live  # B^{-1} A and the pencil's O(m) factors


def test_dense_integration_route_holds_one_and_a_half_matrices():
    m = 256
    for gamma in (0.7, 2.4):
        for parity in (Parity.EVEN, Parity.ODD):
            peak = _traced_peak(lambda: tau_spectrum(m, gamma, parity))
            matrix = 8 * _padded_lda(m) * m  # the padded work matrix is the unit
            assert peak <= 1.5 * matrix, (gamma, parity, peak / matrix)


def test_ratio_floors_are_spectra_tiny():
    # entries below 1e-200 are divided by their own size, not by the 1e-300 floor
    np.testing.assert_allclose(reality_ratio(np.array([3e-250 + 4e-250j, -1.0 + 0.0j])), 0.8, rtol=1e-15)
    np.testing.assert_allclose(reality_ratio(np.array([[1e-290j, 2.0]])), [1.0], rtol=1e-15)
    np.testing.assert_allclose(min_rel_gap(np.array([1e-250, 4e-250, 5.0])), 0.75, rtol=1e-15)
    np.testing.assert_allclose(min_rel_gap(np.array([-2e-260 + 0j, 2e-260j])), np.sqrt(2.0), rtol=1e-15)
    assert reality_ratio(np.array([0j])) == 0.0
    assert min_rel_gap(np.array([0.0, 0.0])) == 0.0


def test_eigenfunction_lowest_odd_is_sine():
    pair = eigenfunction(0, 40, 0.5, Parity.ODD)
    xs = np.linspace(-1, 1, 501)
    idx = GegenbauerIndex(0.5)
    u = pair.evaluate(xs)
    assert np.abs(u.imag).max() == 0.0
    target = np.sin(np.pi * xs)
    amp = u.real[np.argmax(np.abs(target))] / target[np.argmax(np.abs(target))]
    assert np.abs(u.real - amp * target).max() < 1e-8 * abs(amp)


def test_eigenfunction_boundary_and_normalization():
    pair = eigenfunction(2, 24, 0.0, Parity.EVEN)
    idx = GegenbauerIndex(0.0)
    ends = sum(
        pair.u_coeffs[k] * gegenbauer_at_one(Parity.EVEN.degree(k), idx)
        for k in range(len(pair.u_coeffs))
    )
    assert abs(ends) <= 1e-10 * np.abs(pair.u_coeffs).max()
    assert np.abs(pair.u_coeffs).max() == pytest.approx(1.0)


def test_eigenfunction_residual_on_top_mode_only():
    pair = eigenfunction(1, 14, 0.8, Parity.ODD)
    m = pair.m
    S = oracles.second_derivative_block_masked(m + 1, m + 1, 0.8, Parity.ODD.offset)
    resid = pair.eigenvalue * pair.u_coeffs - S @ pair.u_coeffs
    scale = abs(pair.eigenvalue) * np.abs(pair.u_coeffs).max()
    assert np.abs(resid[:m]).max() <= 1e-10 * scale
    np.testing.assert_allclose(
        (S @ pair.u_coeffs)[:m], pair.d2u_coeffs, rtol=0, atol=1e-10 * scale
    )


def _rel_err(values, exact):
    return np.abs(values - exact) / np.where(exact == 0, 1.0, np.abs(exact))


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


@functools.cache
def _dense_reference(m, gamma, parity, bc):
    """The full tau_spectrum, computed once per session, with the digest of
    the one matrix its dense_eigs call solved and that call's output."""
    solved = []

    def recorded(a):
        digest = _digest(a)  # before dense_eigs works in a
        solved.append((digest, dense_eigs(a)))
        return solved[-1][1]

    with mock.patch.object(spectra, "dense_eigs", recorded):
        dense = tau_spectrum(m, gamma, parity, bc)
    (digest, w), = solved
    return dense, digest, w


@pytest.mark.parametrize("m", [3, 17, 200, 1000])
def test_count_route_matches_dense_on_resolved_modes(m):
    # resolved: the dense route is within 1e-8 of the exact eigenvalue
    for gamma in DEFAULT_GAMMA_GRID:
        for parity in (Parity.EVEN, Parity.ODD):
            for bc in ("dirichlet", "neumann"):
                dense, digest, w = _dense_reference(m, gamma, parity, bc)
                exact = exact_spectrum(dense.count, parity, bc)
                resolved = _rel_err(dense.eigenvalues, exact) < 1e-8
                replayed = []

                def replay(a):
                    # a request the partial routes refuse (k > m / 8) takes the dense
                    # slice: it must solve the full spectrum's own matrix, whose
                    # eigenvalues are then the reference's and are not solved again
                    assert _digest(a) == digest, (gamma, parity, bc)
                    replayed.append(a.shape[0])
                    return w.copy()

                # k = m // 8 is the largest request ARPACK serves; at m = 1000 and
                # gamma 2.5 with Neumann conditions (a Dirichlet problem at 3.5,
                # above the reality threshold) its top modes differ by up to 4e-12
                # between the routes, each about that far from the exact values
                for k, tol in ((1, 1e-12), (5, 1e-12), (m // 2, 1e-12), (m // 8, 1e-12 if gamma < 2.5 else 1e-11)):
                    if not 1 <= k <= m:
                        continue
                    replayed.clear()
                    with mock.patch.object(spectra, "dense_eigs", replay):
                        spec = tau_spectrum(m, gamma, parity, bc, count=k)
                    assert replayed or 8 * k <= m, (gamma, parity, bc, k)
                    assert spec.count == k and spec.mu.size == k
                    diff = _rel_err(spec.eigenvalues, dense.eigenvalues[:k])[resolved[:k]]
                    assert np.all(diff <= tol), (gamma, parity, bc, k, diff.max())


def test_count_route_serves_small_shares_of_large_spectra():
    # shifted inverse iteration serves k <= m / 8 at every m, and ARPACK the
    # same share from m = 96 where that route refuses
    assert _shifted_eigs(build_gi2(200, 0.5, Parity.EVEN), 1) is not None
    assert _shifted_eigs(build_gi2(200, 0.5, Parity.EVEN), 25) is not None
    assert _shifted_eigs(build_gi2(200, 0.5, Parity.EVEN), 26) is None
    assert _shifted_eigs(build_gi2(16, 0.5, Parity.EVEN), 2) is not None
    assert _shifted_eigs(build_gi2(15, 0.5, Parity.EVEN), 2) is None
    assert _arpack_eigs(build_gi2(200, 0.5, Parity.EVEN), 1) is not None
    assert _arpack_eigs(build_gi2(200, 0.5, Parity.EVEN), 25) is not None
    assert _arpack_eigs(build_gi2(200, 0.5, Parity.EVEN), 26) is None
    assert _arpack_eigs(build_gi2(95, 0.5, Parity.EVEN), 1) is None


@pytest.mark.parametrize("gamma", [5.0, 10.0, 20.0, 50.0])
@pytest.mark.parametrize("m", [128, 1024, 4000])
def test_band_route_serves_the_lowest_mode_at_large_gamma(monkeypatch, m, gamma):
    # the componentwise trust test accepts what the normwise bound refused, and at gamma 50
    # (from m = 1024 the first row passes 1e161) the route works on the row-scaled bands:
    # no ARPACK call, the closed form to 1e-13 and ARPACK's own value to 1e-12
    tau = build_gi2(m, gamma, Parity.EVEN)
    arpack = _arpack_eigs(tau, 1)
    for name in ("_arpack_eigs", "dense_eigs"):
        monkeypatch.setattr(spectra, name, _refuse)
    spec = tau_spectrum(m, gamma, Parity.EVEN, count=1)
    exact = exact_spectrum(1, Parity.EVEN)
    assert spec.count == 1 and np.isrealobj(spec.eigenvalues)
    assert _rel_err(spec.eigenvalues, exact)[0] <= 1e-13
    lowest = arpack[np.argmax(np.abs(arpack))]  # k + 1 values, the lowest mode has the largest |mu|
    assert abs(spec.mu[0] - lowest) <= 1e-12 * abs(lowest)


def test_band_route_refuses_values_that_are_off():
    # at m = 4000 and gamma 10 the band values of the 100 lowest modes reach
    # 3.6e-5 from the closed form; the componentwise bound reads 1.3e7 there
    tau = build_gi2(4000, 10.0, Parity.EVEN)
    assert _shifted_eigs(tau, 100) is None
    assert _shifted_eigs(tau, 1) is not None


def test_band_route_gives_a_failing_mode_more_steps():
    # after two steps the componentwise bound of the last mode reads 1.1e-8 in both cases,
    # over the 1e-8 bar, although the values are right; a third step brings it under
    for m, gamma, parity, k in ((128, 10.0, Parity.ODD, 8), (300, 7.0, Parity.EVEN, 14)):
        mu = _shifted_eigs(build_gi2(m, gamma, parity), k)
        assert mu is not None, (m, gamma, parity, k)
        assert np.all(_rel_err(1.0 / mu, exact_spectrum(k, parity)) <= 1e-11)


def test_count_cutting_a_conjugate_pair_keeps_the_dense_order():
    dense = tau_spectrum(50, 3.0, Parity.EVEN)
    first_pair = int(np.flatnonzero(dense.eigenvalues.imag)[0])
    k = first_pair + 1  # the pair's first member is the last kept mode
    assert _arpack_eigs(build_gi2(50, 3.0, Parity.EVEN), k) is None
    spec = tau_spectrum(50, 3.0, Parity.EVEN, count=k)
    np.testing.assert_array_equal(spec.eigenvalues, dense.eigenvalues[:k])
    np.testing.assert_array_equal(spec.mu, dense.mu[:k])
    assert spec.eigenvalues[-1].imag > 0.0
    # far above the reality threshold ARPACK serves a cut pair the same way.  The dense
    # spectrum's first pair sits at modes 19-20 here; the exact determinant changes sign an odd
    # number of times across it, so the pair stands for a real root, an artefact of the float
    # solve: this half pins how a cut pair is ordered, not that it is complex
    dense = tau_spectrum(256, 50.0, Parity.EVEN)
    k = int(np.flatnonzero(dense.eigenvalues.imag)[0]) + 1
    assert _arpack_eigs(build_gi2(256, 50.0, Parity.EVEN), k) is not None
    spec = tau_spectrum(256, 50.0, Parity.EVEN, count=k)
    assert spec.count == k and spec.eigenvalues[-1].imag > 0.0
    assert abs(spec.eigenvalues[0] - dense.eigenvalues[0]) <= 1e-12 * abs(dense.eigenvalues[0])


def test_count_route_is_deterministic():
    for bc in ("dirichlet", "neumann"):
        first = tau_spectrum(500, 1.5, Parity.ODD, bc, count=12)
        second = tau_spectrum(500, 1.5, Parity.ODD, bc, count=12)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.mu, second.mu)


def test_count_route_falls_back_when_arpack_does_not_converge(monkeypatch):
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    monkeypatch.setattr(TauMatrix, "inverse_iteration", singular)  # the shifted route refuses too
    dense = tau_spectrum(300, 0.5, Parity.EVEN)
    spec = tau_spectrum(300, 0.5, Parity.EVEN, count=7)
    np.testing.assert_array_equal(spec.eigenvalues, dense.eigenvalues[:7])
    np.testing.assert_array_equal(spec.mu, dense.mu[:7])


def test_count_route_falls_back_when_a_spurious_mode_dominates(monkeypatch):
    # add e_0 v^T to the first row, with v orthogonal to the right vectors of
    # the k lowest modes: they stay eigenpairs, so only the dominance check
    # sees the new eigenvalue of about 30 |mu_1|
    m, gamma, parity, k = 200, 0.5, Parity.ODD, 3
    tau = build_gi2(m, gamma, parity)
    start = np.random.default_rng(0).uniform(-1.0, 1.0, m)
    sigma = 1.0 / exact_spectrum(k, parity)
    q, _ = np.linalg.qr(np.array([tau.inverse_iteration(s, start, 2)[0] for s in sigma]).T)
    v = -q @ q[0]
    v[0] += 1.0
    spurious = dataclasses.replace(tau, first_row=tau.first_row + (30.0 * abs(sigma[0]) / v[0]) * v)
    w = np.linalg.eigvals(spurious.square())
    assert np.sort(np.abs(w))[-1] > 29.0 * abs(sigma[0])
    assert all(np.min(np.abs(w - s)) <= 1e-12 * abs(s) for s in sigma)

    assert _shifted_eigs(tau, k) is not None
    assert _shifted_eigs(spurious, k) is None
    monkeypatch.setattr(spectra, "build_gi2", lambda *args: spurious)
    spec = tau_spectrum(m, gamma, parity, count=k)
    monkeypatch.setattr(spectra, "_shifted_eigs", lambda *args: None)
    fallback = tau_spectrum(m, gamma, parity, count=k)
    np.testing.assert_array_equal(spec.eigenvalues, fallback.eigenvalues)
    np.testing.assert_array_equal(spec.mu, fallback.mu)
    assert abs(spec.mu[0]) > 29.0 * abs(sigma[0])


def _refuse(*args, **kwargs):
    raise AssertionError("the shifted inverse iteration route should have served")


def test_conditioning_sweep_integration_cells_take_the_shifted_route(monkeypatch):
    grid = (16, 32, 64, 128, 256, 512, 1024)
    gammas = (-0.45, 0.0, 0.5, 1.0, 1.5, 1.7, 2.0, 2.4)
    for name in ("_arpack_eigs", "dense_eigs"):
        monkeypatch.setattr(spectra, name, _refuse)
    for gamma in gammas:
        for parity in (Parity.EVEN, Parity.ODD):
            for (_, m, err) in conditioning_sweep(gamma, grid, ("integration",), parity).rows:
                assert err < 1e-14, (gamma, parity, m, err)


@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
def test_neumann_count_requests_take_the_shifted_route(monkeypatch, parity):
    m, gamma = 400, 0.7
    dense = tau_spectrum(m, gamma, parity, "neumann")
    for name in ("_arpack_eigs", "dense_eigs"):
        monkeypatch.setattr(spectra, name, _refuse)
    for k in (1, 2, 12, 50):
        spec = tau_spectrum(m, gamma, parity, "neumann", count=k)
        assert spec.bc == "neumann" and spec.count == k
        zero = parity is Parity.EVEN
        assert (spec.eigenvalues[0] == 0.0) == zero
        np.testing.assert_allclose(spec.eigenvalues[zero:], dense.eigenvalues[zero:k], rtol=1e-13, atol=0)


def test_count_keeps_the_neumann_zero_mode():
    dense = tau_spectrum(200, 0.5, Parity.EVEN, "neumann")
    only_zero = tau_spectrum(200, 0.5, Parity.EVEN, "neumann", count=1)
    assert only_zero.eigenvalues.tolist() == [0j] and only_zero.mu.tolist() == [np.inf]
    spec = tau_spectrum(200, 0.5, Parity.EVEN, "neumann", count=6)
    assert spec.eigenvalues[0] == 0.0
    np.testing.assert_allclose(spec.eigenvalues[1:], dense.eigenvalues[1:6], rtol=1e-12)
    assert tau_spectrum(20, 0.5, Parity.EVEN, "neumann", count=21).count == 21


def test_conditioning_sweep_integration_matches_the_dense_first_mode():
    grid = (16, 64, 128, 300, 512)
    for gamma in DEFAULT_GAMMA_GRID:
        for parity in (Parity.EVEN, Parity.ODD):
            sweep = conditioning_sweep(gamma, grid, ("integration",), parity)
            for (_, m, err) in sweep.rows:
                dense = tau_spectrum(m, gamma, parity).table().rows[0][-1]
                assert err < 1e-13
                assert abs(err - dense) <= 1e-14, (gamma, parity, m, err, dense)


def test_eigenfunction_from_ritz_vector_matches_dense(monkeypatch):
    m = 200
    cases = [(0, 0.5, Parity.ODD), (4, 1.5, Parity.EVEN), (20, 2.4, Parity.ODD)]
    ritz = [eigenfunction(j, m, gamma, parity) for j, gamma, parity in cases]
    monkeypatch.setattr(spectra, "_shifted_eigs", lambda *args, **kwargs: None)
    monkeypatch.setattr(spectra, "_arpack_eigs", lambda *args, **kwargs: None)
    for pair, (j, gamma, parity) in zip(ritz, cases):
        dense = eigenfunction(j, m, gamma, parity)
        assert np.isrealobj(pair.u_coeffs) and np.isrealobj(pair.d2u_coeffs)
        assert abs(pair.eigenvalue - dense.eigenvalue) <= 1e-12 * abs(dense.eigenvalue)
        np.testing.assert_allclose(pair.u_coeffs, dense.u_coeffs, rtol=0, atol=1e-10)
        scale = np.abs(dense.d2u_coeffs).max()
        np.testing.assert_allclose(pair.d2u_coeffs, dense.d2u_coeffs, rtol=0, atol=1e-10 * scale)


def test_eigenfunction_forms_no_other_eigenvector(monkeypatch):
    import scipy.sparse.linalg

    def no_dense_vectors(*args, **kwargs):
        raise AssertionError("numpy.linalg.eig called")

    eigs, calls = scipy.sparse.linalg.eigs, []

    def values_only(*args, **kwargs):
        assert kwargs.get("return_eigenvectors", True) is False
        calls.append(kwargs["k"])
        return eigs(*args, **kwargs)

    shifted, served = spectra._shifted_eigs, []

    def recorded(tau, k):
        mu = shifted(tau, k)
        served.append((tau.m, k, mu is not None))
        return mu

    monkeypatch.setattr(np.linalg, "eig", no_dense_vectors)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", values_only)
    monkeypatch.setattr(spectra, "_shifted_eigs", recorded)
    # (7, 60) takes its eigenvalue from the dense route (k = 8 > m / 8), (0, 200)
    # from shifted inverse iteration and (15, 400) at gamma 7, which that
    # route refuses (its componentwise bound reads 1.4e-8 to 2.2e-8), from ARPACK
    for j, m, gamma in ((7, 60, 0.5), (0, 200, 0.5), (15, 400, 7.0)):
        pair = eigenfunction(j, m, gamma, Parity.ODD)
        assert abs(pair.eigenvalue - exact_spectrum(j + 1, Parity.ODD)[j]) <= 1e-10 * abs(pair.eigenvalue)
    assert served == [(60, 8, False), (200, 1, True), (400, 16, False)]
    assert calls == [17]


def test_spectrum_csv_format():
    spec = tau_spectrum(4, 0.0, Parity.ODD)
    text = spec.csv()
    lines = text.strip().split("\n")
    assert lines[0] == "k,lambda_re,lambda_im,lambda_exact,rel_err"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(spec.eigenvalues[0].real)
    assert "\r" not in text


def test_spectrum_json_dict():
    spec = tau_spectrum(3, 0.5, Parity.EVEN)
    d = spec.to_json_dict()
    assert set(d.keys()) == {"meta", "data"}
    assert d["meta"]["m"] == 3
    assert d["meta"]["gamma"] == 0.5
    assert d["meta"]["parity"] == "even"
    assert len(d["data"]["lambda_re"]) == 3
    assert len(d["data"]["lambda_im"]) == 3
