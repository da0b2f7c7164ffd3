"""Tests for spectrum computation, exact references, and eigenfunctions."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg.lapack

from gegtau.charpoly import charpoly_sequence, poly_roots
from gegtau.orthopoly import (
    GegenbauerIndex,
    Parity,
    gegenbauer_at_one,
    gegenbauer_eval,
    second_derivative_block,
)
from gegtau.spectra import (
    _balance_scales,
    EigenPair,
    Spectrum,
    dense_eigs,
    eigenfunction,
    exact_spectrum,
    pencil_spectrum,
    tau_spectrum,
)
from gegtau.tau_operator import build_diff_pencil, build_gi2

import oracles


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
    ref = sorted(1.0 / r for r in oracles.bisect_roots(lambda t: f(t), -10.0, -1e-12))
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


@pytest.mark.parametrize("m", [2, 3, 17, 200, 750])
def test_balance_scales_replay_lapack_dgebal(m):
    for gamma in (-0.45, 0.0, 0.5, 1.5, 1.7, 1.8, 2.4, 3.4):
        for parity in (Parity.EVEN, Parity.ODD):
            tau = build_gi2(m, gamma, parity)
            scale = _balance_scales(tau)
            square = tau.square()
            balanced, lo, hi, lapack_scale, info = scipy.linalg.lapack.dgebal(square, scale=1, permute=0)
            assert info == 0 and (lo, hi) == (0, m - 1)
            np.testing.assert_array_equal(scale, lapack_scale)
            np.testing.assert_array_equal(square * scale / scale[:, None], balanced)
            # a balanced matrix is a fixed point: dgebal leaves it alone
            assert np.all(scipy.linalg.lapack.dgebal(balanced, scale=1, permute=0)[3] == 1.0)


@pytest.mark.parametrize("m", [2, 17, 120, 400])
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
    idx = GegenbauerIndex(0.8)
    m = pair.m
    S = second_derivative_block(m + 1, m + 1, idx, Parity.ODD)
    resid = pair.eigenvalue * pair.u_coeffs - S @ pair.u_coeffs
    scale = abs(pair.eigenvalue) * np.abs(pair.u_coeffs).max()
    assert np.abs(resid[:m]).max() <= 1e-10 * scale
    np.testing.assert_allclose(
        (S @ pair.u_coeffs)[:m], pair.d2u_coeffs, rtol=0, atol=1e-10 * scale
    )


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
