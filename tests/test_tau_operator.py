"""Tests for the banded integration operator and the differentiation pencils.

The builder is held to value-for-value agreement with a straight-line
transcription of the reference construction (float and exact-rational), to
the algebraic column identities that tie it to the characteristic-polynomial
sequences, and to the left-eigenvector property at high-precision roots.
"""

import dataclasses
import hashlib
import os
import re
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gegtau.charpoly import charpoly_sequence, k_constant, k_constants, poly_roots
from gegtau.orthopoly import (
    GegenbauerIndex,
    Parity,
    gegenbauer_at_one,
    gegenbauer_at_one_upto,
)
from gegtau.spectra import dense_eigs, pencil_spectrum, tau_spectrum
from gegtau.tau_operator import (
    DIFF_VARIANTS,
    build_diff_pencil,
    build_gi2,
    matrix_to_coord,
    matrix_to_csv,
)
from gegtau.verify import DEFAULT_GAMMA_GRID

import oracles

F = Fraction


def test_exact_small_even_matrix():
    got = build_gi2(3, 0.0, Parity.EVEN).rectangular()
    expect = np.array(
        [
            [-1 / 4, 7 / 96, -1 / 240],
            [1 / 2, -1 / 6, 1 / 48],
            [0, 1 / 24, -1 / 30],
            [0, 0, 1 / 80],
        ]
    )
    np.testing.assert_allclose(got, expect, rtol=1e-15, atol=0)


def test_matches_reference_transcription():
    for m in range(2, 9):
        for g in (0.0, 0.5, 1.0, 1.5, 2.0):
            for parity, ip in ((Parity.EVEN, 0), (Parity.ODD, 1)):
                ours = build_gi2(m, g, parity).rectangular()
                ref = oracles.reference_gi2(m, g, ip)
                scale = np.abs(ref).max()
                assert np.abs(ours - ref).max() <= 1e-15 * scale, (m, g, parity)


def test_matches_exact_rational_transcription():
    for m in (2, 3, 5):
        for gf, g in ((F(0), 0.0), (F(1, 2), 0.5), (F(3, 2), 1.5)):
            for parity, ip in ((Parity.EVEN, 0), (Parity.ODD, 1)):
                ref = np.array(
                    [[float(c) for c in row] for row in oracles.reference_gi2_exact(m, gf, ip)]
                )
                ours = build_gi2(m, g, parity).rectangular()
                np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-16 * np.abs(ref).max())


def test_square_is_rectangular_head():
    tau = build_gi2(7, 1.3, Parity.ODD)
    rect = tau.rectangular()
    assert rect.shape == (8, 7)
    np.testing.assert_array_equal(tau.square(), rect[:7])
    # trailing row carries only the sub-diagonal closure entry
    assert np.count_nonzero(rect[7, :-1]) == 0
    assert rect[7, -1] != 0.0


def test_odd_seed_entry():
    assert build_gi2(2, 1.0, Parity.ODD).lo[1] == pytest.approx(1.0 / 24.0)


def test_legendre_like_first_row_truncates():
    for gamma in (0.5, 1.5):
        tau = build_gi2(8, gamma, Parity.EVEN)
        assert np.all(tau.first_row[2:] == 0.0)
        assert tau.first_row[0] != 0.0 and tau.first_row[1] != 0.0


def test_all_entries_finite():
    for gamma in (-0.49, 0.0, 2.5):
        for parity in (Parity.EVEN, Parity.ODD):
            rect = build_gi2(30, gamma, parity).rectangular()
            assert np.isfinite(rect).all()


def _assert_same_bits(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("gamma", sorted({*DEFAULT_GAMMA_GRID, 1 / 3, 2.4, 7.3, 20.0}))
def test_assembly_is_bitwise_the_scalar_loops(gamma):
    # endpoint values, boundary constants and every band, against the
    # one-scalar-at-a-time products of tests/oracles.py, row-scaled
    for parity in Parity:
        for m in (2, 3, 17, 1024, 5000):
            tau = build_gi2(m, gamma, parity)
            for name, ref in oracles.row_scaled(oracles.gi2_bands_loop(m, gamma, parity.offset)).items():
                _assert_same_bits(np.atleast_1d(getattr(tau, name)), ref)
            degrees = [parity.degree(j) for j in range(m)]
            _assert_same_bits(k_constants(m, gamma, parity), oracles.k_constants_loop(degrees, gamma))
    _assert_same_bits(gegenbauer_at_one_upto(10001, gamma), oracles.gegenbauer_at_one_loop(10001, gamma))


def test_float_boundary_constants_keep_exact_denominators_past_int64():
    # n (n^2 - 1)(n + 2) leaves int64 at n = 55109
    for gamma in (0.7, 2.4):
        for parity in Parity:
            m = 35001 - parity.offset  # degrees up to 70000
            degrees = [parity.degree(j) for j in range(m)]
            _assert_same_bits(k_constants(m, gamma, parity), oracles.k_constants_loop(degrees, gamma))


@pytest.mark.parametrize("gamma", [Fraction(-3, 7), Fraction(1, 2), Fraction(12, 7), Fraction(16, 7)])
def test_fraction_gamma_rounds_the_exact_endpoint_values_once(gamma):
    # the first row is -float(exact K_n), and the pencils' ends times one power of two, that of
    # the last, are float(exact G_n(1))
    m = 300
    for parity in Parity:
        degrees = [parity.degree(j) for j in range(m + 1)]
        at1 = oracles.gegenbauer_at_one_loop(degrees[-1], gamma)
        ks = [
            oracles.k_constant_recursive(n, gamma)
            if n < 3
            else (2 * gamma - 1) * (2 * gamma - 3) * at1[n - 2] / (n * (n * n - 1) * (n + 2))
            for n in degrees[:m]
        ]
        first = build_gi2(m, gamma, parity).first_row
        keep = (np.arange(m) != 1) | (parity is Parity.EVEN)  # odd column 1 adds its own band entry
        _assert_same_bits(first[keep], [-float(k) for k in np.array(ks)[keep]])
        exact = [float(at1[n]) for n in degrees]
        for variant in ("diff-elim-last", "diff-elim-first"):
            ends = build_diff_pencil(m, gamma, variant, parity).ends
            assert 0.5 <= ends[-1] < 1.0
            _assert_same_bits(np.ldexp(ends, np.frexp(exact[-1])[1]), exact)


def test_boundary_constants_past_the_float_range_are_a_value_error():
    # the row-scaled operator is built, and its first row comes down into the binade of A[0, 0];
    # the unscaled matrix, whose K_n pass the float range, is the ValueError
    for gamma in (150.0, Fraction(301, 2)):
        tau = build_gi2(1000, gamma, "odd")
        e = np.frexp(tau.first_row)[1]
        assert (e <= e[0]).all() and tau.scale.min() < -1024
        with pytest.raises(ValueError, match=f"m = 1000 modes at gamma = {float(gamma)} exceed the float range"):
            tau.rectangular()
    assert np.isfinite(build_gi2(1000, 20.0, "odd").rectangular()).all()


def test_bands_lose_their_degree_dependence_from_two_to_the_53():
    # gamma + 1 rounds to gamma from 2^53 on; one below, the bands are built, finite, and still
    # differ from degree to degree (in their last bits)
    for gamma in (2.0**53, Fraction(2**53), 1e16, 1e300):
        for parity in Parity:
            with pytest.raises(ValueError, match=re.escape(f"at gamma = {gamma} the matrices of m = 8 modes lose their")):
                build_gi2(8, gamma, parity)
    for parity in Parity:
        tau = build_gi2(8, 2.0**53 - 1, parity)
        assert np.isfinite(tau.first_row).all() and np.isfinite(tau.lo).all()
        assert np.unique(tau.dg[1:]).size > 1


def test_pencils_refuse_gamma_from_two_to_the_53_as_the_integration_operator_does():
    # the one refusal of both builders, with one message; one below, every pencil is built
    for gamma in (2.0**53, Fraction(2**53), 1e20):
        with pytest.raises(ValueError) as integration:
            build_gi2(16, gamma, Parity.ODD)
        for variant in DIFF_VARIANTS:
            with pytest.raises(ValueError) as pencil:
                build_diff_pencil(16, gamma, variant, Parity.ODD)
            assert str(pencil.value) == str(integration.value)
    for variant in DIFF_VARIANTS[:3]:
        build_diff_pencil(16, 2.0**53 - 1, variant, Parity.ODD)


def test_boundary_constants_divide_first_where_only_the_product_overflows():
    # at m = 8000 (2g - 1)(2g - 3) G_{n-2}(1) leaves the float range from gamma 60.578 on, and
    # G_{n-2}(1) itself near 61.6; the largest K_n is 10^291.4 at 60.579 and 10^295.8 at 61.6.
    # Taken as a mantissa and an exponent, K_n is finite wherever its value is
    for gamma, parity in ((60.579, "even"), (60.579, "odd"), (61.0, "even"), (61.6, "even")):
        top_k = k_constants(8000, gamma, parity)[-1]
        n = 2 * 7999 + Parity(parity).offset
        with mp.workdps(30):
            g = mp.mpf(gamma)
            at1 = mp.gamma(2 * g + n - 2) / (mp.gamma(2 * g + 1) * mp.factorial(n - 2))  # G_{n-2}(1)
            top = (2 * g - 1) * (2 * g - 3) * at1 / (n * (n * n - 1) * (n + 2))
        assert abs(float(top_k / top - 1)) < 4 * (n + 1) * 2.0**-53
    assert np.isfinite(build_gi2(8000, 61.6, "even").first_row).all()


@pytest.mark.parametrize("parity", list(Parity))
def test_row_scaled_bands_keep_their_bits_wherever_the_unscaled_ones_fit(parity):
    # m 3-3000 and gamma -0.49 to 150, float and Fraction: wherever the unscaled scalar-loop bands
    # are finite (the parent's accepted cells but for its divide-first repair), the bands are
    # bit for bit their row scaling by tests/oracles.py; elsewhere every entry is still finite
    rng = np.random.default_rng(2026 + parity.offset)
    compared = 0
    for _ in range(40):
        m = int(np.exp(rng.uniform(np.log(3), np.log(3000))))
        gamma = float(rng.choice([rng.uniform(-0.49, 3.0), rng.uniform(3.0, 150.0)]))
        if rng.uniform() < 0.25:
            m, gamma = min(m, 400), Fraction(round(gamma * 8), 8)
        tau = build_gi2(m, gamma, parity)
        with np.errstate(over="ignore"):
            ref = oracles.gi2_bands_loop(m, gamma, parity.offset)
        if np.isfinite(ref["first_row"]).all():
            for name, want in oracles.row_scaled(ref).items():
                _assert_same_bits(np.atleast_1d(getattr(tau, name)), want)
            compared += 1
        for name in ("first_row", "lo", "dg", "up"):
            assert np.isfinite(getattr(tau, name)).all(), (m, gamma, name)
    assert compared >= 25


# sha256 prefixes of the bands (first_row, lo, dg, up, last) as the product-first K_n gave them, at
# gammas the product-first form accepts; the last two per m are the largest it accepts
_GI2_BITS = {
    (17, -0.49, "even"): "108e33b6442a11a4",
    (17, 2.4, "odd"): "f864b7e53cecb03e",
    (17, 149.0, "even"): "3614a0e50a5f9391",
    (600, 0.7, "odd"): "ddb36690ba222ea3",
    (600, 60.5, "even"): "96dca4df093c09df",
    (600, 137.73876595129383, "even"): "0b1d8664df67fd27",
    (600, 137.67737910735187, "odd"): "d6e12f82d76c9d2f",
    (1024, 0.0, "even"): "36af46ecb9ce0015",
    (1024, 20.0, "odd"): "a78300be6f27695f",
    (1024, 107.54690180820099, "even"): "8636caa2e9a1e4fb",
    (1024, 107.52579854680931, "odd"): "6b331fefa9f551a9",
    (8000, 2.4, "even"): "d8aa5949138e595a",
    (8000, 60.5, "odd"): "7a10341c8941e880",
    (8000, 60.57837845392608, "even"): "23b91b0528d65fcf",
    (8000, 60.577615375627374, "odd"): "b874296c60f636e9",
}


@pytest.mark.parametrize("m, gamma, parity", list(_GI2_BITS))
def test_bands_keep_their_bits_wherever_the_product_fits(m, gamma, parity):
    # the unscaled bands, taken back from the row-scaled ones by powers of two
    bands = oracles.unscaled_bands(build_gi2(m, gamma, parity)).values()
    digest = hashlib.sha256(b"".join(np.asarray(a, dtype=float).tobytes() for a in bands))
    assert digest.hexdigest()[:16] == _GI2_BITS[m, gamma, parity]


def test_builder_validation():
    with pytest.raises(ValueError):
        build_gi2(1, 0.0, Parity.EVEN)
    with pytest.raises(ValueError):
        build_gi2(4, -0.6, Parity.EVEN)


def test_apply_matches_rectangular_product():
    rng = np.random.default_rng(2)
    for m in (2, 3, 5, 17):
        for gamma in (0.0, 1.1):
            for parity in (Parity.EVEN, Parity.ODD):
                tau = build_gi2(m, gamma, parity)
                f = rng.standard_normal(m)
                np.testing.assert_allclose(
                    tau.apply(f), tau.rectangular() @ f, rtol=0, atol=1e-14
                )
    with pytest.raises(ValueError):
        build_gi2(4, 0.0, Parity.EVEN).apply(np.ones(3))


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(min_value=-0.5, max_value=10.0, exclude_min=True),
    m=st.integers(min_value=2, max_value=300),
    parity=st.sampled_from(Parity),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    complex_input=st.booleans(),
)
def test_apply_head_is_the_square_product(gamma, m, parity, seed, complex_input):
    # relative to the magnitudes summed into each entry
    tau = build_gi2(m, gamma, parity)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(m) + (1j * rng.standard_normal(m) if complex_input else 0.0)
    square = tau.square()
    u = tau.apply(f)
    assert np.iscomplexobj(u) == complex_input
    err = np.abs(u[:m] - square @ f)
    assert np.all(err <= 1e-14 * (np.abs(square) @ np.abs(f)))


def _null_vector_residual(tau, mu, x):
    # backward residual of x as a right eigenvector at mu
    square = tau.square()
    return np.linalg.norm(square @ x - mu * x) / (np.linalg.norm(square, 1) * np.linalg.norm(x))


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(min_value=-0.5, max_value=3.5, exclude_min=True),
    m=st.integers(min_value=2, max_value=300),
    parity=st.sampled_from(Parity),
    data=st.data(),
)
def test_null_vector_is_the_eigenvector_at_a_computed_eigenvalue(gamma, m, parity, data):
    # the resolved share of the spectrum; complex pairs from gamma 3 on
    j = data.draw(st.integers(min_value=0, max_value=int(np.ceil(max(1.0, 0.6 * m))) - 1), label="j")
    try:
        mu = tau_spectrum(m, gamma, parity).mu[j]
    except ValueError as exc:
        # within rounding of -1/2 the m = 2 even matrix is singular, which
        # tau_spectrum refuses (see test_exact_zero_eigenvalue_is_usage_error_without_warning)
        assert m == 2 and parity is Parity.EVEN and gamma < -0.49
        assert "has an exact zero eigenvalue" in str(exc)
        return
    if mu.imag == 0:
        mu = mu.real
    tau = build_gi2(m, gamma, parity)
    x = tau.null_vector(mu)
    assert np.iscomplexobj(x) == np.iscomplexobj(mu)
    assert _null_vector_residual(tau, mu, x) <= 1e-12


def test_null_vector_rescales_where_the_recurrence_overflows():
    # unscaled, |x[0]| passes the float range by m = 1000 at the lowest mode
    tau = build_gi2(1000, 0.5, Parity.ODD)
    mu = tau_spectrum(1000, 0.5, Parity.ODD, count=1).mu[0]
    x = tau.null_vector(mu)
    assert np.isfinite(x).all() and np.abs(x).max() == 1.0
    assert _null_vector_residual(tau, mu, x) <= 1e-12


@pytest.mark.parametrize("parity", list(Parity))
@pytest.mark.parametrize("m", [3, 4, 17, 60])
def test_inverse_iteration_step_is_the_shifted_solve(m, parity):
    # one step from b points along (A - sigma I)^{-1} b and its transpose
    rng = np.random.default_rng(m)
    for gamma in (-0.3, 0.5, 2.4):
        tau = build_gi2(m, gamma, parity)
        b = rng.uniform(-1.0, 1.0, m)
        shifted = tau.square() - 0.37 * np.eye(m)  # no eigenvalue of A
        x, y = tau.inverse_iteration(0.37, b, 1)
        for got, want in ((x, np.linalg.solve(shifted, b)), (y, np.linalg.solve(shifted.T, b))):
            want /= np.linalg.norm(want)
            assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-15)
            np.testing.assert_allclose(np.sign(got @ want) * got, want, rtol=0, atol=1e-12)


def test_inverse_iteration_at_an_eigenvalue_gives_its_right_and_left_vectors():
    # sigma equal to an eigenvalue: the correction factor vanishes, nothing
    # is divided by it, and the vectors are the eigenvectors.  sigma is the
    # lowest even Dirichlet mode, mu = 1 / -(pi/2)^2, which m = 40 resolves
    # to the last bit; a dense solver's value may sit a few ulps off it
    tau = build_gi2(40, 0.5, Parity.EVEN)
    square = tau.square()
    mu = -4 / np.pi**2
    x, y = tau.inverse_iteration(mu, np.ones(40), 2)
    assert np.isfinite(x).all() and np.isfinite(y).all()
    assert np.linalg.norm(square @ x - mu * x) <= 1e-14
    assert np.linalg.norm(square.T @ y - mu * y) <= 1e-14


def test_inverse_iteration_refuses_a_singular_tridiagonal_part():
    with pytest.raises(ValueError, match="m >= 3"):
        build_gi2(2, 0.5, Parity.EVEN).inverse_iteration(0.1, np.ones(2), 1)
    # with no subdiagonal, T is upper bidiagonal and singular at sigma = dg[3]
    tau = build_gi2(6, 0.5, Parity.EVEN)
    tau = dataclasses.replace(tau, lo=np.zeros(6))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        tau.inverse_iteration(tau.dg[3], np.ones(6), 1)


def test_double_integration_of_unit_source():
    # f = G_0 integrates twice to (x^2 - 1)/2, which has exactly two modes
    for gamma in (0.0, 0.5, 2.0):
        g = build_gi2(4, gamma, Parity.EVEN).apply(np.array([1.0, 0, 0, 0]))
        expect0 = -(2 * gamma + 1) / (4 * (gamma + 1))
        expect1 = 1.0 / (2 * (gamma + 1))
        np.testing.assert_allclose(
            g, [expect0, expect1, 0, 0, 0], rtol=0, atol=1e-15
        )


def test_double_integration_is_linear_and_zero_on_zero():
    out = build_gi2(5, 0.7, Parity.ODD).apply(np.zeros(5))
    assert np.all(out == 0.0)


def test_double_integration_boundary_sum():
    rng = np.random.default_rng(8)
    for gamma in (0.0, 0.8):
        idx = GegenbauerIndex(gamma)
        for parity in (Parity.EVEN, Parity.ODD):
            f = rng.standard_normal(12)
            g = build_gi2(len(f), gamma, parity).apply(f)
            total = sum(
                g[k] * gegenbauer_at_one(parity.degree(k), idx) for k in range(len(g))
            )
            assert abs(total) <= 1e-12 * np.abs(g).max()


def test_double_integration_residual_identity():
    # applying the second-derivative connection to the reconstruction
    # recovers the source coefficients
    rng = np.random.default_rng(21)
    for gamma in (0.0, 1.4):
        for parity in (Parity.EVEN, Parity.ODD):
            f = rng.standard_normal(10)
            g = build_gi2(len(f), gamma, parity).apply(f)
            S = oracles.second_derivative_block_masked(10, 11, gamma, parity.offset)
            back = S @ g
            np.testing.assert_allclose(back, f, rtol=0, atol=1e-10 * np.abs(f).max())


def test_eigenvalues_match_charpoly_roots():
    for gamma in (0.0, 1.5):
        for parity in (Parity.EVEN, Parity.ODD):
            seq = charpoly_sequence(20, GegenbauerIndex(gamma), parity)
            for m in (4, 11, 20):
                eigs = dense_eigs(build_gi2(m, gamma, parity).square())
                roots = poly_roots(seq[m])
                got = np.sort(eigs.real)
                ref = np.sort(roots.real)
                scale = np.abs(ref).max()
                assert np.abs(eigs.imag).max() <= 1e-8 * scale
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-8 * scale)


def test_small_matrix_eigenvalues_by_bisection():
    f = charpoly_sequence(3, F(0), Parity.EVEN)[3].to_float()
    ref = oracles.bisect_roots(lambda t: oracles.poly_at(f.coeffs, t), -10.0, -1e-12)
    eigs = np.sort(dense_eigs(build_gi2(3, 0.0, Parity.EVEN).square()).real)
    np.testing.assert_allclose(eigs, ref, rtol=1e-10, atol=0)


def test_exact_column_identities():
    # column j of the square matrix combines the polynomial sequence as
    # mu * p_j, with the closure defect d_minus * p_m on the last column
    for gamma, ip, parity in ((F(0), 0, Parity.EVEN), (F(6, 5), 1, Parity.ODD)):
        for m in (3, 6):
            rows = oracles.reference_gi2_exact(m, gamma, ip)
            seq = charpoly_sequence(m, GegenbauerIndex(gamma), parity)
            d_last = rows[m][m - 1]
            for j in range(m):
                acc = [F(0)]
                for i in range(m):
                    acc = oracles.mu_add(acc, oracles.mu_mul(seq[i].coeffs, [rows[i][j]]))
                target = [F(0)] + list(seq[j].coeffs)
                if j == m - 1:
                    target = oracles.mu_add(target, oracles.mu_mul(seq[m].coeffs, [-d_last]))
                assert acc == target, (gamma, m, j)


def test_left_eigenvector_rows():
    # rows [p_0(mu), ..., p_{m-1}(mu)] at high-precision roots of p_m
    m = 10
    for gamma in (F(0), F(1, 2)):
        for parity in (Parity.EVEN, Parity.ODD):
            seq = charpoly_sequence(m, GegenbauerIndex(gamma), parity)
            M = build_gi2(m, float(gamma), parity).square()
            mnorm = np.linalg.norm(M, 2)
            for mu in oracles.mp_real_roots(seq[m].coeffs):
                row = np.array(
                    [float(oracles.mp_horner(seq[i].coeffs, mu)) for i in range(m)]
                )
                resid = np.linalg.norm(row @ M - float(mu) * row)
                assert resid <= 1e-8 * np.linalg.norm(row) * mnorm


@pytest.mark.parametrize("gamma", [-0.45, 0.0, 0.5, 1.7, 2.4, Fraction(7, 4)])
@pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
def test_first_row_is_negated_boundary_constants(gamma, parity):
    m = 60
    tau = build_gi2(m, gamma, parity)
    degrees = [parity.offset] + [parity.degree(j) for j in range(1, m)]
    expect = [-float(k_constant(n, GegenbauerIndex(gamma))) for n in degrees]
    if parity is Parity.ODD:
        g = float(gamma)
        expect[1] = expect[1] + 1.0 / (4.0 * (g + 3.0) * (g + 2.0))
    np.testing.assert_array_equal(tau.first_row, expect)


def test_diff_elim_first_boundary_row_uses_endpoint_values():
    # B's row 0 is G_n(1) of trial degrees 1..m and A's is -G_0(1) times that of D2, both times
    # one power of two; the endpoint values lie within 1e-13 of the degree-by-degree product
    m, idx = 30, GegenbauerIndex(1.7)
    for parity in (Parity.EVEN, Parity.ODD):
        pen = build_diff_pencil(m, idx, "diff-elim-first", parity)
        gv = np.array([float(gegenbauer_at_one(parity.degree(k), idx)) for k in range(m + 1)])
        scale = np.ldexp(1.0, -np.frexp(gv[-1])[1])
        np.testing.assert_allclose(oracles.pencil_b(pen)[0, :], gv[1:] * scale, rtol=1e-13, atol=0)
        d2 = oracles.second_derivative_block_masked(1, m + 1, 1.7, parity.offset)
        np.testing.assert_array_equal(oracles.pencil_a(pen)[0, :], d2[0, 1:] * -pen.ends[0])


def test_diff_pencil_structures():
    m = 8
    pen = build_diff_pencil(m, 0.0, "diff-elim-last")
    B = oracles.pencil_b(pen)
    assert np.count_nonzero(B - np.diag(np.diag(B))) == 0
    pen = build_diff_pencil(m, 0.0, "diff-elim-first")
    assert np.count_nonzero(np.tril(oracles.pencil_a(pen), -1)) == 0
    pen = build_diff_pencil(m, 0.0, "galerkin-basis")
    assert np.count_nonzero(np.tril(oracles.pencil_a(pen), -1)) == 0
    B = oracles.pencil_b(pen)
    off = B - np.diag(np.diag(B))
    off -= np.diag(np.diag(off, 1), 1) + np.diag(np.diag(off, -1), -1)
    assert np.count_nonzero(off) == 0


@pytest.mark.parametrize("m", [2, 40, 300])
@pytest.mark.parametrize("variant", DIFF_VARIANTS)
def test_materialized_pencils_have_their_recorded_structure(variant, m):
    # the builder makes no m x m array, so the structure check runs on the materialized A and B
    a_structure, b_structure = oracles.PENCIL_STRUCTURES[variant]
    gammas = (1.5,) if variant == "ierley-legendre" else (-0.49, 0.7, 2.4)
    for gamma in gammas:
        for parity in (Parity.EVEN, Parity.ODD):
            pen = build_diff_pencil(m, gamma, variant, parity)
            A, B = oracles.pencil_a(pen), oracles.pencil_b(pen)
            oracles.assert_structure(A, a_structure, variant)
            oracles.assert_structure(B, b_structure, variant)
            assert A.shape == B.shape == (m, m)


_PATTERNS = {
    "diagonal": lambda i, j: i == j,
    "upper-triangular": lambda i, j: i <= j,
    "tridiagonal": lambda i, j: abs(i - j) <= 1,
    "first-row-subdiagonal": lambda i, j: (i == 0) | (i == j + 1),
}


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("kind", sorted(_PATTERNS))
def test_assert_structure_rejects_one_entry_off_the_pattern(kind, order):
    n = 6
    i, j = np.indices((n, n))
    allowed = _PATTERNS[kind](i, j)
    valid = np.where(allowed, np.random.default_rng(3).uniform(-2.0, 2.0, (n, n)), 0.0)
    valid = np.asarray(valid, order=order)
    oracles.assert_structure(valid, kind, "test")
    tol = 1e-13 * np.abs(valid).max()
    for a, b in zip(*np.nonzero(~allowed)):
        mat = valid.copy(order=order)
        mat[a, b] = -2.0 * tol
        with pytest.raises(AssertionError, match=f"matrix is not {kind}"):
            oracles.assert_structure(mat, kind, "test")
        mat[a, b] = 0.5 * tol
        oracles.assert_structure(mat, kind, "test")
    oracles.assert_structure(np.ones((n, n)), "full", "test")
    with pytest.raises(ValueError, match="unknown structure kind"):
        oracles.assert_structure(valid, "banded", "test")


@pytest.mark.parametrize("kind", sorted(_PATTERNS))
def test_assert_structure_checks_every_row_block(kind):
    # 70 rows span three row blocks: off-pattern entries next to each block edge are caught
    n = 70
    i, j = np.indices((n, n))
    allowed = _PATTERNS[kind](i, j)
    valid = np.where(allowed, np.random.default_rng(4).uniform(-2.0, 2.0, (n, n)), 0.0)
    oracles.assert_structure(valid, kind, "test")
    tol = 1e-13 * np.abs(valid).max()
    rows = (0, 1, 2, 30, 31, 32, 33, 34, 63, 64, 65, 69)
    for a, b in zip(*np.nonzero(~allowed)):
        if a not in rows and b not in rows:
            continue
        mat = valid.copy()
        mat[a, b] = 2.0 * tol
        with pytest.raises(AssertionError, match=f"matrix is not {kind}"):
            oracles.assert_structure(mat, kind, "test")
    for a, b in zip(*np.nonzero(allowed)):  # an allowed entry far larger than the rest is no failure
        mat = valid.copy()
        mat[a, b] = 1e20
        oracles.assert_structure(mat, kind, "test")


# sizes around the 48-row tile edges, and a whole tile short of one
_TILE_EDGE_SIZES = [2, 40, 47, 48, 49, 96, 97, 257]


def _pencil_factors(m, gamma, parity):
    """The m x (m + 1) second-derivative block and G_n(1) of the m + 1
    trial degrees over that of the top one's binade, each from its own
    route."""
    d2 = oracles.second_derivative_block_masked(m, m + 1, gamma, parity.offset)
    ends = np.array(oracles.endpoint_chain_loop(m + 1, gamma, parity.offset))
    return d2, np.ldexp(ends, -np.frexp(ends[-1])[1])


def test_pencil_blocks_are_the_fixed_order_expressions():
    # the row tiles and the structured products give the bits of the whole-matrix expressions
    cases = [(m, gamma, parity) for m in _TILE_EDGE_SIZES for gamma in (-0.49, 0.7, 2.4) for parity in Parity]
    for m, gamma, parity in cases + [(1024, 1.9, Parity.ODD)]:
        d2, ends = _pencil_factors(m, gamma, parity)
        last = oracles.structured_pencil_a("diff-elim-last", d2, ends=ends)
        galerkin_pencil = build_diff_pencil(m, gamma, "galerkin-basis", parity)
        galerkin = oracles.structured_pencil_a("galerkin-basis", d2, s_bands=galerkin_pencil.s_bands)
        first = d2[:, 1:].copy()
        first[0] *= -ends[0]
        for pencil, expect in (
            (build_diff_pencil(m, gamma, "diff-elim-last", parity), last),
            (build_diff_pencil(m, gamma, "diff-elim-first", parity), first),
            (galerkin_pencil, galerkin),
        ):
            assert oracles.pencil_a(pencil).tobytes() == expect.tobytes(), (pencil.variant, m, gamma)


def test_pencil_products_are_within_four_eps_of_the_matrix_products():
    # |A - D2 C| <= 4 eps |D2| |C| for diff-elim-last, |A - D2 S| <= 4 eps |D2| |S| for galerkin-basis
    eps = np.finfo(float).eps
    for m, gamma, parity in [(40, -0.49, Parity.EVEN), (257, 0.7, Parity.ODD), (1024, 1.9, Parity.ODD)]:
        d2, ends = _pencil_factors(m, gamma, parity)
        C = np.vstack([np.eye(m), -ends[:m] / ends[m]])
        A = oracles.pencil_a(build_diff_pencil(m, gamma, "diff-elim-last", parity))
        assert np.all(np.abs(A - d2 @ C) <= 4 * eps * (np.abs(d2) @ np.abs(C))), (m, gamma)
        pencil = build_diff_pencil(m, gamma, "galerkin-basis", parity)
        S = np.zeros((m + 1, m))
        j = np.arange(m)
        S[j[1:] - 1, j[1:]], S[j, j], S[j + 1, j] = pencil.s_bands[0, 1:], pencil.s_bands[1], pencil.s_bands[2]
        bound = 4 * eps * (np.abs(d2) @ np.abs(S))
        assert np.all(np.abs(oracles.pencil_a(pencil) - d2 @ S) <= bound), (m, gamma)


_SOLVE_HASHES = """
import hashlib
import sys
sys.path[:0] = sys.argv[1:]
from gegtau.orthopoly import Parity
from gegtau.spectra import _solve_structured
from gegtau.tau_operator import DIFF_VARIANTS, build_diff_pencil
for variant in DIFF_VARIANTS:
    for m in (259, 300, 511, 1024):
        pencil = build_diff_pencil(m, 1.5 if variant == "ierley-legendre" else 1.9, variant, Parity.ODD)
        X = _solve_structured(pencil)  # a view into a padded buffer: tobytes() gives the m x m entries
        print(variant, m, hashlib.sha256(X.tobytes()).hexdigest())
"""


def test_solved_pencils_do_not_depend_on_the_blas_thread_count():
    # B^{-1} A takes no matrix product but diff-elim-first's closure gemv, so one and two BLAS
    # threads give the same bytes; the eigenvalues dgeev takes from it may still differ
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _SOLVE_HASHES, src], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        hashes.append(done.stdout.splitlines())
    assert len(hashes[0]) == 4 * len(DIFF_VARIANTS)
    assert hashes[0] == hashes[1], [a.split()[:2] for a, b in zip(*hashes) if a != b]


def test_operators_compare_by_identity_and_hash():
    a, b = build_diff_pencil(8, 0.0, "diff-elim-last"), build_diff_pencil(8, 0.0, "diff-elim-last")
    tau, other = build_gi2(8, 0.7, Parity.ODD), build_gi2(8, 0.7, Parity.ODD)
    for x, y in ((a, b), (tau, other)):
        assert x == x and x != y
        assert len({x, x, y}) == 2


def test_ierley_variant_diagonal_scaling():
    pen = build_diff_pencil(4, 1.5, "ierley-legendre")
    A = oracles.pencil_a(pen)
    oracles.assert_structure(A, "diagonal", pen.variant)
    # without the orthogonality weights, A(k,k) is -(n+1)(n+2) with n = 2k for even modes
    n = 2.0 * np.arange(4)
    np.testing.assert_array_equal(np.diag(A), -(n + 1) * (n + 2))
    with pytest.raises(ValueError):
        build_diff_pencil(4, 0.0, "ierley-legendre")
    with pytest.raises(ValueError):
        build_diff_pencil(4, 0.0, "no-such-variant")


def test_pencil_spectra_agree_with_integration():
    m = 12
    for gamma, variants in (
        (0.0, ("diff-elim-last", "diff-elim-first", "galerkin-basis")),
        (1.5, DIFF_VARIANTS),
    ):
        base = np.sort(tau_spectrum(m, gamma, Parity.EVEN).eigenvalues.real)
        for variant in variants:
            pen = build_diff_pencil(m, gamma, variant)
            lam = np.sort(pencil_spectrum(pen).eigenvalues.real)
            np.testing.assert_allclose(lam, base, rtol=1e-6, atol=0)


def test_matrix_export_formats():
    mat = np.array([[1.0, 0.0], [0.5, -2.0]])
    assert matrix_to_csv(mat) == "1,0\n0.5,-2\n"
    coord = matrix_to_coord(mat)
    lines = coord.strip().split("\n")
    assert lines[0] == "2 2 3"
    assert lines[1:] == ["0 0 1", "1 0 0.5", "1 1 -2"]
    third = np.longdouble(1) / 3
    out = matrix_to_csv(np.array([[1.0 / 3.0]]))
    assert float(out.strip()) == pytest.approx(1.0 / 3.0, abs=0)
