"""Tests for the banded integration operator and the differentiation pencils.

The builder is held to value-for-value agreement with a straight-line
transcription of the reference construction (float and exact-rational), to
the algebraic column identities that tie it to the characteristic-polynomial
sequences, and to the left-eigenvector property at high-precision roots.
"""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from gegtau.charpoly import MuPolynomial, charpoly_sequence, k_constant, poly_roots
from gegtau.orthopoly import (
    GegenbauerIndex,
    Parity,
    gegenbauer_at_one,
    gegenbauer_norms,
    second_derivative_block,
)
from gegtau.spectra import dense_eigs, pencil_spectrum, tau_spectrum
from gegtau.tau_operator import (
    DIFF_VARIANTS,
    build_diff_pencil,
    build_gi2,
    matrix_to_coord,
    matrix_to_csv,
)

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
    assert build_gi2(2, 1.0, Parity.ODD).m10 == pytest.approx(1.0 / 24.0)


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
        idx = GegenbauerIndex(gamma)
        for parity in (Parity.EVEN, Parity.ODD):
            f = rng.standard_normal(10)
            g = build_gi2(len(f), gamma, parity).apply(f)
            S = second_derivative_block(10, 11, idx, parity)
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
    ref = oracles.bisect_roots(lambda t: f(t), -10.0, -1e-12)
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
                acc = MuPolynomial((F(0),))
                for i in range(m):
                    acc = acc + seq[i] * MuPolynomial((rows[i][j],))
                target = seq[j].shifted(1)
                if j == m - 1:
                    target = target - seq[m] * MuPolynomial((d_last,))
                assert acc.coeffs == target.coeffs, (gamma, m, j)


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
    m, idx = 30, GegenbauerIndex(1.7)
    for parity in (Parity.EVEN, Parity.ODD):
        pen = build_diff_pencil(m, idx, "diff-elim-first", parity)
        gv = np.array([float(gegenbauer_at_one(parity.degree(k), idx)) for k in range(m + 1)])
        h0 = gegenbauer_norms([parity.offset], idx)[0]
        np.testing.assert_array_equal(pen.B[0, :], -h0 * gv[1:] / gv[0])


def test_diff_pencil_structures():
    m = 8
    pen = build_diff_pencil(m, 0.0, "diff-elim-last")
    assert pen.b_structure == "diagonal"
    assert np.count_nonzero(pen.B - np.diag(np.diag(pen.B))) == 0
    pen = build_diff_pencil(m, 0.0, "diff-elim-first")
    assert pen.a_structure == "upper-triangular"
    assert np.count_nonzero(np.tril(pen.A, -1)) == 0
    pen = build_diff_pencil(m, 0.0, "galerkin-basis")
    assert pen.a_structure == "upper-triangular"
    assert np.count_nonzero(np.tril(pen.A, -1)) == 0
    off = pen.B - np.diag(np.diag(pen.B))
    off -= np.diag(np.diag(off, 1), 1) + np.diag(np.diag(off, -1), -1)
    assert np.count_nonzero(off) == 0


def test_ierley_variant_diagonal_scaling():
    pen = build_diff_pencil(4, 1.5, "ierley-legendre")
    assert pen.a_structure == "diagonal"
    # after stripping the orthogonality weights, A(k,k) is -(n+1)(n+2)
    # with n = 2k for even modes
    from gegtau.orthopoly import gegenbauer_norms

    h = gegenbauer_norms([2 * k for k in range(4)], GegenbauerIndex(1.5))
    n = 2.0 * np.arange(4)
    np.testing.assert_allclose(
        np.diag(pen.A) / h, -(n + 1) * (n + 2), rtol=1e-13, atol=0
    )
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
