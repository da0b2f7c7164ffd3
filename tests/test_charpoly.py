"""Tests for the characteristic-polynomial constructions in mu = 1/lambda.

The banded recurrence output is compared coefficient-by-coefficient with a
direct construction from repeated differentiation (exact rationals and
floats), the boundary-constant sequence against its closed form, and the
Jacobi endpoint polynomials against a 2x2 determinant oracle built from the
monomial expansion.
"""

from fractions import Fraction

import numpy as np
import pytest

from gegtau.charpoly import (
    MuPolynomial,
    charpoly_direct,
    charpoly_sequence,
    jacobi_char_poly,
    k_constant,
    k_constants,
    mixed_char_poly,
    omega_poly,
    poly_roots,
)
from gegtau.orthopoly import GegenbauerIndex, JacobiIndex, Parity
from gegtau.verify import check_positive_pair

import oracles

F = Fraction


def test_mu_polynomial_mechanics():
    p = MuPolynomial((F(1), F(2), F(0)))
    assert p.coeffs == (F(1), F(2))
    assert p.degree == 1
    assert p(F(1, 2)) == F(2)
    q = MuPolynomial((1.0, 1.0))
    assert (q * q).coeffs == (1.0, 2.0, 1.0)
    assert (q + q).coeffs == (2.0, 2.0)
    assert (q - q).coeffs == (0.0,)
    assert p.shifted(2).coeffs == (F(0), F(0), F(1), F(2))
    pf = p.to_float()
    assert pf(0.5) == pytest.approx(2.0)
    assert MuPolynomial((F(1, 3), F(-2))).to_json_obj() == ["1/3", "-2"]


def test_poly_roots_examples():
    lin = MuPolynomial((F(1, 2), F(2)))
    np.testing.assert_allclose(poly_roots(lin), [-0.25], rtol=0, atol=1e-15)
    quad = MuPolynomial((1.0, 0.0, 1.0))
    roots = poly_roots(quad)
    np.testing.assert_allclose(roots, [-1j, 1j], rtol=0, atol=1e-12)


def test_poly_roots_strips_zero_roots():
    # mu (mu + 2): the zero root must come back exactly
    p = MuPolynomial((0.0, 2.0, 1.0))
    roots = poly_roots(p)
    np.testing.assert_allclose(roots, [-2.0, 0.0], rtol=0, atol=1e-14)


def test_poly_roots_sorted_and_degenerate_input():
    p = MuPolynomial((6.0, 11.0, 6.0, 1.0))
    roots = poly_roots(p)
    assert list(roots.real) == sorted(roots.real)
    np.testing.assert_allclose(roots, [-3.0, -2.0, -1.0], rtol=0, atol=1e-10)
    assert poly_roots(MuPolynomial((1.0,))).size == 0
    with pytest.raises(ValueError):
        poly_roots(MuPolynomial((0.0,)))


def test_poly_roots_against_bisection():
    seq = charpoly_sequence(3, F(0), Parity.EVEN)
    f = seq[3].to_float()
    got = poly_roots(seq[3])
    assert np.abs(got.imag).max() == 0.0
    ref = oracles.bisect_roots(lambda t: f(t), -10.0, -1e-12)
    assert len(ref) == 3
    np.testing.assert_allclose(got.real, ref, rtol=1e-10, atol=0)


def test_boundary_constant_values():
    g0 = GegenbauerIndex(F(0))
    assert k_constant(0, g0) == F(1, 4)
    assert k_constant(1, g0) == F(1, 24)
    assert k_constant(4, g0) == F(1, 240)
    assert k_constant(3, GegenbauerIndex(F(1, 2))) == 0
    # general closed form of the n = 4 constant
    for gamma in (F(0), F(1, 3), F(2)):
        expect = (4 * gamma * gamma - 1) * (2 * gamma - 3) / F(720)
        assert k_constant(4, GegenbauerIndex(gamma)) == expect


def test_boundary_constant_recurrence_matches_closed_form():
    for gamma in (0.0, 0.77, 2.4):
        idx = GegenbauerIndex(gamma)
        for n in range(0, 201):
            a = k_constant(n, idx)
            b = oracles.k_constant_recursive(n, gamma)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


def test_boundary_constants_share_one_product():
    for gamma in (0.0, 0.77, 2.4, F(1, 3), F(7, 4)):
        idx = GegenbauerIndex(gamma)
        degrees = [0, 1, 2, 3, 5, 4, 40, 17]
        assert k_constants(degrees, idx) == [k_constant(n, idx) for n in degrees]
        assert k_constants([], idx) == []
    with pytest.raises(ValueError):
        k_constants([3, -1], 0.5)


def test_boundary_constant_exact_rational_equality():
    for gamma in (F(0), F(1, 3), F(5, 2)):
        idx = GegenbauerIndex(gamma)
        for n in range(0, 40):
            assert k_constant(n, idx) == oracles.k_constant_recursive(n, gamma)


def test_boundary_constant_vanishes_for_legendre_like_indices():
    for gamma in (F(1, 2), F(3, 2)):
        idx = GegenbauerIndex(gamma)
        for n in range(3, 60):
            assert k_constant(n, idx) == 0
            assert oracles.k_constant_recursive(n, gamma) == 0


def test_sequence_seeds_chebyshev():
    even = charpoly_sequence(2, F(0), Parity.EVEN)
    assert even[1].coeffs == (F(1, 2), F(2))
    assert even[2].coeffs == (F(1, 4), F(20), F(48))
    odd = charpoly_sequence(1, F(0), Parity.ODD)
    assert odd[1].coeffs == (F(1, 3), F(8))
    np.testing.assert_allclose(poly_roots(even[1]), [-0.25], rtol=0, atol=1e-15)


def test_direct_low_degree_formula():
    # n = 2 gives (2 gamma + 1)/2 + 2 (gamma + 1) mu
    for gamma in (F(0), F(1, 3), F(2)):
        got = charpoly_direct(2, GegenbauerIndex(gamma))
        assert got.coeffs == ((2 * gamma + 1) / F(2), 2 * (gamma + 1))
    assert charpoly_direct(0, GegenbauerIndex(F(0))).coeffs == (F(1),)


def test_sequence_matches_direct_exact():
    for gamma in (F(0), F(1, 2), F(1), F(3, 2), F(2), F(5, 2)):
        idx = GegenbauerIndex(gamma)
        even = charpoly_sequence(25, idx, Parity.EVEN)
        odd = charpoly_sequence(25, idx, Parity.ODD)
        for m in range(1, 26):
            assert even[m].coeffs == charpoly_direct(2 * m, idx).coeffs
            assert odd[m].coeffs == charpoly_direct(2 * m + 1, idx).coeffs


def test_sequence_matches_direct_float():
    for gamma in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
        idx = GegenbauerIndex(gamma)
        for parity, shift in ((Parity.EVEN, 0), (Parity.ODD, 1)):
            seq = charpoly_sequence(25, idx, parity)
            for m in (5, 12, 25):
                direct = charpoly_direct(2 * m + shift, idx)
                a = np.array(seq[m].coeffs, dtype=float)
                b = np.array(direct.coeffs, dtype=float)
                np.testing.assert_allclose(a, b, rtol=1e-11, atol=0)


def test_legendre_like_consecutive_interlacing():
    # Three-term recurrence with vanishing boundary constants makes each
    # parity sequence orthogonal, so consecutive roots strictly interlace.
    # Converged roots of successive truncations coincide to far below any
    # floating precision, so the check runs exactly over rationals.
    for gamma in (F(1, 2), F(3, 2)):
        idx = GegenbauerIndex(gamma)
        for parity in (Parity.EVEN, Parity.ODD):
            seq = charpoly_sequence(20, idx, parity)
            for m in range(2, 21):
                assert oracles.sturm_interlace(seq[m].coeffs, seq[m - 1].coeffs), (
                    gamma,
                    parity,
                    m,
                )


def test_roots_real_negative_distinct_small_truncations():
    for gamma in (-0.49, -0.25, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
        idx = GegenbauerIndex(gamma)
        for parity in (Parity.EVEN, Parity.ODD):
            seq = charpoly_sequence(20, idx, parity)
            for m in (5, 12, 20):
                roots = poly_roots(seq[m])
                scale = np.maximum(1.0, np.abs(roots.real))
                assert np.abs(roots.imag).max() <= 1e-9 * scale.max()
                assert roots.real.max() < 0.0
                gaps = np.diff(np.sort(roots.real))
                assert gaps.min() > 1e-8 * np.abs(roots.real).max()


def test_parity_interlacing_small_truncations():
    for gamma in (-0.49, 0.0, 1.0, 2.5):
        idx = GegenbauerIndex(gamma)
        pe = charpoly_sequence(12, idx, Parity.EVEN)
        qo = charpoly_sequence(12, idx, Parity.ODD)
        for m in range(2, 13):
            assert check_positive_pair(qo[m], pe[m]).passed
            assert check_positive_pair(pe[m], qo[m - 1]).passed


def test_omega_low_degree():
    idx = JacobiIndex(F(0), F(0))
    assert omega_poly(0, idx).coeffs == (F(1),)
    assert omega_poly(1, idx).coeffs == (F(1),)
    assert omega_poly(2, idx).coeffs == (F(1), F(3))


def test_omega_chebyshev_case_proportional_to_odd_sequence():
    om = omega_poly(3, JacobiIndex(F(-1, 2), F(-1, 2)))
    q1 = charpoly_sequence(1, F(0), Parity.ODD)[1]
    assert om.degree == q1.degree == 1
    # proportionality by cross-multiplication
    assert om.coeffs[0] * q1.coeffs[1] == om.coeffs[1] * q1.coeffs[0]


def test_jacobi_char_poly_low_degree():
    b2 = jacobi_char_poly(2, JacobiIndex(F(0), F(0)))
    assert b2.coeffs == (F(2), F(6))
    np.testing.assert_allclose(poly_roots(b2), [-1.0 / 3.0], rtol=0, atol=1e-15)


def test_jacobi_char_poly_symmetric_factorization_cubic():
    roots = poly_roots(jacobi_char_poly(3, JacobiIndex(F(0), F(0))))
    # alpha = beta = 0 corresponds to the Legendre-type family member
    p1 = poly_roots(charpoly_sequence(1, F(1, 2), Parity.EVEN)[1])
    q1 = poly_roots(charpoly_sequence(1, F(1, 2), Parity.ODD)[1])
    expect = np.sort(np.concatenate([p1.real, q1.real]))
    np.testing.assert_allclose(np.sort(roots.real), expect, rtol=1e-12, atol=0)
    np.testing.assert_allclose(expect, [-1.0 / 3.0, -1.0 / 15.0], rtol=1e-12, atol=0)


def test_jacobi_char_poly_symmetric_factorization_general():
    for gamma in (F(1, 2), F(1)):
        a = gamma - F(1, 2)
        jidx = JacobiIndex(a, a)
        pe = charpoly_sequence(4, gamma, Parity.EVEN)
        qo = charpoly_sequence(4, gamma, Parity.ODD)
        for n in range(4, 8):
            whole = np.sort(poly_roots(jacobi_char_poly(n, jidx)).real)
            if n % 2 == 0:
                parts = np.concatenate(
                    [poly_roots(pe[n // 2]).real, poly_roots(qo[n // 2 - 1]).real]
                )
            else:
                parts = np.concatenate(
                    [poly_roots(pe[(n - 1) // 2]).real, poly_roots(qo[(n - 1) // 2]).real]
                )
            np.testing.assert_allclose(
                whole, np.sort(parts), rtol=0, atol=1e-9 * np.abs(whole).max()
            )


def test_jacobi_char_poly_against_determinant_oracle():
    pairs = (
        (F(0), F(0)),
        (F(1, 2), F(-1, 2)),
        (F(1, 3), F(-1, 4)),
        (F(1), F(2)),
    )
    for a, b in pairs:
        for n in range(2, 7):
            det = oracles.endpoint_char_poly(n, a, b)
            lib = jacobi_char_poly(n, JacobiIndex(a, b)).coeffs
            sign = F(-1) ** (n - 1)
            assert len(det) == len(lib)
            assert tuple(sign * c for c in det) == tuple(lib)


def test_jacobi_char_poly_float_matches_exact():
    a, b = 0.5, -0.5
    got = jacobi_char_poly(2, JacobiIndex(a, b))
    det = oracles.endpoint_char_poly(2, F(1, 2), F(-1, 2))
    expect = [-float(c) for c in det]
    np.testing.assert_allclose(
        np.array(got.coeffs, dtype=float), expect, rtol=1e-12, atol=0
    )


def test_mixed_char_poly_low_degree():
    p = mixed_char_poly(2, JacobiIndex(F(0), F(0)))
    assert p.degree == 1
    roots = poly_roots(p)
    assert roots.size == 1
    assert roots[0].imag == 0.0
    assert roots[0].real < 0.0
    assert p.coeffs[-1] > 0


def test_mixed_char_poly_negative_range_roots():
    roots = poly_roots(mixed_char_poly(3, JacobiIndex(-0.5, -0.5)))
    assert np.abs(roots.imag).max() == 0.0
    assert roots.real.max() < 0.0
    assert np.diff(np.sort(roots.real)).min() > 1e-8 * np.abs(roots.real).max()
