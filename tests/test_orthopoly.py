"""Tests for the normalized ultraspherical basis and Jacobi helpers.

The family is pinned down against classical special cases evaluated by
scipy, against exact rational arithmetic, and against Gauss quadrature for
the weighted orthogonality relation.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st

from gegtau.orthopoly import (
    GegenbauerIndex,
    JacobiIndex,
    Parity,
    apply_derivative,
    as_gegenbauer,
    as_jacobi,
    as_parity,
    gegenbauer_at_one,
    gegenbauer_at_one_upto,
    gegenbauer_eval,
    gegenbauer_norms,
    jacobi_derivs_at_one,
    _one_minus_x2_bands,
    _second_derivative_rows,
)

import oracles

GAMMAS = (-0.49, 0.0, 0.5, 1.0, 1.5, 2.5)
XS = np.linspace(-1.0, 1.0, 11)


def _eval_grid(n, gamma, xs):
    return np.array([gegenbauer_eval(n, GegenbauerIndex(gamma), x) for x in xs])


def test_index_validation():
    with pytest.raises(ValueError):
        GegenbauerIndex(-0.5)
    with pytest.raises(ValueError):
        GegenbauerIndex(-0.75)
    with pytest.raises(ValueError):
        JacobiIndex(-1.0, 0.0)
    with pytest.raises(ValueError):
        JacobiIndex(0.0, -1.5)
    with pytest.raises(ValueError):
        as_parity("both")
    GegenbauerIndex(-0.49)
    JacobiIndex(-0.99, -0.99)


def test_index_conversions():
    g = GegenbauerIndex(0.7)
    assert as_gegenbauer(g) is g
    assert as_gegenbauer(1.5).gamma == 1.5
    assert g.shifted(2).gamma == pytest.approx(2.7)
    j = JacobiIndex(0.25, -0.4)
    assert as_jacobi(j) is j
    assert as_jacobi((0.25, -0.4)) == j
    with pytest.raises(TypeError):
        as_jacobi(0.25)


def test_parity_helpers():
    assert Parity.EVEN.offset == 0
    assert Parity.ODD.offset == 1
    assert Parity.EVEN.degree(3) == 6
    assert Parity.ODD.degree(3) == 7
    assert Parity.EVEN.flipped() is Parity.ODD
    assert Parity.ODD.flipped() is Parity.EVEN
    assert as_parity("even") is Parity.EVEN
    assert as_parity(Parity.ODD) is Parity.ODD


def test_low_degree_seeds():
    rng = np.random.default_rng(3)
    for gamma in GAMMAS:
        idx = GegenbauerIndex(gamma)
        for x in rng.uniform(-1, 1, 5):
            assert gegenbauer_eval(0, idx, x) == pytest.approx(1.0)
            assert gegenbauer_eval(1, idx, x) == pytest.approx(x)
            expect = (gamma + 1) * x * x - 0.5
            assert gegenbauer_eval(2, idx, x) == pytest.approx(expect, abs=1e-14)


def test_spec_point_values():
    assert gegenbauer_eval(2, GegenbauerIndex(1.0), 1.0) == pytest.approx(1.5)
    assert gegenbauer_eval(3, GegenbauerIndex(0.0), 0.5) == pytest.approx(-1.0 / 3.0)


def test_chebyshev_first_kind_limit():
    # gamma = 0 gives T_n / n for n >= 1
    for n in range(1, 31):
        ref = sp.eval_chebyt(n, XS) / n
        got = _eval_grid(n, 0.0, XS)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))
    np.testing.assert_allclose(_eval_grid(0, 0.0, XS), np.ones_like(XS))


def test_legendre_limit():
    for n in range(0, 31):
        ref = sp.eval_legendre(n, XS)
        got = _eval_grid(n, 0.5, XS)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))


def test_chebyshev_second_kind_limit():
    # gamma = 1 gives U_n / 2 for n >= 1
    for n in range(1, 31):
        ref = sp.eval_chebyu(n, XS) / 2.0
        got = _eval_grid(n, 1.0, XS)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))


def test_endpoint_value_matches_evaluation():
    for gamma in GAMMAS:
        idx = GegenbauerIndex(gamma)
        for n in range(0, 51):
            assert gegenbauer_at_one(n, idx) == pytest.approx(
                gegenbauer_eval(n, idx, 1.0), rel=1e-12, abs=1e-300
            )


def test_endpoint_value_exact_rational():
    idx = GegenbauerIndex(Fraction(1, 3))
    for n in range(0, 12):
        assert gegenbauer_at_one(n, idx) == gegenbauer_eval(n, idx, Fraction(1))


def test_endpoint_values_running_product_matches_fresh_products():
    for gamma in GAMMAS + (Fraction(1, 3), Fraction(7, 4)):
        idx = GegenbauerIndex(gamma)
        values = gegenbauer_at_one_upto(60, idx)
        assert len(values) == 61
        assert values == [oracles.endpoint_value(n, gamma) for n in range(61)]
        assert [gegenbauer_at_one(n, idx) for n in range(61)] == values
    assert gegenbauer_at_one_upto(-1, 0.5) == []
    assert gegenbauer_at_one_upto(0, 0.5) == [1.0]


def test_index_rejects_non_finite_gamma():
    for gamma in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError):
            GegenbauerIndex(gamma)


def test_parity_symmetry():
    rng = np.random.default_rng(11)
    for gamma in GAMMAS:
        idx = GegenbauerIndex(gamma)
        for n in range(0, 16):
            for x in rng.uniform(0, 1, 4):
                left = gegenbauer_eval(n, idx, -x)
                right = (-1.0) ** n * gegenbauer_eval(n, idx, x)
                assert left == pytest.approx(right, abs=1e-13)


def test_vectorized_evaluation():
    idx = GegenbauerIndex(1.5)
    got = gegenbauer_eval(4, idx, XS)
    ref = np.array([gegenbauer_eval(4, idx, float(x)) for x in XS])
    np.testing.assert_allclose(got, ref, rtol=0, atol=0)


def test_quadrature_orthogonality():
    # Gauss-Jacobi nodes for the weight (1-x^2)^(gamma-1/2)
    for gamma in (0.0, 0.5, 1.2):
        a = gamma - 0.5
        nodes, weights = sp.roots_jacobi(40, a, a)
        idx = GegenbauerIndex(gamma)
        vals = np.array([gegenbauer_eval(n, idx, nodes) for n in range(21)])
        gram = (vals * weights) @ vals.T
        norms = gegenbauer_norms(range(21), idx)
        np.testing.assert_allclose(gram, np.diag(norms), rtol=0, atol=1e-10)


def test_norm_closed_values():
    for n, gamma, expect in ((1, 0.5, 2.0 / 3.0), (0, 0.5, 2.0), (3, 0.0, np.pi / 18.0), (0, 1.0, np.pi / 2.0)):
        assert gegenbauer_norms([n], GegenbauerIndex(gamma))[0] == pytest.approx(expect)


def test_norms_vector_matches_scalar():
    # each h_n has its own bits, whatever other degrees share the call
    idx = GegenbauerIndex(1.7)
    vec = gegenbauer_norms(range(10), idx)
    for n in range(10):
        assert vec[n] == gegenbauer_norms([n], idx)[0]
    assert gegenbauer_norms([9, 0, 4], idx).tolist() == vec[[9, 0, 4]].tolist()
    with pytest.raises(ValueError):
        gegenbauer_norms([2, -1], idx)


def test_norms_refuse_where_their_lgamma_terms_cost_half_the_bits():
    # at gamma 1e17 the lgamma terms of h_0 cancel to 0 and gave sqrt(pi) for sqrt(pi / gamma)
    for degrees, gamma in (([0], 1e17), ([0, 1], 1e16), ([1], 2.4e6), ([0, 2], 3e6)):
        with pytest.raises(OverflowError, match="too large to keep half its bits"):
            gegenbauer_norms(degrees, gamma)
    for gamma in (1e3, 1e6, 2.3e6):  # below the bound the error is about 2^-53 times the terms
        with mp.workdps(40):
            g = mp.mpf(gamma)
            h0 = mp.sqrt(mp.pi) * mp.gamma(g + 0.5) / mp.gamma(g + 1)
            exact = [h0] + [
                mp.pi * 2 ** (-1 - 2 * g) * mp.gamma(n + 2 * g) / ((n + g) * mp.factorial(n) * mp.gamma(g + 1) ** 2)
                for n in range(1, 6)
            ]
        assert max(abs(float(h / e - 1)) for h, e in zip(gegenbauer_norms(range(6), gamma), exact)) < 2**-26


def test_second_derivative_low_degrees():
    # (G_2)'' = 2 (gamma+1) G_0 and (G_3)'' carries 4 (gamma+1)(gamma+2) on G_1
    for gamma in (0.0, 0.5, 1.5):
        idx = GegenbauerIndex(gamma)
        D = oracles.gegenbauer_derivative_matrix(6, gamma)
        DD = D @ D
        assert DD[0, 2] == pytest.approx(2 * (gamma + 1))
        assert DD[1, 3] == pytest.approx(4 * (gamma + 1) * (gamma + 2))
        assert np.abs(DD[1:, 2]).max() == 0.0


def test_derivative_matrix_against_finite_differences():
    idx = GegenbauerIndex(0.8)
    nmax = 9
    D = oracles.gegenbauer_derivative_matrix(nmax, idx.gamma)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(nmax + 1)
    dcoeffs = D @ coeffs

    def f(x):
        return sum(c * gegenbauer_eval(n, idx, x) for n, c in enumerate(coeffs))

    def fp(x):
        return sum(c * gegenbauer_eval(n, idx, x) for n, c in enumerate(dcoeffs))

    for x in (-0.6, 0.1, 0.45):
        fd = oracles.central_kth_derivative(f, x, 1, h=1e-3)
        assert fp(x) == pytest.approx(fd, rel=1e-8, abs=1e-8)


def test_apply_derivative_matches_matrix():
    idx = GegenbauerIndex(1.3)
    rng = np.random.default_rng(9)
    for nmax in (1, 2, 7, 16):
        coeffs = rng.standard_normal(nmax + 1)
        D = oracles.gegenbauer_derivative_matrix(nmax, idx.gamma)
        # the derivative of a degree-nmax expansion has degree nmax - 1
        np.testing.assert_allclose(
            apply_derivative(coeffs, idx), (D @ coeffs)[:nmax], rtol=0, atol=1e-13
        )


def test_apply_derivative_exact_rational():
    idx = GegenbauerIndex(Fraction(1, 2))
    coeffs = [Fraction(1, 3), Fraction(-2, 7), Fraction(5), Fraction(0), Fraction(1, 11)]
    out = apply_derivative(coeffs, idx)
    D = oracles.gegenbauer_derivative_matrix(4, 0.5)
    approx = (D @ np.array([float(c) for c in coeffs]))[:4]
    np.testing.assert_allclose([float(c) for c in out], approx, rtol=0, atol=1e-13)
    assert all(isinstance(c, Fraction) for c in out)


def test_second_derivative_block_matches_full_matrix():
    for gamma in (0.0, 1.1):
        D = oracles.gegenbauer_derivative_matrix(24, gamma)
        full = D @ D
        for parity in (Parity.EVEN, Parity.ODD):
            rows = [parity.degree(k) for k in range(8)]
            cols = [parity.degree(j) for j in range(10)]
            block = _second_derivative_rows(0, 8, 10, gamma, parity.offset)
            np.testing.assert_allclose(block, full[np.ix_(rows, cols)], rtol=0, atol=1e-11)


def test_second_derivative_block_is_the_masked_product_bit_for_bit():
    for gamma in (-0.49, 0.0, 1.1, 2.4):
        for parity in (Parity.EVEN, Parity.ODD):
            for rows, cols in ((8, 10), (10, 8), (1, 1), (0, 3), (3, 0), (200, 201)):
                block = _second_derivative_rows(0, rows, cols, gamma, parity.offset)
                ref = oracles.second_derivative_block_masked(rows, cols, gamma, parity.offset)
                assert block.shape == ref.shape and block.tobytes() == ref.tobytes()
            whole = oracles.second_derivative_block_masked(200, 201, gamma, parity.offset)
            for r0, r1 in ((0, 48), (1, 49), (48, 96), (150, 200)):  # a row tile has the whole block's bits
                tile = _second_derivative_rows(r0, r1, 201, gamma, parity.offset)
                assert tile.tobytes() == whole[r0:r1].tobytes(), (r0, r1)


def test_integration_three_term_inverts_second_derivative():
    # dm(n) (G_{n+2})'' + d0(n) (G_n)'' + dp(n) (G_{n-2})'' recovers G_n
    for gamma in (0.0, 0.5, 1.5):
        idx = GegenbauerIndex(gamma)
        D = oracles.gegenbauer_derivative_matrix(33, gamma)
        DD = D @ D
        for n in range(2, 31):
            dm = 1.0 / (4 * (gamma + n + 1) * (gamma + n))
            d0 = -1.0 / (2 * (gamma + n + 1) * (gamma + n - 1))
            dp = 1.0 / (4 * (gamma + n) * (gamma + n - 1))
            combo = dm * DD[:, n + 2] + d0 * DD[:, n] + dp * DD[:, n - 2]
            expect = np.zeros(34)
            expect[n] = 1.0
            np.testing.assert_allclose(combo, expect, rtol=0, atol=1e-12)


def test_one_minus_x2_block_pointwise():
    rng = np.random.default_rng(17)
    for gamma in (0.0, 0.9):
        idx = GegenbauerIndex(gamma)
        for parity in (Parity.EVEN, Parity.ODD):
            block = oracles.one_minus_x2_block(7, 5, gamma, parity.offset)
            for j in range(5):
                deg = parity.degree(j)
                for x in rng.uniform(-1, 1, 3):
                    lhs = (1 - x * x) * gegenbauer_eval(deg, idx, x)
                    rhs = sum(
                        block[k, j] * gegenbauer_eval(parity.degree(k), idx, x)
                        for k in range(7)
                    )
                    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_one_minus_x2_bands_are_the_reference_block():
    for gamma in (-0.49, 0.0, 0.9, 2.4):
        for parity in (Parity.EVEN, Parity.ODD):
            ab = _one_minus_x2_bands(40, gamma, parity.offset)
            S = oracles.one_minus_x2_block(41, 40, gamma, parity.offset)
            j = np.arange(40)
            assert ab[0, 0] == 0.0
            np.testing.assert_allclose(ab[0, 1:], S[j[1:] - 1, j[1:]], rtol=1e-14, atol=0)
            np.testing.assert_allclose(ab[1], S[j, j], rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(ab[2], S[j + 1, j], rtol=1e-14, atol=0)
            S[j[1:] - 1, j[1:]] = S[j, j] = S[j + 1, j] = 0.0
            assert np.abs(S).max() <= 1e-15


def test_jacobi_at_one():
    # entry 0 of jacobi_derivs_at_one is P_n(1) = binom(n + alpha, n)
    for a, b in ((0.0, 0.0), (0.3, -0.2), (1.5, 0.5)):
        idx = JacobiIndex(a, b)
        for n in range(0, 16):
            at_one = jacobi_derivs_at_one(n, idx)[0]
            assert at_one == pytest.approx(sp.binom(n + a, n), rel=1e-13)
            assert at_one == pytest.approx(oracles.jacobi_reference(n, a, b, 1.0), rel=1e-12)


def test_jacobi_deriv_at_one_values():
    idx = JacobiIndex(0.0, 0.0)
    assert jacobi_derivs_at_one(2, idx)[2] == pytest.approx(3.0)
    assert jacobi_derivs_at_one(1, idx)[1] == pytest.approx(1.0)
    assert jacobi_derivs_at_one(0, idx) == [1.0]
    # D^k P_n = 0 for k > n: the list stops at k = n
    assert len(jacobi_derivs_at_one(1, idx)) == 2 and len(jacobi_derivs_at_one(3, idx)) == 4
    for n in range(6):
        for k, d in enumerate(jacobi_derivs_at_one(n, JacobiIndex(0.3, -0.2))):
            assert d == pytest.approx(oracles.jacobi_deriv_product(n, 0.3, -0.2, k), rel=1e-13)


def test_jacobi_deriv_at_one_finite_difference():
    a, b = 0.3, -0.2
    idx = JacobiIndex(a, b)
    for n, k in ((5, 3), (4, 1), (4, 2), (6, 1), (6, 2)):
        fd = oracles.central_kth_derivative(lambda t: oracles.jacobi_reference(n, a, b, t), 1.0, k, h=1e-2)
        assert jacobi_derivs_at_one(n, idx)[k] == pytest.approx(fd, rel=1e-6)


# p/q > -1 with q <= 20
_JACOBI_EXPONENTS = st.integers(1, 20).flatmap(lambda q: st.integers(-q + 1, 5 * q).map(lambda p: Fraction(p, q)))


@settings(max_examples=80, deadline=None)
@given(alpha=_JACOBI_EXPONENTS, beta=_JACOBI_EXPONENTS, n=st.integers(0, 30))
def test_jacobi_derivs_at_one_is_exact_on_fractions(alpha, beta, n):
    derivs = jacobi_derivs_at_one(n, JacobiIndex(alpha, beta))
    assert derivs == [oracles.jacobi_deriv_product(n, alpha, beta, k) for k in range(n + 1)]
    assert all(isinstance(d, Fraction) for d in derivs)


def test_jacobi_derivs_at_one_float_error():
    # the exact reference is the same recurrence on the floats' own rational
    # values, which the Fraction test above pins to the per-k product
    grid = (-0.9, -0.5, 0.0, 0.25, 1 / 3, 0.5, 1.0, 1.7, 3.0)
    for alpha in grid:
        for beta in grid:
            for n in range(31):
                derivs = jacobi_derivs_at_one(n, JacobiIndex(alpha, beta))
                exact = jacobi_derivs_at_one(n, JacobiIndex(Fraction(alpha), Fraction(beta)))
                assert len(derivs) == len(exact) == n + 1
                for k, (got, want) in enumerate(zip(derivs, exact)):
                    assert abs(Fraction(got) - want) <= Fraction(1, 10**13) * abs(want), (alpha, beta, n, k)


def test_jacobi_derivs_at_one_rejects_negative_degree():
    with pytest.raises(ValueError):
        jacobi_derivs_at_one(-1, JacobiIndex(0.0, 0.0))
