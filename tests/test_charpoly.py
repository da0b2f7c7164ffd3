"""Tests for the characteristic-polynomial constructions in mu = 1/lambda.

The closed-form sequences are compared coefficient by coefficient with the
paper's recurrence and with a direct construction from repeated
differentiation (exact rationals and floats), the float sequences against
the exact ones within roundoff, the boundary-constant sequence against its
closed form, and the Jacobi endpoint polynomials against a 2x2 determinant
oracle built from the monomial expansion.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gegtau.charpoly import (
    MuPolynomial,
    _endpoint_chain,
    charpoly_direct,
    charpoly_sequence,
    jacobi_char_poly,
    k_constant,
    k_constants,
    mixed_char_poly,
    poly_roots,
    poly_roots_batch,
)
from gegtau.orthopoly import GegenbauerIndex, JacobiIndex, Parity, jacobi_derivs_at_one
from gegtau.verify import check_positive_pair

import oracles

F = Fraction


def test_mu_polynomial_mechanics():
    p = MuPolynomial((F(1), F(2), F(0)))
    assert p.coeffs == (F(1), F(2))
    assert p.degree == 1
    assert MuPolynomial((0.0, 0.0)).coeffs == (0.0,)
    pf = p.to_float()
    assert pf.coeffs == (1.0, 2.0) and all(type(c) is float for c in pf.coeffs)
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
    ref = oracles.bisect_roots(lambda t: oracles.poly_at(f.coeffs, t), -10.0, -1e-12)
    assert len(ref) == 3
    np.testing.assert_allclose(got.real, ref, rtol=1e-10, atol=0)


def _assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a, b)
    for part in (np.real, np.imag):
        np.testing.assert_array_equal(np.signbit(part(a)), np.signbit(part(b)))


def _from_roots(roots, lead=1.0, zero_roots=0):
    desc = np.atleast_1d(np.real(np.poly(np.asarray(roots, dtype=complex)))) * lead
    return MuPolynomial([0.0] * zero_roots + list(desc[::-1]))


def test_poly_roots_batch_is_bitwise_one_call_per_polynomial():
    rng = np.random.default_rng(7)
    polys = [MuPolynomial((2.5,)), MuPolynomial((0.0, 0.0, 3.0)), (F(1, 3), F(2))]
    for degree in range(1, 15):
        for small in (True, False):  # roots inside the unit disk take the reversed companion
            scale = 0.4 if small else 3.0
            real = -scale * rng.uniform(0.2, 1.0, degree)
            polys.append(_from_roots(real, lead=rng.uniform(-2.0, 2.0)))
            if degree >= 2:  # a conjugate pair in the same size stack
                pair = real.astype(complex)
                pair[:2] = real[0] + 1j * scale * np.array([0.5, -0.5])
                polys.append(_from_roots(pair, lead=rng.uniform(0.5, 2.0)))
            polys.append(_from_roots(real[: max(degree - 3, 0)], zero_roots=min(degree, 3)))
            if degree >= 5:  # zero roots between negative, positive and complex ones
                mixed = np.concatenate((real[:1], -real[1:2], -real[2] + 1j * scale * np.array([0.5, -0.5])))
                polys.append(_from_roots(mixed, zero_roots=degree - 4))
    # a leading coefficient that underflows to 0.0 leaves numpy.roots a leading zero
    polys.append(MuPolynomial((F(2), F(3), F(1), F(1, 10**400))))
    polys.append(MuPolynomial((F(0), F(1), F(1, 10**400))))
    polys += charpoly_sequence(6, F(3, 7), Parity.ODD) + charpoly_sequence(6, 2.4, Parity.EVEN)
    batch = poly_roots_batch(polys)
    assert len(batch) == len(polys)
    assert {r.size for r in batch} == set(range(15))
    for p, got in zip(polys, batch):
        coeffs = p.coeffs if isinstance(p, MuPolynomial) else p
        _assert_bitwise_equal(got, poly_roots(p))
        _assert_bitwise_equal(got, oracles.companion_roots_one_by_one(coeffs))
    assert poly_roots_batch([]) == []
    with pytest.raises(ValueError):
        poly_roots_batch([MuPolynomial((1.0, 2.0)), MuPolynomial((0.0,))])


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
        for parity in Parity:
            assert k_constants(21, idx, parity) == [k_constant(parity.degree(j), idx) for j in range(21)]
            assert k_constants(0, idx, parity) == []
    with pytest.raises(ValueError):
        k_constant(-1, 0.5)


def test_boundary_constants_integer_product_matches_the_fraction_routes():
    for gamma in (F(-3, 7), F(0), F(1, 2), F(3, 2), F(12, 7), F(16, 7)):
        for parity in Parity:
            m = 51 - parity.offset  # degrees up to 100
            degrees = [parity.degree(j) for j in range(m)]
            got = k_constants(m, GegenbauerIndex(gamma), parity)
            assert all(isinstance(k, F) for k in got)
            assert got == [oracles.k_constant_recursive(n, gamma) for n in degrees]
            assert [k for n, k in zip(degrees, got) if n >= 3] == [
                oracles.k_constant_closed_form(n, gamma) for n in degrees if n >= 3
            ]
            # the float route is the closed-form chain in float arithmetic, bit for bit
            floats = k_constants(m, GegenbauerIndex(float(gamma)), parity)
            assert floats == oracles.k_constants_loop(degrees, float(gamma))


def test_float_boundary_constants_round_the_exact_ones():
    # one correctly rounded int / int division per K_n: float() of each reduced Fraction, bit for bit
    for gamma in (F(12, 7), F(1, 2), F(-3, 7)):
        idx = GegenbauerIndex(gamma)
        for parity in Parity:
            floats = k_constants(1001, idx, parity, as_float=True)
            assert all(type(k) is float for k in floats)
            expected = [float(k) for k in k_constants(1001, idx, parity)]
            assert np.array(floats).tobytes() == np.array(expected).tobytes()
    floats = k_constants(25, GegenbauerIndex(0.7), Parity.ODD, as_float=True)
    assert floats == k_constants(25, GegenbauerIndex(0.7), Parity.ODD)


def test_exact_boundary_constants_hold_one_running_product():
    # each K_n is formed when the chain reaches G_{n-2}(1); holding every
    # G_i(1) numerator and denominator to the end takes about 117 MB
    tracemalloc.start()
    try:
        floats = k_constants(4000, F(12, 7), Parity.EVEN, as_float=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(floats) == 4000 and peak < 8e6, peak
    # a shorter chain is a prefix of a longer one
    for gamma in (F(12, 7), F(-3, 7)):
        for parity in Parity:
            full = k_constants(40, gamma, parity)
            assert [k_constants(m, gamma, parity) for m in range(41)] == [full[:m] for m in range(41)]
            assert k_constants(40, gamma, parity, as_float=True) == [float(k) for k in full]


@settings(max_examples=20, deadline=None)
@given(gamma=st.floats(min_value=-0.5, max_value=6.0, exclude_min=True), parity=st.sampled_from(Parity))
@example(gamma=-0.49999, parity=Parity.EVEN)
@example(gamma=6.0, parity=Parity.ODD)
@example(gamma=1.6752848432521605, parity=Parity.EVEN)
def test_float_endpoint_chain_and_boundary_constants_are_within_roundoff(gamma, parity):
    # G_n(1) within 2 (n + 1) u and K_n, n >= 3, within 4 (n + 1) u of the
    # exact values at Fraction(gamma), n <= 400.  K_0..K_2 have closed forms
    # of their own, not the chain, and K_2's factor 2g^2 + g - 7 cancels
    # near its root 1.64
    m, u = 201 - parity.offset, 2.0**-53
    degrees = [parity.degree(j) for j in range(m)]
    exact_at1 = oracles.gegenbauer_at_one_loop(400, F(gamma))
    chain = _endpoint_chain(gamma, m, parity.offset)
    for n, v in zip(degrees, chain):
        assert abs(F(v) - exact_at1[n]) <= 2 * (n + 1) * u * exact_at1[n]
    exact_ks = k_constants(m, F(gamma), parity)
    for n, v, k in zip(degrees, k_constants(m, gamma, parity), exact_ks):
        assert n < 3 or abs(F(v) - k) <= 4 * (n + 1) * u * abs(k)


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


_EXACT_GAMMAS = st.integers(1, 60).flatmap(lambda q: st.integers(-((q - 1) // 2), 6 * q).map(lambda p: F(p, q)))


@settings(max_examples=60, deadline=None)
@given(gamma=_EXACT_GAMMAS, parity=st.sampled_from(Parity), m_max=st.integers(0, 40))
@example(gamma=F(0), parity=Parity.EVEN, m_max=40)
@example(gamma=F(0), parity=Parity.ODD, m_max=40)
@example(gamma=F(1, 2), parity=Parity.EVEN, m_max=40)  # K_n = 0 for n >= 3 at 1/2 and 3/2
@example(gamma=F(1, 2), parity=Parity.ODD, m_max=40)
@example(gamma=F(3, 2), parity=Parity.EVEN, m_max=40)
@example(gamma=F(3, 2), parity=Parity.ODD, m_max=40)
def test_integer_recurrence_equals_the_generic_one(gamma, parity, m_max):
    got = charpoly_sequence(m_max, gamma, parity)
    ref = [MuPolynomial(cs) for cs in oracles.charpoly_sequence_one_by_one(m_max, gamma, parity.offset)]
    assert [p.coeffs for p in got] == [p.coeffs for p in ref]
    assert [p.to_json_obj() for p in got] == [p.to_json_obj() for p in ref]


@pytest.mark.parametrize("parity", list(Parity))
def test_integer_recurrence_equals_the_generic_one_at_degree_100(parity):
    got = charpoly_sequence(100, F(12, 7), parity)
    ref = [MuPolynomial(cs) for cs in oracles.charpoly_sequence_one_by_one(100, F(12, 7), parity.offset)]
    assert [p.coeffs for p in got] == [p.coeffs for p in ref]
    assert [p.to_json_obj() for p in got] == [p.to_json_obj() for p in ref]


@settings(max_examples=60, deadline=None)
@given(gamma=_EXACT_GAMMAS, parity=st.sampled_from(Parity), m_max=st.integers(0, 40))
@example(gamma=F(1, 2), parity=Parity.EVEN, m_max=40)
@example(gamma=F(-29, 60), parity=Parity.ODD, m_max=40)
def test_exact_pairs_are_reduced_and_are_the_fractions(gamma, parity, m_max):
    # every coefficient is an endpoint derivative value, so positive
    for p in charpoly_sequence(m_max, gamma, parity):
        assert all(n > 0 and d > 0 and math.gcd(n, d) == 1 for n, d in p.pairs)
        assert all(type(c) is F for c in p.coeffs)
        assert [(c.numerator, c.denominator) for c in p.coeffs] == list(p.pairs)
        plain = MuPolynomial(p.coeffs)
        assert p.to_json_obj() == plain.to_json_obj()
        assert np.array(p.to_float().coeffs).tobytes() == np.array(plain.to_float().coeffs).tobytes()


def test_exact_route_takes_a_float_gamma_as_its_binary_fraction():
    for gamma in (0.7, -0.49, 1e-9):
        for parity in Parity:
            got = charpoly_sequence(25, F(gamma), parity)
            assert [list(p.coeffs) for p in got] == oracles.charpoly_sequence_one_by_one(25, F(gamma), parity.offset)


_U = F(1, 2**53)  # unit roundoff of float64


@settings(max_examples=80, deadline=None)
@given(
    gamma=st.floats(-0.5, 6.0, exclude_min=True, allow_subnormal=False),
    parity=st.sampled_from(Parity),
    m_max=st.integers(0, 60),
)
@example(gamma=-0.45, parity=Parity.ODD, m_max=60)  # the float recurrence of oracles.py cancels to 5e-8 here
@example(gamma=0.7, parity=Parity.EVEN, m_max=60)  # the golden-file gammas
@example(gamma=0.7, parity=Parity.ODD, m_max=60)
@example(gamma=2.4, parity=Parity.EVEN, m_max=60)
@example(gamma=2.4, parity=Parity.ODD, m_max=60)
def test_float_coefficients_are_within_roundoff_of_the_exact_ones(gamma, parity, m_max):
    # the exact route at the float's own binary value; every coefficient is positive
    got = charpoly_sequence(m_max, gamma, parity)
    exact = charpoly_sequence(m_max, F(gamma), parity)
    assert len(got) == len(exact) == m_max + 1
    for j, (p, q) in enumerate(zip(got, exact)):
        assert len(p.coeffs) == len(q.pairs) == j + 1
        for c, (num, den) in zip(p.coeffs, q.pairs):
            assert abs(F(c) * den - num) <= 4 * (j + 1) * _U * num, (j, c, num / den)


@pytest.mark.parametrize("gamma", [-0.49, 0.7, 2.4])
@pytest.mark.parametrize("parity", list(Parity))
def test_float_coefficients_overflow_where_the_recurrence_does_and_never_turn_nan(gamma, parity):
    # the paper's recurrence (tests/oracles.py) in float arithmetic overflows
    # at m = 75 or 76 here and turns NaN two steps later
    def first_non_finite(seq):
        return next(m for m, cs in enumerate(seq) if not np.isfinite(np.array(cs, dtype=float)).all())

    got = [p.coeffs for p in charpoly_sequence(200, gamma, parity)]
    assert first_non_finite(got) == first_non_finite(oracles.charpoly_sequence_one_by_one(80, gamma, parity.offset))
    assert not any(np.isnan(cs).any() for cs in got)


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


def _omega(n, idx):
    """The even-order endpoint polynomial: coefficient k is D^{2k} P_n(1)."""
    return MuPolynomial(jacobi_derivs_at_one(n, idx)[0::2])


def test_omega_low_degree():
    idx = JacobiIndex(F(0), F(0))
    assert _omega(0, idx).coeffs == (F(1),)
    assert _omega(1, idx).coeffs == (F(1),)
    assert _omega(2, idx).coeffs == (F(1), F(3))


def test_omega_chebyshev_case_proportional_to_odd_sequence():
    om = _omega(3, JacobiIndex(F(-1, 2), F(-1, 2)))
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
