"""Tests for the theorem-checking harness and the sweep reports."""

from fractions import Fraction

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gegtau._stacks import (
    hb_stack,
    jacobi_char_stacks,
    mixed_char_stacks,
    phi_stack,
    poly_from_roots,
    poly_roots_stacks,
    stack_add,
    stack_mul,
)
from gegtau.charpoly import MuPolynomial, charpoly_sequence, jacobi_char_poly, mixed_char_poly
from gegtau.orthopoly import JacobiIndex, Parity, jacobi_derivs_at_one
from gegtau.verify import (
    DEFAULT_GAMMA_GRID,
    SweepResult,
    VerificationReport,
    check_positive_pair,
    check_stable,
    conditioning_sweep,
    gamma_scan,
    hb_compose,
    hb_random_suite,
    interlace_conjecture_suite,
    jacobi_suite,
    lemma_suite,
    phi_poly,
    phi_suite,
    realness_suite,
    sharpness_suite,
    spectrum_error_report,
)
from gegtau.verify import _fit_tail, _hurwitz_margins, _pair_verdicts, _root_stats, _row_stats, _sequence_stacks

import oracles

F = Fraction


def test_check_stable_examples():
    rep = check_stable(MuPolynomial((1.0, 1.0)))
    assert rep.passed
    assert rep.margin == pytest.approx(-1.0)
    rep = check_stable(MuPolynomial((1.0, 0.0, 1.0)))
    assert not rep.passed
    assert rep.margin == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        check_stable(MuPolynomial((0.0,)))


def test_check_stable_phi_polynomial():
    assert check_stable(phi_poly(4, JacobiIndex(0.0, 0.0))).passed


def test_positive_pair_examples():
    good = check_positive_pair(MuPolynomial((8.0, 6.0, 1.0)), MuPolynomial((3.0, 1.0)))
    assert good.passed
    bad = check_positive_pair(MuPolynomial((6.0, 5.0, 1.0)), MuPolynomial((10.0, 1.0)))
    assert not bad.passed
    idx = JacobiIndex(-0.3, -0.3)
    jac = check_positive_pair(
        MuPolynomial(jacobi_derivs_at_one(8, idx)[0::2]), MuPolynomial(jacobi_derivs_at_one(7, idx)[0::2])
    )
    assert jac.passed
    mismatch = check_positive_pair(
        MuPolynomial((1.0, 0.0, 0.0, 1.0)), MuPolynomial((1.0, 1.0))
    )
    assert not mismatch.passed
    assert mismatch.params["reason"] == "degree-mismatch"


def test_positive_pair_equal_degree_orientation():
    # equal degrees: the first argument's roots must sit above the
    # second's in each interleaved slot
    p2 = MuPolynomial((2.0, 3.0, 1.0))  # roots -1, -2
    q2 = MuPolynomial((7.5, 5.5, 1.0))  # roots -1.5, -4 -> wrong order
    ok = MuPolynomial((3.75, 4.0, 1.0))  # roots -1.5, -2.5
    assert check_positive_pair(p2, ok).passed
    assert not check_positive_pair(ok, p2).passed
    assert not check_positive_pair(p2, q2).passed


def test_hb_compose_examples():
    one = MuPolynomial((1.0,))
    assert hb_compose(one, one).coeffs == (1.0, 1.0)
    p = hb_compose(MuPolynomial((2.0, 1.0)), one)
    assert p.coeffs == (2.0, 1.0, 1.0)
    assert check_stable(p).passed
    q = hb_compose(MuPolynomial((1.0, 1.0)), MuPolynomial((-1.0,)))
    assert q.coeffs == (1.0, -1.0, 1.0)
    assert not check_stable(q).passed


def test_hb_equivalence_on_constructed_pair():
    om1 = MuPolynomial((8.0, 6.0, 1.0))
    om2 = MuPolynomial((3.0, 1.0))
    assert check_stable(hb_compose(om1, om2)).passed == check_positive_pair(om1, om2).passed


def test_hb_random_suite_agrees_everywhere():
    reps = hb_random_suite(seed=20260813)
    assert len(reps) == 1
    rep = reps[0]
    assert rep.passed
    assert rep.params["cases"] == 200
    assert rep.params["stable_cases"] == 100
    again = hb_random_suite(seed=20260813)
    assert again[0].params == rep.params
    assert again[0].margin == rep.margin


def test_lemma_suites_pass():
    reps = lemma_suite(seed=20260813)
    names = {r.check for r in reps}
    assert "positive-pair-combination-real-roots" in names
    assert "positive-pair-product-real-negative-distinct" in names
    assert all(r.passed for r in reps)


def test_phi_poly_low_degree_and_variants():
    assert phi_poly(1, JacobiIndex(0.0, 0.0)).coeffs == (1.0, 1.0)
    base = phi_poly(6, JacobiIndex(-0.5, 1.0))
    collapsed = phi_poly(6, JacobiIndex(-0.5, 1.0), variant="prev", weight=0.0)
    np.testing.assert_allclose(collapsed.coeffs, base.coeffs, rtol=0, atol=0)
    assert check_stable(phi_poly(5, JacobiIndex(-0.5, 0.7), variant="prev-mu2", weight=2.5)).passed
    with pytest.raises(ValueError):
        phi_poly(5, JacobiIndex(0.0, 0.0), variant="nope")


def test_phi_suite_all_stable():
    reps = phi_suite()
    assert len(reps) == 3
    assert all(r.passed for r in reps)


def test_realness_suite_reduced_grid():
    reps = realness_suite(gammas=(-0.49, 1.0), m_poly=12, m_matrix=(50,))
    assert all(r.passed for r in reps)
    names = {r.check for r in reps}
    assert "charpoly-roots-real-negative-distinct" in names
    assert "parity-interlacing" in names
    assert "matrix-spectrum-real-negative-distinct" in names


def test_sharpness_suite_finds_complex_pairs():
    reps = sharpness_suite()
    assert len(reps) == 2
    for rep in reps:
        assert rep.passed
        assert rep.params["pairs"] >= 1


def test_jacobi_suite_boxes():
    reps = jacobi_suite()
    assert len(reps) == 3
    assert all(r.passed for r in reps)
    grids = {r.params["grid"] for r in reps}
    assert "(-0.9, -0.5, 0.0)" in grids
    assert "(0.25, 0.5, 1.0)" in grids


def test_interlace_conjecture_reports_are_advisory():
    reps = interlace_conjecture_suite(gammas=(0.0, 1.0), m_max=10)
    assert reps
    assert all(r.advisory for r in reps)
    # suite reports empirical outcomes only; a FAIL here must never
    # propagate to a hard verification failure
    for rep in reps:
        assert "(advisory)" in rep.line()


@pytest.mark.parametrize(
    "suite, size, message",
    [
        (interlace_conjecture_suite, {"m_max": 1}, "m_max must be >= 2, got 1"),
        (realness_suite, {"m_poly": 0}, "m_poly must be >= 1, got 0"),
    ],
)
def test_suites_reject_a_size_with_no_check_as_one_line_value_error(suite, size, message):
    with pytest.raises(ValueError) as err:
        suite(gammas=(0.5,), **size)
    assert str(err.value) == message


def test_suites_accept_their_smallest_sizes():
    assert len(interlace_conjecture_suite(gammas=(0.5,), m_max=2)) == 2
    assert len(realness_suite(gammas=(0.5,), m_poly=1, m_matrix=())) == 4


def test_spectrum_error_report_meta():
    sw = spectrum_error_report(60, 0.0, Parity.ODD)
    assert sw.columns == ["k", "lambda_re", "lambda_im", "lambda_exact", "rel_err"]
    assert len(sw.rows) == 60
    meta = sw.meta
    assert meta["m"] == 60
    assert 0.0 <= meta["fraction_below_threshold"] <= 1.0
    assert meta["max_abs_lambda"] > 0
    assert meta["first_rel_err"] < 1e-10


def test_spectrum_error_report_lowest_mode_small_case():
    sw = spectrum_error_report(10, 0.5, Parity.ODD)
    assert sw.meta["first_rel_err"] < 1e-12


def test_conditioning_sweep_small_grid():
    sw = conditioning_sweep(0.0, (8, 16, 32))
    assert sw.columns == ["variant", "m", "first_eig_rel_err"]
    variants = {v for v, _, _ in sw.rows}
    assert variants == {"integration", "diff-elim-last", "diff-elim-first"}
    for v, m, err in sw.rows:
        if v == "integration":
            assert err < 1e-12, (m, err)
    text = sw.to_csv()
    assert text.startswith("variant,m,first_eig_rel_err\n")
    assert "\r" not in text


def test_gamma_scan_boundary():
    sw = gamma_scan(200, (2.5, 3.0))
    by_gamma = {}
    for g, parity, pairs, sharp, ratio in sw.rows:
        by_gamma.setdefault(g, 0)
        by_gamma[g] += pairs
    assert by_gamma[2.5] == 0
    assert by_gamma[3.0] >= 1
    assert sw.meta["boundary_gamma"] == 3.0


def test_gamma_scan_legendre_case_clean():
    sw = gamma_scan(50, (0.5,))
    assert all(pairs == 0 for _, _, pairs, _, _ in sw.rows)


def test_report_line_and_json():
    rep = VerificationReport(
        check="demo",
        params={"m": 3},
        passed=True,
        margin=-0.5,
        tolerance=1e-9,
        comparison="<",
    )
    line = rep.line()
    assert line.startswith("PASS demo [m=3] margin=-0.5")
    assert "require margin < 1e-09" in line
    d = rep.to_json_dict()
    assert d["check"] == "demo"
    assert d["passed"] is True
    assert d["margin"] == -0.5


def test_sweep_result_serialization():
    sw = SweepResult(
        name="demo",
        columns=["a", "b"],
        rows=[(1, 2.0), (3, 4.0)],
        meta={"note": "x"},
    )
    assert sw.to_csv() == "a,b\n1,2\n3,4\n"
    d = sw.to_json_dict()
    assert set(d.keys()) == {"meta", "data"}
    assert d["meta"]["name"] == "demo"


def test_default_gamma_grid_value():
    assert DEFAULT_GAMMA_GRID == (-0.49, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5)


_REAL_ROOT = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.25, 1.0]), st.floats(-5.0, 5.0).filter(lambda x: abs(x) > 1e-3))
_PAIR = st.tuples(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), st.floats(0.1, 3.0))  # (real, imag), pure imaginary included


@st.composite
def _member(draw):
    """Roots of one real polynomial: real, conjugate pairs, repeats, zeros; 0-14 in all."""
    roots = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["real", "pair", "repeat", "zero"]))
        if kind == "real":
            roots.append(complex(draw(_REAL_ROOT)))
        elif kind == "pair" and len(roots) <= 12:
            re, im = draw(_PAIR)
            roots += [complex(re, im), complex(re, -im)]
        elif kind == "repeat" and roots and roots[-1].imag == 0.0:
            roots.append(roots[-1])
        elif kind == "zero":
            roots += [0j] * draw(st.integers(1, 2))
    roots = roots[:14]
    if sum(r.imag != 0.0 for r in roots) % 2:  # a pair cut in half
        roots = [r for r in roots if r.imag == 0.0]
    lead = draw(st.sampled_from([1.0, -2.5, 0.125]))
    desc = np.atleast_1d(np.real(np.poly(np.array(roots, dtype=complex)))) * lead
    return MuPolynomial(list(desc[::-1]))


def _same_bits(a: float, b: float) -> bool:
    return (a == b or (math.isnan(a) and math.isnan(b))) and np.signbit(a) == np.signbit(b)


def _float_rows(polys) -> np.ndarray:
    return np.array([p.coeffs for p in polys], dtype=float)


@settings(max_examples=120, deadline=None)
@given(family=st.lists(_member(), min_size=0, max_size=12))
# mu^8 (mu^2 + 1): roots 0 x 8 and +-i, real parts +0.0 and -0.0 that np.sort reorders
@example(family=[MuPolynomial([0.0] * 8 + [1.0, 0.0, 1.0]), MuPolynomial((4.0, 0.0, 5.0, 0.0, 1.0)), MuPolynomial((3.0,))])
def test_root_stats_are_bitwise_the_per_polynomial_values(family):
    groups = {}
    for p in family:
        groups.setdefault(p.degree, []).append(p)
    stacks = [_float_rows(group) for group in groups.values()]
    # each stack again with a 0.0 leading column: its rows count at their own degree
    padded = [np.pad(c, ((0, 0), (0, 1))) for c in stacks]
    for group, stats in zip([*groups.values()] * 2, _row_stats(stacks + padded)):
        margins = _hurwitz_margins(stats)
        assert all(len(column) == len(group) for column in (*stats, margins))
        want = oracles.root_stats_one_by_one([oracles.companion_roots_one_by_one(p.coeffs) for p in group])
        for i, expected in enumerate(want):
            got = (*(float(column[i]) for column in stats), float(margins[i]))
            assert all(_same_bits(g, w) for g, w in zip(got, expected)), (group[i], got, expected)


def test_fit_tail_counts_an_exact_hit_at_the_rounding_unit():
    ms = np.array([8, 16, 32, 64])
    fit = _fit_tail(ms, np.zeros(4))
    assert (fit["m_start"], fit["points"]) == (8, 4)
    assert fit["slope"] == pytest.approx(0.0, abs=1e-12) and fit["stderr"] == pytest.approx(0.0, abs=1e-12)
    fit = _fit_tail(ms, np.array([2.0**-52, 0.0, 2.0**-52, 2.0**-51]))
    assert (fit["m_start"], fit["points"]) == (16, 3) and fit["slope"] == pytest.approx(1.0)


def test_root_stats_of_no_roots():
    empty = np.empty((2, 0), dtype=complex)
    stats = _root_stats(empty)
    assert [c.tolist() for c in stats] == [[-math.inf] * 2, [0.0] * 2, [0.0] * 2, [math.inf] * 2, [-math.inf] * 2]
    assert _hurwitz_margins(stats).tolist() == [-math.inf] * 2
    constants, line = _row_stats([np.array([[2.0], [-1.0]]), np.array([[1.0, 1.0]])])
    assert constants[0].tolist() == [-math.inf] * 2
    assert [c.tolist() for c in line] == [[-1.0], [1.0], [0.0], [math.inf], [-1.0]]
    assert check_stable(MuPolynomial((2.0,))).margin == -math.inf
    with pytest.raises(ValueError):
        _row_stats([np.array([[1.0, 0.0], [0.0, 0.0]])])


_TIE = st.sampled_from([0.0, -0.0, -1.0, -2.0, 1.0])  # repeats, signed zeros, a positive root
_ROOT = st.one_of(
    _TIE.map(complex),
    st.floats(-6.0, 0.5).filter(lambda x: abs(x) > 1e-6).map(complex),
    st.tuples(st.one_of(st.just(0.0), st.floats(-3.0, -1e-3)), st.floats(1e-6, 2.0)).map(lambda t: complex(*t)),
)
_LEAD = st.sampled_from([1.0, 2.5, -0.5, -3.0])


@st.composite
def _root_stack_pair(draw):
    """Root stacks of degree n and n or n - 1 with their leading coefficients."""
    n = draw(st.integers(1, 7))
    n2 = n - draw(st.integers(0, 1))
    rows = draw(st.integers(1, 5))
    stack = lambda k: np.array([[draw(_ROOT) for _ in range(k)] for _ in range(rows)], dtype=complex).reshape(rows, k)
    leads = lambda: np.array([draw(_LEAD) for _ in range(rows)])
    return stack(n), stack(n2), leads(), leads()


@settings(max_examples=200, deadline=None)
@given(case=_root_stack_pair())
# equal degrees, p2 below p1 in every slot; a broken equal-degree order; the
# tie 0.0 against -0.0 (gap -0.0), complex roots and a leading-sign mismatch
@example(case=(np.array([[-1.0 + 0j, -3.0]]), np.array([[-2.0 + 0j, -4.0]]), np.array([1.0]), np.array([2.0])))
@example(case=(np.array([[-2.0 + 0j, -4.0]]), np.array([[-1.0 + 0j, -3.0]]), np.array([1.0]), np.array([2.0])))
@example(case=(np.array([[-1.0 + 0j, 0.0]]), np.array([[complex(-0.0, 0.0)]]), np.array([1.0]), np.array([1.0])))
@example(case=(np.full((1, 2), complex(-0.0, 0.0)), np.zeros((1, 2), dtype=complex), np.array([1.0]), np.array([1.0])))
@example(case=(np.array([[-1.0 + 1j, -1.0 - 1j], [-1.0 + 0j, -2.0]]), np.array([[-1.5 + 0j], [-1.5 + 0j]]), np.array([1.0, 1.0]), np.array([1.0, -1.0])))
def test_pair_verdicts_are_bitwise_the_per_pair_test(case):
    roots1, roots2, lead1, lead2 = case
    for i, (passed, margin, reason) in enumerate(_pair_verdicts(roots1, roots2, lead1, lead2)):
        want = oracles.positive_pair_one_by_one(roots1[i], roots2[i], lead1[i], lead2[i])
        assert (passed, reason) == (want[0], want[2])
        assert _same_bits(margin, want[1]), (i, margin, want)


@st.composite
def _poly_pair(draw):
    """Two polynomials with roots from _ROOT-like draws (complex ones in
    conjugate pairs) of degrees that fit the pair test or do not."""
    def poly(k):
        roots = []
        while len(roots) < k:
            root = draw(_ROOT)
            roots += [root, root.conjugate()] if root.imag and len(roots) + 2 <= k else [complex(root.real)]
        desc = np.atleast_1d(np.real(np.poly(np.array(roots, dtype=complex)))) * draw(_LEAD)
        return MuPolynomial(list(desc[::-1]))

    n = draw(st.integers(0, 6))
    return poly(n), poly(max(n - draw(st.integers(-1, 2)), 0))


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(_poly_pair(), min_size=1, max_size=8))
def test_pair_test_one_pair_and_stacked_match_the_oracle(pairs):
    roots = lambda p: oracles.companion_roots_one_by_one(p.coeffs)
    fits = {}
    for p1, p2 in pairs:
        want = oracles.positive_pair_one_by_one(roots(p1), roots(p2), p1.coeffs[-1], p2.coeffs[-1])
        rep = check_positive_pair(p1, p2)
        assert (rep.passed, rep.params.get("reason")) == (want[0], want[2])
        assert _same_bits(rep.margin, want[1])
        assert (rep.params["deg1"], rep.params["deg2"]) == (p1.degree, p2.degree)
        if want[2] != "degree-mismatch":
            fits.setdefault((p1.degree, p2.degree), []).append((p1, p2, want))
    for group in fits.values():
        c1, c2 = _float_rows([p1 for p1, _, _ in group]), _float_rows([p2 for _, p2, _ in group])
        for (_, _, want), got in zip(group, _pair_verdicts(*poly_roots_stacks([c1, c2]), c1[:, -1], c2[:, -1])):
            assert got[0::2] == want[0::2] and _same_bits(got[1], want[1])


def _assert_rows_bitwise(stack, lists):
    assert len(stack) == len(lists)
    for row, want in zip(stack, lists):
        got = oracles.mu_trim(row.tolist())
        assert len(got) == len(want) and all(_same_bits(g, w) for g, w in zip(got, want)), (got, want)


_EXPONENT = st.one_of(st.sampled_from([-0.9, -0.5, 0.0, 0.5, 1.0, 3.0]), st.floats(-0.95, 3.0))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 17),
    rows=st.integers(1, 4),
    data=st.data(),
)
def test_built_coefficients_are_bitwise_the_per_polynomial_oracles(n, rows, data):
    draw = data.draw
    negative = st.floats(-6.0, -0.05)
    leads = np.array([draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([1.0, -1.0])) for _ in range(rows)])
    real = np.array([[draw(negative) for _ in range(n)] for _ in range(rows)])
    stacks = {"real": (real, poly_from_roots(real, leads))}
    if n >= 2:  # hb's broken case: a conjugate pair first, then real roots
        pair = real.astype(complex)
        mid, spread = 0.5 * (real[:, 0] + real[:, 1]), 0.6 * np.abs(real[:, 1] - real[:, 0])
        pair[:, 0], pair[:, 1] = mid + 1j * spread, mid - 1j * spread
        quad = np.stack((mid * mid + spread * spread, -2.0 * mid, np.ones(rows)), axis=1)
        stacks["complex-pair"] = (pair, stack_mul(poly_from_roots(real[:, 2:], leads), quad))
    lower = real[:, : n - 1] if n > 1 else np.empty((rows, 0))
    c2 = poly_from_roots(lower, leads[::-1].copy())
    _assert_rows_bitwise(c2, [oracles.poly_from_roots_one_by_one(r, lead) for r, lead in zip(lower, leads[::-1])])
    for kind, (roots, c1) in stacks.items():
        want = [oracles.poly_from_roots_one_by_one(r, lead) for r, lead in zip(roots, leads)]
        if kind == "real":
            _assert_rows_bitwise(c1, want)
        else:
            # the real quadratic factor times the real roots' product against
            # np.poly on the complex roots: equal up to rounding, which the
            # polynomial with roots -|r| bounds term by term
            bound = [oracles.poly_from_roots_one_by_one(-np.abs(r), abs(lead)) for r, lead in zip(roots, leads)]
            for row, w, scale in zip(c1, want, bound):
                assert np.all(np.abs(row - np.array(w)) <= 8 * (n + 1) * np.finfo(float).eps * np.array(scale)), (row, w)
        lists1 = [oracles.mu_trim(row.tolist()) for row in c1]
        lists2 = [oracles.mu_trim(row.tolist()) for row in c2]
        _assert_rows_bitwise(hb_stack(c1, c2), [oracles.hb_compose_one_by_one(a, b) for a, b in zip(lists1, lists2)])
        _assert_rows_bitwise(stack_mul(c1, c2), [oracles.mu_mul(a, b) for a, b in zip(lists1, lists2)])
        weights = [draw(st.floats(-2.0, 2.0)) for _ in range(rows)]
        scaled1, scaled2 = c1 * np.array(weights)[:, None], c2 * leads[:, None]
        _assert_rows_bitwise(
            stack_add(scaled1, scaled2),
            [oracles.mu_add(oracles.mu_scale(a, w), oracles.mu_scale(b, x)) for a, b, w, x in zip(lists1, lists2, weights, leads)],
        )
    pairs = [(draw(_EXPONENT), draw(_EXPONENT)) for _ in range(rows)]
    variant = draw(st.sampled_from(["base", "prev", "prev-mu2"]))
    weights = [draw(st.sampled_from([0.0, 0.1, 1.0, 10.0])) for _ in range(rows)]
    derivs = lambda k, a, b: jacobi_derivs_at_one(k, JacobiIndex(a, b))
    phi_want = [oracles.phi_one_by_one(derivs(n, a, b), derivs(n - 1, a, b), variant, w) for (a, b), w in zip(pairs, weights)]
    _assert_rows_bitwise(phi_stack(n, pairs, variant, weights, {}), phi_want)
    assert list(phi_poly(n, JacobiIndex(*pairs[0]), variant, weights[0]).coeffs) == phi_want[0]
    idxs = [JacobiIndex(a, b) for a, b in pairs]
    om = lambda k, a, b: derivs(k, a, b)[0::2]
    if n >= 2:
        jac_want = [oracles.jacobi_char_one_by_one(om(n, a, b), om(n - 1, b, a), om(n, b, a), om(n - 1, a, b)) for a, b in pairs]
        _assert_rows_bitwise(jacobi_char_stacks([n], idxs)[0], jac_want)
        mixed_want = [
            oracles.mixed_char_one_by_one(
                om(n, b, a), om(n - 2, a + 1, b + 1), om(n - 1, b, a), om(n - 1, a + 1, b + 1), (n + a + b) / 2, (n + a + b + 1) / 2
            )
            for a, b in pairs
        ]
        _assert_rows_bitwise(mixed_char_stacks([n], idxs)[0], mixed_want)
        assert list(jacobi_char_poly(n, idxs[0]).coeffs) == jac_want[0]
        assert list(mixed_char_poly(n, idxs[0]).coeffs) == mixed_want[0]


def test_sequence_stacks_are_the_floats_of_the_fractions():
    # exact polynomials give their floats from the integer pairs: the bits of float() of each Fraction
    gammas = (F(1, 2), F(3, 2), F(1, 3), F(12, 7), F(-3, 7), 0.7)
    cases = [(g, parity) for g in gammas for parity in Parity]
    seqs = [charpoly_sequence(14, g, parity) for g, parity in cases]
    stacks, roots = _sequence_stacks(cases, 14)
    for m, stack in enumerate(stacks):
        ref = np.array([[float(c) for c in seq[m].coeffs] for seq in seqs])
        assert stack.dtype == ref.dtype and stack.tobytes() == ref.tobytes(), m
        assert roots[m].tobytes() == poly_roots_stacks([ref])[0].tobytes()


@pytest.mark.parametrize(
    "suite, gamma, message",
    [
        # a float gamma: coefficients, or their ratios to the smaller end one, overflow
        (interlace_conjecture_suite, 1e14, "the odd characteristic polynomial p_11 at gamma = 100000000000000.0"),
        (interlace_conjecture_suite, 5e12, "the odd characteristic polynomial p_12 at gamma = 5000000000000.0"),
        (realness_suite, 1e13, "the odd characteristic polynomial p_12 at gamma = 10000000000000.0"),
        # an exact gamma: float() of an exact coefficient overflows
        (interlace_conjecture_suite, F(10**31), "the odd characteristic polynomial p_5 at gamma = 10" + "0" * 30),
    ],
)
def test_polynomial_suites_past_the_float_range_name_gamma_and_degree(suite, gamma, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            suite(gammas=(0.5, gamma))
    assert str(err.value) == message + " is past the float range"


def test_polynomial_suites_below_the_float_range_run_without_warnings():
    # the leading coefficients' product overflows at 1e12, which leaves its sign
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(interlace_conjecture_suite(gammas=(1e12,))) == 2
