"""Tests for the theorem-checking harness and the sweep reports."""

from fractions import Fraction

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gegtau.charpoly import MuPolynomial, omega_poly, poly_roots, poly_roots_batch
from gegtau.orthopoly import JacobiIndex, Parity
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
from gegtau.verify import _hurwitz_margins, _root_stats

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
    jac = check_positive_pair(
        omega_poly(8, JacobiIndex(-0.3, -0.3)), omega_poly(7, JacobiIndex(-0.3, -0.3))
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
    reps = hb_random_suite(cases=200, seed=20260813)
    assert len(reps) == 1
    rep = reps[0]
    assert rep.passed
    assert rep.params["cases"] == 200
    assert rep.params["stable_cases"] == 100
    again = hb_random_suite(cases=200, seed=20260813)
    assert again[0].params == rep.params
    assert again[0].margin == rep.margin


def test_lemma_suites_pass():
    reps = lemma_suite(cases=50, seed=20260813)
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
    reps = phi_suite(n_max=12)
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
    reps = sharpness_suite(gammas=(2.6, 3.0), m=200)
    assert len(reps) == 2
    for rep in reps:
        assert rep.passed
        assert rep.params["pairs"] >= 1


def test_jacobi_suite_boxes():
    reps = jacobi_suite(n_max=15)
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


@settings(max_examples=120, deadline=None)
@given(family=st.lists(_member(), min_size=0, max_size=12))
# mu^8 (mu^2 + 1): roots 0 x 8 and +-i, real parts +0.0 and -0.0 that np.sort reorders
@example(family=[MuPolynomial([0.0] * 8 + [1.0, 0.0, 1.0]), MuPolynomial((4.0, 0.0, 5.0, 0.0, 1.0)), MuPolynomial((3.0,))])
def test_root_stats_are_bitwise_the_per_polynomial_values(family):
    roots = poly_roots_batch(family)
    stats = _root_stats(roots)
    margins = _hurwitz_margins(roots)
    assert all(len(column) == len(family) for column in (*stats, margins))
    for i, want in enumerate(oracles.root_stats_one_by_one(roots)):
        got = (*(column[i] for column in stats), margins[i])
        assert all(_same_bits(g, w) for g, w in zip(got, want)), (i, got, want)


def test_root_stats_of_no_roots():
    assert _root_stats([]) == ([], [], [], [], [])
    empty = np.array([], dtype=complex)
    assert _root_stats([empty, np.array([-1.0 + 0j])]) == ([-math.inf, -1.0], [0.0, 1.0], [0.0, 0.0], [math.inf, math.inf], [-math.inf, -1.0])
    assert _hurwitz_margins([empty]) == [-math.inf]
    assert check_stable(MuPolynomial((2.0,))).margin == -math.inf
