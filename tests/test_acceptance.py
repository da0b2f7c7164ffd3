"""Acceptance gate: the headline numerical claims, one printed line each.

Run with -s to see a PASS/FAIL line per criterion.  Heavy spectra (the four
1000-mode eigensolves and the conditioning sweep) are computed once in
module-scoped fixtures and shared.
"""

from fractions import Fraction

import numpy as np
import pytest

from gegtau.charpoly import charpoly_direct, charpoly_sequence, k_constant
from gegtau.orthopoly import GegenbauerIndex, Parity
from gegtau.spectra import eigenfunction, exact_spectrum, tau_spectrum
from gegtau.tau_operator import build_gi2
from gegtau.verify import (
    conditioning_sweep,
    hb_random_suite,
    jacobi_suite,
    realness_suite,
    sharpness_suite,
)

import oracles

F = Fraction

LARGEST_EIG_TARGETS = {0.0: 4.86e12, 0.5: 1.63e12, 1.0: 7.61e11, 1.5: 4.07e11}
CONDITIONING_GRID = (8, 16, 32, 64, 128, 256, 512, 1024)


def _line(passed: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {label}: {detail}")


@pytest.fixture(scope="module")
def odd_spectra_1000():
    return {g: tau_spectrum(1000, g, Parity.ODD) for g in LARGEST_EIG_TARGETS}


@pytest.fixture(scope="module")
def conditioning_rows():
    sweep = conditioning_sweep(
        GegenbauerIndex(0.0),
        CONDITIONING_GRID,
        variants=("integration", "diff-elim-last", "diff-elim-first"),
    )
    return sweep


def test_largest_eigenvalue_magnitudes(odd_spectra_1000):
    worst = 0.0
    details = []
    for g, target in LARGEST_EIG_TARGETS.items():
        got = np.abs(odd_spectra_1000[g].eigenvalues).max()
        rel = abs(got - target) / target
        worst = max(worst, rel)
        details.append(f"g={g}: {got:.3e} vs {target:.2e} ({rel:.2%})")
    passed = worst <= 0.01
    _line(passed, "largest-eigenvalue magnitudes", "; ".join(details))
    assert passed


def test_spectrum_accuracy_fraction(odd_spectra_1000):
    exact = exact_spectrum(1000, Parity.ODD)
    fractions = {}
    for g, spec in odd_spectra_1000.items():
        rel = np.abs(spec.eigenvalues.real - exact) / np.abs(exact)
        fractions[g] = float(np.mean(rel < 1e-8))
    passed = all(f >= 0.60 for f in fractions.values())
    _line(
        passed,
        "spectrum accuracy fraction",
        "; ".join(f"g={g}: {f:.1%} below 1e-8" for g, f in fractions.items()),
    )
    assert passed


def test_conditioning_contrast(conditioning_rows):
    sweep = conditioning_rows
    errs = {v: {} for v in ("integration", "diff-elim-last", "diff-elim-first")}
    for v, m, err in sweep.rows:
        errs[v][m] = err
    integ_ok = all(e < 1e-12 for e in errs["integration"].values())
    slope_last = sweep.fits["diff-elim-last"]["slope"]
    slope_first = sweep.fits["diff-elim-first"]["slope"]
    slopes_ok = 3.0 <= slope_last <= 5.0 and 3.0 <= slope_first <= 5.0
    # pointwise ordering reverses inside the roundoff noise at isolated m,
    # so the ordering claim is held in aggregate over the matched grid
    last = np.array([errs["diff-elim-last"][m] for m in CONDITIONING_GRID])
    first = np.array([errs["diff-elim-first"][m] for m in CONDITIONING_GRID])
    order_ok = np.exp(np.mean(np.log(last))) >= np.exp(np.mean(np.log(first)))
    passed = integ_ok and slopes_ok and order_ok
    _line(
        passed,
        "conditioning contrast",
        f"integration max err {max(errs['integration'].values()):.2e}; "
        f"slopes last {slope_last:.2f} / first {slope_first:.2f}; "
        f"geo-mean last {np.exp(np.mean(np.log(last))):.2e} >= first {np.exp(np.mean(np.log(first))):.2e}",
    )
    assert integ_ok
    assert slopes_ok
    assert order_ok


def test_realness_and_interlacing_grid():
    reports = realness_suite()
    failures = [r for r in reports if not r.passed]
    passed = not failures
    _line(
        passed,
        "realness and interlacing grid",
        f"{len(reports) - len(failures)}/{len(reports)} checks on gamma grid "
        "(-0.49..2.5), m<=20 polynomial and m in {50,200} matrix",
    )
    for r in failures:
        print("  " + r.line())
    assert passed


def test_sharpness_above_threshold():
    reports = sharpness_suite()
    passed = all(r.passed for r in reports)
    _line(
        passed,
        "sharpness above threshold",
        "; ".join(f"g={r.params['gamma']}: {r.params['pairs']} pairs" for r in reports),
    )
    assert passed


def test_recurrence_oracle_equivalence():
    mismatch = 0
    for gamma in (F(0), F(1, 2), F(1), F(3, 2)):
        idx = GegenbauerIndex(gamma)
        even = charpoly_sequence(25, idx, Parity.EVEN)
        odd = charpoly_sequence(25, idx, Parity.ODD)
        for m in range(1, 26):
            if even[m].coeffs != charpoly_direct(2 * m, idx).coeffs:
                mismatch += 1
            if odd[m].coeffs != charpoly_direct(2 * m + 1, idx).coeffs:
                mismatch += 1
    worst_k = 0.0
    for gamma in (0.0, 0.5, 1.0, 1.5):
        idx = GegenbauerIndex(gamma)
        for n in range(0, 201):
            a = k_constant(n, idx)
            b = oracles.k_constant_recursive(n, gamma)
            worst_k = max(worst_k, abs(a - b) / max(1.0, abs(a)))
    passed = mismatch == 0 and worst_k <= 1e-13
    _line(
        passed,
        "recurrence oracle equivalence",
        f"{mismatch} coefficient mismatches (exact, m<=25); "
        f"K recurrence vs closed form worst rel {worst_k:.2e}",
    )
    assert passed


def test_integration_matrix_fidelity():
    worst = 0.0
    for m in range(2, 9):
        for g in (0.0, 0.5, 1.0, 1.5, 2.0):
            for parity, ip in ((Parity.EVEN, 0), (Parity.ODD, 1)):
                ours = build_gi2(m, g, parity).rectangular()
                ref = oracles.reference_gi2(m, g, ip)
                worst = max(worst, np.abs(ours - ref).max() / np.abs(ref).max())
    exact_rows = oracles.reference_gi2_exact(3, F(0), 0)
    listed = [
        [F(-1, 4), F(7, 96), F(-1, 240)],
        [F(1, 2), F(-1, 6), F(1, 48)],
        [F(0), F(1, 24), F(-1, 30)],
        [F(0), F(0), F(1, 80)],
    ]
    exact_ok = exact_rows == listed
    built = build_gi2(3, 0.0, Parity.EVEN).rectangular()
    built_ok = np.abs(built - np.array(listed, dtype=float)).max() <= 1e-15
    passed = worst <= 1e-15 and exact_ok and built_ok
    _line(
        passed,
        "integration matrix fidelity",
        f"transcription worst rel {worst:.2e} over (2..8)x(0..2)x(even,odd); "
        f"exact m=3 entries {'match' if exact_ok and built_ok else 'MISMATCH'}",
    )
    assert passed


def test_eigenvector_structure():
    worst = 0.0
    for gamma in (F(0), F(1, 2), F(6, 5)):
        for parity in (Parity.EVEN, Parity.ODD):
            seq = charpoly_sequence(15, GegenbauerIndex(gamma), parity)
            for m in range(2, 16):
                M = build_gi2(m, float(gamma), parity).square()
                mnorm = np.linalg.norm(M, 2)
                for mu in oracles.mp_real_roots(seq[m].coeffs):
                    row = np.array(
                        [float(oracles.mp_horner(seq[i].coeffs, mu)) for i in range(m)]
                    )
                    resid = np.linalg.norm(row @ M - float(mu) * row) / (
                        np.linalg.norm(row) * mnorm
                    )
                    worst = max(worst, resid)
    rows_ok = worst <= 1e-8

    pair = eigenfunction(0, 40, 0.5, Parity.ODD)
    xs = np.linspace(-1.0, 1.0, 2001)
    u = pair.evaluate(xs).real
    target = np.sin(np.pi * xs)
    anchor = np.argmax(np.abs(target))
    amp = u[anchor] / target[anchor]
    sine_err = np.abs(u - amp * target).max() / abs(amp)
    sine_ok = sine_err < 1e-8
    passed = rows_ok and sine_ok
    _line(
        passed,
        "eigenvector structure",
        f"left-row worst residual {worst:.2e} (m<=15); "
        f"lowest odd eigenfunction vs sin(pi x) max err {sine_err:.2e} (m=40)",
    )
    assert rows_ok
    assert sine_ok


def test_hurwitz_cross_validation():
    reports = hb_random_suite(seed=20260813)
    rep = reports[0]
    passed = rep.passed and rep.params["cases"] == 200
    _line(
        passed,
        "hurwitz cross-validation",
        f"{rep.params['cases']} randomized cases, "
        f"{rep.params['stable_cases']} stable, zero disagreements: {rep.passed}",
    )
    assert passed


def test_jacobi_root_location():
    reports = jacobi_suite()
    passed = all(r.passed for r in reports)
    _line(
        passed,
        "jacobi root location",
        "; ".join(
            f"{r.check.split('distinct-')[-1]}: max root {r.params['max_root']}"
            for r in reports
        ),
    )
    assert passed
