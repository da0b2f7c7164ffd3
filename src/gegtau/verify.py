"""Numerical verification of the spectral claims.

Checks come in two flavors: root-based checks on the characteristic
polynomials (small truncations, optionally exact arithmetic upstream) and
matrix-based checks on the assembled operators (larger truncations, float).
Each check produces a VerificationReport with a scalar margin so borderline
behavior is visible, not just a boolean.

The Hurwitz/positive-pair pair of predicates is cross-validated on randomized
instances: composing two polynomials into p(z) = F(z^2) + z G(z^2) must be
stable exactly when (F, G) is a positive pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._stacks import (
    as_stack,
    hb_stack,
    jacobi_char_stacks,
    mixed_char_stacks,
    phi_stack,
    poly_from_roots,
    poly_roots_stacks,
    stack_add,
    stack_mul,
)
from .charpoly import MuPolynomial, charpoly_sequence
from .orthopoly import JacobiIndex, Parity, as_gegenbauer, as_jacobi, as_parity
from .spectra import (
    SweepResult,
    _check_tolerance,
    exact_spectrum,
    min_rel_gap,
    pencil_spectrum,
    reality_ratio,
    tau_spectrum,
)
from .tau_operator import DIFF_VARIANTS, build_diff_pencil

__all__ = [
    "VerificationReport",
    "SweepResult",
    "check_stable",
    "check_positive_pair",
    "hb_compose",
    "phi_poly",
    "realness_suite",
    "sharpness_suite",
    "hb_random_suite",
    "lemma_suite",
    "phi_suite",
    "jacobi_suite",
    "interlace_conjecture_suite",
    "spectrum_error_report",
    "conditioning_sweep",
    "gamma_scan",
    "DEFAULT_GAMMA_GRID",
]

DEFAULT_GAMMA_GRID = (-0.49, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5)

# The fixed claims the suites check, each value named once.  Polynomial roots
# are real when every imaginary part is within ROOT_REALITY_TOL of the root's
# modulus, and distinct when every relative gap exceeds ROOT_GAP_TOL.
ROOT_REALITY_TOL = 1e-9
ROOT_GAP_TOL = 1e-8
HURWITZ_TOL = 1e-9  # stable: largest real part over max(1, modulus) below -HURWITZ_TOL
MATRIX_REALITY_TOL = 1e-6  # the same claims of the assembled operators' eigenvalues
MATRIX_GAP_TOL = 1e-10
LEMMA_REALITY_TOL = 1e-7  # the same claims of lemma_suite's combinations and products
LEMMA_GAP_TOL = 1e-9
SHARPNESS_GAMMAS, SHARPNESS_M = (2.6, 3.0), 200  # above the reality threshold
SHARPNESS_RATIO = 1e-3  # a complex pair: |imag| beyond this share of |lambda|
HB_CASES, LEMMA_CASES = 200, 50  # random instances per seed
PHI_N_MAX, PHI_WEIGHTS = 12, (0.1, 1.0, 10.0)
JACOBI_N_MAX = 15


@dataclass
class VerificationReport:
    """Outcome of one check: margin, the tolerance it was held to, and the
    direction of the comparison that defines success."""

    check: str
    params: dict
    passed: bool
    margin: float
    tolerance: float
    comparison: str
    advisory: bool = False

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        if self.advisory:
            tag += " (advisory)"
        ps = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{tag} {self.check} [{ps}] margin={self.margin:.6g} require margin {self.comparison} {self.tolerance:g}"

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "params": {k: (v if isinstance(v, (int, float, str, bool)) else str(v)) for k, v in self.params.items()},
            "passed": bool(self.passed),
            "margin": float(self.margin),
            "tolerance": float(self.tolerance),
            "comparison": self.comparison,
            "advisory": bool(self.advisory),
        }


def check_stable(p, tol: float = HURWITZ_TOL) -> VerificationReport:
    """Hurwitz test: every root strictly in the left half plane.

    margin is the largest real part scaled by the root magnitude (-inf when
    p has no roots); success requires margin < -tol, so an axis-touching
    root fails.
    """
    if not isinstance(p, MuPolynomial):
        p = MuPolynomial(p)
    margin = _hurwitz_margins(_row_stats([np.array([p.coeffs], dtype=float)])[0])[0]
    return VerificationReport(
        check="hurwitz-stable",
        params={"degree": p.degree},
        passed=bool(margin < -tol),
        margin=float(margin),
        tolerance=tol,
        comparison="< -",
    )


def check_positive_pair(p1, p2, tol_real: float = ROOT_REALITY_TOL, tol_gap: float = ROOT_GAP_TOL) -> VerificationReport:
    """Positive-pair test for (p1, p2) with deg p2 in {deg p1 - 1, deg p1}.

    Requires: all roots real (relative imaginary part within tol_real) and
    strictly negative, each set distinct, strict interlacing in the pattern
    fixed by the degree difference (equal degrees: p2's roots come first),
    and leading coefficients of like sign.  margin is the smallest relative
    gap in the merged root sequence.  The one-pair case of _pair_verdicts.
    """
    if not isinstance(p1, MuPolynomial):
        p1 = MuPolynomial(p1)
    if not isinstance(p2, MuPolynomial):
        p2 = MuPolynomial(p2)
    verdict = (False, -math.inf, "degree-mismatch")
    if p1.degree >= 1 and p2.degree in (p1.degree - 1, p1.degree):
        c1, c2 = np.array([p1.coeffs], dtype=float), np.array([p2.coeffs], dtype=float)
        verdict = _pair_verdicts(*poly_roots_stacks([c1, c2]), c1[:, -1], c2[:, -1], tol_real, tol_gap)[0]
    return _pair_report(p1.degree, p2.degree, verdict, tol_gap)


def _pair_verdicts(roots1, roots2, lead1, lead2, tol_real=ROOT_REALITY_TOL, tol_gap=ROOT_GAP_TOL) -> list:
    """check_positive_pair's verdict for row i of each stack: roots1 and
    roots2 are root stacks (poly_roots_stacks) of degree n >= 1 and n or
    n - 1, lead1 and lead2 the leading coefficients.

    Returns one (passed, margin, reason) per row, reason None unless a
    structural test failed.  Each is bitwise the per-pair test: the sorts,
    the interleaved merge and the gaps run row-wise on the stacks.
    """
    re1, re2 = reality_ratio(roots1), reality_ratio(roots2)
    reality = np.where(re2 > re1, re2, re1)  # Python's max(re1, re2): re1 unless re2 is larger
    r1 = np.sort(roots1.real, axis=1)
    r2 = np.sort(roots2.real, axis=1)
    low, high = (r2, r1) if r2.shape[1] == r1.shape[1] else (r1, r2)
    merged = np.empty((len(r1), r1.shape[1] + r2.shape[1]))
    merged[:, 0::2] = low
    merged[:, 1::2] = high
    margins = min_rel_gap(merged)
    with np.errstate(over="ignore"):  # an inf product keeps its sign
        columns = (reality, margins, merged[:, -1] >= 0.0, lead1 * lead2 <= 0.0)
    out = []
    for ratio, margin, nonnegative, sign_mismatch in zip(*(c.tolist() for c in columns)):
        if ratio > tol_real:
            out.append((False, -math.inf, f"non-real-roots ratio={ratio:.3e}"))
        elif nonnegative:
            out.append((False, margin, "nonnegative-root"))
        elif sign_mismatch:
            out.append((False, margin, "leading-sign-mismatch"))
        else:
            out.append((margin > tol_gap, margin, None))
    return out


def _pair_report(deg1: int, deg2: int, verdict, tol_gap: float) -> VerificationReport:
    passed, margin, reason = verdict
    params = {"deg1": deg1, "deg2": deg2}
    if reason is not None:
        params["reason"] = reason
    return VerificationReport(
        check="positive-pair",
        params=params,
        passed=passed,
        margin=margin,
        tolerance=tol_gap,
        comparison=">",
    )


def _worst_positive_pair(check, params, outcomes, advisory=False) -> VerificationReport:
    """The weakest of several (deg1, deg2, verdict) pair outcomes (a failure
    over a pass, else the smallest margin) as one report named check and
    tagged with params."""
    worst = None
    for outcome in outcomes:
        passed, margin, _ = outcome[2]
        if worst is None or margin < worst[2][1] or (worst[2][0] and not passed):
            worst = outcome
    report = _pair_report(*worst, ROOT_GAP_TOL)
    report.check = check
    report.params.update(params)
    report.advisory = advisory
    return report


def hb_compose(p1, p2) -> MuPolynomial:
    """Interleave two polynomials into p(z) = p1(z^2) + z p2(z^2); the
    one-member case of hb_stack."""
    if not isinstance(p1, MuPolynomial):
        p1 = MuPolynomial(p1)
    if not isinstance(p2, MuPolynomial):
        p2 = MuPolynomial(p2)
    return MuPolynomial(hb_stack(as_stack([p1.coeffs]), as_stack([p2.coeffs]))[0].tolist())


def phi_poly(n: int, idx, variant: str = "base", weight: float = 0.0) -> MuPolynomial:
    """All-order endpoint derivative polynomial of a Jacobi basis function.

    base      coefficient k is the k-th derivative of P_n at 1, k = 0..n
    prev      base(n) + weight * base(n-1)
    prev-mu2  base(n) + weight * mu^2 * base(n-1)

    The one-member case of phi_stack.
    """
    jdx = as_jacobi(idx)
    return MuPolynomial(phi_stack(n, [(jdx.alpha, jdx.beta)], variant, [weight], {})[0].tolist())


def _root_stats(roots: np.ndarray) -> tuple:
    """Per-row statistics of a root stack (from poly_roots_stacks).

    Returns float arrays (top, radius, reality, gap, last), one entry per
    row: the largest real part, the largest modulus, reality_ratio,
    min_rel_gap of the sorted real parts, and the last of those.  Each is
    bitwise what the per-row numpy call gives; rows without roots get top =
    last = -inf, radius = reality = 0 and gap = inf.
    """
    count, degree = roots.shape
    if degree == 0:
        return (np.full(count, -math.inf), np.zeros(count), np.zeros(count), np.full(count, math.inf), np.full(count, -math.inf))
    real_sorted = np.sort(roots.real, axis=1)
    top = np.max(roots.real, axis=1)
    return top, np.max(np.abs(roots), axis=1), reality_ratio(roots), min_rel_gap(real_sorted), real_sorted[:, -1]


def _row_stats(stacks) -> list:
    """_root_stats of the roots of every row of each float coefficient
    stack, all from one poly_roots_stacks call.  A row whose leading
    coefficient is 0.0 counts at its lower degree, as the polynomial trims
    it."""
    full = [c[:, -1] != 0.0 for c in stacks]
    out = []
    for c, keep, roots in zip(stacks, full, poly_roots_stacks([c[keep] for c, keep in zip(stacks, full)])):
        stats = _root_stats(roots)
        if not keep.all():
            if c.shape[1] == 1:
                raise ValueError("the zero polynomial has no well-defined roots")
            whole = np.empty((5, len(c)))
            whole[:, keep] = stats
            whole[:, ~keep] = _row_stats([c[~keep, :-1]])[0]
            stats = tuple(whole)
        out.append(stats)
    return out


def _hurwitz_margins(stats) -> np.ndarray:
    """check_stable's margin for each row of _root_stats: the largest real
    part over max(1, largest modulus), or -inf for a row with no roots."""
    top, radius = stats[:2]
    return top / np.where(radius > 1.0, radius, 1.0)


def _roots_report(check, params, reality, gaps, tops, tol_real=ROOT_REALITY_TOL, tol_gap=ROOT_GAP_TOL) -> VerificationReport:
    """Aggregate real/negative/distinct over a family of polynomials, from
    the reality, gap and last entries of their _root_stats in family
    order."""
    worst_real = 0.0
    worst_gap = math.inf
    worst_top = -math.inf
    ok = True
    for ratio, gap, top in zip(reality.tolist(), gaps.tolist(), tops.tolist()):
        worst_real = max(worst_real, ratio)
        worst_top = max(worst_top, top)
        worst_gap = min(worst_gap, gap)
        if ratio > tol_real or top >= 0.0 or gap <= tol_gap:
            ok = False
    params = dict(params, max_imag_ratio=f"{worst_real:.3e}", max_root=f"{worst_top:.3e}")
    return VerificationReport(
        check=check,
        params=params,
        passed=ok,
        margin=worst_gap,
        tolerance=tol_gap,
        comparison=">",
    )


def _sequence_stacks(cases, m_max: int) -> tuple:
    """Coefficient and root stacks of the charpoly sequences of cases, a
    list of (gamma, parity): for each m <= m_max the float stack of p_m over
    the cases (a row per case) and its roots.  Exact polynomials give their
    floats through to_float, which reads the integer pairs and builds no
    Fraction.

    ValueError names the first p_m whose companion matrix leaves the float
    range: a coefficient past it, or one over the smaller end coefficient
    (poly_roots_stacks divides by that end).
    """
    seqs = [charpoly_sequence(m_max, g, parity) for g, parity in cases]
    stacks = [np.array([_float_coeffs(seq[m]) for seq in seqs], dtype=float) for m in range(m_max + 1)]
    try:
        with np.errstate(all="ignore"):
            return stacks, poly_roots_stacks(stacks)
    except np.linalg.LinAlgError:  # eigvals refuses inf and nan entries
        for m, c in enumerate(stacks):
            with np.errstate(all="ignore"):
                bad = ~np.isfinite(c / np.minimum(np.abs(c[:, :1]), np.abs(c[:, -1:]))).all(axis=1)
            if bad.any():
                g, parity = cases[int(np.argmax(bad))]
                name = f"the {parity.value} characteristic polynomial p_{m} at gamma = {g}"
                raise ValueError(f"{name} is past the float range") from None
        raise


def _float_coeffs(p) -> tuple:
    """p's coefficients as floats, inf where an exact one is past the float
    range."""
    try:
        return p.to_float().coeffs
    except OverflowError:
        return (math.inf,) * (p.degree + 1)


def realness_suite(gammas=DEFAULT_GAMMA_GRID, m_poly: int = 20, m_matrix=(50, 200)) -> list:
    """Real, negative, distinct eigenvalues with interlacing parity classes.

    Polynomial route up to m_poly modes (roots of the characteristic
    sequences, including the two parity interlacing patterns, held to
    ROOT_REALITY_TOL and ROOT_GAP_TOL), matrix route at the sizes in
    m_matrix via the integration operator (MATRIX_REALITY_TOL and
    MATRIX_GAP_TOL).  The polynomials of one degree are checked as one
    stack, a row per (gamma, parity).
    """
    if m_poly < 1:
        raise ValueError(f"m_poly must be >= 1, got {m_poly}")
    cases = [(g, parity) for g in gammas for parity in (Parity.EVEN, Parity.ODD)]
    if not cases:
        return []
    stacks, roots = _sequence_stacks(cases, m_poly)
    stats = np.array([_root_stats(r)[2:] for r in roots[1:]])  # (m, reality/gap/last, row)
    lead = [c[:, -1] for c in stacks]
    degrees = range(1, m_poly + 1)
    patterns = (
        (
            "odd-vs-even-equal-degree",
            [(m, m, _pair_verdicts(roots[m][1::2], roots[m][0::2], lead[m][1::2], lead[m][0::2])) for m in degrees],
        ),
        (
            "even-vs-lower-odd",
            [(m, m - 1, _pair_verdicts(roots[m][0::2], roots[m - 1][1::2], lead[m][0::2], lead[m - 1][1::2])) for m in degrees],
        ),
    )
    reports = []
    for i, g in enumerate(gammas):
        for j, parity in enumerate(("even", "odd")):
            params = {"gamma": g, "parity": parity, "m_max": m_poly}
            reports.append(_roots_report("charpoly-roots-real-negative-distinct", params, *stats[:, :, 2 * i + j].T))
        for pattern, outcomes in patterns:
            params = {"gamma": g, "pattern": pattern, "m_max": m_poly}
            reports.append(_worst_positive_pair("parity-interlacing", params, [(d1, d2, v[i]) for d1, d2, v in outcomes]))
        for m in m_matrix:
            for parity in (Parity.EVEN, Parity.ODD):
                spec = tau_spectrum(m, g, parity, tol_real=MATRIX_REALITY_TOL)
                gap = spec.min_gap_ratio()
                ok = bool(spec.is_real.all() and spec.is_negative.all() and gap > MATRIX_GAP_TOL)
                reports.append(
                    VerificationReport(
                        check="matrix-spectrum-real-negative-distinct",
                        params={
                            "gamma": g,
                            "parity": parity.value,
                            "m": m,
                            "max_imag_ratio": f"{spec.max_imag_ratio():.3e}",
                        },
                        passed=ok,
                        margin=gap,
                        tolerance=MATRIX_GAP_TOL,
                        comparison=">",
                    )
                )
    return reports


def sharpness_suite() -> list:
    """Above the reality threshold the spectrum grows conjugate pairs.

    Passes when at least one eigenvalue pair has relative imaginary part
    beyond SHARPNESS_RATIO for every family parameter in SHARPNESS_GAMMAS.
    A fold over the even and odd rows of gamma_scan: the pairs beyond the
    ratio summed, the largest imaginary ratio as the margin.
    """
    rows = gamma_scan(SHARPNESS_M, SHARPNESS_GAMMAS).rows
    reports = []
    for g, even, odd in zip(SHARPNESS_GAMMAS, rows[0::2], rows[1::2]):
        pairs = even[3] + odd[3]  # columns 3 and 4: complex_pairs_sharp, max_imag_ratio
        reports.append(
            VerificationReport(
                check="sharpness-complex-pairs",
                params={"gamma": g, "m": SHARPNESS_M, "pairs": pairs},
                passed=pairs >= 1,
                margin=max(even[4], odd[4]),
                tolerance=SHARPNESS_RATIO,
                comparison=">",
            )
        )
    return reports




def _random_positive_pair(rng, n: int, equal_degree: bool):
    """Roots and leads of a decisively positive pair (margins well clear of
    the check tolerances)."""
    gaps = rng.uniform(0.2, 1.0, size=n)
    r1 = -np.cumsum(gaps)[::-1]
    if equal_degree:
        lowers = np.concatenate(([r1[0] - 1.0], r1[:-1]))
        uppers = r1
    else:
        lowers = r1[:-1]
        uppers = r1[1:]
    r2 = lowers + (uppers - lowers) * rng.uniform(0.25, 0.75, size=lowers.size)
    sign = 1.0 if rng.integers(0, 2) else -1.0
    lead1 = sign * rng.uniform(0.5, 2.0)
    lead2 = sign * rng.uniform(0.5, 2.0)
    return r1, r2, lead1, lead2


def _by_shape(drawn) -> list:
    """(shape, row) pairs, each row a tuple, as one list of column arrays
    per shape, in first-seen order."""
    groups = {}
    for shape, row in drawn:
        groups.setdefault(shape, []).append(row)
    return [[np.array(column) for column in zip(*rows)] for rows in groups.values()]


def hb_random_suite(seed: int = 20260813) -> list:
    """Cross-validate the Hurwitz test against the positive-pair test.

    Half the instances are constructed positive pairs, half are decisively
    broken (sign flip, interlacing violation, positive root, or a complex
    conjugate root pair).  The two predicates must agree on every case.
    The pairs are drawn one by one and checked as one coefficient stack per
    shape (degree, degree pattern, complex pair or not).
    """
    rng = np.random.default_rng(seed)
    drawn = []
    for case in range(HB_CASES):
        n = int(rng.integers(2, 9))
        equal_degree = bool(rng.integers(0, 2))
        r1, r2, lead1, lead2 = _random_positive_pair(rng, n, equal_degree)
        complex_pair = False
        if case % 2 == 1:
            mode = case // 2 % 4
            if mode == 0:
                lead2 = -lead2
            elif mode == 1:
                if equal_degree:
                    r2[-1] = 0.4 * r1[-1]  # above every p1 root, still negative
                else:
                    r2[0] = r1[0] - 0.8  # below the lowest p1 root
            elif mode == 2:
                r1[-1] = 0.5  # one positive root
            else:
                complex_pair = True
        quad = ()
        if complex_pair:  # the roots r1[0], r1[1] become mid +- i spread
            mid = 0.5 * (r1[0] + r1[1])
            spread = 0.6 * abs(r1[1] - r1[0])
            quad = ((mid * mid + spread * spread, -2.0 * mid, 1.0),)
            r1 = r1[2:]
        drawn.append(((n, equal_degree, complex_pair), (r1, r2, lead1, lead2, *quad)))
    built = []  # per shape: p1, p2 and their composition
    for r1, r2, lead1, lead2, *quad in _by_shape(drawn):
        c1, c2 = poly_from_roots(r1, lead1), poly_from_roots(r2, lead2)
        if quad:
            c1 = stack_mul(c1, quad[0])
        built += [c1, c2, hb_stack(c1, c2)]
    roots = poly_roots_stacks(built)
    passed, margins = [], []
    for k in range(0, len(built), 3):
        passed += [v[0] for v in _pair_verdicts(roots[k], roots[k + 1], built[k][:, -1], built[k + 1][:, -1])]
        margins.append(_hurwitz_margins(_root_stats(roots[k + 2])))
    margins = np.concatenate(margins)
    stable = margins < -HURWITZ_TOL
    disagreements = int(np.count_nonzero(stable != np.array(passed)))
    stable_count = int(np.count_nonzero(stable))
    worst_abs_margin = min([math.inf, *np.abs(margins + HURWITZ_TOL).tolist()])
    return [
        VerificationReport(
            check="hurwitz-positive-pair-agreement",
            params={
                "cases": HB_CASES,
                "seed": seed,
                "stable_cases": stable_count,
                "stability_margin_closest": f"{worst_abs_margin:.3e}",
            },
            passed=disagreements == 0,
            margin=float(disagreements),
            tolerance=0.0,
            comparison="<=",
        )
    ]


def lemma_suite(seed: int = 20260813) -> list:
    """Consequences of positive pairs that the stability proofs lean on.

    Linear combinations a p1 + b p2 of a positive pair keep real roots;
    the symmetrized product p1 t2 + p2 t1 of two positive pairs has real,
    negative, distinct roots.  The instances are drawn one by one and built
    and checked as one coefficient stack per shape.
    """
    rng = np.random.default_rng(seed)
    combs = []
    for _ in range(LEMMA_CASES):
        n = int(rng.integers(2, 8))
        equal_degree = bool(rng.integers(0, 2))
        r1, r2, lead1, lead2 = _random_positive_pair(rng, n, equal_degree)
        a = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
        combs.append(((n, equal_degree), (r1, r2, lead1, lead2, a, b)))
    products = []
    for case in range(LEMMA_CASES):
        n = int(rng.integers(2, 8))
        r1, r2, lead1, lead2 = _random_positive_pair(rng, n, False)
        t1, t2, lead3, lead4 = _random_positive_pair(rng, n, False)
        products.append((n, (case, r1, r2, t1, t2, lead1, lead2, lead3, lead4)))
    comb_stacks = []
    for r1, r2, lead1, lead2, a, b in _by_shape(combs):
        comb_stacks.append(stack_add(poly_from_roots(r1, lead1) * a[:, None], poly_from_roots(r2, lead2) * b[:, None]))
    product_stacks, order = [], []
    for case, r1, r2, t1, t2, lead1, lead2, lead3, lead4 in _by_shape(products):
        p1, p2 = poly_from_roots(r1, lead1), poly_from_roots(r2, lead2)
        q1, q2 = poly_from_roots(t1, lead3), poly_from_roots(t2, lead4)
        product_stacks.append(stack_add(stack_mul(p1, q2), stack_mul(p2, q1)))
        order.append(case)
    stats = _row_stats(comb_stacks + product_stacks)
    worst_comb = max([0.0, *(ratio for s in stats[: len(comb_stacks)] for ratio in s[2].tolist())])
    family = np.empty((3, LEMMA_CASES))  # reality, gap, last per product, in draw order
    for case, s in zip(order, stats[len(comb_stacks) :]):
        family[:, case] = s[2:]
    params = {"cases": LEMMA_CASES, "seed": seed}
    rep1 = VerificationReport(
        check="positive-pair-combination-real-roots",
        params=params,
        passed=worst_comb <= LEMMA_REALITY_TOL,
        margin=worst_comb,
        tolerance=LEMMA_REALITY_TOL,
        comparison="<=",
    )
    rep2 = _roots_report("positive-pair-product-real-negative-distinct", params, *family, LEMMA_REALITY_TOL, LEMMA_GAP_TOL)
    return [rep1, rep2]


def phi_suite() -> list:
    """Stability scans of the all-order endpoint polynomials.

    base over alpha in (-1, 1], prev over alpha <= 0, prev-mu2 over
    alpha <= 1, each crossed with a beta grid and the PHI_WEIGHTS, up to
    degree PHI_N_MAX: 1180 polynomials, one coefficient stack per variant
    and degree from 220 O(n) endpoint-derivative lists.
    """
    betas = (-0.9, 0.0, 1.0, 3.0)
    scans = (
        ("base", (-0.9, -0.5, 0.0, 0.5, 1.0), (0.0,), 2),
        ("prev", (-0.9, -0.5, 0.0), PHI_WEIGHTS, 3),
        ("prev-mu2", (-0.9, -0.5, 0.0, 0.5, 1.0), PHI_WEIGHTS, 3),
    )
    memo = {}
    families = []  # per scan: (a, b, w) combinations, degrees, one stack per degree
    for variant, alphas, ws, n_min in scans:
        combos = [(a, b, w) for a in alphas for b in betas for w in ws]
        pairs = [(a, b) for a, b, _ in combos]
        degrees = range(n_min, PHI_N_MAX + 1)
        families.append((combos, degrees, [phi_stack(n, pairs, variant, [w for *_, w in combos], memo) for n in degrees]))
    stats = iter(_row_stats([c for *_, stacks in families for c in stacks]))
    reports = []
    for (variant, *_), (combos, degrees, stacks) in zip(scans, families):
        margins = np.array([_hurwitz_margins(next(stats)) for _ in stacks])
        worst = -math.inf
        worst_at = None
        ok = True
        for (a, b, w), row in zip(combos, margins.T.tolist()):  # scan order: n innermost
            for n, margin in zip(degrees, row):
                if margin > worst:
                    worst = margin
                    worst_at = (a, b, w, n)
                ok = ok and margin < -HURWITZ_TOL
        reports.append(
            VerificationReport(
                check=f"endpoint-poly-stable-{variant}",
                params={"n_max": PHI_N_MAX, "worst_at": str(worst_at)},
                passed=ok,
                margin=worst,
                tolerance=HURWITZ_TOL,
                comparison="< -",
            )
        )
    return reports


def jacobi_suite() -> list:
    """Root location for the Jacobi characteristic polynomials.

    Dirichlet: real, negative, distinct over exponent boxes (-1, 0]^2 and
    (0, 1]^2.  Mixed ends: same over (-1, 0]^2.  Up to degree JACOBI_N_MAX:
    378 polynomials, one coefficient stack per box and degree from 349
    endpoint-derivative lists.
    """
    neg = (-0.9, -0.5, 0.0)
    pos = (0.25, 0.5, 1.0)
    boxes = (
        ("dirichlet-neg-box", neg, jacobi_char_stacks, 2),
        ("dirichlet-pos-box", pos, jacobi_char_stacks, 2),
        ("mixed-neg-box", neg, mixed_char_stacks, 2),
    )
    memo = {}  # one list per (n, alpha, beta) over all boxes: 349 instead of 540, ~6% of the suite
    stacks = [
        builder(range(n_lo, JACOBI_N_MAX + 1), [JacobiIndex(a, b) for a in grid for b in grid], memo)
        for _, grid, builder, n_lo in boxes
    ]
    stats = iter(_row_stats([c for box in stacks for c in box]))
    reports = []
    for (label, grid, _, _), box in zip(boxes, stacks):
        box_stats = np.array([next(stats)[2:] for _ in box])  # (n, reality/gap/last, (a, b))
        family = box_stats.transpose(1, 2, 0).reshape(3, -1)  # (a, b) outer, n inner
        params = {"n_max": JACOBI_N_MAX, "grid": f"{grid}"}
        reports.append(_roots_report(f"jacobi-roots-real-negative-distinct-{label}", params, *family))
    return reports


def interlace_conjecture_suite(gammas=DEFAULT_GAMMA_GRID, m_max: int = 12) -> list:
    """Observed (not proven) interlacing of successive same-parity
    truncations; reported as advisory only.

    The polynomials are exact for Fraction gammas, but their roots are
    floats.  At gamma 1/2 and 3/2 (m_max 12) the margins of the degree 10
    and 12 pairs come out between -2.3e-13 and -7.9e-15 and the check
    prints four FAILs, yet the exact Sturm test in
    tests/test_charpoly.py (test_legendre_like_consecutive_interlacing)
    finds every successive pair there strictly interlaced.
    """
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {m_max}")
    cases = [(g, parity) for g in gammas for parity in (Parity.EVEN, Parity.ODD)]
    if not cases:
        return []
    stacks, roots = _sequence_stacks(cases, m_max)
    verdicts = [
        _pair_verdicts(roots[m + 1], roots[m], stacks[m + 1][:, -1], stacks[m][:, -1]) for m in range(1, m_max)
    ]
    return [
        _worst_positive_pair(
            "successive-truncation-interlacing",
            {"gamma": g, "parity": parity.value, "m_max": m_max},
            [(m + 1, m, verdicts[m - 1][i]) for m in range(1, m_max)],
            advisory=True,
        )
        for i, (g, parity) in enumerate(cases)
    ]


def spectrum_error_report(m: int, idx, parity, threshold: float = 1e-8) -> SweepResult:
    """Per-mode relative errors of one spectrum against the exact values."""
    _check_tolerance("threshold", threshold)
    par = as_parity(parity)
    spec = tau_spectrum(m, idx, par)
    table = spec.table()
    err = np.array([row[-1] for row in table.rows])
    return replace(
        table,
        name="spectrum-error",
        meta={
            "m": m,
            "gamma": float(spec.gamma),
            "parity": par.value,
            "threshold": threshold,
            "fraction_below_threshold": float(np.mean(err < threshold)),
            "max_abs_lambda": float(np.max(np.abs(spec.eigenvalues))),
            "first_rel_err": float(err[0]),
        },
    )


def _fit_tail(ms: np.ndarray, errs: np.ndarray) -> dict | None:
    """Least-squares slope of log10 err vs log10 m on the tail that starts
    at the error minimum (the roundoff-dominated regime).

    An error that reads 0 (the result is the rounded exact value) enters as
    2**-53, the most the rounding of the exact value leaves it off by."""
    errs = np.where(errs == 0.0, 2.0**-53, errs)
    start = int(np.argmin(errs))
    ms, errs = ms[start:], errs[start:]
    keep = errs > 0
    ms, errs = ms[keep], errs[keep]
    if ms.size < 3:
        return None
    x = np.log10(ms.astype(float))
    y = np.log10(errs)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    dof = x.size - 2
    if dof > 0 and res.size:
        s2 = float(res[0]) / dof
        stderr = math.sqrt(s2 / float(np.sum((x - x.mean()) ** 2)))
    else:
        stderr = 0.0
    return {
        "slope": slope,
        "stderr": stderr,
        "ci95": [slope - 2.0 * stderr, slope + 2.0 * stderr],
        "m_start": int(ms[0]),
        "points": int(ms.size),
    }


def conditioning_sweep(idx, m_grid, variants=("integration",) + DIFF_VARIANTS[:2], parity=Parity.EVEN) -> SweepResult:
    """First-eigenvalue relative error per formulation across truncations.

    The integration route stays at roundoff; the differentiation routes
    deteriorate polynomially, which the tail fit quantifies.  Integration
    cells compute only the lowest mode (tau_spectrum with count=1).
    """
    par = as_parity(parity)
    exact = float(exact_spectrum(1, par)[0])
    rows = []
    series = {v: ([], []) for v in variants}
    for v in variants:
        for m in m_grid:
            if v == "integration":
                spec = tau_spectrum(int(m), idx, par, count=1)
            else:
                spec = pencil_spectrum(build_diff_pencil(int(m), idx, v, par))
            err = spec.table().rows[0][-1]
            rows.append((v, int(m), err))
            series[v][0].append(int(m))
            series[v][1].append(err)
    fits = {}
    for v, (ms, errs) in series.items():
        fit = _fit_tail(np.array(ms), np.array(errs))
        if fit is not None:
            fits[v] = fit
    return SweepResult(
        name="conditioning",
        columns=["variant", "m", "first_eig_rel_err"],
        rows=rows,
        meta={"gamma": float(as_gegenbauer(idx).gamma), "parity": par.value, "exact": exact},
        fits=fits,
    )


def gamma_scan(m: int, gammas, tol_real: float = MATRIX_REALITY_TOL, ratio_sharp: float = SHARPNESS_RATIO) -> SweepResult:
    """Count complex conjugate pairs per family parameter at fixed size.

    Two counts per parity: pairs beyond the reality tolerance and pairs
    beyond the (much larger) sharpness ratio; the metadata records the first
    parameter at which any pair appears.
    """
    rows = []
    boundary = None
    for g in gammas:
        for parity in (Parity.EVEN, Parity.ODD):
            spec = tau_spectrum(m, g, parity, tol_real=tol_real)
            lam = spec.eigenvalues
            n_tol = int(np.sum(~spec.is_real)) // 2
            n_sharp = int(np.sum(np.abs(lam.imag) > ratio_sharp * np.abs(lam))) // 2
            rows.append((float(g), parity.value, n_tol, n_sharp, spec.max_imag_ratio()))
            if n_tol > 0 and boundary is None:
                boundary = float(g)
    return SweepResult(
        name="gamma-scan",
        columns=["gamma", "parity", "complex_pairs", "complex_pairs_sharp", "max_imag_ratio"],
        rows=rows,
        meta={"m": m, "tol_real": tol_real, "ratio_sharp": ratio_sharp, "boundary_gamma": boundary},
    )
