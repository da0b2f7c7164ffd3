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

from .charpoly import (
    MuPolynomial,
    charpoly_sequence,
    jacobi_char_poly,
    mixed_char_poly,
    poly_roots_batch,
)
from .orthopoly import JacobiIndex, Parity, as_gegenbauer, as_jacobi, as_parity, jacobi_derivs_at_one
from .spectra import _TINY, SweepResult, exact_spectrum, min_rel_gap, pencil_spectrum, reality_ratio, tau_spectrum
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


def check_stable(p, tol: float = 1e-9) -> VerificationReport:
    """Hurwitz test: every root strictly in the left half plane.

    margin is the largest real part scaled by the root magnitude (-inf when
    p has no roots); success requires margin < -tol, so an axis-touching
    root fails.
    """
    if not isinstance(p, MuPolynomial):
        p = MuPolynomial(p)
    margin = _hurwitz_margins(poly_roots_batch([p.to_float()]))[0]
    return VerificationReport(
        check="hurwitz-stable",
        params={"degree": p.degree},
        passed=bool(margin < -tol),
        margin=margin,
        tolerance=tol,
        comparison="< -",
    )


def _hurwitz_margins(roots) -> list:
    """check_stable's margin for each root array: the largest real part over
    max(1, largest modulus), or -inf for an array with no roots."""
    top, radius, *_ = _root_stats(roots)
    return [t / (r if r > 1.0 else 1.0) for t, r in zip(top, radius)]


def check_positive_pair(p1, p2, tol_real: float = 1e-9, tol_gap: float = 1e-8) -> VerificationReport:
    """Positive-pair test for (p1, p2) with deg p2 in {deg p1 - 1, deg p1}.

    Requires: all roots real (relative imaginary part within tol_real) and
    strictly negative, each set distinct, strict interlacing in the pattern
    fixed by the degree difference (equal degrees: p2's roots come first),
    and leading coefficients of like sign.  margin is the smallest relative
    gap in the merged root sequence.
    """
    if not isinstance(p1, MuPolynomial):
        p1 = MuPolynomial(p1)
    if not isinstance(p2, MuPolynomial):
        p2 = MuPolynomial(p2)
    roots = None
    if _pair_degrees_fit(p1, p2):
        roots = poly_roots_batch([p1.to_float(), p2.to_float()])
    return _pair_report(p1, p2, roots, tol_real, tol_gap)


def _pair_degrees_fit(p1: MuPolynomial, p2: MuPolynomial) -> bool:
    return p1.degree >= 1 and p2.degree in (p1.degree - 1, p1.degree)


def _pair_report(p1, p2, roots, tol_real: float = 1e-9, tol_gap: float = 1e-8) -> VerificationReport:
    """check_positive_pair's report for (p1, p2) from roots, the roots of
    p1.to_float() and p2.to_float() (not read when the degrees do not fit)."""
    n = p1.degree
    params = {"deg1": n, "deg2": p2.degree}

    def fail(reason, margin=-math.inf):
        params["reason"] = reason
        return VerificationReport(
            check="positive-pair",
            params=params,
            passed=False,
            margin=margin,
            tolerance=tol_gap,
            comparison=">",
        )

    if not _pair_degrees_fit(p1, p2):
        return fail("degree-mismatch")
    r1, r2 = roots
    reality = max(reality_ratio(r1), reality_ratio(r2))
    if reality > tol_real:
        return fail(f"non-real-roots ratio={reality:.3e}")
    r1 = np.sort(r1.real)
    r2 = np.sort(r2.real)
    if p2.degree == n:
        merged = np.empty(2 * n)
        merged[0::2] = r2
        merged[1::2] = r1
    else:
        merged = np.empty(2 * n - 1)
        merged[0::2] = r1
        merged[1::2] = r2
    margin = min_rel_gap(merged)
    if merged.size and merged[-1] >= 0.0:
        return fail("nonnegative-root", margin=margin)
    if float(p1.leading) * float(p2.leading) <= 0.0:
        return fail("leading-sign-mismatch", margin=margin)
    return VerificationReport(
        check="positive-pair",
        params=params,
        passed=bool(margin > tol_gap),
        margin=margin,
        tolerance=tol_gap,
        comparison=">",
    )


def hb_compose(p1, p2) -> MuPolynomial:
    """Interleave two polynomials into p(z) = p1(z^2) + z p2(z^2)."""
    if not isinstance(p1, MuPolynomial):
        p1 = MuPolynomial(p1)
    if not isinstance(p2, MuPolynomial):
        p2 = MuPolynomial(p2)
    zero = p1.coeffs[0] * 0
    out = [zero] * max(2 * len(p1.coeffs) - 1, 2 * len(p2.coeffs))
    for k, c in enumerate(p1.coeffs):
        out[2 * k] = out[2 * k] + c
    for k, c in enumerate(p2.coeffs):
        out[2 * k + 1] = out[2 * k + 1] + c
    return MuPolynomial(out)


def phi_poly(n: int, idx, variant: str = "base", weight: float = 0.0) -> MuPolynomial:
    """All-order endpoint derivative polynomial of a Jacobi basis function.

    base      coefficient k is the k-th derivative of P_n at 1, k = 0..n
    prev      base(n) + weight * base(n-1)
    prev-mu2  base(n) + weight * mu^2 * base(n-1)
    """
    jdx = as_jacobi(idx)

    def base(nn):
        return MuPolynomial(jacobi_derivs_at_one(nn, jdx))

    if variant == "base":
        return base(n)
    if n < 1:
        raise ValueError(f"variant {variant!r} needs n >= 1, got {n}")
    if variant == "prev":
        return base(n) + base(n - 1) * weight
    if variant == "prev-mu2":
        return base(n) + base(n - 1).shifted(2) * weight
    raise ValueError(f"unknown variant {variant!r}")


def _float_roots(families) -> list:
    """poly_roots of p.to_float() for every p of every family (a list of
    polynomials), in one poly_roots_batch call; one list of roots per family."""
    flat = poly_roots_batch([p.to_float() for family in families for p in family])
    out, start = [], 0
    for family in families:
        out.append(flat[start : start + len(family)])
        start += len(family)
    return out


def _root_stats(roots) -> tuple:
    """Per-polynomial statistics of root arrays (poly_roots_batch's output),
    computed on one concatenated array with segment offsets.

    Returns float lists (top, radius, reality, gap, last), one entry per
    array: the largest real part (np.max), the largest modulus,
    reality_ratio, min_rel_gap of the sorted real parts, and the last of
    those.  Each is bitwise what the per-array call gives; an empty array
    gets top = last = -inf, radius = reality = 0 and gap = inf.  An array
    with two or more zero real parts takes gap and last from its own np.sort:
    np.sort may order -0.0 and 0.0 either way, and their order decides the
    sign of a zero gap and of last.
    """
    sizes = np.array([r.size for r in roots], dtype=int)
    count = sizes.size
    top = np.full(count, -math.inf)
    radius = np.zeros(count)
    reality = np.zeros(count)
    gap = np.full(count, math.inf)
    last = np.full(count, -math.inf)
    full = sizes > 0
    if full.any():
        ends = np.cumsum(sizes)
        starts = (ends - sizes)[full]
        flat = np.concatenate(roots)
        seg = np.repeat(np.arange(count), sizes)
        re = flat.real
        mod = np.abs(flat)
        top[full] = np.maximum.reduceat(re, starts)
        radius[full] = np.maximum.reduceat(mod, starts)
        reality[full] = np.maximum.reduceat(np.abs(flat.imag) / np.maximum(mod, _TINY), starts)
        srt = re[np.lexsort((re, seg))]
        same = seg[1:] == seg[:-1]
        ratio = np.full(flat.size, math.inf)  # inf across a segment boundary
        scales = np.maximum(np.abs(srt[:-1]), np.abs(srt[1:]))[same]
        ratio[:-1][same] = np.diff(srt)[same] / np.maximum(scales, _TINY)
        gap[full] = np.minimum.reduceat(ratio, starts)
        last[full] = srt[ends[full] - 1]
        zeros = np.zeros(count, dtype=int)
        zeros[full] = np.add.reduceat((re == 0.0).astype(int), starts)
        for i in np.flatnonzero(zeros >= 2):
            real_sorted = np.sort(roots[i].real)
            gap[i] = min_rel_gap(real_sorted)
            last[i] = real_sorted[-1]
    return top.tolist(), radius.tolist(), reality.tolist(), gap.tolist(), last.tolist()


def _worst_positive_pair(check, params, reports, advisory=False) -> VerificationReport:
    """The weakest of several positive-pair reports: a failure over a pass,
    else the smallest margin, renamed to check and tagged with params."""
    worst = None
    for rep in reports:
        if worst is None or rep.margin < worst.margin or (worst.passed and not rep.passed):
            worst = rep
    worst.check = check
    worst.params.update(params)
    worst.advisory = advisory
    return worst


def _roots_report(check, params, roots, tol_real, tol_gap, advisory=False) -> VerificationReport:
    """Aggregate real/negative/distinct over the roots of a family of
    polynomials."""
    worst_real = 0.0
    worst_gap = math.inf
    worst_top = -math.inf
    ok = True
    _, _, reality, gaps, tops = _root_stats(roots)
    for r, ratio, gap, top in zip(roots, reality, gaps, tops):
        if r.size == 0:
            continue
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
        advisory=advisory,
    )


def realness_suite(
    gammas=DEFAULT_GAMMA_GRID,
    m_poly: int = 20,
    m_matrix=(50, 200),
    tol_real_poly: float = 1e-9,
    tol_gap_poly: float = 1e-8,
    tol_real_matrix: float = 1e-6,
    tol_gap_matrix: float = 1e-10,
) -> list:
    """Real, negative, distinct eigenvalues with interlacing parity classes.

    Polynomial route up to m_poly modes (roots of the characteristic
    sequences, including the two parity interlacing patterns), matrix route
    at the sizes in m_matrix via the integration operator.
    """
    seqs = [charpoly_sequence(m_poly, g, parity) for g in gammas for parity in (Parity.EVEN, Parity.ODD)]
    roots = _float_roots(seqs)
    reports = []
    for i, g in enumerate(gammas):
        pe, qo = seqs[2 * i : 2 * i + 2]
        rpe, rqo = roots[2 * i : 2 * i + 2]
        for parity, rs in (("even", rpe), ("odd", rqo)):
            reports.append(
                _roots_report(
                    "charpoly-roots-real-negative-distinct",
                    {"gamma": g, "parity": parity, "m_max": m_poly},
                    rs[1:],
                    tol_real_poly,
                    tol_gap_poly,
                )
            )
        for pattern, pairs in (
            ("odd-vs-even-equal-degree", [(qo[m], pe[m], (rqo[m], rpe[m])) for m in range(1, m_poly + 1)]),
            ("even-vs-lower-odd", [(pe[m], qo[m - 1], (rpe[m], rqo[m - 1])) for m in range(1, m_poly + 1)]),
        ):
            params = {"gamma": g, "pattern": pattern, "m_max": m_poly}
            pair_reports = [_pair_report(*pair, tol_real_poly, tol_gap_poly) for pair in pairs]
            reports.append(_worst_positive_pair("parity-interlacing", params, pair_reports))
        for m in m_matrix:
            for parity in (Parity.EVEN, Parity.ODD):
                spec = tau_spectrum(m, g, parity, tol_real=tol_real_matrix)
                gap = spec.min_gap_ratio()
                ok = bool(spec.is_real.all() and spec.is_negative.all() and gap > tol_gap_matrix)
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
                        tolerance=tol_gap_matrix,
                        comparison=">",
                    )
                )
    return reports


def sharpness_suite(gammas=(2.6, 3.0), m: int = 200, ratio: float = 1e-3) -> list:
    """Above the reality threshold the spectrum grows conjugate pairs.

    Passes when at least one eigenvalue pair has relative imaginary part
    beyond `ratio` for every family parameter in the list.
    """
    reports = []
    for g in gammas:
        best = 0.0
        pairs = 0
        for parity in (Parity.EVEN, Parity.ODD):
            spec = tau_spectrum(m, g, parity)
            lam = spec.eigenvalues
            mask = np.abs(lam.imag) > ratio * np.abs(lam)
            pairs += int(mask.sum()) // 2
            best = max(best, spec.max_imag_ratio())
        reports.append(
            VerificationReport(
                check="sharpness-complex-pairs",
                params={"gamma": g, "m": m, "pairs": pairs},
                passed=pairs >= 1,
                margin=best,
                tolerance=ratio,
                comparison=">",
            )
        )
    return reports


def _poly_from_roots(roots, lead: float) -> MuPolynomial:
    desc = np.poly(np.asarray(roots, dtype=float)) * lead
    return MuPolynomial(list(desc[::-1]))


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


def hb_random_suite(cases: int = 200, seed: int = 20260813) -> list:
    """Cross-validate the Hurwitz test against the positive-pair test.

    Half the instances are constructed positive pairs, half are decisively
    broken (sign flip, interlacing violation, positive root, or a complex
    conjugate root pair).  The two predicates must agree on every case.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for case in range(cases):
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
        if complex_pair:
            rc = r1.astype(complex)
            mid = 0.5 * (r1[0] + r1[1])
            spread = 0.6 * abs(r1[1] - r1[0])
            rc[0] = mid + 1j * spread
            rc[1] = mid - 1j * spread
            desc = np.real(np.poly(rc)) * lead1
            p1 = MuPolynomial(list(desc[::-1]))
        else:
            p1 = _poly_from_roots(r1, lead1)
        pairs.append((p1, _poly_from_roots(r2, lead2)))
    composed = [hb_compose(p1, p2) for p1, p2 in pairs]
    roots1, roots2, roots_hb = _float_roots([[p1 for p1, _ in pairs], [p2 for _, p2 in pairs], composed])
    disagreements = 0
    stable_count = 0
    worst_abs_margin = math.inf
    for (p1, p2), r1, r2, margin in zip(pairs, roots1, roots2, _hurwitz_margins(roots_hb)):
        stable = margin < -1e-9  # check_stable at its default tolerance
        if _pair_report(p1, p2, (r1, r2)).passed != stable:
            disagreements += 1
        stable_count += int(stable)
        worst_abs_margin = min(worst_abs_margin, abs(margin + 1e-9))
    return [
        VerificationReport(
            check="hurwitz-positive-pair-agreement",
            params={
                "cases": cases,
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


def lemma_suite(cases: int = 50, seed: int = 20260813) -> list:
    """Consequences of positive pairs that the stability proofs lean on.

    Linear combinations a p1 + b p2 of a positive pair keep real roots;
    the symmetrized product p1 t2 + p2 t1 of two positive pairs has real,
    negative, distinct roots.
    """
    rng = np.random.default_rng(seed)
    combs = []
    for _ in range(cases):
        n = int(rng.integers(2, 8))
        r1, r2, lead1, lead2 = _random_positive_pair(rng, n, bool(rng.integers(0, 2)))
        p1 = _poly_from_roots(r1, lead1)
        p2 = _poly_from_roots(r2, lead2)
        a = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]))
        combs.append(p1 * a + p2 * b)
    products = []
    for _ in range(cases):
        n = int(rng.integers(2, 8))
        r1, r2, lead1, lead2 = _random_positive_pair(rng, n, False)
        t1, t2, lead3, lead4 = _random_positive_pair(rng, n, False)
        p1 = _poly_from_roots(r1, lead1)
        p2 = _poly_from_roots(r2, lead2)
        q1 = _poly_from_roots(t1, lead3)
        q2 = _poly_from_roots(t2, lead4)
        products.append(p1 * q2 + p2 * q1)
    comb_roots, product_roots = _float_roots([combs, products])
    worst_comb = max([0.0, *_root_stats(comb_roots)[2]])
    rep1 = VerificationReport(
        check="positive-pair-combination-real-roots",
        params={"cases": cases, "seed": seed},
        passed=worst_comb <= 1e-7,
        margin=worst_comb,
        tolerance=1e-7,
        comparison="<=",
    )
    rep2 = _roots_report(
        "positive-pair-product-real-negative-distinct",
        {"cases": cases, "seed": seed},
        product_roots,
        tol_real=1e-7,
        tol_gap=1e-9,
    )
    return [rep1, rep2]


def phi_suite(n_max: int = 12, weights=(0.1, 1.0, 10.0), tol: float = 1e-9) -> list:
    """Stability scans of the all-order endpoint polynomials.

    base over alpha in (-1, 1], prev over alpha <= 0, prev-mu2 over
    alpha <= 1, each crossed with a beta grid and nonnegative weights.
    The defaults build 1180 polynomials from 2140 O(n) endpoint-derivative
    lists and check them in about 65 ms on one core of a 2-vCPU Xeon VM
    (one BLAS thread), a third of it in numpy.linalg.eigvals.
    """
    betas = (-0.9, 0.0, 1.0, 3.0)
    scans = (
        ("base", (-0.9, -0.5, 0.0, 0.5, 1.0), (0.0,), 2),
        ("prev", (-0.9, -0.5, 0.0), weights, 3),
        ("prev-mu2", (-0.9, -0.5, 0.0, 0.5, 1.0), weights, 3),
    )
    families = []  # per scan: ((a, b, w, n), polynomial) in scan order
    for variant, alphas, ws, n_min in scans:
        families.append(
            [
                ((a, b, w, n), phi_poly(n, JacobiIndex(a, b), variant, w))
                for a in alphas
                for b in betas
                for w in ws
                for n in range(n_min, n_max + 1)
            ]
        )
    roots = _float_roots([[p for _, p in family] for family in families])
    reports = []
    for (variant, *_), family, family_roots in zip(scans, families, roots):
        worst = -math.inf
        worst_at = None
        ok = True
        for (at, _), margin in zip(family, _hurwitz_margins(family_roots)):
            if margin > worst:
                worst = margin
                worst_at = at
            ok = ok and margin < -tol
        reports.append(
            VerificationReport(
                check=f"endpoint-poly-stable-{variant}",
                params={"n_max": n_max, "worst_at": str(worst_at)},
                passed=ok,
                margin=worst,
                tolerance=tol,
                comparison="< -",
            )
        )
    return reports


def jacobi_suite(n_max: int = 15, tol_real: float = 1e-9, tol_gap: float = 1e-8) -> list:
    """Root location for the Jacobi characteristic polynomials.

    Dirichlet: real, negative, distinct over exponent boxes (-1, 0]^2 and
    (0, 1]^2.  Mixed ends: same over (-1, 0]^2.  The defaults check 378
    polynomials in about 34 ms on one core of a 2-vCPU Xeon VM (one BLAS
    thread).
    """
    neg = (-0.9, -0.5, 0.0)
    pos = (0.25, 0.5, 1.0)
    boxes = (
        ("dirichlet-neg-box", neg, jacobi_char_poly, 2),
        ("dirichlet-pos-box", pos, jacobi_char_poly, 2),
        ("mixed-neg-box", neg, mixed_char_poly, 2),
    )
    families = [
        [builder(n, JacobiIndex(a, b)) for a in grid for b in grid for n in range(n_lo, n_max + 1)]
        for _, grid, builder, n_lo in boxes
    ]
    return [
        _roots_report(
            f"jacobi-roots-real-negative-distinct-{label}",
            {"n_max": n_max, "grid": f"{grid}"},
            roots,
            tol_real,
            tol_gap,
        )
        for (label, grid, _, _), roots in zip(boxes, _float_roots(families))
    ]


def interlace_conjecture_suite(gammas=DEFAULT_GAMMA_GRID, m_max: int = 12) -> list:
    """Observed (not proven) interlacing of successive same-parity
    truncations; reported as advisory only."""
    cases = [(g, parity) for g in gammas for parity in (Parity.EVEN, Parity.ODD)]
    seqs = [charpoly_sequence(m_max, g, parity) for g, parity in cases]
    reports = []
    for (g, parity), seq, roots in zip(cases, seqs, _float_roots(seqs)):
        pairs = [_pair_report(seq[m + 1], seq[m], (roots[m + 1], roots[m])) for m in range(1, m_max)]
        reports.append(
            _worst_positive_pair(
                "successive-truncation-interlacing",
                {"gamma": g, "parity": parity.value, "m_max": m_max},
                pairs,
                advisory=True,
            )
        )
    return reports


def spectrum_error_report(m: int, idx, parity, threshold: float = 1e-8) -> SweepResult:
    """Per-mode relative errors of one spectrum against the exact values."""
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
    at the error minimum (the roundoff-dominated regime)."""
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


def gamma_scan(m: int, gammas, tol_real: float = 1e-6, ratio_sharp: float = 1e-3) -> SweepResult:
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
