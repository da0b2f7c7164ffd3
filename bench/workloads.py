"""Seeded, stratified op lists for the three workloads, and the output checks.

An op is one `gegtau` command line. Ops come in rounds: the composition of a
round (size x gamma stratum x parity x boundary condition) depends only on
the round index, never on the seed, so every seed runs the same mix. The
seed only draws the gamma inside each stratum and shuffles the order.

Gamma strata: half of the gammas lie in [-0.45, 1.5] and half in (1.5, 2.4].
The dense eigensolve costs more above gamma = 3/2 (m = 1024, one BLAS
thread: 0.68-0.85 s up to 1.6, 2.2 s at 1.7, 3.95 s at 1.8, 1.65-2.5 s from
1.9 to 2.4), so a seed that shifted the mix would look like a speed change.
Each half is split in two (the upper one at 1.7, where the cost steps up),
and inside a stratum each cell's gamma walks by the golden ratio from a
seeded offset, so any run of rounds covers the stratum evenly whatever the
seed.

The checks read only the program's output and compare it with values the
benchmark computes itself (or, for exact polynomials, with the independent
`charpoly_direct` route). They run outside the timed interval.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

GAMMA_STRATA = ((-0.45, 0.5), (0.5, 1.5), (1.5, 1.7), (1.7, 2.4))
PARITIES = ("even", "odd")

# Sizes per workload; "tiny" keeps the same shape for the benchmark's own tests.
# eig sizes start at 500: below it, fewer than 60% of the modes resolve at
# some gammas (0.58 at m = 250, gamma = 2.4), which the eig check rejects.
SCALES = {
    "full": {
        "eig_modes": (500, 750, 1000),
        "sweep_m": (16, 32, 64, 128, 256, 512, 1024),
        "charpoly_modes": (24, 48, 48),
    },
    "tiny": {
        "eig_modes": (500,),
        "sweep_m": (16, 32),
        "charpoly_modes": (6, 10, 10),
    },
}
SWEEP_VARIANTS = ("integration", "diff-elim-last", "diff-elim-first")
VERIFY_SUITES = ("hb", "lemmas", "phi", "jacobi", "conjecture")
# Rational gammas p/7 for the exact route; numerators per stratum of GAMMA_STRATA.
CHARPOLY_DENOMINATOR = 7
CHARPOLY_NUMERATORS = ((-3, 3), (4, 10), (11, 11), (12, 16))

# One fixed op per workload, run once before timing: the first dense
# eigensolve of a process costs several times a steady one.
WARMUP = {
    "spectrum-large": ("eig", "--modes", "500", "--gamma=0.5", "--parity", "odd"),
    "verify-exact": ("verify", "--suite", "jacobi"),
    "sweep-conditioning": (
        "sweep-conditioning",
        "--m-grid",
        "64,128",
        "--variants",
        ",".join(SWEEP_VARIANTS),
    ),
}
WORKLOADS = tuple(WARMUP)

# op_tail_s percentile per workload: the highest that leaves at least ten
# samples beyond it in a 25 s run at the baseline. It is fixed so that a
# faster program, which fits more ops into a run, reports the same one.
TAIL_PERCENTILE = {"spectrum-large": 75.0, "verify-exact": 97.0, "sweep-conditioning": 88.0}

ACCURATE_REL = 1e-8  # "accurate mode" threshold of accurate_fraction
FIRST_MODES_REL = 1e-10  # the first modes of every eig op must be this close
FIRST_MODES = 10
MIN_RESOLVED = 0.6  # about 2/pi of a spectrum is resolvable
SWEEP_INTEGRATION_REL = 1e-13
EPS = 2.0**-53
# pi to 36 digits, for exact brackets of the polynomial route's first root
PI = Fraction("3.14159265358979323846264338327950288")


@dataclass(frozen=True)
class Op:
    """One command line plus the parameters its check needs."""

    kind: str  # eig | charpoly | verify | sweep
    argv: tuple
    stratum: str
    params: dict = field(hash=False, compare=False)

    @property
    def writes_file(self) -> bool:
        return self.kind != "verify"


@dataclass
class Check:
    """Outcome of one op's output check plus the accuracy it observed.

    modes/accurate count checked values and those accurate to ACCURATE_REL;
    first_err is the worst first-eigenvalue relative error (None when the op
    computes none); bits is the largest numerator or denominator bit length.
    """

    ok: bool
    reason: str = ""
    modes: int = 0
    accurate: int = 0
    first_err: float | None = None
    bits: int = 0


GOLDEN = (5**0.5 - 1) / 2


class Jitter:
    """Positions in [0, 1) per cell: a seeded offset moved by r * GOLDEN
    in round r (mod 1)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.offsets = {}

    def position(self, cell, r: int) -> float:
        offset = self.offsets.setdefault(cell, self.rng.random())
        return (offset + r * GOLDEN) % 1.0

    def gamma(self, cell, stratum: int, r: int) -> float:
        lo, hi = GAMMA_STRATA[stratum]
        return round(lo + (hi - lo) * self.position((cell, stratum), r), 6)


def spectrum_round(rng: random.Random, jitter: Jitter, r: int, scale: str = "full") -> list:
    """Every size x stratum once; parity alternates, one op in four Neumann
    (in a stratum below 3/2, where the raised gamma stays real)."""
    ops = []
    for i, m in enumerate(SCALES[scale]["eig_modes"]):
        for j in range(len(GAMMA_STRATA)):
            parity = PARITIES[(i + j + r) % 2]
            bc = "neumann" if j == (i + r) % 2 else "dirichlet"
            g = jitter.gamma(("eig", m, parity, bc), j, r)
            argv = ("eig", "--modes", str(m), f"--gamma={g!r}", "--parity", parity, "--bc", bc)
            ops.append(Op("eig", argv, f"m{m}/g{j}", {"m": m, "gamma": g, "parity": parity, "bc": bc}))
    rng.shuffle(ops)
    return ops


def sweep_round(rng: random.Random, jitter: Jitter, r: int, scale: str = "full") -> list:
    """One op per (variant, m) cell of the default grid.

    Each cell keeps its stratum in every round, so every round costs about
    the same; across cells every variant meets every stratum. The costliest
    cell, integration at m = 1024, sits in the top stratum."""
    ops = []
    for i, m in enumerate(SCALES[scale]["sweep_m"]):
        parity = PARITIES[(i + r) % 2]
        for v, variant in enumerate(SWEEP_VARIANTS):
            j = (i + v + 1) % len(GAMMA_STRATA)
            g = jitter.gamma((variant, m, parity), j, r)
            argv = (
                "sweep-conditioning",
                "--m-grid",
                str(m),
                "--variants",
                variant,
                f"--gamma={g!r}",
                "--parity",
                parity,
            )
            ops.append(Op("sweep", argv, f"{variant}/m{m}", {"m": m, "variant": variant, "gamma": g, "parity": parity}))
    rng.shuffle(ops)
    return ops


def verify_round(rng: random.Random, jitter: Jitter, r: int, scale: str = "full") -> list:
    """The polynomial suites once each plus exact charpoly sequences.

    N = 48 comes twice (so both parities meet every stratum) and makes up
    the middle of the op-time order, where the median falls; the 16-gamma
    conjecture grid puts that suite above it, clear of the median."""
    ops = []
    for suite in VERIFY_SUITES:
        argv = ["verify", "--suite", suite]
        if suite == "conjecture":
            grid = [jitter.gamma(("conjecture", k), j, r) for j in range(len(GAMMA_STRATA)) for k in range(4)]
            argv.append("--gamma-grid=" + ",".join(repr(g) for g in grid))
        else:
            argv += ["--seed", str(rng.randrange(1, 2**31))]
        ops.append(Op("verify", tuple(argv), suite, {"suite": suite}))
    for i, n in enumerate(SCALES[scale]["charpoly_modes"]):
        for j, (lo, hi) in enumerate(CHARPOLY_NUMERATORS):
            parity = PARITIES[(i + j + r) % 2]
            numerator = lo + int((hi - lo + 1) * jitter.position(("charpoly", i, parity, j), r))
            gamma = Fraction(numerator, CHARPOLY_DENOMINATOR)
            argv = ("charpoly", "--modes", str(n), f"--gamma={gamma}", "--parity", parity, "--exact", "--format", "json")
            ops.append(Op("charpoly", argv, f"n{n}/g{j}", {"n": n, "gamma": gamma, "parity": parity}))
    rng.shuffle(ops)
    return ops


ROUNDS = {"spectrum-large": spectrum_round, "verify-exact": verify_round, "sweep-conditioning": sweep_round}


def rounds(workload: str, seed: int, scale: str = "full"):
    """Endless sequence of rounds for one workload, reproducible from seed."""
    rng = random.Random(f"{workload}:{seed}")
    jitter = Jitter(rng)
    r = 0
    while True:
        yield ROUNDS[workload](rng, jitter, r, scale)
        r += 1


# ---------------------------------------------------------------- checks


def exact_eigenvalues(m: int, parity: str, bc: str) -> list:
    """Eigenvalues of u'' = lambda u on [-1, 1] that an m-mode spectrum
    holds, ascending |.|: m of them, plus the zero mode for even Neumann."""
    pi2 = math.pi * math.pi
    even_dirichlet = [-((2 * k - 1) ** 2) * pi2 / 4 for k in range(1, m + 1)]
    if bc == "dirichlet":
        return even_dirichlet if parity == "even" else [-(k * k) * pi2 for k in range(1, m + 1)]
    return [0.0] + [-(k * k) * pi2 for k in range(1, m + 1)] if parity == "even" else even_dirichlet


def check_eig(op: Op, text: str) -> Check:
    """m rows (m + 1 with the zero mode of even Neumann); real, negative but
    for that exact zero; the first modes within FIRST_MODES_REL; at least
    MIN_RESOLVED of all modes accurate to ACCURATE_REL."""
    p = op.params
    rows = list(csv.DictReader(io.StringIO(text)))
    exact = exact_eigenvalues(p["m"], p["parity"], p["bc"])
    if len(rows) != len(exact):
        return Check(False, f"{len(rows)} rows, expected {len(exact)}")
    errs = []
    for k, (row, ex) in enumerate(zip(rows, exact)):
        re_, im = float(row["lambda_re"]), float(row["lambda_im"])
        if abs(im) > 1e-9 * abs(re_):
            return Check(False, f"mode {k} not real: {re_}{im:+}j")
        if ex == 0.0:
            if re_ != 0.0:
                return Check(False, f"mode {k} should be exactly zero, got {re_}")
            errs.append(0.0)
            continue
        if not re_ < 0.0:
            return Check(False, f"mode {k} not negative: {re_}")
        errs.append(abs(re_ - ex) / abs(ex))
    nonzero = [e for e, ex in zip(errs, exact) if ex != 0.0]
    worst_first = max(nonzero[:FIRST_MODES])
    if worst_first > FIRST_MODES_REL:
        return Check(False, f"first modes off by {worst_first:.3e}")
    accurate = sum(e < ACCURATE_REL for e in errs)
    if accurate < MIN_RESOLVED * len(errs):
        return Check(False, f"resolved fraction {accurate / len(errs):.3f}")
    return Check(True, modes=len(errs), accurate=accurate, first_err=nonzero[0])


def coefficient_bits(coeffs) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)


def _first_root_error(coeffs, parity: str) -> float:
    """Smallest tried relative radius around the exact first mu = 1/lambda_1
    in which the exact polynomial changes sign (EPS when exact to it)."""
    mu = -4 / (PI * PI) if parity == "even" else -1 / (PI * PI)

    def value(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    for bits in (53, 50, 45, 40, 30, 20, 10):
        delta = Fraction(1, 2**bits)
        if value(mu * (1 - delta)) * value(mu * (1 + delta)) < 0:
            return float(delta)
    return 1.0


@functools.lru_cache(maxsize=None)
def reference_polynomial(degree: int, gamma: Fraction, parity: str):
    """charpoly_direct(degree) coefficients with their first-root error and
    bit size; ops repeat (degree, gamma), so each is computed once a run."""
    from gegtau.charpoly import charpoly_direct
    from gegtau.orthopoly import GegenbauerIndex

    coeffs = charpoly_direct(degree, GegenbauerIndex(gamma)).coeffs
    return coeffs, _first_root_error(coeffs, parity), coefficient_bits(coeffs)


def check_charpoly(op: Op, text: str) -> Check:
    """The top polynomial equals charpoly_direct(2N + parity offset)
    coefficient for coefficient, in exact arithmetic."""
    p = op.params
    polys = json.loads(text)["data"]["polynomials"]
    if len(polys) != p["n"] + 1:
        return Check(False, f"{len(polys)} polynomials, expected {p['n'] + 1}")
    top = tuple(Fraction(c) for c in polys[-1])
    degree = 2 * p["n"] + (p["parity"] == "odd")
    ref, first_err, bits = reference_polynomial(degree, p["gamma"], p["parity"])
    if top != ref:
        diff = sum(a != b for a, b in zip(top, ref)) + abs(len(top) - len(ref))
        return Check(False, f"{diff} coefficients differ from charpoly_direct({degree})")
    return Check(True, modes=len(top), accurate=len(top), first_err=first_err, bits=bits)


_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_verify(rc: int, text: str) -> Check:
    lines = text.strip().splitlines()
    match = _SUMMARY.match(lines[-1]) if lines else None
    if rc != 0 or match is None or match.group(1) != match.group(2):
        return Check(False, f"exit {rc}, summary {lines[-1] if lines else ''!r}")
    return Check(True)


def check_sweep(op: Op, text: str) -> Check:
    """One row for the cell; integration below 1e-13, diff errors finite."""
    p = op.params
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1 or rows[0]["variant"] != p["variant"] or int(rows[0]["m"]) != p["m"]:
        return Check(False, f"unexpected rows {rows!r}")
    err = float(rows[0]["first_eig_rel_err"])
    if not math.isfinite(err):
        return Check(False, f"non-finite error {err}")
    if p["variant"] != "integration":
        return Check(True)
    if err >= SWEEP_INTEGRATION_REL:
        return Check(False, f"integration error {err:.3e}")
    return Check(True, modes=1, accurate=int(err < ACCURATE_REL), first_err=err)


def check(op: Op, rc: int, text: str) -> Check:
    """Check one op's output; any exit status but 0 fails it."""
    if op.kind == "verify":
        return check_verify(rc, text)
    if rc != 0:
        return Check(False, f"exit {rc}")
    if op.kind == "eig":
        return check_eig(op, text)
    if op.kind == "charpoly":
        return check_charpoly(op, text)
    return check_sweep(op, text)
