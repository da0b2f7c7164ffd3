"""Command line interface.

Subcommands build the operators, compute spectra, emit characteristic
polynomials, run the verification suites, and produce the sweep tables.
Output is CSV (17 significant digits, LF endings) or JSON with a meta/data
envelope; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from . import verify
from .charpoly import charpoly_sequence, jacobi_char_poly, mixed_char_poly
from .orthopoly import GegenbauerIndex, JacobiIndex, Parity
from .spectra import SweepResult, pencil_spectrum, tau_spectrum
from .tau_operator import (
    DIFF_VARIANTS,
    build_diff_pencil,
    build_gi2,
    matrix_to_coord,
    matrix_to_csv,
)


def _number(text: str):
    """A float, or an exact Fraction for p/q."""
    return Fraction(text) if "/" in text else float(text)


def _parse(text: str, parse, option: str):
    """parse(text), or a ValueError that names the option and the token."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):  # Fraction('1/0') raises the latter
        kind = "an integer" if parse is int else "a number (float or p/q)"
        raise ValueError(f"{option}: {text!r} is not {kind}") from None


def _parse_list(text: str, parse, option: str) -> list:
    """The comma-separated values of one option; none at all is an error."""
    values = [_parse(tok.strip(), parse, option) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"{option} has no values")
    return values


def _parse_grid(text: str, fallback) -> list:
    if text == "default":
        return list(fallback)
    return _parse_list(text, _number, "--gamma-grid")


def _json_number(x):
    """A parameter for a JSON meta block: Fractions as 'p/q' strings."""
    return str(x) if isinstance(x, Fraction) else float(x)


def _emit(args, **render) -> int:
    """Write a command's output: the one route to stdout or --out.

    render maps each --format choice of the command to a zero-argument
    callable returning text (written as is) or a JSON document (written
    with sorted keys and a two-space indent).
    """
    doc = render[args.format]()
    text = doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    return 0


def _add_common(sp, bc=False):
    sp.add_argument("--modes", type=int, required=True, help="number of parity-reduced modes m")
    sp.add_argument("--gamma", default="0", help="family parameter (float or p/q)")
    sp.add_argument("--parity", choices=["even", "odd"], default="even")
    if bc:
        sp.add_argument("--bc", choices=["dirichlet", "neumann"], default="dirichlet")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None, help="output file (default stdout)")


def _cmd_gi2(args) -> int:
    tau = build_gi2(args.modes, GegenbauerIndex(args.gamma), Parity(args.parity))
    M = tau.square() if args.square else tau.rectangular()
    return _emit(
        args,
        csv=lambda: matrix_to_csv(M),
        coord=lambda: matrix_to_coord(M),
        json=lambda: {
            "meta": {"m": args.modes, "gamma": float(args.gamma), "parity": args.parity, "square": bool(args.square)},
            "data": {"matrix": M.tolist()},
        },
    )


def _cmd_eig(args) -> int:
    idx = GegenbauerIndex(args.gamma)
    par = Parity(args.parity)
    if args.variant == "integration":
        spec = tau_spectrum(args.modes, idx, par, bc=args.bc, tol_real=args.tol_real, count=args.count)
    else:
        if args.count is not None:
            raise ValueError("--count needs the integration variant")
        if args.bc != "dirichlet":
            raise ValueError("differentiation variants support Dirichlet conditions only")
        spec = pencil_spectrum(build_diff_pencil(args.modes, idx, args.variant, par), tol_real=args.tol_real)
    return _emit(args, csv=spec.csv, json=spec.to_json_dict)


def _cmd_charpoly(args) -> int:
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise ValueError("--alpha and --beta must be given together")
        builder = mixed_char_poly if args.bc == "mixed" else jacobi_char_poly
        poly = builder(args.modes, JacobiIndex(args.alpha, args.beta))
        rows = ((k, float(c)) for k, c in enumerate(poly.coeffs))
        return _emit(
            args,
            csv=lambda: SweepResult("charpoly", ["k", "coefficient"], list(rows)).to_csv(),
            json=lambda: {
                "meta": {"n": args.modes, "alpha": float(args.alpha), "beta": float(args.beta), "bc": args.bc},
                "data": {"coefficients": poly.to_json_obj()},
            },
        )
    gamma = Fraction(args.gamma) if args.exact and not isinstance(args.gamma, Fraction) else args.gamma
    seq = charpoly_sequence(args.modes, GegenbauerIndex(gamma), Parity(args.parity))
    inf = [m for m, p in enumerate(seq) if not isinstance(gamma, Fraction) and not np.isfinite(p.coeffs).all()]
    if inf:  # float coefficients past the float range are inf, which neither format can carry
        raise ValueError(f"p_{inf[0]} has coefficients past the float range; --exact computes them exactly")
    rows = ((m, k, c) for m, p in enumerate(seq) for k, c in enumerate(_float_coeffs(m, p)))
    return _emit(
        args,
        csv=lambda: SweepResult("charpoly", ["m", "k", "coefficient"], list(rows)).to_csv(),
        json=lambda: {
            "meta": {
                "m_max": args.modes,
                "gamma": _json_number(gamma),
                "parity": args.parity,
                "exact": bool(args.exact),
            },
            "data": {"polynomials": [p.to_json_obj() for p in seq]},
        },
    )


def _float_coeffs(m: int, p) -> tuple:
    """p's coefficients as floats, with a one-line error for exact ones past
    the float range."""
    try:
        return p.to_float().coeffs
    except OverflowError:
        raise ValueError(f"p_{m} has coefficients past the float range; --format json writes them exactly") from None


# suite name -> callable(gammas, seed); each looks its suite up in verify at
# call time, so a wrapper set on the module attribute (bench/tracing.py) sees it
_SUITES = {
    "theorems": lambda gammas, seed: verify.realness_suite(gammas=gammas),
    "sharpness": lambda gammas, seed: verify.sharpness_suite(),
    "hb": lambda gammas, seed: verify.hb_random_suite(seed=seed),
    "lemmas": lambda gammas, seed: verify.lemma_suite(seed=seed),
    "phi": lambda gammas, seed: verify.phi_suite(),
    "jacobi": lambda gammas, seed: verify.jacobi_suite(),
    "conjecture": lambda gammas, seed: verify.interlace_conjecture_suite(gammas=gammas),
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    gammas = _parse_grid(args.gamma_grid, verify.DEFAULT_GAMMA_GRID)
    reports = [rep for name in names for rep in _SUITES[name](gammas, args.seed)]
    for rep in reports:
        print(rep.line())
    failures = [r for r in reports if not r.passed and not r.advisory]
    print(f"{len(reports) - len(failures)}/{len(reports)} checks passed")
    if args.out:
        _emit(
            args,
            json=lambda: {
                "meta": {"suites": names, "seed": args.seed, "gamma_grid": [_json_number(g) for g in gammas]},
                "data": {"reports": [r.to_json_dict() for r in reports]},
            },
        )
    return 1 if failures else 0


def _cmd_sweep_error(args) -> int:
    result = verify.spectrum_error_report(
        args.modes, GegenbauerIndex(args.gamma), Parity(args.parity), threshold=args.threshold
    )
    return _emit(args, csv=result.to_csv, json=result.to_json_dict)


def _cmd_sweep_conditioning(args) -> int:
    m_grid = _parse_list(args.m_grid, int, "--m-grid")
    variants = tuple(_parse_list(args.variants, str, "--variants"))
    for v in variants:
        if v != "integration" and v not in DIFF_VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    result = verify.conditioning_sweep(GegenbauerIndex(args.gamma), m_grid, variants, Parity(args.parity))
    return _emit(args, csv=result.to_csv, json=result.to_json_dict)


def _cmd_sweep_gamma(args) -> int:
    gammas = _parse_grid(args.gamma_grid, np.arange(0.0, 3.01, 0.25))
    result = verify.gamma_scan(args.modes, gammas, tol_real=args.tol_real)
    return _emit(args, csv=result.to_csv, json=result.to_json_dict)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: the subcommands' callables
    read the library functions from this module at call time."""
    ap = argparse.ArgumentParser(prog="gegtau", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gi2", help="emit the banded double-integration matrix")
    _add_common(sp)
    sp.add_argument("--square", action="store_true", help="emit the m x m part instead of (m+1) x m")
    sp.add_argument("--coord", dest="format", action="store_const", const="coord", help="coordinate text format")
    sp.set_defaults(func=_cmd_gi2)

    sp = sub.add_parser("eig", help="spectrum of one discretization")
    _add_common(sp, bc=True)
    sp.add_argument("--variant", choices=("integration",) + DIFF_VARIANTS, default="integration")
    sp.add_argument("--tol-real", type=float, default=1e-9)
    sp.add_argument("--count", type=int, default=None, help="only the k lowest modes (integration variant)")
    sp.set_defaults(func=_cmd_eig)

    sp = sub.add_parser("charpoly", help="characteristic polynomial coefficients")
    _add_common(sp)
    sp.add_argument("--exact", action="store_true", help="rational arithmetic (gamma as p/q)")
    sp.add_argument("--alpha", type=float, default=None, help="Jacobi exponent (with --beta)")
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--bc", choices=["dirichlet", "mixed"], default="dirichlet")
    sp.set_defaults(func=_cmd_charpoly)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--suite", choices=("all", *_SUITES), default="all")
    sp.add_argument("--gamma-grid", default="default", help="comma list or 'default'")
    sp.add_argument("--seed", type=int, default=20260813)
    sp.add_argument("--out", default=None, help="also write a JSON report here")
    sp.set_defaults(func=_cmd_verify, format="json")

    sp = sub.add_parser("sweep-error", help="per-mode eigenvalue errors")
    _add_common(sp)
    sp.add_argument("--threshold", type=float, default=1e-8)
    sp.set_defaults(func=_cmd_sweep_error)

    sp = sub.add_parser("sweep-conditioning", help="first-eigenvalue error vs m per variant")
    sp.add_argument("--gamma", default="0")
    sp.add_argument("--parity", choices=["even", "odd"], default="even")
    sp.add_argument("--m-grid", default="16,32,64,128,256,512,1024")
    sp.add_argument("--variants", default="integration,diff-elim-last,diff-elim-first")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_sweep_conditioning)

    sp = sub.add_parser("sweep-gamma", help="complex-pair counts across the family parameter")
    sp.add_argument("--modes", type=int, required=True)
    sp.add_argument("--gamma-grid", default="default")
    sp.add_argument("--tol-real", type=float, default=1e-6)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_sweep_gamma)
    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    try:
        if "gamma" in vars(args):  # read here, so a bad token is a one-line error like any other
            args.gamma = _parse(args.gamma, _number, "--gamma")
        return args.func(args)
    except np.linalg.LinAlgError:
        raise
    except (ValueError, OSError) as exc:  # an out-of-range parameter or an unwritable --out
        ap.exit(2, f"gegtau {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
