"""Command line interface.

Subcommands build the operators, compute spectra, emit characteristic
polynomials, run the verification suites, and produce the sweep tables.
Output is CSV (17 significant digits, LF endings) or JSON with a meta/data
envelope; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import verify
from .charpoly import charpoly_sequence, jacobi_char_poly, mixed_char_poly
from .orthopoly import GegenbauerIndex, JacobiIndex, Parity
from .spectra import pencil_spectrum, tau_spectrum
from .tau_operator import (
    DIFF_VARIANTS,
    build_diff_pencil,
    build_gi2,
    matrix_to_coord,
    matrix_to_csv,
)


def _parse_number(text: str):
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError as exc:
            raise ValueError(text) from exc
    return float(text)


def _parse_grid(text: str, fallback):
    if text == "default":
        return list(fallback)
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _write(out_path, text: str) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _usage_error(msg: str) -> SystemExit:
    print(msg, file=sys.stderr)
    return SystemExit(2)


def _add_common(sp, parity=True, bc=False):
    sp.add_argument("--modes", type=int, required=True, help="number of parity-reduced modes m")
    sp.add_argument("--gamma", type=_parse_number, default=0.0, help="family parameter (float or p/q)")
    if parity:
        sp.add_argument("--parity", choices=["even", "odd"], default="even")
    if bc:
        sp.add_argument("--bc", choices=["dirichlet", "neumann"], default="dirichlet")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None, help="output file (default stdout)")


def _cmd_gi2(args) -> int:
    tau = build_gi2(args.modes, GegenbauerIndex(args.gamma), Parity(args.parity))
    M = tau.square() if args.square else tau.rectangular()
    if args.format == "coord":
        _write(args.out, matrix_to_coord(M))
    elif args.format == "json":
        payload = {
            "meta": {"m": args.modes, "gamma": float(args.gamma), "parity": args.parity, "square": bool(args.square)},
            "data": {"matrix": [[float(v) for v in row] for row in M]},
        }
        _write(args.out, _dump_json(payload))
    else:
        _write(args.out, matrix_to_csv(M))
    return 0


def _cmd_eig(args) -> int:
    idx = GegenbauerIndex(args.gamma)
    par = Parity(args.parity)
    if args.variant == "integration":
        spec = tau_spectrum(args.modes, idx, par, bc=args.bc, tol_real=args.tol_real)
    else:
        if args.bc != "dirichlet":
            raise _usage_error("differentiation variants support Dirichlet conditions only")
        spec = pencil_spectrum(build_diff_pencil(args.modes, idx, args.variant, par), tol_real=args.tol_real)
    if args.format == "json":
        _write(args.out, _dump_json(spec.to_json_dict()))
    else:
        _write(args.out, spec.csv())
    return 0


def _cmd_charpoly(args) -> int:
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise _usage_error("--alpha and --beta must be given together")
        jdx = JacobiIndex(args.alpha, args.beta)
        builder = mixed_char_poly if args.bc == "mixed" else jacobi_char_poly
        poly = builder(args.modes, jdx)
        if args.format == "json":
            payload = {
                "meta": {"n": args.modes, "alpha": float(args.alpha), "beta": float(args.beta), "bc": args.bc},
                "data": {"coefficients": poly.to_json_obj()},
            }
            _write(args.out, _dump_json(payload))
        else:
            lines = ["k,coefficient"]
            lines += [f"{k},{float(c):.17g}" for k, c in enumerate(poly.coeffs)]
            _write(args.out, "\n".join(lines) + "\n")
        return 0
    gamma = Fraction(args.gamma) if args.exact and not isinstance(args.gamma, Fraction) else args.gamma
    seq = charpoly_sequence(args.modes, GegenbauerIndex(gamma), Parity(args.parity))
    if args.format == "json":
        payload = {
            "meta": {
                "m_max": args.modes,
                "gamma": str(gamma) if isinstance(gamma, Fraction) else float(gamma),
                "parity": args.parity,
                "exact": bool(args.exact),
            },
            "data": {"polynomials": [p.to_json_obj() for p in seq]},
        }
        _write(args.out, _dump_json(payload))
    else:
        lines = ["m,k,coefficient"]
        for m, p in enumerate(seq):
            for k, c in enumerate(p.coeffs):
                lines.append(f"{m},{k},{float(c):.17g}")
        _write(args.out, "\n".join(lines) + "\n")
    return 0


_SUITES = ("theorems", "sharpness", "hb", "lemmas", "phi", "jacobi", "conjecture")


def _run_suites(names, gammas, seed):
    reports = []
    for name in names:
        if name == "theorems":
            reports += verify.realness_suite(gammas=gammas)
        elif name == "sharpness":
            reports += verify.sharpness_suite()
        elif name == "hb":
            reports += verify.hb_random_suite(seed=seed)
        elif name == "lemmas":
            reports += verify.lemma_suite(seed=seed)
        elif name == "phi":
            reports += verify.phi_suite()
        elif name == "jacobi":
            reports += verify.jacobi_suite()
        elif name == "conjecture":
            reports += verify.interlace_conjecture_suite(gammas=gammas)
        else:
            raise _usage_error(f"unknown suite {name!r}")
    return reports


def _cmd_verify(args) -> int:
    names = _SUITES if args.suite == "all" else (args.suite,)
    gammas = _parse_grid(args.gamma_grid, verify.DEFAULT_GAMMA_GRID)
    reports = _run_suites(names, gammas, args.seed)
    for rep in reports:
        print(rep.line())
    failures = [r for r in reports if not r.passed and not r.advisory]
    print(f"{len(reports) - len(failures)}/{len(reports)} checks passed")
    if args.out:
        payload = {
            "meta": {"suites": list(names), "seed": args.seed, "gamma_grid": gammas},
            "data": {"reports": [r.to_json_dict() for r in reports]},
        }
        _write(args.out, _dump_json(payload))
    return 1 if failures else 0


def _sweep_out(args, result) -> int:
    if args.format == "json":
        _write(args.out, _dump_json(result.to_json_dict()))
    else:
        _write(args.out, result.to_csv())
    return 0


def _cmd_sweep_error(args) -> int:
    result = verify.spectrum_error_report(
        args.modes, GegenbauerIndex(args.gamma), Parity(args.parity), threshold=args.threshold
    )
    return _sweep_out(args, result)


def _cmd_sweep_conditioning(args) -> int:
    m_grid = [int(tok) for tok in args.m_grid.split(",") if tok.strip()]
    variants = tuple(tok.strip() for tok in args.variants.split(",") if tok.strip())
    for v in variants:
        if v != "integration" and v not in DIFF_VARIANTS:
            raise _usage_error(f"unknown variant {v!r}")
    result = verify.conditioning_sweep(GegenbauerIndex(args.gamma), m_grid, variants, Parity(args.parity))
    return _sweep_out(args, result)


def _cmd_sweep_gamma(args) -> int:
    gammas = _parse_grid(args.gamma_grid, np.arange(0.0, 3.01, 0.25))
    result = verify.gamma_scan(args.modes, gammas, tol_real=args.tol_real)
    return _sweep_out(args, result)


def main(argv=None) -> int:
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
    sp.set_defaults(func=_cmd_eig)

    sp = sub.add_parser("charpoly", help="characteristic polynomial coefficients")
    _add_common(sp)
    sp.add_argument("--exact", action="store_true", help="rational arithmetic (gamma as p/q)")
    sp.add_argument("--alpha", type=float, default=None, help="Jacobi exponent (with --beta)")
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--bc", choices=["dirichlet", "mixed"], default="dirichlet")
    sp.set_defaults(func=_cmd_charpoly)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--suite", choices=("all",) + _SUITES, default="all")
    sp.add_argument("--gamma-grid", default="default", help="comma list or 'default'")
    sp.add_argument("--seed", type=int, default=20260813)
    sp.add_argument("--out", default=None, help="also write a JSON report here")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sweep-error", help="per-mode eigenvalue errors")
    _add_common(sp)
    sp.add_argument("--threshold", type=float, default=1e-8)
    sp.set_defaults(func=_cmd_sweep_error)

    sp = sub.add_parser("sweep-conditioning", help="first-eigenvalue error vs m per variant")
    sp.add_argument("--gamma", type=_parse_number, default=0.0)
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

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:  # an out-of-range parameter, reported by the library
        raise _usage_error(f"gegtau {args.command}: error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
