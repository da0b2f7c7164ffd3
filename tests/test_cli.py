"""End-to-end tests for the command line interface.

All invocations run in-process through main(argv); stdout is captured and
compared as text, exit codes via the returned status or SystemExit.
"""

import argparse
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gegtau import cli
from gegtau.charpoly import MuPolynomial, charpoly_sequence
from gegtau.cli import main
from gegtau.orthopoly import GegenbauerIndex, Parity
from gegtau.spectra import SweepResult


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_gi2_csv_matches_hand_matrix(capsys):
    code, out = _run(capsys, ["gi2", "--modes", "3", "--gamma", "0", "--parity", "even", "--format", "csv"])
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")]
    expect = [
        [-1 / 4, 7 / 96, -1 / 240],
        [1 / 2, -1 / 6, 1 / 48],
        [0, 1 / 24, -1 / 30],
        [0, 0, 1 / 80],
    ]
    np.testing.assert_allclose(rows, expect, rtol=1e-15, atol=0)
    assert "\r" not in out


def test_gi2_square_and_coord(capsys):
    code, out = _run(capsys, ["gi2", "--modes", "3", "--gamma", "0", "--parity", "even", "--square"])
    assert code == 0
    assert len(out.strip().split("\n")) == 3
    code, out = _run(capsys, ["gi2", "--modes", "3", "--gamma", "0", "--parity", "even", "--coord"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "4 3 9"
    assert len(lines) == 10


def test_gi2_json_envelope(capsys):
    code, out = _run(capsys, ["gi2", "--modes", "2", "--gamma", "0.5", "--parity", "odd", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc.keys()) == {"data", "meta"}
    assert doc["meta"]["parity"] == "odd"
    assert len(doc["data"]["matrix"]) == 3


def test_gi2_out_file(capsys, tmp_path):
    target = tmp_path / "m.csv"
    code, _ = _run(capsys, ["gi2", "--modes", "3", "--gamma", "0", "--parity", "even", "--out", str(target)])
    assert code == 0
    _, direct = _run(capsys, ["gi2", "--modes", "3", "--gamma", "0", "--parity", "even"])
    assert target.read_text() == direct


def test_eig_csv_deterministic(capsys):
    argv = ["eig", "--modes", "100", "--gamma", "0.5", "--parity", "odd"]
    code, first = _run(capsys, argv)
    assert code == 0
    lines = first.strip().split("\n")
    assert lines[0] == "k,lambda_re,lambda_im,lambda_exact,rel_err"
    assert len(lines) == 101
    code, second = _run(capsys, argv)
    assert second == first


@pytest.mark.parametrize("modes", ["40", "300"])
def test_eig_count_keeps_the_lowest_rows(capsys, modes):
    argv = ["eig", "--modes", modes, "--gamma", "1/2", "--parity", "odd", "--bc", "neumann"]
    _, full = _run(capsys, argv)
    code, part = _run(capsys, argv + ["--count", "6"])
    assert code == 0
    full, part = full.split("\n"), part.split("\n")
    assert len(part) == 8 and part[0] == full[0]
    if modes == "40":  # count 6 is above 40 / 8, so no partial route serves: the dense rows themselves
        assert part[1:7] == full[1:7]
    got = np.array([[float(v) for v in row.split(",")] for row in part[1:7]])
    want = np.array([[float(v) for v in row.split(",")] for row in full[1:7]])
    np.testing.assert_allclose(got[:, :4], want[:, :4], rtol=1e-13, atol=0)


def test_eig_json(capsys):
    code, out = _run(capsys, ["eig", "--modes", "10", "--gamma", "0", "--parity", "odd", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["m"] == 10
    assert len(doc["data"]["lambda_re"]) == 10


def test_eig_neumann_even_has_zero_mode(capsys):
    code, out = _run(capsys, ["eig", "--modes", "6", "--gamma", "0", "--parity", "even", "--bc", "neumann"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8
    first = lines[1].split(",")
    assert float(first[1]) == 0.0


def test_eig_variant_with_neumann_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eig", "--modes", "6", "--gamma", "0", "--variant", "diff-elim-last", "--bc", "neumann"])
    assert exc.value.code == 2


def test_eig_bad_choice_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eig", "--modes", "6", "--parity", "diagonal"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eig", "--modes", "1"], "need at least 2 modes, got 1"),
        (["eig", "--modes", "6", "--gamma", "inf"], "gamma must be finite, got inf"),
        (["eig", "--modes", "6", "--gamma=-0.7"], "gamma must exceed -1/2, got -0.7"),
        (["sweep-conditioning", "--m-grid", "1,2"], "need at least 2 modes, got 1"),
        (
            ["eig", "--modes", "6", "--variant", "diff-elim-last", "--bc", "neumann"],
            "differentiation variants support Dirichlet conditions only",
        ),
        (["charpoly", "--modes", "3", "--alpha", "0"], "--alpha and --beta must be given together"),
        (["sweep-conditioning", "--variants", "bogus"], "unknown variant 'bogus'"),
        (["verify", "--gamma-grid="], "--gamma-grid has no values"),
        (["verify", "--suite", "conjecture", "--gamma-grid", " , "], "--gamma-grid has no values"),
        (["sweep-gamma", "--modes", "10", "--gamma-grid="], "--gamma-grid has no values"),
        (["sweep-conditioning", "--m-grid="], "--m-grid has no values"),
        (["sweep-conditioning", "--variants="], "--variants has no values"),
        (["eig", "--modes", "6", "--count", "0"], "count must be between 1 and 6, got 0"),
        (["eig", "--modes", "6", "--count", "7"], "count must be between 1 and 6, got 7"),
        (["eig", "--modes", "6", "--bc", "neumann", "--count", "8"], "count must be between 1 and 7, got 8"),
        (["eig", "--modes", "6", "--bc", "neumann", "--parity", "odd", "--count", "7"], "count must be between 1 and 6, got 7"),
        (["eig", "--modes", "6", "--variant", "diff-elim-last", "--count", "2"], "--count needs the integration variant"),
        (["eig", "--modes", "6", "--out", "/nonexistent/x.csv"], "[Errno 2] No such file or directory: '/nonexistent/x.csv'"),
        (["charpoly", "--modes", "3", "--out", "/nonexistent/x.csv"], "[Errno 2] No such file or directory: '/nonexistent/x.csv'"),
        (["eig", "--modes", "0", "--count", "1"], "need at least 2 modes, got 0"),
        (["sweep-conditioning", "--m-grid", "0", "--variants", "integration"], "need at least 2 modes, got 0"),
        (["sweep-gamma", "--modes", "20", "--gamma-grid", "0.5", "--tol-real", "-1"], "tol_real must be a finite number >= 0, got -1.0"),
        (["sweep-gamma", "--modes", "20", "--gamma-grid", "0.5", "--tol-real", "nan"], "tol_real must be a finite number >= 0, got nan"),
        (["eig", "--modes", "6", "--tol-real", "-1"], "tol_real must be a finite number >= 0, got -1.0"),
        (["eig", "--modes", "6", "--variant", "diff-elim-last", "--tol-real", "inf"], "tol_real must be a finite number >= 0, got inf"),
        (["sweep-error", "--modes", "20", "--threshold", "nan", "--format", "json"], "threshold must be a finite number >= 0, got nan"),
        (["eig", "--modes", "6", "--gamma", "abc"], "--gamma: 'abc' is not a number (float or p/q)"),
        (["eig", "--modes", "6", "--gamma", "1/0"], "--gamma: '1/0' is not a number (float or p/q)"),
        (["verify", "--gamma-grid", "1/0"], "--gamma-grid: '1/0' is not a number (float or p/q)"),
        (["sweep-gamma", "--modes", "10", "--gamma-grid", "1/0,2"], "--gamma-grid: '1/0' is not a number (float or p/q)"),
        (["verify", "--suite", "conjecture", "--gamma-grid", "0.5,x/2"], "--gamma-grid: 'x/2' is not a number (float or p/q)"),
        (["sweep-conditioning", "--m-grid", "x"], "--m-grid: 'x' is not an integer"),
        (["sweep-conditioning", "--m-grid", "16,3.5", "--variants", "integration"], "--m-grid: '3.5' is not an integer"),
        (["sweep-conditioning", "--gamma", "1/x"], "--gamma: '1/x' is not a number (float or p/q)"),
    ],
)
def test_invalid_parameter_is_one_line_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gegtau {argv[0]}: error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["gi2", "--modes", "1000", "--gamma", "150"],
            "the boundary constants K_n of m = 1000 modes at gamma = 150.0 exceed the float range",
        ),
        (
            ["gi2", "--modes", "1000", "--gamma", "301/2", "--coord"],
            "the boundary constants K_n of m = 1000 modes at gamma = 150.5 exceed the float range",
        ),
        (
            ["gi2", "--modes", "600", "--gamma", "150", "--square"],
            "the boundary constants K_n of m = 600 modes at gamma = 150.0 exceed the float range",
        ),
        (
            ["charpoly", "--modes", "4", "--gamma", "1e50", "--exact"],
            "p_4 has coefficients past the float range; --format json writes them exactly",
        ),
        (
            ["eig", "--modes", "300", "--variant", "diff-elim-last", "--gamma", "400"],
            "the norms h_n of m = 300 modes at gamma = 400.0 exceed the float range",
        ),
        (
            ["eig", "--modes", "200", "--variant", "diff-elim-first", "--gamma", "1000"],
            "the norms h_n of m = 200 modes at gamma = 1000.0 exceed the float range",
        ),
        (
            ["sweep-conditioning", "--m-grid", "16,300", "--variants", "galerkin-basis", "--gamma", "400"],
            "the norms h_n of m = 300 modes at gamma = 400.0 exceed the float range",
        ),
        (
            ["charpoly", "--modes", "80", "--gamma", "0.7"],
            "p_76 has coefficients past the float range; --exact computes them exactly",
        ),
        (
            ["charpoly", "--modes", "80", "--gamma", "0.7", "--format", "json"],
            "p_76 has coefficients past the float range; --exact computes them exactly",
        ),
        (
            ["charpoly", "--modes", "75", "--gamma", "2.4", "--parity", "odd", "--format", "json"],
            "p_75 has coefficients past the float range; --exact computes them exactly",
        ),
        (
            ["verify", "--suite", "conjecture", "--gamma-grid=1e14"],
            "the odd characteristic polynomial p_11 at gamma = 100000000000000.0 is past the float range",
        ),
        (
            ["verify", "--suite", "theorems", "--gamma-grid=1e13"],
            "the odd characteristic polynomial p_12 at gamma = 10000000000000.0 is past the float range",
        ),
        (
            ["verify", "--suite", "conjecture", "--gamma-grid=10000000000000000000000000000000/1"],
            "the odd characteristic polynomial p_5 at gamma = 10000000000000000000000000000000 is past the float range",
        ),
        (
            ["charpoly", "--modes", "20", "--alpha", "1e300", "--beta", "0", "--format", "json"],
            "the coefficients at alpha = 1e+300, beta = 0.0 are past the float range",
        ),
        (
            ["charpoly", "--modes", "20", "--alpha", "0", "--beta", "1e300", "--bc", "mixed"],
            "the coefficients at alpha = 0.0, beta = 1e+300 are past the float range",
        ),
        (
            ["eig", "--modes", "8", "--variant", "galerkin-basis", "--gamma", "1e16"],
            "the norms h_n of m = 8 modes at gamma = 1e+16 exceed the float range",
        ),
        (
            ["sweep-conditioning", "--m-grid", "16", "--variants", "diff-elim-first", "--gamma", "1e20"],
            "the norms h_n of m = 16 modes at gamma = 1e+20 exceed the float range",
        ),
        (
            ["charpoly", "--modes", "3", "--gamma", "1e200"],
            "p_1 has coefficients past the float range; --exact computes them exactly",
        ),
        (
            ["verify", "--suite", "theorems", "--gamma-grid=0,1e200"],
            "the even characteristic polynomial p_1 at gamma = 1e+200 is past the float range",
        ),
        (
            ["eig", "--modes", "128", "--variant", "diff-elim-last", "--gamma", "749.9"],
            "the endpoint values G_n(1) of m = 128 modes at gamma = 749.9 exceed the float range",
        ),
        (
            ["eig", "--modes", "128", "--variant", "galerkin-basis", "--gamma", "749.9"],
            "B^-1 A of m = 128 modes at gamma = 749.9 has entries past the float range",
        ),
        (
            ["eig", "--modes", "32", "--variant", "diff-elim-first", "--gamma", "1333521.4"],
            "the endpoint values G_n(1) of m = 32 modes at gamma = 1333521.4 exceed the float range",
        ),
        (
            ["eig", "--modes", "1000", "--count", "3", "--gamma", "9007199254740992"],
            "at gamma = 9007199254740992.0 the bands of m = 1000 modes lose their degree dependence"
            " (gamma + 1 rounds to gamma)",
        ),
        (
            ["gi2", "--modes", "4", "--gamma", "18014398509481984/2", "--parity", "odd"],
            "at gamma = 9007199254740992 the bands of m = 4 modes lose their degree dependence"
            " (gamma + 1 rounds to gamma)",
        ),
    ],
)
def test_values_past_the_float_range_are_one_line_usage_errors(capsys, argv, message):
    # K_n grows like (2 gamma)^n / n!; no inf reaches the eigensolver or the output
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gegtau {argv[0]}: error: {message}\n"


@pytest.mark.parametrize("gamma", ["150", "301/2"])
def test_boundary_constants_past_the_float_range_are_served_row_scaled(capsys, gamma):
    # the unscaled K_n pass the float range here; the three modes come from the row-scaled bands
    assert main(["eig", "--modes", "1000", "--count", "3", "--gamma", gamma, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert max(data["rel_err"]) <= 5e-14  # 3.2e-14 at 150, 1.7e-14 at 301/2
    assert data["lambda_im"] == [0.0, 0.0, 0.0]


def test_unwritable_verify_out_is_one_line_usage_error_after_the_report(capsys):
    # the report lines come first on stdout; the --out JSON write then fails
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "hb", "--out", "/nonexistent/x.json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("PASS hurwitz-positive-pair-agreement ")
    assert captured.out.endswith("\n1/1 checks passed\n")
    assert captured.err == "gegtau verify: error: [Errno 2] No such file or directory: '/nonexistent/x.json'\n"


def test_exact_zero_eigenvalue_is_usage_error_without_warning(capsys):
    # one ulp above -1/2 the m = 2 even integration matrix is singular
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["eig", "--modes", "2", "--gamma=-0.4999999999999999"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "the integration matrix at m = 2, gamma = -0.4999999999999999 has an exact zero eigenvalue"
    assert captured.err == f"gegtau eig: error: {message}\n"


def test_two_calls_build_one_parser(capsys, monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    assert main(["charpoly", "--modes", "2"]) == 0
    built = len(progs)
    assert main(["eig", "--modes", "4"]) == 0
    assert progs.count("gegtau") == 1 and len(progs) == built
    with pytest.raises(SystemExit) as exc:  # usage errors still come from the same parser
        main(["eig", "--modes", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "gegtau eig: error: need at least 2 modes, got 1\n"
    assert len(progs) == built


def test_gamma_with_zero_denominator_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["charpoly", "--modes", "3", "--gamma", "1/0"])
    assert exc.value.code == 2


def test_charpoly_csv(capsys):
    code, out = _run(capsys, ["charpoly", "--modes", "2", "--gamma", "0", "--parity", "even"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,k,coefficient"
    table = {(int(m), int(k)): float(c) for m, k, c in (ln.split(",") for ln in lines[1:])}
    assert table[(1, 0)] == pytest.approx(0.5)
    assert table[(1, 1)] == pytest.approx(2.0)
    assert table[(2, 0)] == pytest.approx(0.25)
    assert table[(2, 2)] == pytest.approx(48.0)


@pytest.mark.parametrize("gamma", ["-0.49", "0.7", "2.4"])
def test_float_charpoly_below_the_overflow_is_finite(capsys, gamma):
    # p_74 is the last finite p_m at these gammas in both parities
    for parity in ("even", "odd"):
        code, out = _run(capsys, ["charpoly", "--modes", "74", "--gamma", gamma, "--parity", parity])
        assert code == 0
        assert np.isfinite([float(line.split(",")[2]) for line in out.splitlines()[1:]]).all()
        code, out = _run(capsys, ["charpoly", "--modes", "74", "--gamma", gamma, "--parity", parity, "--format", "json"])
        polys = json.loads(out, parse_constant=lambda token: pytest.fail(f"{token} in JSON output"))
        assert code == 0 and len(polys["data"]["polynomials"]) == 75


def test_charpoly_exact_json(capsys):
    code, out = _run(capsys, ["charpoly", "--modes", "2", "--gamma", "1/3", "--parity", "even", "--exact", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["exact"] is True
    assert doc["meta"]["gamma"] == "1/3"
    polys = doc["data"]["polynomials"]
    assert polys[1] == ["5/6", "8/3"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("gamma", ["-3/7", "0", "1/2", "11/7", "3/2", "16/7", "0.7"])
def test_exact_charpoly_bytes_are_the_fraction_rendering(capsys, gamma, parity, fmt):
    # the command writes from integer pairs what charpoly_sequence's Fractions
    # give through the same emitters; a float gamma is its exact binary fraction
    code, out = _run(capsys, ["charpoly", "--modes", "48", f"--gamma={gamma}", "--parity", parity, "--exact", "--format", fmt])
    assert code == 0
    exact = Fraction(gamma) if "/" in gamma else Fraction(float(gamma))
    seq = charpoly_sequence(48, GegenbauerIndex(exact), Parity(parity))
    if fmt == "csv":
        rows = [(m, k, float(c)) for m, p in enumerate(seq) for k, c in enumerate(p.coeffs)]
        expect = SweepResult("charpoly", ["m", "k", "coefficient"], rows).to_csv()
    else:
        meta = {"m_max": 48, "gamma": str(exact), "parity": parity, "exact": True}
        doc = {"meta": meta, "data": {"polynomials": [MuPolynomial(p.coeffs).to_json_obj() for p in seq]}}
        expect = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert out == expect


def test_charpoly_jacobi_route(capsys):
    code, out = _run(capsys, ["charpoly", "--modes", "2", "--alpha", "0", "--beta", "0"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,coefficient"
    vals = [float(ln.split(",")[1]) for ln in lines[1:]]
    np.testing.assert_allclose(vals, [2.0, 6.0])


def test_charpoly_mixed_bc(capsys):
    code, out = _run(capsys, ["charpoly", "--modes", "2", "--alpha", "0", "--beta", "0", "--bc", "mixed"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    vals = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert -vals[0] / vals[1] < 0


def test_charpoly_alpha_without_beta_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["charpoly", "--modes", "2", "--alpha", "0"])
    assert exc.value.code == 2


def test_verify_hb_suite(capsys):
    code, out = _run(capsys, ["verify", "--suite", "hb"])
    assert code == 0
    assert "PASS hurwitz-positive-pair-agreement" in out
    assert "1/1 checks passed" in out


def test_verify_conjecture_suite_advisory_failures_exit_zero(capsys):
    code, out = _run(capsys, ["verify", "--suite", "conjecture", "--gamma-grid", "0.0"])
    assert code == 0
    assert "(advisory)" in out


def test_verify_out_of_range_gamma_fails(capsys):
    code, out = _run(capsys, ["verify", "--suite", "theorems", "--gamma-grid", "3.0"])
    assert code == 1
    assert "FAIL" in out


def test_verify_out_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, _ = _run(capsys, ["verify", "--suite", "lemmas", "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["meta"]["suites"] == ["lemmas"]
    assert all(rep["passed"] for rep in doc["data"]["reports"])


def test_sweep_error_json(capsys):
    code, out = _run(capsys, ["sweep-error", "--modes", "20", "--gamma", "0", "--parity", "odd", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert "fraction_below_threshold" in doc["meta"]
    assert len(doc["data"]["rows"]) == 20


def test_sweep_conditioning_small(capsys):
    code, out = _run(capsys, ["sweep-conditioning", "--m-grid", "8,16", "--variants", "integration"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "variant,m,first_eig_rel_err"
    assert len(lines) == 3
    for line in lines[1:]:
        assert float(line.split(",")[2]) < 1e-12


def test_sweep_conditioning_unknown_variant(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-conditioning", "--m-grid", "8", "--variants", "bogus"])
    assert exc.value.code == 2


def test_sweep_gamma(capsys):
    code, out = _run(capsys, ["sweep-gamma", "--modes", "30", "--gamma-grid", "0.5,3.0"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("gamma,parity,complex_pairs")
    rows = [ln.split(",") for ln in lines[1:]]
    clean = [r for r in rows if float(r[0]) == 0.5]
    assert all(int(r[2]) == 0 for r in clean)


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_verify_gamma_grid_accepts_fractions(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = _run(capsys, ["verify", "--suite", "conjecture", "--gamma-grid=1/2,3/2", "--out", str(target)])
    assert code == 0
    assert "gamma=1/2," in out
    doc = json.loads(target.read_text())
    assert doc["meta"]["gamma_grid"] == ["1/2", "3/2"]
    assert len(doc["data"]["reports"]) == 4


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_rel_err_is_one_number_in_every_output(capsys, parity):
    # gamma 3 is above the reality threshold: complex pairs, where a second
    # modulus route would differ in the last bits
    common = ["--modes", "50", "--gamma", "3.0", "--parity", parity]
    _, eig_csv = _run(capsys, ["eig", *common])
    _, eig_json = _run(capsys, ["eig", *common, "--format", "json"])
    _, err_csv = _run(capsys, ["sweep-error", *common])
    _, err_json = _run(capsys, ["sweep-error", *common, "--format", "json"])
    rows = [line.split(",") for line in eig_csv.strip().split("\n")[1:]]
    assert any(float(r[2]) != 0.0 for r in rows)
    rel_err = [float(r[4]) for r in rows]
    assert json.loads(eig_json)["data"]["rel_err"] == rel_err
    assert [float(line.split(",")[4]) for line in err_csv.strip().split("\n")[1:]] == rel_err
    assert [row[4] for row in json.loads(err_json)["data"]["rows"]] == rel_err
