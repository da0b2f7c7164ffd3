"""End-to-end tests for the command line interface.

All invocations run in-process through main(argv); stdout is captured and
compared as text, exit codes via the returned status or SystemExit.
"""

import json

import numpy as np
import pytest

from gegtau.cli import main


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
    ],
)
def test_invalid_parameter_is_one_line_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"gegtau {argv[0]}: error: {message}\n"


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


def test_charpoly_exact_json(capsys):
    code, out = _run(capsys, ["charpoly", "--modes", "2", "--gamma", "1/3", "--parity", "even", "--exact", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["exact"] is True
    assert doc["meta"]["gamma"] == "1/3"
    polys = doc["data"]["polynomials"]
    assert polys[1] == ["5/6", "8/3"]


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
