"""Golden CLI outputs in tests/golden/.

Each case runs `gegtau.cli.main` in-process and produces one or more files:
the text on stdout and, for `verify`, the `--out` JSON report.  Outputs that
involve no LAPACK call (gi2, charpoly) must match their golden file byte for
byte.  Outputs that go through an eigensolve or polynomial roots differ in
the last digits between BLAS builds, so for those the test pins what must
not move anywhere: the CSV header and row count, the JSON key structure and
list lengths, and each verify line's PASS/FAIL tag and check name.

To rewrite the golden files after a deliberate output change (or to dump the
outputs of another checkout for a byte-for-byte comparison):

    PYTHONPATH=src python tests/test_golden.py [DIR]    # DIR defaults to tests/golden
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from gegtau.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> argv; files are <name>.csv / .json / .txt
EXACT = {
    "gi2-even-csv": "gi2 --modes 6 --gamma 0.5 --parity even",
    "gi2-odd-json": "gi2 --modes 5 --gamma 1/3 --parity odd --format json",
    "gi2-odd-coord": "gi2 --modes 8 --gamma 1 --parity odd --coord",
    "gi2-even-square-csv": "gi2 --modes 6 --gamma 2.4 --parity even --square",
    "gi2-odd-square-json": "gi2 --modes 4 --gamma -0.3 --parity odd --square --format json",
    "charpoly-even-csv": "charpoly --modes 8 --gamma 0.7 --parity even",
    "charpoly-odd-csv": "charpoly --modes 8 --gamma 2.4 --parity odd",
    "charpoly-even-json": "charpoly --modes 6 --gamma 0.7 --parity even --format json",
    "charpoly-odd-json": "charpoly --modes 6 --gamma -0.3 --parity odd --format json",
    "charpoly-exact-even-csv": "charpoly --modes 8 --gamma 1/3 --parity even --exact",
    "charpoly-exact-odd-csv": "charpoly --modes 8 --gamma 7/4 --parity odd --exact",
    "charpoly-exact-even-json": "charpoly --modes 6 --gamma 1/3 --parity even --exact --format json",
    "charpoly-exact-odd-json": "charpoly --modes 6 --gamma 7/4 --parity odd --exact --format json",
    "charpoly-jacobi-csv": "charpoly --modes 9 --alpha -0.5 --beta 0.25",
    "charpoly-jacobi-json": "charpoly --modes 9 --alpha -0.5 --beta 0.25 --format json",
    "charpoly-mixed-csv": "charpoly --modes 9 --alpha -0.5 --beta 0.25 --bc mixed",
    "charpoly-mixed-json": "charpoly --modes 9 --alpha -0.5 --beta 0.25 --bc mixed --format json",
}

LAPACK = {
    "eig-even-csv": "eig --modes 12 --gamma 0.5 --parity even",
    "eig-odd-json": "eig --modes 12 --gamma 0.5 --parity odd --format json",
    "eig-gamma3-even-csv": "eig --modes 50 --gamma 3.0 --parity even",
    "eig-gamma3-odd-csv": "eig --modes 50 --gamma 3.0 --parity odd",
    "eig-gamma3-even-json": "eig --modes 50 --gamma 3.0 --parity even --format json",
    "eig-gamma3-odd-json": "eig --modes 50 --gamma 3.0 --parity odd --format json",
    "eig-neumann-even-csv": "eig --modes 10 --gamma 1 --parity even --bc neumann",
    "eig-neumann-odd-csv": "eig --modes 10 --gamma 1 --parity odd --bc neumann",
    "eig-neumann-even-json": "eig --modes 10 --gamma 1 --parity even --bc neumann --format json",
    "eig-neumann-odd-json": "eig --modes 10 --gamma 1 --parity odd --bc neumann --format json",
    "eig-diff-elim-last-csv": "eig --modes 16 --gamma 0 --variant diff-elim-last",
    "eig-diff-elim-last-json": "eig --modes 16 --gamma 0 --variant diff-elim-last --format json",
    "eig-diff-elim-first-csv": "eig --modes 16 --gamma 1 --parity odd --variant diff-elim-first",
    "eig-diff-elim-first-json": "eig --modes 16 --gamma 1 --parity odd --variant diff-elim-first --format json",
    "eig-galerkin-basis-csv": "eig --modes 16 --gamma 0.5 --variant galerkin-basis",
    "eig-galerkin-basis-json": "eig --modes 16 --gamma 0.5 --variant galerkin-basis --format json",
    "eig-ierley-legendre-csv": "eig --modes 16 --gamma 3/2 --parity odd --variant ierley-legendre",
    "eig-ierley-legendre-json": "eig --modes 16 --gamma 3/2 --parity odd --variant ierley-legendre --format json",
    "sweep-error-csv": "sweep-error --modes 40 --gamma 1.5 --parity odd",
    "sweep-error-json": "sweep-error --modes 40 --gamma 1.5 --parity odd --format json",
    "sweep-error-gamma3-csv": "sweep-error --modes 50 --gamma 3.0 --parity even",
    "sweep-error-gamma3-json": "sweep-error --modes 50 --gamma 3.0 --parity even --format json",
    "sweep-conditioning-csv": "sweep-conditioning --gamma 0.5 --m-grid 8,16,32,64,128",
    "sweep-conditioning-json": "sweep-conditioning --gamma 0.5 --m-grid 8,16,32,64,128 --format json",
    "sweep-gamma-csv": "sweep-gamma --modes 40",
    "sweep-gamma-json": "sweep-gamma --modes 40 --gamma-grid 0.5,2.5,3.0 --format json",
    **{
        f"verify-{suite}": f"verify --suite {suite}"
        for suite in ("theorems", "sharpness", "hb", "lemmas", "phi", "jacobi", "conjecture")
    },
}


def _extension(argv: list) -> str:
    if argv[0] == "verify":
        return ".txt"
    if "--coord" in argv:
        return ".coord"
    return ".json" if "json" in argv else ".csv"


def render(name: str, command: str) -> dict:
    """Files one case writes: {file name: text}."""
    argv = command.split()
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        if argv[0] == "verify":
            argv += ["--out", str(report)]
        with contextlib.redirect_stdout(stdout):
            main(argv)
        files = {name + _extension(argv): stdout.getvalue()}
        if report.exists():
            files[name + ".json"] = report.read_text()
    return files


def _skeleton(doc):
    """JSON structure without the numbers: keys, list lengths, nesting."""
    if isinstance(doc, dict):
        return {k: _skeleton(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_skeleton(v) for v in doc]
    return None


def _shape(file_name: str, text: str):
    if file_name.endswith(".json"):
        return _skeleton(json.loads(text))
    lines = text.split("\n")
    if file_name.endswith(".txt"):
        # "PASS check-name [params] margin=..." -> "PASS check-name"
        return [line.split(" [")[0] for line in lines]
    return lines[0], len(lines)


def test_golden_set_is_complete():
    expected = set()
    for cases in (EXACT, LAPACK):
        for name, command in cases.items():
            argv = command.split()
            expected.add(name + _extension(argv))
            if argv[0] == "verify":
                expected.add(name + ".json")
    assert {p.name for p in GOLDEN.iterdir()} == expected


@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_output_is_byte_identical(name):
    for file_name, text in render(name, EXACT[name]).items():
        assert text.encode() == (GOLDEN / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name", sorted(LAPACK))
def test_lapack_output_keeps_its_shape(name):
    for file_name, text in render(name, LAPACK[name]).items():
        golden = (GOLDEN / file_name).read_text()
        assert _shape(file_name, text) == _shape(file_name, golden), file_name


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    out.mkdir(parents=True, exist_ok=True)
    for cases in (EXACT, LAPACK):
        for name, command in cases.items():
            for file_name, text in render(name, command).items():
                (out / file_name).write_bytes(text.encode())
