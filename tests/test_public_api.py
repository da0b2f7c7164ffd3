"""The package's public names, and the names the benchmark's tracer wraps.

README's Library section documents the package API: `gegtau` exports
exactly those names.  bench/tracing.py wraps the functions a module lists in
`__all__` (its public names when it has none), so every function that a
per-layer metric of BENCHMARK.json names must stay listed there.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

import gegtau

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    # operator and pencils
    "Parity",
    "GegenbauerIndex",
    "JacobiIndex",
    "TauMatrix",
    "build_gi2",
    "GeneralizedPencil",
    "DIFF_VARIANTS",
    "build_diff_pencil",
    # spectra
    "Spectrum",
    "EigenPair",
    "SweepResult",
    "tau_spectrum",
    "pencil_spectrum",
    "exact_spectrum",
    "eigenfunction",
    # characteristic polynomials
    "MuPolynomial",
    "charpoly_sequence",
    "jacobi_char_poly",
    "mixed_char_poly",
    "poly_roots",
    "poly_roots_batch",
    "jacobi_derivs_at_one",
    # verification
    "VerificationReport",
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
    "conditioning_sweep",
    "spectrum_error_report",
    "gamma_scan",
}

# the fields of a per-layer metric that a function span reports (bench/worker.py)
_SPAN_FIELDS = ("calls", "self_frac", "loop_iters", "n3_sum", "bytes_in")


def _library_section() -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index("## Library\n")
    return text[start : text.index("\n## ", start)]


def test_package_exports_are_the_names_readme_documents():
    exported = {n for n, v in vars(gegtau).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert exported == PUBLIC
    section = _library_section()
    assert [n for n in sorted(PUBLIC) if not re.search(rf"\b{n}\b", section)] == []
    imported = set()
    for names in re.findall(r"^from gegtau(?:\.\w+)? import (.+)$", section, re.MULTILINE):
        imported.update(n.strip() for n in names.split(","))
    assert imported and imported <= PUBLIC, imported - PUBLIC


def test_benchmark_layers_stay_where_the_tracer_wraps_them():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    spans = {m["name"].rsplit(".", 1)[0] for m in metrics if m["name"].rsplit(".", 1)[1] in _SPAN_FIELDS}
    assert "orthopoly.gegenbauer_at_one" in spans and "charpoly.k_constant" in spans
    for span in sorted(spans):
        module, name, *method = span.split(".")
        mod = importlib.import_module(f"gegtau.{module}")
        public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
        assert name in public, span
        target = getattr(mod, name)
        if method:
            assert inspect.isfunction(vars(target).get(method[0])), span
        else:
            assert inspect.isfunction(target) and target.__module__ == mod.__name__, span
