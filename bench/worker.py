"""Run one workload in this process and print its numbers as one JSON line.

Started by run.py in a fresh interpreter, so the import cost is real and the
peak resident set belongs to this workload alone. Modes:

  setup  import numpy/scipy/gegtau and run the workload's warm-up op
  run    setup, then a closed loop with one caller: ops are driven through
         gegtau.cli.main in-process, each timed alone and checked after its
         timer stops, until --seconds of op time have passed (whole rounds)
  trace  as run, but each op runs twice, once plain and once with spans
         (alternating which goes first), for the per-layer table
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads
from workloads import Check

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# Per-layer metrics of the traced run: function span -> reported fields.
# self_frac is the function's self time over the traced op time.
LAYER_FIELDS = (
    ("orthopoly.gegenbauer_at_one", ("calls", "self_frac", "loop_iters")),
    ("charpoly.k_constant", ("calls", "self_frac")),
    ("tau_operator.build_gi2", ("self_frac",)),
    ("tau_operator.TauMatrix.square", ("self_frac",)),
    ("tau_operator.build_diff_pencil", ("self_frac",)),
    ("spectra.dense_eigs", ("calls", "self_frac", "n3_sum", "bytes_in")),
    ("spectra.tau_spectrum", ("self_frac",)),
    ("spectra.pencil_spectrum", ("self_frac",)),
    ("spectra.Spectrum.csv", ("self_frac",)),
    ("verify.SweepResult.to_csv", ("self_frac",)),
    ("charpoly.charpoly_sequence", ("self_frac",)),
    ("charpoly.poly_roots", ("calls", "self_frac")),
    ("verify.check_stable", ("calls", "self_frac")),
    ("verify.check_positive_pair", ("calls", "self_frac")),
    ("verify.hb_random_suite", ("self_frac",)),
    ("verify.lemma_suite", ("self_frac",)),
    ("verify.phi_suite", ("self_frac",)),
    ("verify.jacobi_suite", ("self_frac",)),
    ("verify.interlace_conjecture_suite", ("self_frac",)),
    ("verify.conditioning_sweep", ("self_frac",)),
    ("cli.main", ("self_frac",)),
)
FIELD_UNITS = {"calls": "count", "self_frac": "ratio", "loop_iters": "count", "n3_sum": "count", "bytes_in": "B"}
EXTRA_LAYER_UNITS = {
    "spectra.resolved_fraction": "ratio",
    "cli.bytes_written": "B",
    "charpoly.coeff_bits_max": "bit",
    "other.self_s": "s",
    "trace.op_s": "s",
    "trace.overhead_frac": "ratio",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "accurate_fraction": "ratio",
    "first_eig_digits": "digits",
}


def layer_units() -> dict:
    units = {f"{name}.{f}": FIELD_UNITS[f] for name, fields in LAYER_FIELDS for f in fields}
    units.update(EXTRA_LAYER_UNITS)
    return units


@dataclass
class Record:
    """One executed op: its timed seconds, bytes it wrote, and its check."""

    op: workloads.Op
    seconds: float
    bytes_out: int
    check: Check


def run_op(cli, op, out_path):
    """Time one CLI call; return (seconds, exit status or error, output, bytes).

    `cli.main` is looked up per call, so a traced run times it as a span."""
    argv = list(op.argv) + (["--out", out_path] if op.writes_file else [])
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    buf = io.StringIO()
    gc.collect()  # garbage left by earlier ops and checks is not this op's cost
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed op, not a failed benchmark
        status = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = buf.getvalue()
    nbytes = len(text.encode())
    if op.writes_file and status == 0:
        with open(out_path) as fh:
            file_text = fh.read()
        nbytes += len(file_text.encode())
        text = file_text
    return seconds, status, text, nbytes


def run_pair(cli, op, out_path, tracer, op_id):
    """Run an op plain and traced, plain first on even op ids; return the
    traced run's results followed by the plain run's seconds."""
    if op_id % 2 == 0:
        plain = run_op(cli, op, out_path)[0]
    tracer.op_id = op_id
    tracer.install()
    try:
        traced = run_op(cli, op, out_path)
    finally:
        tracer.uninstall()
    if op_id % 2 == 1:
        plain = run_op(cli, op, out_path)[0]
    return (*traced, plain)


def checked(op, status, text) -> Check:
    if not isinstance(status, int):
        return Check(False, status)
    try:
        return workloads.check(op, status, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # malformed output
        return Check(False, f"unreadable output: {type(exc).__name__}: {exc}")


def setup(workload: str):
    """Import the stack and run the warm-up op; return (gegtau.cli, seconds)."""
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import gegtau.cli

    origin = Path(gegtau.__file__).resolve()
    if SRC_DIR.resolve() not in origin.parents:
        raise SystemExit(f"gegtau imported from {origin}, not from {SRC_DIR}")
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        op = workloads.Op("warmup", workloads.WARMUP[workload], "warmup", {})
        status = run_op(gegtau.cli, op, os.path.join(tmp, "out"))[1]
    if status != 0:
        raise SystemExit(f"warm-up op {' '.join(op.argv)} failed: {status}")
    return gegtau.cli, time.perf_counter() - start


def measure(cli, workload, seed, seconds, scale="full", tracer=None):
    """Closed loop over whole rounds until `seconds` of op time have passed.

    Without a tracer each op runs once. With one, each op runs plain and
    traced (alternating order); records then hold the traced runs and the
    second return value is the plain op seconds.
    """
    records = []
    plain = 0.0
    spent = 0.0
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        out_path = os.path.join(tmp, "out")
        for ops in workloads.rounds(workload, seed, scale):
            if spent >= seconds:
                break
            for op in ops:
                if tracer is None:
                    dt, status, text, nbytes = run_op(cli, op, out_path)
                else:
                    dt, status, text, nbytes, plain_dt = run_pair(cli, op, out_path, tracer, len(records))
                    plain += plain_dt
                    spent += plain_dt
                spent += dt
                records.append(Record(op, dt, nbytes, checked(op, status, text)))
    return records, plain


def tail(times, percentile):
    """(value, percentile, samples beyond) at the nearest-rank percentile.

    When that leaves fewer than ten samples beyond, the highest percentile
    that leaves ten is used instead (the maximum when there are ten or fewer).
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = math.ceil(percentile / 100.0 * n)
    if n - rank < 10:
        rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def accuracy(records):
    """(accurate_fraction, first_eig_digits) over the checked values."""
    modes = sum(r.check.modes for r in records)
    accurate = sum(r.check.accurate for r in records)
    firsts = [r.check.first_err for r in records if r.check.first_err is not None]
    digits = -math.log10(max(max(firsts), workloads.EPS)) if firsts else 0.0
    return (accurate / modes if modes else 0.0), digits


def failures(records):
    return [{"argv": list(r.op.argv), "reason": r.check.reason} for r in records if not r.check.ok][:20]


def stratum_medians(records):
    by_stratum = {}
    for r in records:
        by_stratum.setdefault(r.op.stratum, []).append(r.seconds)
    return {k: statistics.median(v) for k, v in sorted(by_stratum.items())}


def summarize(records, setup_s: float, peak_rss_mb: float, tail_percentile: float):
    """End-to-end metrics and details of an untraced run."""
    times = [r.seconds for r in records]
    failed = sum(not r.check.ok for r in records)
    value, pct, beyond = tail(times, tail_percentile)
    acc, digits = accuracy(records)
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "ops_per_s": (len(records) - failed) / sum(times),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / len(records),
        "accurate_fraction": acc,
        "first_eig_digits": digits,
    }
    details = {
        "failed_frac": failed / len(records),
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "samples": len(records),
        "timed_s": sum(times),
        "stratum_p50_s": stratum_medians(records),
        "failures": failures(records),
    }
    return metrics, failed, details


def summarize_trace(records, plain_s: float, tracer):
    """Per-layer metrics of a traced run plus the full per-function table."""
    calls, self_s = tracing.self_times(tracer.spans)
    op_s = sum(r.seconds for r in records)
    metrics = {}
    for name, fields in LAYER_FIELDS:
        for f in fields:
            if f == "calls":
                value = calls.get(name, 0)
            elif f == "self_frac":
                value = self_s.get(name, 0.0) / op_s
            else:
                value = tracer.counts.get(f"{name}.{f}", 0)
            metrics[f"{name}.{f}"] = value
    eig = [r for r in records if r.op.kind == "eig"]
    modes = sum(r.check.modes for r in eig)
    metrics["spectra.resolved_fraction"] = sum(r.check.accurate for r in eig) / modes if modes else 0.0
    metrics["cli.bytes_written"] = sum(r.bytes_out for r in records)
    metrics["charpoly.coeff_bits_max"] = max((r.check.bits for r in records), default=0)
    metrics["other.self_s"] = op_s - tracing.root_seconds(tracer.spans)
    metrics["trace.op_s"] = op_s
    metrics["trace.overhead_frac"] = op_s / plain_s - 1.0
    table = {
        name: {"calls": calls[name], "self_s": self_s[name], "self_frac": self_s[name] / op_s}
        for name in sorted(self_s, key=self_s.get, reverse=True)
    }
    failed = sum(not r.check.ok for r in records)
    details = {
        "failed_frac": failed / len(records),
        "samples": len(records),
        "plain_s": plain_s,
        "spans": len(tracer.spans),
        "layers": table,
        "failures": failures(records),
    }
    return metrics, failed, details


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("setup", "run", "trace"))
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--scale", choices=tuple(workloads.SCALES), default="full")
    args = ap.parse_args(argv)

    cli, setup_s = setup(args.workload)
    out = {"setup_s": setup_s}
    if args.mode == "run":
        records, _ = measure(cli, args.workload, args.seed, args.seconds, args.scale)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tail_pct = workloads.TAIL_PERCENTILE[args.workload]
        out["metrics"], out["failed"], out["details"] = summarize(records, setup_s, peak, tail_pct)
        out["attempted"] = len(records)
    elif args.mode == "trace":
        tracer = tracing.Tracer()
        records, plain_s = measure(cli, args.workload, args.seed, args.seconds, args.scale, tracer)
        out["metrics"], out["failed"], out["details"] = summarize_trace(records, plain_s, tracer)
        out["attempted"] = len(records)
        spans_dir = BENCH_DIR / ".out"
        spans_dir.mkdir(exist_ok=True)
        tracing.write_spans(tracer.spans, spans_dir / f"spans-{args.workload}-{args.seed}.tsv")
    if args.mode != "setup":
        out["machine"] = machine_facts()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
