"""Run the benchmark over several seeds and record the results in one file.

    python3 bench/record.py --seeds 1-10 --seconds 25 --out bench/baseline.json

For every workload: one untraced run per seed, then one traced run on the
first seed. The file keeps each run's result line, every end-to-end metric's
median, quartiles and spread (quartile distance over median), the machine
facts and the traced per-layer table, so a later change can be compared
against it run for run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def bench(workload: str, seed: int, seconds: str, trace: int) -> tuple:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", seconds, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True, text=True, check=True)
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return details["details"], result


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    ap.add_argument("--seconds", default=str(json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["run_seconds"]))
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    record = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            details, result = bench(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "result": result, "tail_percentile": details["op_tail_percentile"]})
            record["machine"] = details["machine"]
            print(workload, seed, {k: round(v["value"], 5) for k, v in result["metrics"].items()}, flush=True)
        metrics = {
            name: spread([run["result"]["metrics"][name]["value"] for run in runs])
            for name in runs[0]["result"]["metrics"]
        }
        details, traced = bench(workload, seeds[0], args.seconds, 1)
        record["workloads"][workload] = {
            "runs": runs,
            "metrics": metrics,
            "traced": {"seed": seeds[0], "result": traced, "layers": details["layers"]},
        }
        for name, s in metrics.items():
            print(f"  {workload:20s} {name:20s} median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
