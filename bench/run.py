"""gegtau benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload spectrum-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory. With --trace 0 the last line holds the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run. The line before it
holds the details: machine facts, tail percentile and sample count, failed
ops and, for a traced run, the per-function table. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import worker
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Fresh processes whose set-up times give the setup_s median, per scale.
SETUP_SAMPLES = {"full": 5, "tiny": 2}
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread (at most nproc): with two on a shared 2-vCPU virtual machine the
# same op's time moved by 10-15% between runs; one costs about 5% speed.
BLAS_THREADS = 1


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({name: str(threads) for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args: list, env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="op time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.SCALES), default="full", help="'tiny' is for the self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gegtau" / "cli.py").is_file():
        print(f"error: no gegtau sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = worker_env(BLAS_THREADS)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    common += ["--scale", args.scale]
    timeout = 60 + 2 * args.seconds
    result = run_worker(["trace" if args.trace else "run", *common], env, timeout)
    metrics = result["metrics"]
    units = worker.layer_units() if args.trace else worker.END_TO_END_UNITS
    details = dict(result["details"])
    if not args.trace:
        samples = [result["setup_s"]]
        samples += [run_worker(["setup", *common], env, 60)["setup_s"] for _ in range(SETUP_SAMPLES[args.scale] - 1)]
        metrics["setup_s"] = statistics.median(samples)
        details["setup_samples_s"] = samples
    details.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        scale=args.scale,
        machine={
            **result["machine"],
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "thread_pins": {name: str(BLAS_THREADS) for name in THREAD_VARIABLES},
            "git_sha": git_sha(),
        },
    )
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
