#!/usr/bin/env python3
"""The repo's benchmark: one command, every metric, outputs checked.

    python3 bench/run.py                      # all workloads, seed 12
    python3 bench/run.py --trace              # ... then the per-layer run
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --selfcheck          # 2 x 3 alternating runs

Each workload runs in its own fresh subprocess (``worker.py``) with a
fixed hash seed and single-threaded BLAS; the box has two cores and the
benchmark is one closed-loop caller. Every metric prints as
``workload metric value unit``; ``info.*`` lines are diagnostics that
are stored but never gated. With ``--workload`` the last line of
standard output is the JSON object the driver reads. Everything lands in
``bench/out/``: ``results.json``, one ``<workload>-seed<N>-trace<T>.json``
per run with the raw per-sample series, and ``trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
SPEC_PATH = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
#: A worker that has not finished by then is killed (the driver allows
#: 180 s per invocation).
WORKER_TIMEOUT_S = 170
#: ISSUE 12: the six ``op_s`` readings of a self-check may not be
#: further apart than this, whatever the medians say.
OP_S_MAX_OVER_MIN = 1.10


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def run_worker(workload: str, seed: int, trace: int) -> dict:
    """Run one workload in a fresh interpreter; returns its report."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    if os.path.exists(out):
        os.remove(out)
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
         "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--out", out],
        env=env, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    with open(out) as handle:
        return json.load(handle)


def print_report(report: dict) -> None:
    workload = report["workload"]
    print(f"{workload} info.inputs_sha256 {report['inputs_sha256']}")
    for name, metric in report["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    share = report["failed"] / report["attempted"]
    print(f"{workload} failed_share {share:.6g} ratio "
          f"({report['failed']}/{report['attempted']})")
    for reason in report["failures"][:3]:
        print(f"{workload} info.failure {reason.splitlines()[0]}")
    for group, values in sorted(report["info"].items()):
        if isinstance(values, dict):
            for key, value in sorted(values.items()):
                print(f"{workload} info.{group}.{key} {value:.6g}")
        elif isinstance(values, float):
            print(f"{workload} info.{group} {values:.6g}")
        elif isinstance(values, str):
            print(f"{workload} info.{group} {values}")
    for line in report.get("table", ()):
        print(f"{workload} {line}")
    sys.stdout.flush()


def driver_line(spec: dict, report: dict) -> str:
    """The result object the driver reads: exactly the spec's
    end-to-end metrics (untraced) or per-layer metrics (traced)."""
    names = [metric["name"] for metric in
             spec["per_layer" if report["trace"] else "end_to_end"]]
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"], "failed": report["failed"],
        "metrics": {name: report["metrics"][name] for name in names}})


def run_all(spec: dict, seed: int, trace: int, quiet: bool = False
            ) -> Dict[str, dict]:
    """Every workload's untraced run and, with ``trace``, its traced run
    after it (end-to-end metrics are only ever taken with tracing off)."""
    kept = ("seed", "inputs_sha256", "metrics", "attempted", "failed",
            "info")
    reports: Dict[str, dict] = {}
    results: Dict[str, dict] = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        for traced in range(trace + 1):
            report = run_worker(name, seed, traced)
            if not quiet:
                print_report(report)
            key = "per_layer" if traced else "end_to_end"
            results.setdefault(name, {})[key] = {k: report[k] for k in kept}
            if not traced:
                reports[name] = report
    with open(os.path.join(OUT_DIR, "results.json"), "w") as handle:
        json.dump(results, handle, indent=1)
    return reports


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share."""
    if metric["better"] == "lower":
        return second / first - 1.0
    return first / second - 1.0


def selfcheck(spec: dict, seed: int) -> int:
    """Two alternating sets of three full runs of the working tree must
    agree within the benchmark's own bounds."""
    runs = [run_all(spec, seed, 0, quiet=True) for _ in range(6)]
    failed = 0
    print("workload metric median_A median_B B/A max/min(6) bound verdict")
    for entry in spec["workloads"]:
        name = entry["name"]
        for metric in spec["end_to_end"]:
            values = [run[name]["metrics"][metric["name"]]["value"]
                      for run in runs]
            first = statistics.median(values[0::2])
            second = statistics.median(values[1::2])
            spread = max(values) / min(values)
            ok = max(worse_by(metric, first, second),
                     worse_by(metric, second, first)) <= metric["bound"]
            if metric["name"] == "op_s":
                ok = ok and spread <= OP_S_MAX_OVER_MIN
            failed += not ok
            print(f"{name} {metric['name']} {first:.6g} {second:.6g} "
                  f"{second / first:.4f} {spread:.4f} "
                  f"{metric['bound']} {'PASS' if ok else 'FAIL'}")
        bad = sum(run[name]["failed"] for run in runs)
        failed += bad > 0
        print(f"{name} failed_share {bad} of "
              f"{sum(run[name]['attempted'] for run in runs)} "
              f"{'PASS' if not bad else 'FAIL'}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float,
        help="accepted from the driver and otherwise unused: a run is a "
             "fixed number of operations, sized to take about this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if args.selfcheck:
        return selfcheck(spec, args.seed)
    if args.workload:
        report = run_worker(args.workload, args.seed, args.trace)
        print_report(report)
        print(driver_line(spec, report))
        return 0
    run_all(spec, args.seed, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
