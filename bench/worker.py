"""One workload, one process: ``run.py`` starts this file in a fresh
interpreter (fixed hash seed, single-threaded BLAS) so every workload
gets its own ``ru_maxrss`` and no state leaks between them. Writes the
full result — metrics, diagnostics, raw per-sample series — as JSON to
``--out``; ``run.py`` does the printing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from typing import Dict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"bench: no program to measure: {SRC_DIR}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH_DIR, SRC_DIR]

    import checks
    import measure
    import workloads
    from noise import ReferenceKernel, Timer

    inputs = workloads.generate(args.workload, args.seed)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    scratch_dir = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch_dir, exist_ok=True)
    timer = Timer(ReferenceKernel())
    outcome = measure.Outcome()
    report: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_sha256": workloads.digest(inputs)}
    try:
        if args.trace:
            import traced
            metrics, report["table"] = traced.run(
                inputs, timer, outcome, scratch_dir,
                os.path.join(out_dir, f"trace-{args.workload}.json"))
        else:
            if isinstance(inputs, workloads.RoundInputs):
                measure.measure_rounds(inputs, measure.OPS[args.workload],
                                       timer, outcome)
            else:
                measure.measure_detect(
                    inputs, timer, outcome, scratch_dir,
                    checks.quality_floor(args.seed))
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = measure.fold(timer, outcome, peak_rss_mb)
    finally:
        shutil.rmtree(scratch_dir, ignore_errors=True)

    report.update(
        metrics={name: {"value": value, "unit": unit}
                 for name, (value, unit) in metrics.items()},
        attempted=outcome.attempted, failed=outcome.failed,
        failures=outcome.failures[:20], info=outcome.info,
        sample_fields=["kind", "wall_s", "cpu_s", "ref_before_s",
                       "ref_after_s", "normalised_s"],
        samples=measure.samples_json(timer.samples))
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
