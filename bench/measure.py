"""The untraced run: the end-to-end metrics of one workload.

Closed loop, one caller: the next operation starts when the previous
one (and its output check, which is untimed) has finished. Set-ups come
first (reported as their normalised median), then two discarded warm-up
operations, then the timed operations (reported as the normalised lower
quartile). Every count is fixed — identical on every commit and on
every machine — and sized so that a run measures for about
``BENCHMARK.json``'s ``run_seconds`` on the 2-vCPU box this was built on.
"""

from __future__ import annotations

import os
import statistics
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import checks
from noise import Sample, Timer, describe, estimate
from programs import (
    DetectProgram,
    RoundProgram,
    prepare_weeks,
    round_config,
    unique_ads_by_user,
)
from repro.core.pipeline import DetectionPipeline
from repro.types import ConfusionCounts, Label
from workloads import DetectInputs, RoundInputs, pairs_of

#: Fresh set-ups per run of a round workload (``setup_s`` is their median).
SETUPS = 7
#: Discarded warm-up operations before the timed ones.
WARMUPS = 2
#: Timed operations per run of each round workload (ISSUE 12's 60/50/100
#: at 0.43/0.5/0.21 s an operation, rescaled to the 0.36/0.45/0.14 s
#: measured here and a ~20 s run).
OPS = {"army_small_cliques": 40, "army_big_cliques": 34, "socket_pairs": 90}
#: Fresh pipelines per ``detect_weeks`` run: each is one set-up (the cold
#: week 0) and one timed operation per warm week, 5 x 4 = 20 operations.
PIPELINES = 5


@dataclass
class Outcome:
    """What one run observed, before it is folded into metrics."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    wire_bytes: List[int] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Failed operations (a pipeline under its quality floor adds a
        failure of its own, so the list can outgrow the attempts)."""
        return min(len(self.failures), self.attempted)

    def attempt(self, timer: Timer, kind: str, op: Callable[[], object]
                ) -> Optional[object]:
        """One timed operation; an exception is a failed operation, not
        a crashed benchmark."""
        self.attempted += 1
        try:
            return timer.time(kind, op)
        except Exception:
            self.failures.append(f"{kind} raised: "
                                 f"{traceback.format_exc(limit=4)}")
            timer.fence()
            return None

    def judge(self, reasons: List[str]) -> None:
        if reasons:
            self.failures.append("; ".join(reasons))


def measure_rounds(inputs: RoundInputs, ops: int, timer: Timer,
                   outcome: Outcome) -> None:
    program = RoundProgram(inputs)
    try:
        for n in range(SETUPS):
            if n:
                program.close()
                program = RoundProgram(inputs)
            outcome.attempt(timer, "setup", program.setup)
        pairs = pairs_of(inputs.ads_of)
        expected = checks.plain_sum(round_config(inputs),
                                    program.ad_mapper(), pairs)
        timer.fence()

        def one(kind: str) -> None:
            before = program.wire_bytes
            result = outcome.attempt(timer, kind, program.op)
            if result is None:
                return
            if kind == "op":
                outcome.wire_bytes.append(program.wire_bytes - before)
            outcome.judge(checks.check_round(result, inputs.user_ids,
                                             expected, len(pairs)))

        for _ in range(WARMUPS):
            one("warmup")
        for _ in range(ops):
            one("op")
    finally:
        program.close()


@dataclass
class WeekReference:
    """What a correct week must release (cached: every pipeline of a run
    sees the same weeks)."""

    roster: List[str]
    num_pairs: int
    cells: np.ndarray
    oracle: Dict[Tuple[str, str], Label]


def measure_detect(inputs: DetectInputs, timer: Timer,
                   outcome: Outcome, scratch_dir: str,
                   quality_floor: Tuple[float, float]) -> None:
    prepared = prepare_weeks(inputs)
    outcome.info["impressions_sha256"] = prepared.impressions_sha256
    store_path = os.path.join(scratch_dir, "detect-store.db")
    references: Dict[int, WeekReference] = {}
    oracle = DetectionPipeline(private=False)
    evals: List[int] = []
    quality = ConfusionCounts()

    warmup = DetectProgram(prepared, store_path)
    try:
        warmup.setup()
        warmup.op(1)
    finally:
        warmup.close()

    for _ in range(PIPELINES):
        program = DetectProgram(prepared, store_path)
        counts = ConfusionCounts()
        try:
            for week in range(inputs.num_weeks):
                kind = f"week{week}" if week else "setup"
                before = program.oprf_evaluations() if week else 0
                result = outcome.attempt(
                    timer, kind,
                    program.setup if not week else
                    (lambda w=week: program.op(w)))
                if result is None:
                    break
                round_result = result.round_result
                if week:
                    outcome.wire_bytes.append(round_result.total_bytes)
                    evals.append(program.oprf_evaluations() - before)
                reference = references.get(week)
                if reference is None:
                    ads = unique_ads_by_user(prepared.weeks[week])
                    pairs = pairs_of(ads)
                    reference = references[week] = WeekReference(
                        roster=sorted(ads), num_pairs=len(pairs),
                        cells=checks.plain_sum(
                            program.pipeline.session.config,
                            program.ad_mapper(), pairs),
                        oracle=checks.oracle_labels(oracle.run_week(
                            prepared.weeks[week], week=week).classified))
                outcome.judge(checks.check_round(
                    round_result, reference.roster, reference.cells,
                    reference.num_pairs)
                    + checks.check_against_oracle(result.classified,
                                                  reference.oracle))
                checks.confusion(result.classified, prepared.targeted_truth,
                                 counts)
                timer.fence()
            outcome.judge(checks.check_quality(counts, quality_floor))
            quality = counts
        finally:
            program.close()
    outcome.info["oprf_evals_per_week"] = statistics.fmean(evals)
    outcome.info["confusion"] = quality.as_dict()


def fold(timer: Timer, outcome: Outcome, peak_rss_mb: float
         ) -> Dict[str, Tuple[float, str]]:
    """Samples + observations -> the end-to-end metrics."""
    ops = [s for s in timer.samples if s.kind not in ("setup", "warmup")]
    setups = [s for s in timer.samples if s.kind == "setup"]
    outcome.info["op"] = describe(ops)
    outcome.info["setup"] = describe(setups)
    return {
        "setup_s": (estimate(setups, stat=statistics.median), "s"),
        "op_s": (estimate(ops), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "wire_bytes_per_op": (statistics.fmean(outcome.wire_bytes), "B"),
        "passed_share": (1.0 - outcome.failed / outcome.attempted, "ratio"),
    }


def samples_json(samples: List[Sample]) -> List[List[object]]:
    return [[s.kind, s.wall_s, s.cpu_s, s.ref_before_s, s.ref_after_s,
             s.normalised_s] for s in samples]
