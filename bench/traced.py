"""The traced run: per-layer metrics of one workload.

Two sources, both outside the program: (1) tier spans from the
benchmark's delegating proxies around real rounds, (2) layer probes on
the workload's own inputs. A metric is reported only where the workload
runs the code it measures — no stand-in inputs, no placeholder zeros —
so ``BENCHMARK.json`` lists the metrics every workload has and the rest
print on the workloads README's table names.

``DetectionPipeline`` has no seam for proxies, so a traced week carries
one outer span and its split comes from the probes times how often the
week makes each call; what they leave is
``core.pipeline.unattributed_share``. End-to-end metrics are never taken
from this run; ``trace.overhead`` compares traced and untraced
operations alternated here.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Sequence, Tuple

import probes
from measure import Outcome
from noise import Sample, Timer, estimate
from programs import (
    DetectProgram,
    RoundProgram,
    prepare_weeks,
    round_config,
    unique_ads_by_user,
)
from repro.api import ProtocolSession, RoundResult
from repro.crypto.prf import KeyedPRF
from repro.protocol.runner import ProtocolRunner
from spans import LAYER_OF, EndpointProxy, Tracer, traced_transport
from workloads import DetectInputs, Inputs, RoundInputs

Metrics = Dict[str, Tuple[float, str]]

#: (untraced, traced) operation pairs behind a round workload's spans
#: and ``trace.overhead``.
PAIRS = 6
#: Pipelines of a traced ``detect_weeks`` run, alternately untraced and
#: traced.
PIPELINES = 4


class TracedRounds:
    """Runs a session's rounds through tier proxies: the session's own
    endpoints and transport, driven by a ``ProtocolRunner`` of ours.
    Round ids are claimed here for traced and untraced rounds alike, so
    the two kinds can alternate without ever reusing a round's pads."""

    def __init__(self, session: ProtocolSession, tracer: Tracer) -> None:
        self.session = session
        self.tracer = tracer
        self._next_round = 0
        proxies = [EndpointProxy(endpoint, tracer)
                   for endpoint in session.endpoints]
        root = next(p for p in proxies if p.inner is session.root)
        self.runner = ProtocolRunner(proxies, root,
                                     transport=session.transport)

    def _claim_round(self) -> int:
        round_id = max(self.session.next_round, self._next_round)
        self._next_round = round_id + 1
        return round_id

    def untraced_op(self) -> RoundResult:
        return self.session.run_round(self._claim_round())

    def op(self) -> RoundResult:
        tracer = self.tracer
        round_id = self._claim_round()
        tracer.enabled = True
        span = tracer.begin("round")
        try:
            return self.runner.run_round(round_id)
        finally:
            tracer.end(span)
            tracer.enabled = False


def tier_times(tracer: Tracer, samples: Sequence[Sample], first_op: int
               ) -> Dict[str, float]:
    """Normalised seconds per operation spent in each span name: every
    traced operation's raw self times are scaled by that operation's
    own normalisation factor, then the median over operations is kept."""
    per_op = tracer.self_times()
    scaled: Dict[str, List[float]] = {}
    for offset, sample in enumerate(samples):
        factor = sample.normalised_s / sample.wall_s
        for name, seconds in per_op[first_op + offset].items():
            scaled.setdefault(name, []).append(seconds * factor)
    return {name: statistics.median(values)
            for name, values in scaled.items()}


def share_table(rows: Sequence[Tuple[str, float]], total: float) -> List[str]:
    lines = ["table layer share_of_op_s"]
    for name, seconds in rows:
        lines.append(f"table {name} {100 * seconds / total:.1f}%")
    covered = sum(seconds for _, seconds in rows)
    lines.append(f"table (sum) {100 * covered / total:.1f}%")
    return lines


def overhead(timer: Timer, kinds: Sequence[str]) -> float:
    """Traced over untraced time, per kind of operation, median of
    kinds. ``kinds`` pairs an untraced kind with its ``traced-`` twin."""
    def median_of(kind: str) -> float:
        return statistics.median(s.normalised_s for s in timer.samples
                                 if s.kind == kind)
    return statistics.median(median_of(f"traced-{kind}") / median_of(kind)
                             for kind in kinds)


def trace_rounds(inputs: RoundInputs, timer: Timer, outcome: Outcome,
                 trace_path: str) -> Tuple[Metrics, List[str]]:
    tracer = Tracer()
    batched = inputs.client_backend == "batched"
    over_sockets = inputs.transport == "socket"
    program = RoundProgram(inputs,
                           transport=traced_transport(inputs.transport,
                                                      tracer))
    program.setup()
    try:
        traced = TracedRounds(program.session, tracer)
        traced.untraced_op()
        traced.op()
        first_op = tracer.next_op_id
        result = None
        for _ in range(PAIRS):
            outcome.attempt(timer, "op", traced.untraced_op)
            result = outcome.attempt(timer, "traced-op", traced.op)
        spanned = [s for s in timer.samples if s.kind == "traced-op"]
        tiers = tier_times(tracer, spanned, first_op)
        mapper = program.ad_mapper()
    finally:
        program.close()

    ms = {name: 1e3 * seconds for name, seconds in tiers.items()}
    metrics: Metrics = {
        "protocol.clients.span_ms": (ms["clients"], "ms"),
        "protocol.aggregator.clique_ms": (ms["clique"], "ms"),
        "protocol.aggregator.root_ms": (ms["root"], "ms"),
        "protocol.transport.span_ms": (ms["transport"], "ms"),
        "protocol.runner.self_ms_per_op": (ms["round"], "ms"),
        "protocol.runner.messages_per_op": (
            tracer.counts["messages"] / (PAIRS + 1), "count"),
        "trace.overhead": (overhead(timer, ["op"]), "ratio"),
    }
    if "regional" in ms:
        metrics["protocol.aggregator.regional_ms"] = (ms["regional"], "ms")

    config = round_config(inputs)
    prober = probes.Prober(timer)
    roster, num_cliques = probes.probe_population(inputs.user_ids,
                                                  inputs.clique_size)
    urls = sorted({url for uid in roster for url in inputs.ads_of[uid]})
    metrics.update(probes.group_probe(prober, inputs.clique_size))
    metrics.update(probes.pad_probes(prober, config, inputs.clique_size,
                                     batched))
    metrics.update(probes.sketch_probes(
        prober, config, [mapper.ad_id(url) for url in urls]))
    metrics.update(probes.enrollment_probes(
        prober, config, roster, num_cliques, inputs.enrollment_seed, False))
    reported, reports = probes.report_probes(
        prober, config, roster, inputs.ads_of, num_cliques,
        inputs.enrollment_seed, ("objects", "batched"))
    metrics.update(reported)
    metrics.update(probes.wire_probes(prober, reports, codec=over_sockets))
    metrics.update(probes.transport_probes(prober, reports,
                                           socket=over_sockets))
    metrics.update(probes.distribution_probe(prober, config, result))
    metrics["crypto.blinding.pad_bytes_per_op"] = (
        float(len(inputs.user_ids) * (inputs.clique_size - 1)
              * config.num_cells * 4), "B")

    # Every part of a round sits in a tier span or the driver's self
    # time, so the spans' shares sum to the whole traced round.
    table = share_table([(LAYER_OF[name], tiers[name])
                         for name in LAYER_OF if name in tiers],
                        sum(tiers.values()))
    write_trace(trace_path, tracer, {"tiers_s": tiers,
                                     "probe_calls": prober.calls,
                                     "table": table})
    return metrics, table


def write_trace(path: str, tracer: Tracer, extra: dict) -> None:
    payload = tracer.to_json()
    payload.update(extra)
    with open(path, "w") as handle:
        json.dump(payload, handle)


def trace_detect(inputs: DetectInputs, timer: Timer, outcome: Outcome,
                 scratch_dir: str, trace_path: str
                 ) -> Tuple[Metrics, List[str]]:
    prepared = prepare_weeks(inputs)
    tracer = Tracer()
    store_path = os.path.join(scratch_dir, "detect-store.db")
    warm_weeks = range(1, inputs.num_weeks)
    evals: List[int] = []
    pairs: List[int] = []
    for pipeline in range(PIPELINES):
        spanned = pipeline % 2 == 1
        program = DetectProgram(prepared, store_path)
        try:
            program.setup()
            for week in warm_weeks:
                before = program.oprf_evaluations()

                def op(w: int = week) -> object:
                    tracer.enabled = spanned
                    span = tracer.begin("week") if spanned else None
                    try:
                        return program.op(w)
                    finally:
                        if span is not None:
                            tracer.end(span)
                        tracer.enabled = False

                result = outcome.attempt(
                    timer, ("traced-" if spanned else "") + f"week{week}", op)
                evals.append(program.oprf_evaluations() - before)
                pairs.append(len(result.classified))
                timer.fence()
            config = program.pipeline.session.config
            db_bytes = os.path.getsize(store_path)
        finally:
            program.close()
    kinds = [f"week{week}" for week in warm_weeks]
    # All four pipelines: a traced week differs from an untraced one by
    # a single span, and two samples a kind are too few for a quartile.
    op_s = estimate([s for s in timer.samples if "week" in s.kind])
    evals_per_week = statistics.fmean(evals)
    metrics: Metrics = {
        "trace.overhead": (overhead(timer, kinds), "ratio"),
        "crypto.oprf.evals_per_week": (evals_per_week, "count"),
        "store.history.db_bytes_per_week": (db_bytes / inputs.num_weeks, "B"),
    }

    # Probes run on the last week's inputs and on what the pipeline
    # released for it.
    last = inputs.num_weeks - 1
    ads_of = unique_ads_by_user(prepared.weeks[last])
    users = sorted(ads_of)
    urls = sorted({url for ads in ads_of.values() for url in ads})
    round_result = result.round_result
    prober = probes.Prober(timer)
    # The pipeline's OPRF mapper died with it; the sketch probe only
    # needs ids spread over the same id space.
    id_map = KeyedPRF(key=b"bench-probe", id_space=config.id_space)
    seed = inputs.enrollment_seed
    metrics.update(probes.group_probe(prober, inputs.clique_size))
    metrics.update(probes.oprf_probe(prober, urls))
    metrics.update(probes.pad_probes(prober, config, inputs.clique_size,
                                     batched=False))
    metrics.update(probes.sketch_probes(
        prober, config, [id_map.ad_id(url) for url in urls]))
    metrics.update(probes.enrollment_probes(
        prober, config, users, inputs.num_cliques, seed, True))
    metrics.update(probes.membership_probes(
        prober, config, users, inputs.num_cliques, seed, inputs.churn_rate))
    reported, reports = probes.report_probes(
        prober, config, users, ads_of, inputs.num_cliques, seed, ("objects",))
    metrics.update(reported)
    metrics.update(probes.wire_probes(prober, reports, codec=False))
    metrics.update(probes.distribution_probe(prober, config, round_result))
    metrics.update(probes.detector_probe(
        prober, prepared.weeks[last], result.classified,
        result.users_threshold))
    metrics.update(probes.store_probes(
        prober, scratch_dir, config, round_result, result.classified, seed,
        inputs.num_cliques))
    metrics["crypto.blinding.pad_bytes_per_op"] = (
        float(len(users) * (inputs.clique_size - 1) * config.num_cells * 4),
        "B")

    def ms(name: str) -> float:
        return metrics[name][0] / 1e3

    rows = sorted([
        ("crypto.oprf (evals_per_week x evaluate_ms)",
         evals_per_week * ms("crypto.oprf.evaluate_ms")),
        ("protocol.client (users x report_ms_per_user)",
         len(users) * ms("protocol.client.report_ms_per_user")),
        ("core.detector (pairs x classify_us_per_pair)",
         statistics.fmean(pairs)
         * metrics["core.detector.classify_us_per_pair"][0] / 1e6),
        ("store.history (record_round + record_detections)",
         ms("store.history.record_round_ms")
         + ms("store.history.record_detections_ms")),
        ("protocol.membership (advance_epoch)",
         ms("protocol.membership.advance_epoch_ms")),
        ("protocol.server (users_distribution)",
         ms("protocol.server.users_distribution_ms")),
        ("sketch.countmin (ads x query_us_per_item)",
         len(urls) * metrics["sketch.countmin.query_us_per_item"][0] / 1e6),
    ], key=lambda row: -row[1])
    covered = sum(seconds for _, seconds in rows)
    metrics["core.pipeline.unattributed_share"] = (1.0 - covered / op_s,
                                                   "ratio")
    table = share_table(
        rows + [("core.pipeline (unattributed)", op_s - covered)], op_s)
    write_trace(trace_path, tracer, {"op_s": op_s, "layers_s": dict(rows),
                                     "probe_calls": prober.calls,
                                     "table": table})
    return metrics, table


def run(inputs: Inputs, timer: Timer, outcome: Outcome, scratch_dir: str,
        trace_path: str) -> Tuple[Metrics, List[str]]:
    """Per-layer metrics and the printed layer table of one workload;
    also writes the spans to ``trace_path``."""
    if isinstance(inputs, RoundInputs):
        return trace_rounds(inputs, timer, outcome, trace_path)
    return trace_detect(inputs, timer, outcome, scratch_dir, trace_path)
