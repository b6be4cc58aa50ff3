"""Layer probes: public functions of single modules, timed from outside
on the workload's own inputs with the same reference normalisation as
the end-to-end metrics. Metric names are ``<module>.<quantity>_<unit>``
so the layer a number belongs to is the prefix of its name.

Each probe makes at least :data:`CALLS` calls. Which probes run on which
workload is decided in :mod:`traced`: a probe only runs where the
workload executes the code it times, on inputs the workload has.

Populations are capped at :data:`PROBE_USERS` (clique size kept) so a
probe of a 4000-user workload stays a fraction of a second; per-user and
per-item metrics are unaffected, ``enroll_s`` is for the capped roster.
"""

from __future__ import annotations

import os
import random
from dataclasses import replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.api import ProtocolSession, RoundConfig, RoundResult, SessionConfig
from repro.core.detector import CountBasedDetector
from repro.crypto.blinding import BlindingGenerator, PadStreamProvider
from repro.crypto.group import DHGroup
from repro.crypto.oprf import OPRFClient, OPRFServer
from repro.protocol import wire
from repro.protocol.army import ClientArmy
from repro.protocol.enrollment import enroll_users
from repro.protocol.net import SocketTransport, frames
from repro.protocol.server import UsersDistributionQuery
from repro.protocol.transport import InMemoryTransport
from repro.sketch.hashing import HashFamily
from repro.store.history import HistoryStore, SessionRecord
from repro.types import ClassifiedAd, Impression

from noise import Timer, estimate
from programs import remove_store

#: Largest population a probe enrolls.
PROBE_USERS = 400
#: Fewest calls behind any probe's number.
CALLS = 20
#: Reference-bracketed batches the calls are split into; the estimate is
#: the lower quartile over batches.
BATCHES = 5

Metrics = Dict[str, Tuple[float, str]]


class Prober:
    """Times ``call(i)`` in reference-bracketed batches; the estimate is
    the lower quartile of the normalised per-call batch times."""

    def __init__(self, timer: Timer) -> None:
        self.timer = timer
        self.calls: Dict[str, int] = {}

    def per_call_s(self, name: str, call: Callable[[int], object],
                   calls: int = CALLS) -> float:
        per_batch = -(-calls // BATCHES)
        first = len(self.timer.samples)
        for batch in range(BATCHES):
            base = batch * per_batch

            def run_batch() -> None:
                for i in range(base, base + per_batch):
                    call(i)

            self.timer.time(name, run_batch)
        self.calls[name] = BATCHES * per_batch
        return estimate(self.timer.samples[first:]) / per_batch


def probe_population(user_ids: Sequence[str], clique_size: int
                     ) -> Tuple[List[str], int]:
    """The capped roster and its clique count (clique size preserved)."""
    cap = max(clique_size * 2, PROBE_USERS - PROBE_USERS % clique_size)
    users = list(user_ids[:cap])
    return users, max(1, len(users) // clique_size)


def _clique_keys(clique_size: int):
    rng = random.Random(0xC0FFEE)
    group = DHGroup.standard(128)
    return group, [group.keypair(rng) for _ in range(clique_size)]


def group_probe(prober: Prober, clique_size: int) -> Metrics:
    group, keys = _clique_keys(clique_size)
    own = keys[0]
    return {"crypto.group.modexp_us": (1e6 * prober.per_call_s(
        "crypto.group.modexp",
        lambda i: group.shared_secret(own, keys[1 + i % (clique_size - 1)]
                                      .public), calls=1000), "us")}


def oprf_probe(prober: Prober, urls: Sequence[str]) -> Metrics:
    server = OPRFServer.generate(bits=256, rng=random.Random(1))
    client = OPRFClient(server.public_key, rng=random.Random(2))
    return {"crypto.oprf.evaluate_ms": (1e3 * prober.per_call_s(
        "crypto.oprf.evaluate",
        lambda i: client.evaluate(urls[i % len(urls)], server),
        calls=200), "ms")}


def pad_probes(prober: Prober, config: RoundConfig, clique_size: int,
               batched: bool) -> Metrics:
    """The pad path: the stream squeeze both backends share, then the
    accumulation of the workload's own backend — one scatter-add per
    clique (army) or one vector sum per user (objects)."""
    group, keys = _clique_keys(clique_size)
    own = keys[0]
    cells = config.num_cells
    secret = group.element_to_bytes(group.shared_secret(own, keys[1].public))
    streams = PadStreamProvider()
    squeeze_s = prober.per_call_s(
        "crypto.blinding.squeeze",
        lambda i: streams.stream((0, 1), secret, i, cells),
        calls=200 if cells > 4096 else 2000)
    metrics: Metrics = {"crypto.blinding.squeeze_mb_s": (
        4 * cells / squeeze_s / 1e6, "MB/s")}
    heavy = clique_size * clique_size * cells > 2_000_000
    if batched:
        pairs = [(a, b) for a in range(clique_size)
                 for b in range(a + 1, clique_size)]
        pair_secrets = [group.element_to_bytes(
            group.shared_secret(keys[a], keys[b].public)) for a, b in pairs]
        pad = PadStreamProvider().clique_matrix(pairs, pair_secrets, 0, cells)
        lo = np.asarray([a for a, _ in pairs], dtype=np.intp)
        hi = np.asarray([b for _, b in pairs], dtype=np.intp)
        metrics["crypto.blinding.clique_matrix_ms"] = (
            1e3 * prober.per_call_s(
                "crypto.blinding.clique_matrix",
                lambda i: BlindingGenerator.accumulate_clique_matrix(
                    pad, lo, hi, clique_size),
                calls=CALLS if heavy else 500), "ms")
    else:
        generator = BlindingGenerator(
            group, 0, own, {j: k.public for j, k in enumerate(keys) if j})
        metrics["crypto.blinding.vector_ms"] = (1e3 * prober.per_call_s(
            "crypto.blinding.vector",
            lambda i: generator.blinding_vector_array(cells, i),
            calls=CALLS if heavy else 1000), "ms")
    return metrics


def sketch_probes(prober: Prober, config: RoundConfig,
                  ad_ids: Sequence[int]) -> Metrics:
    items = list(ad_ids)[:20_000]
    n = len(items)
    family = HashFamily(config.cms_depth, config.cms_width, config.cms_seed)
    sketch = config.make_sketch()
    return {
        "sketch.hashing.index_us_per_item": (1e6 / n * prober.per_call_s(
            "sketch.hashing.index", lambda i: family.indexes_many(items),
            calls=100), "us"),
        "sketch.countmin.update_us_per_item": (1e6 / n * prober.per_call_s(
            "sketch.countmin.update", lambda i: sketch.update_many(items),
            calls=100), "us"),
        "sketch.countmin.query_us_per_item": (1e6 / n * prober.per_call_s(
            "sketch.countmin.query", lambda i: sketch.query_many(items),
            calls=100), "us"),
    }


def enrollment_probes(prober: Prober, config: RoundConfig,
                      users: Sequence[str], num_cliques: int, seed: int,
                      use_oprf: bool) -> Metrics:
    kwargs = dict(seed=seed, use_oprf=use_oprf, num_cliques=num_cliques)
    return {
        "protocol.enrollment.enroll_s": (prober.per_call_s(
            "protocol.enrollment.enroll",
            lambda i: enroll_users(users, config, **kwargs)), "s"),
        "protocol.army.enroll_s": (prober.per_call_s(
            "protocol.army.enroll",
            lambda i: ClientArmy.enroll(users, config, **kwargs)), "s"),
    }


def membership_probes(prober: Prober, config: RoundConfig,
                      users: Sequence[str], num_cliques: int, seed: int,
                      churn_rate: float) -> Metrics:
    """``advance_epoch`` under ``churn_rate`` turnover: each call retires
    the next members of the roster and admits as many fresh users."""
    session = ProtocolSession.create(
        list(users), config, SessionConfig(), seed=seed, use_oprf=True,
        num_cliques=num_cliques)
    quota = max(1, round(churn_rate * len(users)))
    roster = sorted(users)
    rekeyed: List[int] = []

    def advance(i: int) -> None:
        joins = [f"u9{i:02d}{n:04d}" for n in range(quota)]
        leaves = roster[:quota]
        roster[:] = roster[quota:] + joins
        rekeyed.append(len(session.advance_epoch(joins=joins,
                                                 leaves=leaves).rekeyed))

    try:
        per_call = prober.per_call_s("protocol.membership.advance_epoch",
                                     advance)
    finally:
        session.close()
    return {"protocol.membership.advance_epoch_ms": (1e3 * per_call, "ms"),
            "protocol.membership.rekeyed": (sum(rekeyed) / len(rekeyed),
                                            "count")}


def report_probes(prober: Prober, config: RoundConfig, users: Sequence[str],
                  ads_of: Dict[str, Sequence[str]], num_cliques: int,
                  seed: int, backends: Sequence[str]) -> Tuple[Metrics, list]:
    """Every client building one round's report, per backend, on the
    same inputs — with both backends, the objects-vs-army pair. Returns
    the metrics and the object path's real reports (input of the wire
    and transport probes). OPRF mapping has its own probe; sessions here
    use the keyed-PRF mapper."""
    metrics: Metrics = {}
    reports: list = []
    for backend in backends:
        session = ProtocolSession.create(
            list(users), config, SessionConfig(client_backend=backend),
            seed=seed, use_oprf=False, num_cliques=num_cliques)
        try:
            if session.army is not None:
                army = session.army
                for uid in users:
                    army.observe_ads(uid, ads_of[uid])
                name = "protocol.army.report"
                per_round = prober.per_call_s(name, army.on_round_start)
            else:
                clients = session.clients
                for client in clients:
                    for url in ads_of[client.user_id]:
                        client.observe_ad(url)

                def report_all(i: int) -> None:
                    reports[:] = [message for client in clients for
                                  _, message in client.on_round_start(i)]

                name = "protocol.client.report"
                # One ``on_round_start`` per client per round: a round
                # per batch is already more than CALLS calls.
                per_round = prober.per_call_s(name, report_all,
                                              calls=BATCHES)
                prober.calls[name] *= len(clients)
        finally:
            session.close()
        metrics[f"{name}_ms_per_user"] = (1e3 * per_round / len(users), "ms")
    return metrics, reports


def wire_probes(prober: Prober, reports: list, codec: bool) -> Metrics:
    """Size of real reports on the wire and, where the workload's
    transport encodes them (``codec``), the codec's time."""
    sample = reports[:50]
    n = len(sample)
    encoded = [wire.encode(message) for message in sample]
    metrics: Metrics = {
        "protocol.wire.bytes_per_msg": (sum(map(len, encoded)) / n, "B")}
    if codec:
        metrics["protocol.wire.encode_us_per_msg"] = (
            1e6 / n * prober.per_call_s(
                "protocol.wire.encode",
                lambda i: [wire.encode(m) for m in sample], calls=200), "us")
        metrics["protocol.wire.decode_us_per_msg"] = (
            1e6 / n * prober.per_call_s(
                "protocol.wire.decode",
                lambda i: [wire.decode(b) for b in encoded], calls=200), "us")
    return metrics


def transport_probes(prober: Prober, reports: list, socket: bool) -> Metrics:
    """``send`` + ``receive`` of real reports over the workload's kind of
    transport (and, for sockets, the framing under it)."""
    sample = reports[:50]
    n = len(sample)

    def ship(transport: InMemoryTransport) -> Callable[[int], None]:
        transport.register("probe-a")
        transport.register("probe-b")

        def call(i: int) -> None:
            for message in sample:
                transport.send("probe-a", "probe-b", message)
                transport.receive("probe-b")
        return call

    if not socket:
        return {"protocol.transport.send_us_per_msg": (
            1e6 / n * prober.per_call_s("protocol.transport.send",
                                        ship(InMemoryTransport()),
                                        calls=1000), "us")}
    encoded = [wire.encode(message) for message in sample]
    metrics: Metrics = {"protocol.net.frames.pack_us": (
        1e6 / n * prober.per_call_s(
            "protocol.net.frames.pack",
            lambda i: [frames.pack_frame(frames.SHIP, b) for b in encoded],
            calls=500), "us")}
    with SocketTransport() as sock:
        metrics["protocol.net.transport.ship_us_per_msg"] = (
            1e6 / n * prober.per_call_s("protocol.net.transport.ship",
                                        ship(sock), calls=100), "us")
    return metrics


def distribution_probe(prober: Prober, config: RoundConfig,
                       result: RoundResult) -> Metrics:
    query = UsersDistributionQuery(config)
    return {"protocol.server.users_distribution_ms": (
        1e3 * prober.per_call_s(
            "protocol.server.users_distribution",
            lambda i: query.distribution(result.aggregate), calls=100),
        "ms")}


def detector_probe(prober: Prober, impressions: Sequence[Impression],
                   classified: Sequence[ClassifiedAd], threshold: float
                   ) -> Metrics:
    """``CountBasedDetector.observe_all`` + ``classify_all`` for every
    user of a week, fed the estimates the pipeline really released."""
    users_seen = {call.ad.identity: call.users_seen for call in classified}
    by_user: Dict[str, List[Impression]] = {}
    for imp in impressions:
        by_user.setdefault(imp.user_id, []).append(imp)
    ads_of = {uid: list({imp.ad.identity: imp.ad for imp in imps}.values())
              for uid, imps in by_user.items()}

    def call(i: int) -> None:
        for user_id, imps in by_user.items():
            detector = CountBasedDetector(user_id)
            detector.observe_all(imps)
            detector.classify_all(ads_of[user_id], users_seen.__getitem__,
                                  threshold, 0)

    per_week = prober.per_call_s("core.detector.classify", call)
    return {"core.detector.classify_us_per_pair": (
        1e6 * per_week / len(classified), "us")}


def store_probes(prober: Prober, scratch_dir: str, config: RoundConfig,
                 result: RoundResult, classified: Sequence[ClassifiedAd],
                 seed: int, num_cliques: int) -> Metrics:
    """``HistoryStore`` writes of one week's round and verdicts."""
    path = os.path.join(scratch_dir, "probe-store.db")
    try:
        with HistoryStore(path) as store:
            store.record_session(SessionRecord(
                name="probe", config=config, seed=seed, use_oprf=True,
                num_cliques=num_cliques, share_pad_streams=True,
                client_backend="objects"))
            round_s = prober.per_call_s(
                "store.history.record_round",
                lambda i: store.record_round(
                    "probe", replace(result, round_id=i), 0, week=i))
            detections_s = prober.per_call_s(
                "store.history.record_detections",
                lambda i: store.record_detections(i, classified))
    finally:
        remove_store(path)
    return {"store.history.record_round_ms": (1e3 * round_s, "ms"),
            "store.history.record_detections_ms": (1e3 * detections_s, "ms")}
