"""Drives the system under test through its public surface only.

Everything the benchmark asks of ``repro`` goes through
``ProtocolSession.create`` + ``SessionConfig``, ``run_next_round``,
``DetectionPipeline``, ``HistoryStore`` and ``Simulator`` — the surface
the ROADMAP keeps while it deletes shims, topologies and drivers — so a
simplification PR cannot break the benchmark by removing a path.

A *program* has ``setup()`` (what ``setup_s`` times), ``op()`` (what
``op_s`` times) and ``close()``; inputs come from
:mod:`workloads`, never the seed or the workload name.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.api import ProtocolSession, RoundConfig, RoundResult, SessionConfig
from repro.core.pipeline import DetectionPipeline, PipelineResult
from repro.protocol.transport import InMemoryTransport
from repro.simulation.churn import churn_schedule, rosters_over_epochs
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulator
from repro.types import Impression

from workloads import DetectInputs, RoundInputs


def round_config(inputs: RoundInputs) -> RoundConfig:
    return RoundConfig(cms_depth=inputs.cms_depth, cms_width=inputs.cms_width,
                       cms_seed=inputs.cms_seed, id_space=inputs.id_space)


class RoundProgram:
    """An enrolled population that re-reports one window every round."""

    def __init__(self, inputs: RoundInputs,
                 transport: Optional[InMemoryTransport] = None) -> None:
        self.inputs = inputs
        #: A live transport instance replaces the named one (the traced
        #: run passes its span-recording subclass here).
        self._transport = transport
        self.session: Optional[ProtocolSession] = None

    def setup(self) -> None:
        inputs = self.inputs
        settings = SessionConfig(
            client_backend=inputs.client_backend,
            transport=self._transport or inputs.transport,
            fan_in=inputs.fan_in)
        session = ProtocolSession.create(
            list(inputs.user_ids), round_config(inputs), settings,
            seed=inputs.enrollment_seed, use_oprf=False,
            num_cliques=inputs.num_cliques)
        self.session = session
        if session.army is not None:
            for uid, urls in inputs.ads_of.items():
                session.army.observe_ads(uid, urls)
        else:
            for client in session.clients:
                for url in inputs.ads_of[client.user_id]:
                    client.observe_ad(url)

    def op(self) -> RoundResult:
        assert self.session is not None
        return self.session.run_next_round()

    @property
    def wire_bytes(self) -> int:
        """Cumulative protocol bytes on the session's transport."""
        assert self.session is not None
        return self.session.transport.total_bytes

    def ad_mapper(self):
        """The URL -> ad-id map every client of the session shares."""
        session = self.session
        assert session is not None
        if session.army is not None:
            return session.army.ad_mapper
        return session.clients[0].ad_mapper

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


@dataclass
class PreparedWeeks:
    """``DetectInputs`` expanded by the simulator: per-week impression
    logs restricted to that week's (churned) roster, plus ground truth."""

    inputs: DetectInputs
    weeks: List[List[Impression]]
    rosters: List[List[str]]
    targeted_truth: Set[str]
    impressions_sha256: str


def prepare_weeks(inputs: DetectInputs) -> PreparedWeeks:
    result = Simulator(SimulationConfig(**inputs.simulation)).run()
    everyone = [user.user_id for user in result.population]
    roster0 = everyone[:inputs.roster_size]
    plans = churn_schedule(roster0, inputs.num_weeks - 1, inputs.churn_rate,
                           seed=inputs.churn_seed,
                           joiner_pool=everyone[inputs.roster_size:])
    rosters = rosters_over_epochs(roster0, plans)
    weeks: List[List[Impression]] = []
    sha = hashlib.sha256()
    for week, roster in enumerate(rosters):
        members = set(roster)
        log = [imp for imp in result.impressions
               if imp.week == week and imp.user_id in members]
        weeks.append(log)
        for imp in log:
            sha.update(f"{imp.user_id}|{imp.ad.identity}|{imp.domain}|"
                       f"{imp.tick}\n".encode())
    truth = {identity for identity, kind in result.ground_truth.items()
             if kind.is_targeted}
    return PreparedWeeks(inputs=inputs, weeks=weeks, rosters=rosters,
                         targeted_truth=truth,
                         impressions_sha256=sha.hexdigest())


class DetectProgram:
    """One private detection pipeline over a durable store: set-up is
    construction plus the cold week 0 (enrollment, OPRF key, store
    migration); an operation is one warm week."""

    def __init__(self, prepared: PreparedWeeks, store_path: str) -> None:
        self.prepared = prepared
        self.store_path = store_path
        self.pipeline: Optional[DetectionPipeline] = None

    def setup(self) -> PipelineResult:
        inputs = self.prepared.inputs
        self.pipeline = DetectionPipeline(
            private=True, use_oprf=True, num_cliques=inputs.num_cliques,
            round_config=DetectionPipeline.default_round_config(
                inputs.expected_unique_ads),
            enrollment_seed=inputs.enrollment_seed, store=self.store_path)
        return self.op(0)

    def op(self, week: int) -> PipelineResult:
        assert self.pipeline is not None
        return self.pipeline.run_week(self.prepared.weeks[week], week=week)

    def ad_mapper(self):
        assert self.pipeline is not None and self.pipeline.session is not None
        return self.pipeline.session.clients[0].ad_mapper

    def oprf_evaluations(self) -> int:
        """Blind evaluations the session's OPRF server has served."""
        assert self.pipeline is not None and self.pipeline.session is not None
        return self.pipeline.session.membership.oprf_server.evaluations

    def close(self) -> None:
        if self.pipeline is not None:
            self.pipeline.close()
            self.pipeline = None
        remove_store(self.store_path)


def remove_store(path: str) -> None:
    """Delete a sqlite file and whatever journal it left beside it."""
    for suffix in ("", "-wal", "-shm", "-journal"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


def unique_ads_by_user(impressions: Sequence[Impression]
                       ) -> Dict[str, List[str]]:
    seen: Dict[str, Dict[str, None]] = {}
    for imp in impressions:
        seen.setdefault(imp.user_id, {})[imp.ad.identity] = None
    return {uid: list(ads) for uid, ads in seen.items()}
