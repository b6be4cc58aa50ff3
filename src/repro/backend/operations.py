"""Longitudinal deployment: eyeWnder week over week.

The paper operated the system live for over a year with ~1000 users of
varying commitment. This module simulates that operational reality on
top of the substrate:

* **churn** — each week a fraction of the panel is inactive (uninstalls,
  holidays); one persistent session follows the active set with
  ``advance_epoch`` deltas, so only users whose clique changed are
  re-keyed — nobody re-runs the full DH enrollment week after week;
* **dropouts** — some enrolled users crash *mid-round* after observing
  ads but before reporting, exercising the fault-tolerance round in the
  wild rather than under a unit test;
* **weekly cadence** — per week: browse, observe, aggregate privately,
  classify, record.

The output is the weekly operations log an operator would dashboard:
panel size, dropouts, Users_th trajectory, flagged counts, traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.api import SessionConfig
from repro.core.detector import DetectorConfig
from repro.core.pipeline import DetectionPipeline
from repro.errors import ConfigurationError
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulator
from repro.statsutil.sampling import make_rng


@dataclass
class WeeklyOpsReport:
    """One week of deployment, as an operator sees it."""

    week: int
    active_users: int
    dropouts: int
    users_threshold: float
    pairs_classified: int
    flagged_targeted: int
    recovery_round_used: bool
    protocol_bytes: int
    #: Users re-keyed by this week's epoch advance; None when there was
    #: none — the week paid a full enrollment (the first week, a roster
    #: delta the clique layout could not absorb, an outgrown sketch).
    rekeyed_users: Optional[int] = None


@dataclass
class DeploymentLog:
    """The full longitudinal record."""

    weeks: List[WeeklyOpsReport] = field(default_factory=list)

    @property
    def thresholds(self) -> List[float]:
        return [w.users_threshold for w in self.weeks]

    @property
    def total_flagged(self) -> int:
        return sum(w.flagged_targeted for w in self.weeks)

    def summary(self) -> str:
        lines = [f"{'week':>4s} {'panel':>6s} {'drop':>5s} {'Users_th':>9s} "
                 f"{'pairs':>7s} {'flagged':>8s} {'recovery':>8s}"]
        for w in self.weeks:
            lines.append(
                f"{w.week:4d} {w.active_users:6d} {w.dropouts:5d} "
                f"{w.users_threshold:9.2f} {w.pairs_classified:7d} "
                f"{w.flagged_targeted:8d} "
                f"{'yes' if w.recovery_round_used else 'no':>8s}")
        return "\n".join(lines)


class LongitudinalDeployment:
    """Runs the full system for many consecutive weeks with churn."""

    def __init__(self, config: Optional[SimulationConfig] = None,
                 detector_config: Optional[DetectorConfig] = None,
                 churn_rate: float = 0.15,
                 dropout_rate: float = 0.05,
                 seed: int = 0,
                 num_cliques: int = 1,
                 settings: Optional[SessionConfig] = None) -> None:
        if not 0.0 <= churn_rate < 1.0:
            raise ConfigurationError("churn_rate must be in [0, 1)")
        if not 0.0 <= dropout_rate < 1.0:
            raise ConfigurationError("dropout_rate must be in [0, 1)")
        self.config = config or SimulationConfig.small()
        self.detector_config = detector_config or DetectorConfig()
        self.churn_rate = churn_rate
        self.dropout_rate = dropout_rate
        self._rng = make_rng(seed)
        self.seed = seed
        #: Forwarded to the private session: blinding cliques (one
        #: aggregator per clique) and the session wiring, either backend.
        self.num_cliques = num_cliques
        settings = settings if settings is not None else SessionConfig()
        # The pipeline run() builds refuses these too, but only after
        # the simulation; refuse them here with its own checks.
        DetectionPipeline.check_arguments(self.detector_config, num_cliques,
                                          settings)
        self.settings = settings

    def _active_subset(self, user_ids: Sequence[str]) -> Set[str]:
        """This week's panel: each user inactive with churn probability.

        At least two users always stay active — below that the blinding
        protocol (pairwise shares) has no peers to cancel against.
        """
        active = {uid for uid in user_ids
                  if self._rng.random() >= self.churn_rate}
        if len(active) < 2:
            active = set(list(user_ids)[:2])
        return active

    def run(self, num_weeks: int) -> DeploymentLog:
        """Operate the deployment for ``num_weeks`` consecutive weeks."""
        if num_weeks < 1:
            raise ConfigurationError("num_weeks must be >= 1")
        # One continuous simulation provides the browsing + ad stream.
        sim_config = SimulationConfig(**{
            **self.config.__dict__, "num_weeks": num_weeks})
        result = Simulator(sim_config).run()
        all_users = [u.user_id for u in result.population]

        # One pipeline, hence one epoch session, for the whole run.
        pipeline = DetectionPipeline(
            detector_config=self.detector_config, private=True,
            enrollment_seed=self.seed, num_cliques=self.num_cliques,
            settings=self.settings)
        log = DeploymentLog()
        try:
            for week in range(num_weeks):
                active = self._active_subset(all_users)
                week_impressions = [imp for imp in result.impressions
                                    if imp.week == week
                                    and imp.user_id in active]
                if not week_impressions:
                    continue
                reporting_users = {imp.user_id for imp in week_impressions}
                # Sorted: set order varies with the process's hash seed.
                dropouts = {uid for uid in sorted(reporting_users)
                            if self._rng.random() < self.dropout_rate}
                # Keep at least two reporters so aggregation is meaningful.
                if len(reporting_users - dropouts) < 2:
                    dropouts = set()

                out = pipeline.run_week(week_impressions, week=week,
                                        dropouts=dropouts)
                transition = pipeline.last_transition
                log.weeks.append(WeeklyOpsReport(
                    week=week,
                    active_users=len(reporting_users),
                    dropouts=len(dropouts),
                    users_threshold=out.users_threshold,
                    pairs_classified=len(out.classified),
                    flagged_targeted=len(out.targeted),
                    recovery_round_used=out.round_result.recovery_round_used,
                    protocol_bytes=out.round_result.total_bytes,
                    rekeyed_users=(len(transition.rekeyed)
                                   if transition is not None else None)))
        finally:
            pipeline.close()
        return log
