"""End-to-end detection pipeline: impression log in, labels out.

Two modes differing only in where the global #Users statistic comes from:

* **cleartext** — the exact :class:`GlobalUserCounter`; this is the
  evaluation oracle ("Actual" in the paper's Figure 2);
* **private** — the full §6 machinery: every user is enrolled with DH
  blinding keys, encodes its ads into a blinded CMS, a
  :class:`repro.api.ProtocolSession` runs the message-driven round
  (per-clique aggregator fan-out by default), and #Users values are CMS
  estimates ("CMS" in Figure 2).

The detector code is identical in both modes; only the counter source
changes, which is exactly the claim Figure 2 supports.

Across windows the private mode follows the epoch lifecycle
(:mod:`repro.protocol.membership`): the pipeline keeps one
:class:`~repro.api.ProtocolSession` alive and turns each window's
population delta into ``advance_epoch(joins=..., leaves=...)`` — users
present in consecutive windows keep their keys and pair secrets instead
of re-running the full DH enrollment per window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple, Union

from repro.api import ProtocolSession, SessionConfig
from repro.core.counters import (
    GlobalUserCounter,
    UserDomainCounter,
    count_window,
)
from repro.core.detector import CountBasedDetector, DetectorConfig
from repro.errors import ConfigurationError
from repro.protocol.client import RoundConfig
from repro.protocol.endpoint import mean_threshold
from repro.protocol.enrollment import MAX_CLIQUES
from repro.protocol.membership import EpochTransition
from repro.protocol.runner import RoundResult
from repro.statsutil.distributions import EmpiricalDistribution
from repro.store.history import HistoryStore, WeeklyStatsRecord
from repro.types import ClassifiedAd, Impression


@dataclass
class PipelineResult:
    """Classification output of one weekly window."""

    week: int
    classified: List[ClassifiedAd]
    users_threshold: float
    users_distribution: EmpiricalDistribution
    private: bool
    round_result: Optional[RoundResult] = None

    @property
    def targeted(self) -> List[ClassifiedAd]:
        return [c for c in self.classified if c.is_targeted]


class DetectionPipeline:
    """Runs the count-based algorithm over weekly impression logs."""

    def __init__(self, detector_config: Optional[DetectorConfig] = None,
                 private: bool = False,
                 round_config: Optional[RoundConfig] = None,
                 use_oprf: bool = False,
                 enrollment_seed: int = 0,
                 num_cliques: int = 1,
                 settings: Optional[SessionConfig] = None,
                 store: "Union[HistoryStore, str, None]" = None,
                 session_name: str = "pipeline") -> None:
        settings = settings if settings is not None else SessionConfig()
        self.detector_config = detector_config or DetectorConfig()
        self.check_arguments(self.detector_config, num_cliques, settings)
        self.private = private
        self.round_config = round_config
        self.use_oprf = use_oprf
        self.enrollment_seed = enrollment_seed
        #: Blinding cliques per private round (paper §6 scaling lever):
        #: keystream work drops from Θ(U²·cells) to Θ((U/k)·U·cells) with
        #: a bit-identical aggregate. Clamped per window so every clique
        #: keeps at least two members.
        self.num_cliques = num_cliques
        #: Wiring of every private session (see
        #: :class:`repro.api.SessionConfig`), forwarded as given except
        #: for what the pipeline owns: the threshold rule is the
        #: detector's ``users_rule`` (a different rule in ``settings``
        #: is refused above rather than ignored). A named transport is
        #: built (and owned) afresh by each session, so a socket
        #: transport's TCP pair is closed whenever the session is
        #: replaced or the pipeline closed; a transport *instance* stays
        #: the caller's.
        self.settings = replace(
            settings, threshold_rule=self.detector_config.users_rule.compute)
        #: The persistent epoch session reused across windows: when the
        #: next window's population differs, the roster delta becomes an
        #: ``advance_epoch(joins=..., leaves=...)`` instead of a full
        #: re-enrollment.
        self._session: Optional[ProtocolSession] = None
        self._session_key = None
        #: Derived-config pin: without an explicit ``round_config`` the
        #: CMS is sized from the first window's ad volume and *kept* for
        #: later windows (re-derived with headroom only when the volume
        #: outgrows it) — per-window re-sizing would change the session
        #: key every window and silently defeat epoch reuse.
        self._derived_config: Optional[RoundConfig] = None
        self._derived_for_ads = 0
        #: Pipeline-lifetime round-id floor. A fresh session (the
        #: rebuild after an unservable delta) restarts its own counter
        #: at 0, but same-seed re-enrollments of the same roster derive
        #: the *same* pair secrets — replaying round ids across windows
        #: would reuse one-time pads. Every window's round runs at or
        #: above this floor.
        self._round_floor = 0
        #: The last window's epoch transition (None when the window ran
        #: in the session's existing epoch or on a fresh enrollment).
        self.last_transition: Optional[EpochTransition] = None
        #: Durable round history (:class:`~repro.store.HistoryStore`, or
        #: a path to open one). When set, every private round and epoch
        #: persists through the session, and every window's stats and
        #: detection verdicts land in SQL. The store outlives individual
        #: session generations (a re-enrollment starts a new recorded
        #: lineage), so the pipeline hands each session the open store
        #: and closes it itself — but only if it opened it from a path.
        self._owns_store = isinstance(store, str)
        self._store: Optional[HistoryStore] = (
            HistoryStore(store) if isinstance(store, str) else store)
        self.session_name = session_name
        #: Fresh re-enrollments start a new session lineage in the
        #: store; the generation counter keeps their names distinct
        #: (``pipeline``, ``pipeline#g1``, ``pipeline#g2``, ...).
        self._session_gen = 0

    @staticmethod
    def check_arguments(detector_config: DetectorConfig, num_cliques: int,
                        settings: SessionConfig) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` for a
        ``num_cliques`` the wire format cannot carry, or a
        ``settings.threshold_rule`` the pipeline would ignore (it
        thresholds with the detector's ``users_rule``). The constructor's
        checks, for a caller that builds its pipeline later."""
        if isinstance(num_cliques, bool) or not isinstance(num_cliques, int):
            raise ConfigurationError(
                f"num_cliques must be an int, got {num_cliques!r}")
        if num_cliques < 1:
            raise ConfigurationError(
                f"num_cliques must be >= 1, got {num_cliques}")
        if num_cliques > MAX_CLIQUES:
            raise ConfigurationError(
                f"num_cliques {num_cliques} exceeds the wire format's "
                f"clique-id range (max {MAX_CLIQUES})")
        users_rule = detector_config.users_rule
        if settings.threshold_rule not in (mean_threshold,
                                           users_rule.compute):
            raise ConfigurationError(
                f"the pipeline thresholds with the detector's users_rule "
                f"(ThresholdRule.{users_rule.name}) and would ignore "
                f"settings.threshold_rule; set detector_config.users_rule "
                f"instead")

    @property
    def session(self) -> Optional[ProtocolSession]:
        """The persistent private-mode epoch session (None before the
        first private window)."""
        return self._session

    @property
    def store(self) -> Optional[HistoryStore]:
        """The attached durable history store (None when not recording)."""
        return self._store

    # ------------------------------------------------------------------
    @staticmethod
    def default_round_config(num_unique_ads: int) -> RoundConfig:
        """Size the CMS and ID space from the observed ad volume.

        The paper overestimates |A| (10x ID space here) and uses
        delta = epsilon = 0.001 for the sketch (§7.1), which keeps the
        total insertion load per column low enough that the min-estimator
        barely overcounts — the property Figure 2 demonstrates.

        Multi-window epoch runs should compute this once over the whole
        deployment's expected ad volume and pass it as ``round_config``:
        a fixed config is what lets the persistent session survive from
        window to window.
        """
        id_space = max(64, num_unique_ads * 10)
        from repro.sketch.countmin import CountMinSketch
        probe = CountMinSketch.from_error_bounds(
            epsilon=0.001, delta=0.001,
            expected_items=max(num_unique_ads, 16))
        return RoundConfig(cms_depth=probe.depth, cms_width=probe.width,
                           cms_seed=7, id_space=id_space)

    def _window_config(self, num_unique_ads: int) -> RoundConfig:
        """This window's round config: explicit > pinned > derived.

        The first private window derives the exact pre-epoch sizing;
        later windows reuse it while their ad volume fits (the sketch
        and ID space were sized for at least this many ads), and a
        window that outgrows it re-derives with 25% headroom so steady
        growth does not re-enroll every single window.
        """
        if self.round_config is not None:
            return self.round_config
        if self._derived_config is not None \
                and num_unique_ads <= self._derived_for_ads:
            return self._derived_config
        sized_for = num_unique_ads if self._derived_config is None \
            else num_unique_ads + num_unique_ads // 4
        self._derived_config = self.default_round_config(sized_for)
        self._derived_for_ads = sized_for
        return self._derived_config

    def _fresh_session(self, user_ids: Sequence[str], config: RoundConfig,
                       cliques: int) -> ProtocolSession:
        """Epoch-0 enrollment of one window's population."""
        # Each fresh enrollment is a new lineage in the store, named by
        # generation; the store itself is shared across them (and owned
        # by the pipeline, not any one session).
        name = self.session_name
        if self._store is not None:
            if self._session_gen:
                name = f"{name}#g{self._session_gen}"
            self._session_gen += 1
        return ProtocolSession.create(
            user_ids, config, self.settings, seed=self.enrollment_seed,
            use_oprf=self.use_oprf, num_cliques=cliques,
            store=self._store, store_name=name)

    def _session_for(self, user_ids: Sequence[str], config: RoundConfig,
                     cliques: int) -> ProtocolSession:
        """The window's session: reuse the persistent epoch session when
        possible, advancing its epoch by the roster delta; fall back to
        a fresh epoch-0 enrollment otherwise.
        """
        self.last_transition = None
        # Prefer the live session's clique count whenever the window's
        # population still supports it: re-sharding to a different k
        # cannot reuse key material, so a population oscillating around
        # a clamp boundary must not flap between layouts (each flap
        # would silently re-run full enrollment). The pin is not a
        # one-way ratchet, though — once the population *comfortably*
        # supports a larger configured k (>= 4 members per clique, 2x
        # the hard floor, as flap hysteresis), the sharding speedup is
        # worth one re-enrollment.
        if self._session is not None and self._session_key is not None \
                and self._session_key[0] == config:
            pinned_cliques = self._session_key[1]
            supports_pinned = (pinned_cliques == 1
                               or len(user_ids) >= 2 * pinned_cliques)
            upgrade = (cliques > pinned_cliques
                       and len(user_ids) >= 4 * cliques)
            if supports_pinned and not upgrade:
                cliques = pinned_cliques
        key = (config, cliques)
        session = self._session
        if session is not None and self._session_key == key:
            roster = set(session.membership.roster)
            joins = sorted(set(user_ids) - roster)
            leaves = sorted(roster - set(user_ids))
            if not joins and not leaves:
                return session
            try:
                self.last_transition = session.advance_epoch(
                    joins=joins, leaves=leaves)
                return session
            except ConfigurationError:
                # Roster delta the clique layout cannot absorb (e.g. the
                # window shrank below 2 members/clique): re-enroll.
                self.last_transition = None
        if self._session is not None:
            # The replaced session may own a socket transport.
            self._session.close()
        self._session = self._fresh_session(user_ids, config, cliques)
        self._session_key = key
        return self._session

    def close(self) -> None:
        """Release the persistent session's socket transport and, when
        this pipeline opened the history store from a path, the store
        too. Idempotent."""
        if self._session is not None:
            self._session.close()
            self._session = None
            self._session_key = None
        if self._store is not None and self._owns_store:
            self._store.close()

    def _global_from_protocol(
            self, counters: Dict[str, UserDomainCounter], week: int,
            dropouts: Collection[str]
    ) -> Tuple[Callable[[str], float], EmpiricalDistribution, float,
               RoundResult]:
        user_ids = list(counters)
        all_identities = {identity for counter in counters.values()
                          for identity in counter.ads}
        config = self._window_config(len(all_identities))
        # Clamp so every clique has >= 2 members in this window's
        # population (a singleton clique would report unblinded).
        cliques = max(1, min(self.num_cliques, len(user_ids) // 2))
        session = self._session_for(user_ids, config, cliques)
        # Persisted rounds carry their window index.
        session.week = week
        session.reset_windows()
        # Each user hands its window's ads over in one call; each client
        # maps and hashes its own (a separate device in deployment).
        if session.army is not None:
            for user_id, counter in counters.items():
                session.army.observe_ads(user_id, counter.ads)
        else:
            clients_by_id = {c.user_id: c for c in session.clients}
            for user_id, counter in counters.items():
                clients_by_id[user_id].observe_ads(counter.ads)
        # One round per window (§4.2), billed its own traffic (§7.1).
        # Round ids are session-monotonic (never reused across epochs —
        # the pads are one-time). The week index feeds the floor too:
        # *independent* pipelines (e.g. a fresh pipeline per week)
        # with the same enrollment seed derive identical pair secrets,
        # and only the week number distinguishes their windows.
        round_id = max(session.next_round, self._round_floor, week)
        # The window's dropouts crash before reporting, this round only.
        session.drop_users(dropouts)
        try:
            round_result = session.run_round(round_id)
        finally:
            session.restore_users(dropouts)
        self._round_floor = round_id + 1

        # The panel's one mapper, whichever backend hosts it: under OPRF
        # observation already mapped every identity, so these are hits.
        mapper = session.membership.ad_mapper

        # Batch the aggregate lookups: one query_many over every identity
        # seen this window instead of id-space scalar queries per ad.
        identities = sorted(all_identities)
        ad_ids = [mapper.ad_id(identity) for identity in identities]
        estimates = round_result.aggregate.query_many(ad_ids)
        estimate_of = {identity: float(estimate) for identity, estimate
                       in zip(identities, estimates.tolist())}
        return (estimate_of.__getitem__, round_result.distribution,
                round_result.users_threshold, round_result)

    # ------------------------------------------------------------------
    def run_week(self, impressions: Sequence[Impression], week: int = 0,
                 dropouts: Collection[str] = ()) -> PipelineResult:
        """Classify every (user, ad) pair in one weekly impression log."""
        from repro.types import TICKS_PER_WEEK
        return self.run_window(impressions, index=week,
                               window_ticks=TICKS_PER_WEEK,
                               dropouts=dropouts)

    def run_window(self, impressions: Sequence[Impression], index: int = 0,
                   window_ticks: Optional[int] = None,
                   dropouts: Collection[str] = ()) -> PipelineResult:
        """Classify one window of arbitrary length.

        The paper fixes the window at seven days (§4.2); shorter windows
        starve the activity gate and the repetition signal, longer ones
        mix in faded campaigns and delay reporting. ``dropouts`` crash
        before reporting in this window's private round only; the
        cleartext oracle has no round and refuses them.
        """
        from repro.types import TICKS_PER_WEEK
        if dropouts and not self.private:
            raise ConfigurationError("the cleartext pipeline has no round to drop out of")
        if window_ticks is None:
            window_ticks = TICKS_PER_WEEK
        if window_ticks <= 0:
            raise ConfigurationError(
                f"window_ticks must be positive, got {window_ticks}")
        week = index
        week_impressions = [imp for imp in impressions
                            if imp.tick // window_ticks == index]
        if not week_impressions:
            raise ConfigurationError(
                f"no impressions fall in window {index}")

        # One pass over the window: every user's local counters (and,
        # in cleartext, the exact #Users) for the private path and the
        # detector alike.
        users_seen_of: Callable[[str], float]
        round_result: Optional[RoundResult] = None
        if self.private:
            counters = count_window(week_impressions)
            users_seen_of, distribution, threshold, round_result = \
                self._global_from_protocol(counters, week, dropouts)
        else:
            users = GlobalUserCounter()
            counters = count_window(week_impressions, users)
            distribution = users.distribution()
            threshold = self.detector_config.users_rule.compute(distribution)
            users_seen_of = users.users_seen

        classified: List[ClassifiedAd] = []
        for user_id, counter in counters.items():
            detector = CountBasedDetector(user_id, self.detector_config,
                                          counter)
            classified.extend(detector.classify_all(
                counter.ads.values(), users_seen_of, threshold, week))

        if self._store is not None:
            # Persist this window's longitudinal record: every verdict
            # (the `detections` table behind flagged_campaigns / trend)
            # plus the week's aggregate stats. The round itself was
            # already recorded by the session.
            self._store.record_detections(week, classified)
            if round_result is not None:
                num_reporting = len(round_result.reported_users)
                num_missing = len(round_result.missing_users)
            else:
                num_reporting = len(counters)
                num_missing = 0
            self._store.save_weekly_record(WeeklyStatsRecord(
                week=week, users_threshold=threshold,
                num_reporting=num_reporting, num_missing=num_missing,
                distribution=tuple(distribution.values)))

        return PipelineResult(
            week=week, classified=classified, users_threshold=threshold,
            users_distribution=distribution, private=self.private,
            round_result=round_result)
