"""Real-time ad auditing — the eyeWnder user experience (paper §2.2, §5).

The requirement: "a user should be able to request auditing of a
particular ad appearing in his browser, and the system should respond
within at most few seconds." The pieces that make this possible:

* the *local* side (#Domains counters, Domains_th) lives in the browser
  and updates on every impression — always current;
* the *global* side (#Users estimates, Users_th) comes from the most
  recent completed weekly aggregation round — a lookup, not a protocol
  run.

:class:`AuditService` wires a user's live counter to the operator's
latest :class:`~repro.protocol.spec.WeeklySnapshot` — built from a
session's last round, read back from a service's store, or fetched from
``GET /v1/snapshots/{week}`` — and answers per-ad audit queries
instantly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.detector import CountBasedDetector, DetectorConfig
from repro.errors import RoundStateError
from repro.protocol.spec import WeeklySnapshot
from repro.types import Ad, ClassifiedAd, Impression, Label


@dataclass(frozen=True)
class AuditAnswer:
    """What the extension shows the user after an audit request."""

    verdict: ClassifiedAd
    based_on_week: int
    explanation: str


class AuditService:
    """Per-user real-time audit endpoint.

    ``latest_snapshot`` returns the most recent completed round's
    :class:`~repro.protocol.spec.WeeklySnapshot` (None before the
    first); ``ad_id_of`` maps ad identities to the integer IDs the
    aggregate sketch is indexed by (the extension's OPRF cache in
    deployment).
    """

    def __init__(self, user_id: str,
                 latest_snapshot: Callable[[], Optional[WeeklySnapshot]],
                 ad_id_of: Callable[[str], int],
                 config: Optional[DetectorConfig] = None) -> None:
        self.user_id = user_id
        self.latest_snapshot = latest_snapshot
        self.ad_id_of = ad_id_of
        self.detector = CountBasedDetector(user_id, config)

    # ------------------------------------------------------------------
    # Live local state
    # ------------------------------------------------------------------
    def observe(self, impression: Impression) -> None:
        """Feed one impression into the local counters (on page load)."""
        self.detector.observe(impression)

    def new_window(self) -> None:
        """Reset local counters at a weekly boundary."""
        self.detector.counter.clear()

    # ------------------------------------------------------------------
    # Audit queries
    # ------------------------------------------------------------------
    def audit(self, ad: Ad) -> AuditAnswer:
        """Answer "is this ad targeted at me?" from current state."""
        snapshot = self.latest_snapshot()
        if snapshot is None:
            raise RoundStateError(
                "no aggregation round has completed yet; auditing needs at "
                "least one weekly snapshot")
        users_seen = float(snapshot.round_result.aggregate.query(
            self.ad_id_of(ad.identity)))
        verdict = self.detector.classify(
            ad, users_seen=users_seen,
            users_threshold=snapshot.users_threshold, week=snapshot.week)
        return AuditAnswer(verdict=verdict, based_on_week=snapshot.week,
                           explanation=self._explain(verdict))

    @staticmethod
    def _explain(verdict: ClassifiedAd) -> str:
        """A human-readable rationale, as the extension popup shows."""
        if verdict.label is Label.UNDECIDED:
            return ("Not enough browsing data yet: visit more ad-serving "
                    "sites this week for a reliable verdict.")
        follows = verdict.domains_seen > verdict.domains_threshold
        rare = verdict.users_seen < verdict.users_threshold
        if verdict.label is Label.TARGETED:
            return (f"TARGETED: this ad followed you across "
                    f"{verdict.domains_seen} sites (your typical ad: "
                    f"{verdict.domains_threshold:.1f}) while only "
                    f"~{verdict.users_seen:.0f} users saw it "
                    f"(typical: {verdict.users_threshold:.1f}).")
        if follows and not rare:
            return (f"NOT targeted: the ad does follow you "
                    f"({verdict.domains_seen} sites) but "
                    f"~{verdict.users_seen:.0f} users saw it — a broad "
                    f"campaign, not you specifically.")
        return (f"NOT targeted: seen on {verdict.domains_seen} site(s), "
                f"within your normal range "
                f"({verdict.domains_threshold:.1f}).")
