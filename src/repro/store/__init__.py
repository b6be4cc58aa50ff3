"""``repro.store`` — durable round history for the detection protocol.

The paper's detection signal is longitudinal (weekly #Users aggregates
compared across windows), so rounds, epochs and verdicts must outlive
the process that computed them. This package provides:

* :mod:`repro.store.migrations` — numbered, versioned SQL migrations
  applied transactionally with a ``schema_version`` table; a legacy
  ``MetadataStore`` file is adopted in place at version 1.
* :class:`~repro.store.history.HistoryStore` — the typed DAO surface:
  sessions, epochs, rounds (full ``RoundSummary`` spec round-trips),
  detection verdicts, plus the legacy schema's weekly stats. A
  :class:`~repro.api.ProtocolSession` with an attached store writes
  every round and epoch to it as it happens, making
  :meth:`repro.api.ProtocolSession.resume` possible.

Longitudinal questions are answered from SQL, not recomputation::

    with HistoryStore("panel.db") as store:
        store.flagged_campaigns(since_week=12)
        store.round_history(epoch=3)
        store.trend("adnet.example/creative-7")
"""

from repro.store.history import (
    DetectionRecord,
    EpochRecord,
    FlaggedCampaign,
    HistoryStore,
    RoundRecord,
    SessionRecord,
    TrendPoint,
    WeeklyStatsRecord,
)
from repro.store.migrations import (
    HEAD_VERSION,
    MIGRATIONS,
    Migration,
    apply_migrations,
    schema_signature,
    schema_version,
)

__all__ = [
    "HistoryStore",
    "SessionRecord",
    "EpochRecord",
    "RoundRecord",
    "WeeklyStatsRecord",
    "DetectionRecord",
    "FlaggedCampaign",
    "TrendPoint",
    "Migration",
    "MIGRATIONS",
    "HEAD_VERSION",
    "apply_migrations",
    "schema_version",
    "schema_signature",
]
