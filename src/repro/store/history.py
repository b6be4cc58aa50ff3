"""``HistoryStore`` — the typed DAO surface over the migrated schema.

One SQLite connection, one migration ladder (:mod:`repro.store.
migrations`), and typed records in and out: rounds persist as their
:class:`~repro.protocol.endpoint.RoundSummary` spec JSON (the PR-8
round-trip — reconstruction is bit-identical), epochs persist roster +
clique map + transition bookkeeping (everything
:meth:`repro.api.ProtocolSession.resume` needs), and detection verdicts
persist per (week, user, ad) so longitudinal questions — "which
campaigns were flagged since week N", "how did #Users trend for this
ad" — are answered by SQL instead of recomputation.

The store also carries the paper's metadata-database role: each week's
aggregate stats go to the ``weekly_stats`` table of the pre-migration
``MetadataStore`` schema, whose files are still adopted in place. (That
schema's ``users`` and ``crawler_sightings`` tables stay, so files at
rest still open; nothing writes them.)

Connection lifecycle matches the transport hardening from PR 6:
``close()`` is idempotent, the store is a context manager, and every
operation on a closed store raises :class:`~repro.errors.StoreError`
instead of a driver-specific surprise.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ProtocolError, StoreError
from repro.protocol.client import RoundConfig
from repro.protocol.spec import config_from_spec, config_to_spec
from repro.store.migrations import HEAD_VERSION, apply_migrations, schema_version

if TYPE_CHECKING:
    from repro.protocol.endpoint import RoundSummary
    from repro.protocol.runner import RoundResult
    from repro.types import ClassifiedAd


# ---------------------------------------------------------------------------
# Typed records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionRecord:
    """The enrollment identity of one persisted protocol session.

    Enrollment is deterministic in these fields (see
    :func:`~repro.protocol.enrollment.enroll_users`), which is what
    makes crash-resume possible: re-deriving key material from this
    record reproduces the exact DH pairs and pad streams.
    ``share_pad_streams`` is kept for stores written when sharing was
    optional; shared or not, every pad byte is the same, so it is not
    part of the identity.
    """

    name: str
    config: RoundConfig
    seed: int
    use_oprf: bool
    num_cliques: int
    share_pad_streams: bool = field(compare=False)
    client_backend: str = "objects"


@dataclass(frozen=True)
class EpochRecord:
    """One persisted epoch: the frozen snapshot plus how it was reached."""

    epoch_id: int
    first_round: int
    num_cliques: int
    roster: Tuple[str, ...]
    clique_of: Dict[str, int]
    joins: Tuple[str, ...] = ()
    leaves: Tuple[str, ...] = ()
    moved: Tuple[str, ...] = ()
    modexps: int = 0
    secrets_reused: int = 0
    secrets_dropped: int = 0


@dataclass(frozen=True)
class RoundRecord:
    """One persisted protocol round.

    ``summary_spec`` is the full :class:`~repro.protocol.endpoint.
    RoundSummary` JSON spec; :meth:`summary` reconstructs it
    bit-identically given the shared :class:`RoundConfig`.
    """

    session: str
    round_id: int
    epoch_id: int
    week: Optional[int]
    users_threshold: float
    num_reporting: int
    num_missing: int
    recovery_round_used: bool
    total_bytes: int
    total_messages: int
    summary_spec: Dict[str, Any]

    def summary(self, config: RoundConfig) -> "RoundSummary":
        """The round's :class:`RoundSummary`, aggregate cells exact."""
        from repro.protocol.spec import summary_from_spec

        return summary_from_spec(self.summary_spec, config)

    def result(self, config: RoundConfig) -> "RoundResult":
        """The round as a :class:`~repro.protocol.runner.RoundResult`
        (summary fields plus the persisted byte accounting)."""
        from repro.protocol.runner import RoundResult

        return RoundResult(**vars(self.summary(config)),
                           total_bytes=self.total_bytes,
                           total_messages=self.total_messages)


@dataclass(frozen=True)
class WeeklyStatsRecord:
    """One week's aggregate statistics (the ``weekly_stats`` row, typed)."""

    week: int
    users_threshold: float
    num_reporting: int
    num_missing: int
    distribution: Tuple[float, ...]


@dataclass(frozen=True)
class DetectionRecord:
    """One persisted detector verdict for a (week, user, ad) triple."""

    week: int
    user_id: str
    ad_identity: str
    label: str
    domains_seen: int
    users_seen: float
    domains_threshold: float
    users_threshold: float

    @property
    def is_targeted(self) -> bool:
        return self.label == "targeted"


@dataclass(frozen=True)
class FlaggedCampaign:
    """One row of the ``flagged_campaigns`` unified view."""

    ad_identity: str
    week: int
    flagged_users: int
    users_seen: float
    users_threshold: float


@dataclass(frozen=True)
class TrendPoint:
    """One week of an ad's longitudinal #Users trajectory."""

    week: int
    users_seen: float
    flagged_users: int
    users_threshold: float


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class HistoryStore:
    """SQLite-backed durable round history with a typed DAO surface.

    ``path=":memory:"`` (the default) keeps everything in process —
    what tests and one-shot simulations want; a file path gives crash
    durability. Opening a path applies any pending migrations (a legacy
    ``MetadataStore`` file is adopted at version 1 first), so every
    store handed out is at schema HEAD.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._closed = False
        # check_same_thread=False: the HTTP service plane records from
        # its request-handler threads. Its multi-threaded holder
        # (ServiceState) serializes store access under its ops lock,
        # which is the discipline sqlite3 actually needs.
        self._db: Optional[sqlite3.Connection] = sqlite3.connect(
            path, check_same_thread=False)
        try:
            apply_migrations(self._db)
        except BaseException:
            self._db.close()
            self._db = None
            self._closed = True
            raise

    # -- lifecycle ----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def version(self) -> int:
        """The schema version this store is at (HEAD after __init__)."""
        return schema_version(self._conn())

    def close(self) -> None:
        """Release the connection; idempotent, like every close() here."""
        if self._closed:
            return
        self._closed = True
        if self._db is not None:
            self._db.close()
            self._db = None

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _conn(self) -> sqlite3.Connection:
        if self._closed or self._db is None:
            raise StoreError(
                f"history store {self.path!r} is closed; operations on a "
                f"closed store are refused (open a new HistoryStore)"
            )
        return self._db

    # -- sessions -----------------------------------------------------------
    def record_session(self, record: SessionRecord) -> None:
        """Persist a session's enrollment identity (idempotent).

        Re-recording the *same* identity is a no-op (that is what a
        resume does); recording a *different* identity under an existing
        name raises — silently overwriting the enrollment parameters
        would make every later resume derive wrong key material.
        """
        existing = self.session_record(record.name)
        if existing is not None:
            if existing != record:
                raise StoreError(
                    f"session {record.name!r} is already recorded with a "
                    f"different enrollment identity; a persisted session's "
                    f"config/seed/clique layout is immutable (use a new "
                    f"session name)"
                )
            return
        conn = self._conn()
        with conn:
            conn.execute(
                "INSERT INTO sessions (name, config_json, seed, use_oprf, "
                "num_cliques, share_pad_streams, client_backend) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    record.name,
                    json.dumps(config_to_spec(record.config), sort_keys=True),
                    record.seed,
                    int(record.use_oprf),
                    record.num_cliques,
                    int(record.share_pad_streams),
                    record.client_backend,
                ),
            )

    def session_record(self, name: str) -> Optional[SessionRecord]:
        row = (
            self._conn()
            .execute(
                "SELECT config_json, seed, use_oprf, num_cliques, "
                "share_pad_streams, client_backend FROM sessions "
                "WHERE name = ?",
                (name,),
            )
            .fetchone()
        )
        if row is None:
            return None
        try:
            config = config_from_spec(json.loads(row[0]))
        except (ProtocolError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed round-config JSON: {exc}") from None
        return SessionRecord(
            name=name,
            config=config,
            seed=int(row[1]),
            use_oprf=bool(row[2]),
            num_cliques=int(row[3]),
            share_pad_streams=bool(row[4]),
            client_backend=str(row[5]),
        )

    def session_names(self) -> List[str]:
        rows = self._conn().execute("SELECT name FROM sessions ORDER BY name")
        return [str(r[0]) for r in rows.fetchall()]

    # -- epochs -------------------------------------------------------------
    def record_epoch(self, session: str, record: EpochRecord) -> None:
        """Persist one epoch snapshot (idempotent for identical records)."""
        existing = self._epoch_record(session, record.epoch_id)
        if existing is not None:
            if existing != record:
                raise StoreError(
                    f"epoch {record.epoch_id} of session {session!r} is "
                    f"already recorded with different membership; epochs "
                    f"are immutable once written"
                )
            return
        conn = self._conn()
        with conn:
            conn.execute(
                "INSERT INTO epochs (session, epoch_id, first_round, "
                "num_cliques, roster_json, clique_map_json, joins_json, "
                "leaves_json, moved_json, modexps, secrets_reused, "
                "secrets_dropped) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    session,
                    record.epoch_id,
                    record.first_round,
                    record.num_cliques,
                    json.dumps(list(record.roster)),
                    json.dumps(record.clique_of, sort_keys=True),
                    json.dumps(list(record.joins)),
                    json.dumps(list(record.leaves)),
                    json.dumps(list(record.moved)),
                    record.modexps,
                    record.secrets_reused,
                    record.secrets_dropped,
                ),
            )

    def _epoch_row_to_record(self, row: Tuple[Any, ...]) -> EpochRecord:
        return EpochRecord(
            epoch_id=int(row[0]),
            first_round=int(row[1]),
            num_cliques=int(row[2]),
            roster=tuple(json.loads(row[3])),
            clique_of={str(u): int(c) for u, c in json.loads(row[4]).items()},
            joins=tuple(json.loads(row[5])),
            leaves=tuple(json.loads(row[6])),
            moved=tuple(json.loads(row[7])),
            modexps=int(row[8]),
            secrets_reused=int(row[9]),
            secrets_dropped=int(row[10]),
        )

    _EPOCH_COLUMNS = (
        "epoch_id, first_round, num_cliques, roster_json, clique_map_json, "
        "joins_json, leaves_json, moved_json, modexps, secrets_reused, "
        "secrets_dropped"
    )

    def _epoch_record(self, session: str, epoch_id: int) -> Optional[EpochRecord]:
        row = (
            self._conn()
            .execute(
                f"SELECT {self._EPOCH_COLUMNS} FROM epochs "
                f"WHERE session = ? AND epoch_id = ?",
                (session, epoch_id),
            )
            .fetchone()
        )
        return None if row is None else self._epoch_row_to_record(row)

    def epoch_records(self, session: str) -> List[EpochRecord]:
        """Every persisted epoch of ``session``, in epoch order."""
        rows = self._conn().execute(
            f"SELECT {self._EPOCH_COLUMNS} FROM epochs "
            f"WHERE session = ? ORDER BY epoch_id",
            (session,),
        )
        return [self._epoch_row_to_record(row) for row in rows.fetchall()]

    # -- rounds -------------------------------------------------------------
    def record_round(
        self,
        session: str,
        result: "Union[RoundResult, RoundSummary]",
        epoch_id: int,
        week: Optional[int] = None,
    ) -> None:
        """Persist one completed round (idempotent for identical rows).

        Accepts a :class:`~repro.protocol.runner.RoundResult` or a bare
        :class:`~repro.protocol.endpoint.RoundSummary` (byte accounting
        then records as zero). A *different* result under an existing
        ``(session, round_id)`` raises: round ids are one-time (their
        pads are), so two distinct results for one id mean the session
        lineage diverged.
        """
        from repro.protocol.spec import summary_to_spec

        spec = summary_to_spec(result)
        total_bytes = int(getattr(result, "total_bytes", 0))
        total_messages = int(getattr(result, "total_messages", 0))
        existing = self.round_record(session, result.round_id)
        if existing is not None:
            same = (
                existing.summary_spec == spec
                and existing.epoch_id == epoch_id
                and existing.total_bytes == total_bytes
                and existing.total_messages == total_messages
            )
            if not same:
                raise StoreError(
                    f"round {result.round_id} of session {session!r} is "
                    f"already recorded with a different outcome; round ids "
                    f"(and their one-time pads) may not be reused"
                )
            if week is not None and existing.week != week:
                with self._conn() as conn:
                    conn.execute(
                        "UPDATE rounds SET week = ? "
                        "WHERE session = ? AND round_id = ?",
                        (week, session, result.round_id),
                    )
            return
        conn = self._conn()
        with conn:
            conn.execute(
                "INSERT INTO rounds (session, round_id, epoch_id, week, "
                "users_threshold, num_reporting, num_missing, "
                "recovery_round_used, total_bytes, total_messages, "
                "summary_json) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    session,
                    result.round_id,
                    epoch_id,
                    week,
                    float(result.users_threshold),
                    len(result.reported_users),
                    len(result.missing_users),
                    int(result.recovery_round_used),
                    total_bytes,
                    total_messages,
                    json.dumps(spec, sort_keys=True),
                ),
            )

    _ROUND_COLUMNS = (
        "session, round_id, epoch_id, week, users_threshold, num_reporting, "
        "num_missing, recovery_round_used, total_bytes, total_messages, "
        "summary_json"
    )

    def _round_row_to_record(self, row: Tuple[Any, ...]) -> RoundRecord:
        return RoundRecord(
            session=str(row[0]),
            round_id=int(row[1]),
            epoch_id=int(row[2]),
            week=None if row[3] is None else int(row[3]),
            users_threshold=float(row[4]),
            num_reporting=int(row[5]),
            num_missing=int(row[6]),
            recovery_round_used=bool(row[7]),
            total_bytes=int(row[8]),
            total_messages=int(row[9]),
            summary_spec=json.loads(row[10]),
        )

    def round_record(self, session: str, round_id: int) -> Optional[RoundRecord]:
        row = (
            self._conn()
            .execute(
                f"SELECT {self._ROUND_COLUMNS} FROM rounds "
                f"WHERE session = ? AND round_id = ?",
                (session, round_id),
            )
            .fetchone()
        )
        return None if row is None else self._round_row_to_record(row)

    def round_history(
        self,
        epoch: Optional[int] = None,
        session: Optional[str] = None,
        week: Optional[int] = None,
    ) -> List[RoundRecord]:
        """Persisted rounds, filtered by epoch / session / week.

        The longitudinal query surface: ``round_history(epoch=3)`` is
        every round that ran under epoch 3, straight from SQL.
        """
        clauses: List[str] = []
        params: List[Any] = []
        if epoch is not None:
            clauses.append("epoch_id = ?")
            params.append(epoch)
        if session is not None:
            clauses.append("session = ?")
            params.append(session)
        if week is not None:
            clauses.append("week = ?")
            params.append(week)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn().execute(
            f"SELECT {self._ROUND_COLUMNS} FROM rounds {where} "
            f"ORDER BY session, round_id",
            params,
        )
        return [self._round_row_to_record(row) for row in rows.fetchall()]

    def last_round_id(self, session: str) -> Optional[int]:
        """The highest persisted round id of ``session`` (None if none):
        the resume floor — pads up to and including it are spent."""
        row = (
            self._conn()
            .execute(
                "SELECT MAX(round_id) FROM rounds WHERE session = ?",
                (session,),
            )
            .fetchone()
        )
        return None if row is None or row[0] is None else int(row[0])

    # -- detection verdicts -------------------------------------------------
    def record_detections(
        self, week: int, classified: "Sequence[ClassifiedAd]"
    ) -> int:
        """Persist one window's detector verdicts; returns rows written.

        Idempotent per (week, user, ad): re-running a window replaces
        its verdicts (deterministic pipelines rewrite identical rows).
        """
        conn = self._conn()
        # Ad.identity and Label.value, read off the fields: no property
        # call per row.
        rows = [
            (
                week,
                call.user_id,
                call.ad.url or call.ad.content_hash,
                call.label._value_,
                int(call.domains_seen),
                float(call.users_seen),
                float(call.domains_threshold),
                float(call.users_threshold),
            )
            for call in classified
        ]
        with conn:
            conn.executemany(
                "INSERT OR REPLACE INTO detections (week, user_id, "
                "ad_identity, label, domains_seen, users_seen, "
                "domains_threshold, users_threshold) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        return len(rows)

    def detection_records(self, week: Optional[int] = None) -> List[DetectionRecord]:
        where = "" if week is None else "WHERE week = ?"
        params: Tuple[Any, ...] = () if week is None else (week,)
        rows = self._conn().execute(
            f"SELECT week, user_id, ad_identity, label, domains_seen, "
            f"users_seen, domains_threshold, users_threshold "
            f"FROM detections {where} ORDER BY week, user_id, ad_identity",
            params,
        )
        return [
            DetectionRecord(
                week=int(r[0]),
                user_id=str(r[1]),
                ad_identity=str(r[2]),
                label=str(r[3]),
                domains_seen=int(r[4]),
                users_seen=float(r[5]),
                domains_threshold=float(r[6]),
                users_threshold=float(r[7]),
            )
            for r in rows.fetchall()
        ]

    def flagged_campaigns(self, since_week: int = 0) -> List[FlaggedCampaign]:
        """Campaigns flagged in week ``since_week`` or later — one SQL
        SELECT over the unified view, no round recomputation."""
        rows = self._conn().execute(
            "SELECT ad_identity, week, flagged_users, users_seen, "
            "users_threshold FROM flagged_campaigns WHERE week >= ? "
            "ORDER BY week, ad_identity",
            (since_week,),
        )
        return [
            FlaggedCampaign(
                ad_identity=str(r[0]),
                week=int(r[1]),
                flagged_users=int(r[2]),
                users_seen=float(r[3]),
                users_threshold=float(r[4]),
            )
            for r in rows.fetchall()
        ]

    def trend(self, ad_identity: str) -> List[TrendPoint]:
        """An ad's week-by-week #Users estimate and flag count, from the
        persisted verdicts (undecided weeks included, flagged count 0)."""
        rows = self._conn().execute(
            "SELECT week, MAX(users_seen), "
            "SUM(CASE WHEN label = 'targeted' THEN 1 ELSE 0 END), "
            "MAX(users_threshold) FROM detections WHERE ad_identity = ? "
            "GROUP BY week ORDER BY week",
            (ad_identity,),
        )
        return [
            TrendPoint(
                week=int(r[0]),
                users_seen=float(r[1]),
                flagged_users=int(r[2]),
                users_threshold=float(r[3]),
            )
            for r in rows.fetchall()
        ]

    # -- weekly aggregates (typed DAO replacing the ad-hoc dicts) -----------
    def save_weekly_record(self, record: WeeklyStatsRecord) -> None:
        conn = self._conn()
        with conn:
            conn.execute(
                "INSERT OR REPLACE INTO weekly_stats VALUES (?, ?, ?, ?, ?)",
                (
                    record.week,
                    record.users_threshold,
                    record.num_reporting,
                    record.num_missing,
                    json.dumps(list(record.distribution)),
                ),
            )

    def recorded_weeks(self) -> List[int]:
        rows = self._conn().execute("SELECT week FROM weekly_stats ORDER BY week")
        return [int(r[0]) for r in rows.fetchall()]


#: Re-exported for callers that assert against it.
HEAD_SCHEMA_VERSION = HEAD_VERSION
