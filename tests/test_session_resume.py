"""Crash-resumable sessions and the consolidated session factory.

The tentpole guarantees pinned here:

* ``ProtocolSession.create`` is the one constructor path (the old
  classmethods are warning shims over it);
* a session attached to a :class:`~repro.store.HistoryStore` persists
  its lineage as it happens, and ``ProtocolSession.resume`` rebuilds a
  crashed session whose next round is **bit-identical** to the round an
  uninterrupted session would have run — same aggregate, same wire
  bytes (pads stay one-time because enrollment and epoch replay are
  deterministic and the round counter resumes past every used id).
"""

import functools
import hashlib

import pytest

from repro.api import ProtocolSession, SessionConfig
from repro.errors import ConfigurationError, StoreError
from repro.protocol.army import ClientArmy
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.protocol.membership import MembershipManager
from repro.protocol.transport import WireTransport
from repro.store import HistoryStore

CONFIG = RoundConfig(cms_depth=2, cms_width=128, cms_seed=9, id_space=1024)
USERS = [f"u{i:02d}" for i in range(12)]


class HashingTransport(WireTransport):
    """Wire transport that fingerprints every shipped message."""

    def __init__(self):
        super().__init__()
        self.hashes = []

    def _ship(self, mailbox, sender, recipient, encoded):
        self.hashes.append(hashlib.sha256(encoded).hexdigest())
        super()._ship(mailbox, sender, recipient, encoded)


def _observe_week(session, week):
    """Deterministic per-(user, week) observations, windows reset first
    (windows are in-memory state, not persisted — each window re-observes,
    exactly the pipeline's cadence). Feeds whichever client backend the
    session hosts."""
    session.reset_windows()
    if session.army is not None:
        observe_of = {uid: functools.partial(session.army.observe_ad, uid)
                      for uid in session.army.user_ids}
    else:
        observe_of = {c.user_id: c.observe_ad for c in session.clients}
    for user_id in sorted(observe_of):
        for k in range(3):
            observe_of[user_id](f"http://ads.example/w{week}/{user_id}/{k}")


class TestSessionConfigValidation:
    def test_defaults_are_valid(self):
        settings = SessionConfig()
        assert settings.fan_in is None
        assert settings.client_backend == "objects"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fan_in": 1},
            {"transport": "carrier-pigeon"},
            {"client_backend": "quantum"},
            {"fan_in": 0},
            {"fan_in": -3},
            {"fan_in": 2.5},
            {"fan_in": "4"},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SessionConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            pytest.param(
                {"fan_in": 1}, "fan_in must be >= 2", id="fan-in-one"
            ),
            pytest.param(
                {"fan_in": 0}, "fan_in must be >= 2", id="fan-in-zero"
            ),
            pytest.param(
                {"fan_in": -3}, "fan_in must be >= 2", id="fan-in-negative"
            ),
            pytest.param(
                {"fan_in": 2.5}, "fan_in must be an int", id="fan-in-float"
            ),
            pytest.param(
                {"fan_in": "4"}, "fan_in must be an int", id="fan-in-str"
            ),
            pytest.param(
                {"fan_in": True}, "fan_in must be an int", id="fan-in-bool"
            ),
            pytest.param(
                {"transport": "carrier-pigeon"},
                "unknown transport",
                id="unknown-transport",
            ),
            pytest.param(
                {"transport": 42},
                "unknown transport",
                id="transport-not-an-instance",
            ),
            pytest.param(
                {"threshold_rule": lambda dist: 1.0},
                "one of the named rules",
                id="unnamed-rule",
            ),
        ],
    )
    def test_bad_combination_rejected_before_enrollment(
        self, kwargs, message, monkeypatch
    ):
        """Every population-independent check fires at the edge —
        ``SessionConfig(...)`` — so ``create(user_ids, ...)`` cannot
        spend the DH enrollment first (it used to, for these)."""

        def enrollment_reached(*args, **kw):
            raise AssertionError("enrollment work was spent")

        monkeypatch.setattr("repro.api.enroll_users", enrollment_reached)
        monkeypatch.setattr(ClientArmy, "enroll", enrollment_reached)
        with pytest.raises(ConfigurationError, match=message):
            SessionConfig(**kwargs)
        for backend in ("objects", "batched"):
            with pytest.raises(ConfigurationError, match=message):
                ProtocolSession.create(
                    USERS[:4],
                    CONFIG,
                    SessionConfig(client_backend=backend, **kwargs),
                    seed=1,
                )


class TestCreateFactory:
    def test_create_from_user_ids(self):
        session = ProtocolSession.create(USERS[:4], CONFIG, seed=1)
        try:
            assert sorted(c.user_id for c in session.clients) == USERS[:4]
            assert session.membership is not None
        finally:
            session.close()

    def test_create_from_user_ids_needs_config(self):
        with pytest.raises(ConfigurationError, match="config"):
            ProtocolSession.create(USERS[:4])

    def test_create_from_enrollment(self):
        enrollment = enroll_users(USERS[:4], CONFIG, seed=1)
        session = ProtocolSession.create(enrollment)
        try:
            assert session.epoch.epoch_id == 0
        finally:
            session.close()

    def test_create_from_membership(self):
        manager = MembershipManager.enroll(USERS[:4], CONFIG, seed=1)
        session = ProtocolSession.create(manager)
        try:
            assert session.membership is manager
        finally:
            session.close()

    def test_enroll_kwargs_rejected_for_preenrolled_source(self):
        enrollment = enroll_users(USERS[:4], CONFIG, seed=1)
        with pytest.raises(ConfigurationError, match="already enrolled"):
            ProtocolSession.create(enrollment, seed=7)

    def test_batched_backend(self):
        session = ProtocolSession.create(
            USERS[:6],
            CONFIG,
            SessionConfig(client_backend="batched"),
            seed=1,
            num_cliques=2,
        )
        try:
            assert session.army is not None
            assert session.membership.army is session.army
        finally:
            session.close()


class TestAttachRules:
    def test_attach_records_identity_and_epoch_zero(self):
        store = HistoryStore()
        session = ProtocolSession.create(
            USERS[:4], CONFIG, store=store, store_name="s", seed=2
        )
        try:
            record = store.session_record("s")
            assert record is not None
            assert record.seed == 2
            epochs = store.epoch_records("s")
            assert [e.epoch_id for e in epochs] == [0]
            assert epochs[0].roster == tuple(USERS[:4])
        finally:
            session.close()
            store.close()

    @pytest.mark.parametrize("backend", ["objects", "batched"])
    def test_stored_row_marks_pad_sharing_on_either_backend(self, backend):
        """The legacy ``share_pad_streams`` column is written 1 for every
        session, whichever backend hosts its clients."""
        store = HistoryStore()
        session = ProtocolSession.create(
            USERS[:4], CONFIG, SessionConfig(client_backend=backend),
            store=store, store_name="s", seed=2)
        try:
            assert store.session_record("s").share_pad_streams is True
        finally:
            session.close()
            store.close()

    def test_close_closes_the_store_exactly_when_it_opened_it(self, tmp_path):
        """One ownership rule on every entry point: a store instance
        stays the caller's, a path is opened and closed by the session."""

        def attach(store):
            session = ProtocolSession.create(USERS[:4], CONFIG, seed=2)
            session.attach_store(store, name="a")
            return session

        entry_points = {
            "create": lambda store: ProtocolSession.create(
                USERS[:4], CONFIG, store=store, store_name="c", seed=2),
            "resume": lambda store: ProtocolSession.resume(store, name="c"),
            "attach_store": attach,
        }
        path = str(tmp_path / "history.db")
        for entry, open_session in entry_points.items():
            with HistoryStore(path) as store:
                open_session(store).close()
                assert not store.closed, entry
                assert "c" in store.session_names()
            session = open_session(path)
            opened = session.store
            session.close()
            assert opened.closed, entry

    def test_double_attach_refused(self):
        store = HistoryStore()
        session = ProtocolSession.create(
            USERS[:4], CONFIG, store=store, store_name="s", seed=2,
        )
        try:
            with pytest.raises(ConfigurationError, match="already"):
                session.attach_store(store, name="other")
        finally:
            session.close()
            store.close()

    def test_attach_past_epoch_zero_with_empty_store_refused(self):
        session = ProtocolSession.create(USERS[:6], CONFIG, seed=2)
        try:
            session.advance_epoch(joins=["zz1"])
            with HistoryStore() as store:
                with pytest.raises(StoreError, match="epoch"):
                    session.attach_store(store, name="s")
        finally:
            session.close()

    def test_conflicting_identity_refused(self):
        with HistoryStore() as store:
            first = ProtocolSession.create(
                USERS[:4], CONFIG, store=store, store_name="s", seed=2,
            )
            first.close()
            second = ProtocolSession.create(USERS[:4], CONFIG, seed=3)
            try:
                with pytest.raises(StoreError, match="different"):
                    second.attach_store(store, name="s")
            finally:
                second.close()

    def test_resume_unknown_session_lists_names(self):
        with HistoryStore() as store:
            session = ProtocolSession.create(
                USERS[:4], CONFIG, store=store, store_name="real", seed=2,
            )
            session.close()
            with pytest.raises(StoreError, match="real"):
                ProtocolSession.resume(store, name="ghost")

    def test_batched_lineage_resumes_as_batched(self):
        """The store's recorded backend wins: ``settings.client_backend``
        only picks a representation when ``create`` enrolls, so a
        batched lineage resumes on an army even under default
        (``"objects"``) settings."""
        with HistoryStore() as store:
            session = ProtocolSession.create(
                USERS[:6],
                CONFIG,
                SessionConfig(client_backend="batched"),
                store=store,
                store_name="army",
                seed=2,
            )
            session.close()
            resumed = ProtocolSession.resume(
                store,
                name="army",
                settings=SessionConfig(client_backend="objects"),
            )
            try:
                assert resumed.army is not None
                assert resumed.clients == []
                assert resumed.membership.client_backend == "batched"
                assert resumed.membership.roster == tuple(USERS[:6])
            finally:
                resumed.close()


class TestCrashResumeBitIdentity:
    """Kill mid-epoch, resume, and the completed round is bit-identical
    to the round an uninterrupted session runs — aggregate cells AND
    every message's wire bytes."""

    @pytest.mark.parametrize(
        "client_backend,num_cliques",
        [
            pytest.param("objects", 1, id="1"),
            pytest.param("objects", 4, id="4"),
            pytest.param("batched", 1, id="batched-1"),
            pytest.param("batched", 4, id="batched-4"),
        ],
    )
    def test_resumed_round_bit_identical(self, client_backend, num_cliques):
        store = HistoryStore()
        recorded = ProtocolSession.create(
            USERS,
            CONFIG,
            SessionConfig(client_backend=client_backend),
            store=store,
            store_name="s",
            seed=5,
            num_cliques=num_cliques,
        )
        _observe_week(recorded, 0)
        recorded.run_round(0)
        # Mid-epoch churn, then one more round — the crash happens with
        # a post-churn epoch live.
        recorded.advance_epoch(joins=["zz1", "zz2"], leaves=[USERS[0]])
        _observe_week(recorded, 1)
        recorded.run_round(1)
        del recorded  # crash: no close(), nothing flushed beyond the store

        resumed = ProtocolSession.resume(
            store,
            name="s",
            settings=SessionConfig(transport=HashingTransport()),
        )
        try:
            assert resumed.membership.client_backend == client_backend
            assert (resumed.army is not None) == (client_backend == "batched")
            assert resumed.epoch.epoch_id == 1
            assert resumed.next_round == 2
            assert sorted(resumed.membership.roster) == sorted(
                USERS[1:] + ["zz1", "zz2"]
            )
            _observe_week(resumed, 2)
            resumed_result = resumed.run_round(2)
            resumed_hashes = sorted(resumed.transport.hashes)
        finally:
            resumed.close()

        # The uninterrupted reference: same lineage, never crashed.
        reference = ProtocolSession.create(
            USERS,
            CONFIG,
            SessionConfig(
                transport=HashingTransport(), client_backend=client_backend
            ),
            seed=5,
            num_cliques=num_cliques,
        )
        try:
            _observe_week(reference, 0)
            reference.run_round(0)
            reference.advance_epoch(joins=["zz1", "zz2"], leaves=[USERS[0]])
            _observe_week(reference, 1)
            reference.run_round(1)
            reference.transport.hashes.clear()
            _observe_week(reference, 2)
            reference_result = reference.run_round(2)
            reference_hashes = sorted(reference.transport.hashes)
        finally:
            reference.close()

        assert resumed_result.aggregate.cells == reference_result.aggregate.cells
        assert resumed_result.users_threshold == reference_result.users_threshold
        assert (
            resumed_result.distribution.values
            == reference_result.distribution.values
        )
        assert resumed_hashes == reference_hashes
        # And the store's own copy of the round is the same bytes again.
        record = store.round_record("s", 2)
        assert record is not None
        stored = record.result(CONFIG)
        assert stored.aggregate.cells == resumed_result.aggregate.cells
        store.close()

    def test_resume_continues_recording_and_epochs(self):
        with HistoryStore() as store:
            first = ProtocolSession.create(
                USERS[:8], CONFIG, store=store, store_name="s", seed=5,
                num_cliques=2,
            )
            _observe_week(first, 0)
            first.run_round(0)
            del first

            resumed = ProtocolSession.resume(store, name="s")
            try:
                transition = resumed.advance_epoch(joins=["zz9"])
                assert transition.epoch.epoch_id == 1
                _observe_week(resumed, 1)
                resumed.run_round(1)
            finally:
                resumed.close()
            assert [e.epoch_id for e in store.epoch_records("s")] == [0, 1]
            assert [r.round_id for r in store.round_history(session="s")] == [
                0,
                1,
            ]

            # A second crash-resume replays the longer lineage too.
            again = ProtocolSession.resume(store, name="s")
            try:
                assert again.epoch.epoch_id == 1
                assert again.next_round == 2
                assert "zz9" in again.membership.roster
            finally:
                again.close()

    def test_resume_refuses_an_edited_epoch_snapshot(self, tmp_path):
        """The stored final epoch is checked against the replay once, by
        the re-attach: a clique map edited in the file is refused."""
        import json
        import sqlite3

        path = str(tmp_path / "edited.db")
        session = ProtocolSession.create(
            USERS[:8], CONFIG, store=path, store_name="s", seed=5,
            num_cliques=2,
        )
        session.advance_epoch(joins=["zz9"])
        session.close()
        db = sqlite3.connect(path)
        try:
            (raw,) = db.execute(
                "SELECT clique_map_json FROM epochs "
                "WHERE session = 's' AND epoch_id = 1").fetchone()
            clique_of = json.loads(raw)
            a = min(u for u, c in clique_of.items() if c == 0)
            b = min(u for u, c in clique_of.items() if c == 1)
            clique_of[a], clique_of[b] = 1, 0
            db.execute(
                "UPDATE epochs SET clique_map_json = ? "
                "WHERE session = 's' AND epoch_id = 1",
                (json.dumps(clique_of, sort_keys=True),))
            db.commit()
        finally:
            db.close()
        with pytest.raises(StoreError,
                           match="refusing to attach a diverged session"):
            ProtocolSession.resume(path, name="s")

    def test_resume_from_path_owns_the_reopened_store(self, tmp_path):
        path = str(tmp_path / "lineage.db")
        session = ProtocolSession.create(
            USERS[:4], CONFIG, store=path, store_name="s", seed=5
        )
        _observe_week(session, 0)
        session.run_round(0)
        session.close()  # closes the path-opened store too

        resumed = ProtocolSession.resume(path, name="s")
        try:
            assert resumed.next_round == 1
            inner = resumed.store
        finally:
            resumed.close()
        assert inner.closed
