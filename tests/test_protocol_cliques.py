"""Blinding-clique sharding: assignment, equivalence and scoped recovery.

The sharding contract: ``k`` cliques cut the pairwise keystream work by a
factor of ~``k`` while the final aggregate stays **bit-identical** to the
unsharded protocol, and a dropout's recovery round touches only its own
clique.
"""

from collections import Counter

import pytest

from reference_round import enrollment_round
from repro.errors import (
    ConfigurationError,
    MissingReportError,
    ProtocolError,
    RoundStateError,
)
from repro.protocol import wire
from repro.protocol.aggregator import CliqueAggregator
from repro.protocol.client import RoundConfig
from repro.api import ProtocolSession, SessionConfig
from repro.protocol.enrollment import assign_cliques, enroll_users
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    MissingClientsNotice,
)
from repro.protocol.transport import InMemoryTransport

CONFIG = RoundConfig(cms_depth=4, cms_width=128, cms_seed=7, id_space=500)
USER_IDS = [f"user-{i:02d}" for i in range(12)]


def enrolled(num_cliques=1, seed=3, user_ids=USER_IDS):
    enrollment = enroll_users(user_ids, CONFIG, seed=seed, use_oprf=False,
                              num_cliques=num_cliques)
    for i, client in enumerate(enrollment.clients):
        for j in range(5):
            client.observe_ad(f"ad-{(i * 3 + j) % 15}")
    return enrollment


class TestAssignment:
    def test_deterministic_in_seed(self):
        a = assign_cliques(USER_IDS, 4, seed=9)
        b = assign_cliques(USER_IDS, 4, seed=9)
        c = assign_cliques(USER_IDS, 4, seed=10)
        assert a == b
        assert a != c  # overwhelmingly likely for 12 users / 4 cliques

    def test_balanced_partition(self):
        sizes = Counter(assign_cliques(USER_IDS, 5, seed=1).values())
        assert set(sizes) == {0, 1, 2, 3, 4}
        assert max(sizes.values()) - min(sizes.values()) <= 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            assign_cliques(USER_IDS, 0)
        with pytest.raises(ConfigurationError):
            # 12 users over 7 cliques would leave singleton cliques.
            assign_cliques(USER_IDS, 7)
        with pytest.raises(ConfigurationError):
            # Beyond the wire format's 16-bit clique-id range: refused at
            # enrollment, not mid-round at the first encode.
            assign_cliques(USER_IDS, 0xFFFF + 2)
        with pytest.raises(ConfigurationError):
            # Duplicates would collapse the dict and could leave a
            # singleton clique despite passing the length check.
            assign_cliques(["a", "a", "b", "c"], 2)
        with pytest.raises(ConfigurationError):
            enroll_users(["a", "b", "c"], CONFIG, use_oprf=False,
                         num_cliques=2)

    @pytest.mark.parametrize("num_cliques", [2.5, 2.0, True, "2", None],
                             ids=["float", "integral-float", "bool", "str",
                                  "none"])
    def test_non_int_clique_count_refused(self, num_cliques):
        """A clique count is an int: 2.5 would deal fractional clique
        ids (``i % 2.5``), True would pass as 1 and "2" would raise a
        bare TypeError."""
        with pytest.raises(ConfigurationError,
                           match="num_cliques must be an int"):
            assign_cliques(USER_IDS, num_cliques)
        with pytest.raises(ConfigurationError,
                           match="num_cliques must be an int"):
            ProtocolSession.create(USER_IDS, CONFIG, use_oprf=False,
                                   num_cliques=num_cliques)

    def test_single_clique_is_trivial(self):
        assert set(assign_cliques(USER_IDS, 1, seed=5).values()) == {0}

    def test_error_messages_name_offending_cliques(self):
        """The singleton refusal reports *which* cliques starve and the
        offending k vs population size."""
        with pytest.raises(ConfigurationError) as err:
            assign_cliques(USER_IDS, 7)  # sizes [2,2,2,2,2,1,1]
        message = str(err.value)
        assert "num_cliques=7" in message
        assert "12 users" in message
        assert "singleton" in message
        assert "[5, 6]" in message  # the two size-1 cliques
        assert "at least 14 users" in message
        with pytest.raises(ConfigurationError) as err:
            assign_cliques(USER_IDS[:3], 5)  # sizes [1,1,1,0,0]
        assert "empty" in str(err.value)
        with pytest.raises(ConfigurationError) as err:
            assign_cliques(USER_IDS, 0)
        assert "must be >= 1" in str(err.value)
        with pytest.raises(ConfigurationError) as err:
            assign_cliques(USER_IDS, -3)
        assert "got -3" in str(err.value)

    def test_enrollment_scopes_peers_to_clique(self):
        enrollment = enrolled(num_cliques=4)
        index_of = {c.user_id: c.blinding.user_index
                    for c in enrollment.clients}
        for client in enrollment.clients:
            mates = {index_of[uid]
                     for uid, clique in enrollment.clique_of.items()
                     if clique == client.clique_id and uid != client.user_id}
            assert set(client.blinding.peer_indexes) == mates
            assert len(client.blinding.peer_indexes) == 2  # 12 users / 4

    def test_key_exchange_bytes_shrink(self):
        flat = enrolled(num_cliques=1)
        sharded = enrolled(num_cliques=4)
        assert sharded.clients[0].blinding.exchange_bytes() < \
            flat.clients[0].blinding.exchange_bytes()


class TestAggregateEquivalence:
    def test_sharded_aggregate_bit_identical_to_unsharded(self):
        results = {}
        for k in (1, 3, 4):
            enrollment = enrolled(num_cliques=k)
            results[k] = ProtocolSession(
                CONFIG, enrollment.clients).run_round(1)
        assert results[3].aggregate.cells == results[1].aggregate.cells
        assert results[4].aggregate.cells == results[1].aggregate.cells
        assert results[4].distribution.values == \
            results[1].distribution.values
        assert results[4].users_threshold == results[1].users_threshold

    def test_sharded_aggregate_equals_raw_sum(self):
        enrollment = enrolled(num_cliques=4)
        raw = CONFIG.make_sketch()
        for client in enrollment.clients:
            for url in client.seen_urls:
                raw.update(client.ad_mapper.ad_id(url))
        result = ProtocolSession(CONFIG, enrollment.clients).run_round(2)
        assert result.aggregate.cells == raw.cells

    def test_individual_reports_differ_across_k(self):
        """Sharding changes the pads (smaller peer set), not the sum."""
        flat = enrolled(num_cliques=1)
        sharded = enrolled(num_cliques=4)
        r_flat = flat.clients[0].build_report(1)
        r_sharded = sharded.clients[0].build_report(1)
        assert r_flat.cells != r_sharded.cells


class TestScopedRecovery:
    def _run_with_dropout(self, num_cliques, victim="user-05"):
        enrollment = enrolled(num_cliques=num_cliques)
        session = ProtocolSession(CONFIG, enrollment.clients,
                                  SessionConfig(transport=InMemoryTransport()))
        session.drop_users([victim])
        result = session.run_round(1)
        return enrollment, session, result

    @staticmethod
    def _adjusted(session):
        """Per clique aggregator, the users whose adjustment it holds."""
        return [set(e._adjustments) for e in session.endpoints
                if isinstance(e, CliqueAggregator)]

    def test_dropout_confined_to_its_clique(self):
        enrollment, session, result = self._run_with_dropout(4)
        victim_clique = enrollment.clique_of["user-05"]
        mates = {uid for uid, clique in enrollment.clique_of.items()
                 if clique == victim_clique and uid != "user-05"}
        assert result.recovery_round_used
        assert result.missing_users == ["user-05"]
        # Exactly the victim's clique mates adjusted — nobody else.
        assert set().union(*self._adjusted(session)) == mates

    def test_unsharded_dropout_is_adjusted_by_every_survivor(self):
        # The k=1 side of the fan-out comparison: without sharding every
        # one of the N-1 survivors pads against the victim and adjusts;
        # with k=4 (above) only its clique mates do.
        _enrollment, session, result = self._run_with_dropout(1)
        assert result.recovery_round_used
        (adjusted,) = self._adjusted(session)
        assert adjusted == set(USER_IDS) - {"user-05"}
        assert len(adjusted) == len(USER_IDS) - 1

    def test_dropout_recovery_equals_survivor_truth(self):
        enrollment, _session, result = self._run_with_dropout(4)
        mapper = enrollment.clients[0].ad_mapper
        survivors = [c for c in enrollment.clients if c.user_id != "user-05"]
        truth = {}
        for client in survivors:
            for url in client.seen_urls:
                truth[url] = truth.get(url, 0) + 1
        for url, count in truth.items():
            assert result.aggregate.query(mapper.ad_id(url)) >= count

    def test_notice_lists_only_clique_missing_indexes(self):
        enrollment = enrolled(num_cliques=4)
        transport = InMemoryTransport(record_transcript=True)
        victims = ["user-02", "user-09"]
        session = ProtocolSession(CONFIG, enrollment.clients,
                                  SessionConfig(transport=transport))
        session.drop_users(victims)
        result = session.run_round(1)
        # What each survivor was asked to fix, from the notices sent:
        by_clique = {}
        index_of = {c.user_id: c.blinding.user_index
                    for c in enrollment.clients}
        for victim in victims:
            by_clique.setdefault(
                enrollment.clique_of[victim], []).append(index_of[victim])
        noticed = {message.clique_id: list(message.missing_indexes)
                   for _s, _r, message in transport.transcript
                   if isinstance(message, MissingClientsNotice)}
        assert noticed == \
            {clique: sorted(idx) for clique, idx in by_clique.items()}
        assert sorted(result.missing_users) == sorted(victims)

    def test_whole_clique_missing_needs_no_recovery(self):
        """A clique that vanished contributed no pads: clean aggregate
        from the other cliques, no adjustments required."""
        enrollment = enrolled(num_cliques=4)
        dead_clique = enrollment.clique_of["user-00"]
        dead = {uid for uid, clique in enrollment.clique_of.items()
                if clique == dead_clique}
        session = ProtocolSession(CONFIG, enrollment.clients,
                                  SessionConfig(transport=InMemoryTransport()))
        session.drop_users(dead)
        aggregate = session.run_round(1).aggregate  # no MissingReportError
        assert aggregate.cells == tuple(
            enrollment_round(enrollment, 1, dead).root_cells)
        assert all(not e._adjustments for e in session.endpoints
                   if isinstance(e, CliqueAggregator))
        mapper = enrollment.clients[0].ad_mapper
        survivors = [c for c in enrollment.clients if c.user_id not in dead]
        for client in survivors:
            for url in client.seen_urls:
                assert aggregate.query(mapper.ad_id(url)) >= 1

    def test_partial_coverage_within_clique_raises(self):
        enrollment = enrolled(num_cliques=3)
        victim = enrollment.clients[0]
        clique = victim.clique_id
        mates = [c for c in enrollment.clients
                 if c.clique_id == clique and c is not victim]
        assert len(mates) >= 2
        aggregator = CliqueAggregator(
            clique, CONFIG, {c.user_id: c.blinding.user_index
                             for c in (victim, *mates)})
        aggregator.on_round_start(1)
        for client in mates:
            aggregator.on_message(client.user_id, client.build_report(1))
        notices = dict(aggregator.on_idle(1))
        # Only one clique mate adjusts: coverage is partial.
        [(_uplink, adjustment)] = mates[0].on_message(
            aggregator.endpoint_id, notices[mates[0].user_id])
        aggregator.on_message(mates[0].user_id, adjustment)
        with pytest.raises(MissingReportError):
            aggregator.on_idle(1)


class TestServerCliqueValidation:
    def test_clique_of_must_cover_all_users(self):
        """A clique aggregator's roster is its clique: it needs members,
        and a user outside the roster is refused."""
        with pytest.raises(ProtocolError):
            CliqueAggregator(0, CONFIG, {})
        aggregator = CliqueAggregator(0, CONFIG, {"a": 0})
        aggregator.on_round_start(1)
        report = BlindedReport("b", 1, cells=tuple([0] * CONFIG.num_cells))
        with pytest.raises(RoundStateError, match="unknown user"):
            aggregator.on_message("b", report)

    def test_report_with_wrong_clique_rejected(self):
        aggregator = CliqueAggregator(0, CONFIG, {"a": 0, "b": 1})
        aggregator.on_round_start(1)
        report = BlindedReport("a", 1, cells=tuple([0] * CONFIG.num_cells),
                               clique_id=1)
        with pytest.raises(RoundStateError, match="claims clique 1"):
            aggregator.on_message("a", report)


class TestCliqueWireFormat:
    def test_clique_id_roundtrips(self):
        report = BlindedReport("u", 3, cells=(1, 2, 3), clique_id=5)
        assert wire.decode(wire.encode(report)) == report
        adjustment = BlindingAdjustment("u", 3, cells=(4,), clique_id=9)
        assert wire.decode(wire.encode(adjustment)) == adjustment
        notice = MissingClientsNotice(3, (0, 7), clique_id=2)
        assert wire.decode(wire.encode(notice)) == notice

    def test_header_size_unchanged(self):
        flat = wire.encode(BlindedReport("u", 1, cells=(1, 2)))
        sharded = wire.encode(BlindedReport("u", 1, cells=(1, 2),
                                            clique_id=3))
        assert len(flat) == len(sharded)

    def test_round_over_wire_transport_with_cliques(self):
        from repro.protocol.transport import WireTransport
        enrollment = enrolled(num_cliques=4)
        session = ProtocolSession(CONFIG, enrollment.clients,
                                  SessionConfig(transport=WireTransport()))
        session.drop_users(["user-03"])
        result = session.run_round(1)
        assert result.missing_users == ["user-03"]
        # Recovery over the byte-exact codec still matches the survivor
        # truth (the victim's ads are absent, so only >= checks).
        mapper = enrollment.clients[0].ad_mapper
        for client in enrollment.clients:
            if client.user_id == "user-03":
                continue
            for url in client.seen_urls:
                assert result.aggregate.query(mapper.ad_id(url)) >= 1


class TestPipelineKnob:
    def _impressions(self, n_users=8):
        from repro.types import Ad, Impression
        impressions = []
        for u in range(n_users):
            for j in range(4):
                impressions.append(Impression(
                    user_id=f"u{u}", ad=Ad(url=f"http://ad/{(u + j) % 6}"),
                    domain=f"site-{j}.example", tick=u * 4 + j))
        return impressions

    def test_num_cliques_preserves_private_output(self):
        from repro.core.pipeline import DetectionPipeline
        impressions = self._impressions()
        flat = DetectionPipeline(private=True, round_config=CONFIG)
        sharded = DetectionPipeline(private=True, round_config=CONFIG,
                                    num_cliques=4)
        out_flat = flat.run_week(impressions, week=0)
        out_sharded = sharded.run_week(impressions, week=0)
        assert out_sharded.round_result.aggregate.cells == \
            out_flat.round_result.aggregate.cells
        assert out_sharded.users_threshold == out_flat.users_threshold
        assert [c.label for c in out_sharded.classified] == \
            [c.label for c in out_flat.classified]

    def test_num_cliques_clamped_to_population(self):
        from repro.core.pipeline import DetectionPipeline
        impressions = self._impressions(n_users=4)
        pipeline = DetectionPipeline(private=True, round_config=CONFIG,
                                     num_cliques=50)
        out = pipeline.run_week(impressions, week=0)  # no ConfigurationError
        assert out.round_result is not None

    def test_num_cliques_validated(self):
        from repro.core.pipeline import DetectionPipeline
        with pytest.raises(ConfigurationError):
            DetectionPipeline(private=True, num_cliques=0)
        with pytest.raises(ConfigurationError):
            # Wire-format ceiling enforced at construction, not mid-run.
            DetectionPipeline(private=True, num_cliques=0xFFFF + 2)
