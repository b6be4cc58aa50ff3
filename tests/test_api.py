"""The stable ``repro.api`` facade: sessions, one-shot helpers, knobs."""

import pytest

from repro.api import (
    ProtocolSession,
    SessionConfig,
    run_private_round,
)
from repro.errors import ConfigurationError
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.protocol.transport import WireTransport

CONFIG = RoundConfig(cms_depth=4, cms_width=64, cms_seed=3, id_space=200)


def make_enrollment(n=4, num_cliques=1, seed=2):
    enrollment = enroll_users([f"u{i}" for i in range(n)], CONFIG,
                              seed=seed, use_oprf=False,
                              num_cliques=num_cliques)
    for client in enrollment.clients:
        client.observe_ad("http://everyone.example/ad")
    enrollment.clients[0].observe_ad("http://rare.example/ad")
    return enrollment


class TestProtocolSession:
    def test_run_round_counts_users(self):
        enrollment = make_enrollment()
        session = ProtocolSession.create(enrollment)
        result = session.run_round(1)
        mapper = enrollment.clients[0].ad_mapper
        assert result.aggregate.query(
            mapper.ad_id("http://everyone.example/ad")) >= 4
        assert result.missing_users == []

    def test_enroll_classmethod(self):
        """``create`` enrolls from bare user ids."""
        session = ProtocolSession.create(
            [f"u{i}" for i in range(6)], CONFIG, seed=1, use_oprf=False,
            num_cliques=3)
        for client in session.clients:
            client.observe_ad("http://x.example/1")
        result = session.run_round(1)
        assert result.reported_users == [f"u{i}" for i in range(6)]

    def test_multi_round_session_reuses_wiring(self):
        enrollment = make_enrollment()
        session = ProtocolSession.create(
            enrollment, settings=SessionConfig(transport=WireTransport()))
        r1 = session.run_round(1)
        r2 = session.run_round(2)
        assert r2.aggregate.cells == r1.aggregate.cells
        # Each round bills its own traffic on the shared transport.
        assert r2.total_messages == r1.total_messages
        assert r2.total_bytes == r1.total_bytes

    @pytest.mark.parametrize("transport", ["memory", "wire", "socket"])
    def test_each_round_bills_only_its_own_traffic(self, transport,
                                                   tmp_path, capsys):
        """A round's result, its stored row and its ``history --rounds``
        line carry that round's bytes and messages, not the transport's
        running totals."""
        from repro.cli import main
        path = str(tmp_path / "rounds.db")
        with ProtocolSession.create(
                make_enrollment(6, num_cliques=2),
                settings=SessionConfig(transport=transport),
                store=path) as session:
            results = []
            for _ in range(3):
                before = (session.transport.total_bytes,
                          session.transport.total_messages)
                result = session.run_next_round()
                assert (result.total_bytes, result.total_messages) == (
                    session.transport.total_bytes - before[0],
                    session.transport.total_messages - before[1])
                results.append(result)
            rows = session.store.round_history()
        billed = {(r.total_bytes, r.total_messages) for r in results}
        assert len(billed) == 1
        assert [(r.round_id, r.total_bytes, r.total_messages)
                for r in rows] == [(r.round_id, r.total_bytes,
                                    r.total_messages) for r in results]
        capsys.readouterr()
        assert main(["history", "--store", path, "--rounds"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.rsplit("bytes=", 1)[1] for line in lines] == \
            [str(r.total_bytes) for r in results]

    def test_reset_windows(self):
        enrollment = make_enrollment()
        session = ProtocolSession.create(enrollment)
        session.reset_windows()
        assert all(c.num_seen == 0 for c in session.clients)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(transport="sharded-nonsense")
        enrollment = make_enrollment()
        with pytest.raises(TypeError):  # wiring is one value, not kwargs
            ProtocolSession(CONFIG, enrollment.clients,
                            transport="wire")

    def test_topology_is_not_a_knob(self):
        """One aggregation tree: the field is gone, not tombstoned."""
        import dataclasses
        with pytest.raises(TypeError):
            SessionConfig(topology="fanout")
        assert [f.name for f in dataclasses.fields(SessionConfig)] == [
            "transport", "threshold_rule", "client_backend", "fan_in"]
        with pytest.raises(ImportError):
            from repro.protocol import ServerEndpoint  # noqa: F401

    def test_sessions_over_shared_clients_keep_their_wiring(self):
        """Two sessions over the same client objects, wired as
        different trees, run interleaved rounds without disturbing
        each other: a client's uplink is its clique's aggregator in
        both, so there is nothing for either to re-point."""
        enrollment = make_enrollment(8, num_cliques=4)
        flat = ProtocolSession(CONFIG, enrollment.clients)
        tiered = ProtocolSession(CONFIG, enrollment.clients,
                                 SessionConfig(fan_in=2))
        assert len(tiered.endpoints) > len(flat.endpoints)
        for round_id in (1, 2):
            flat_result = flat.run_round(round_id)
            tiered_result = tiered.run_round(round_id)
            assert flat_result.aggregate.cells == \
                tiered_result.aggregate.cells
            assert flat_result.reported_users == \
                tiered_result.reported_users

    def test_round_coordinator_removed_with_guidance(self):
        """The deprecated shim is gone, and no module-level
        ``__getattr__`` tombstone stands in for it."""
        import importlib
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.protocol.coordinator")
        import repro.protocol
        with pytest.raises(ImportError, match="RoundCoordinator"):
            from repro.protocol import RoundCoordinator  # noqa: F401
        import repro
        assert not hasattr(repro.protocol, "RoundCoordinator")
        assert not hasattr(repro, "RoundCoordinator")
        assert not hasattr(repro.protocol, "__getattr__")
        assert not hasattr(repro, "__getattr__")

    def test_second_operator_and_pre_epoch_fork_are_gone(self):
        """No tombstones: the deleted operator class is a plain
        ``ImportError`` and the per-window transport hook a plain
        ``TypeError``; the option counts are what the docs say."""
        import importlib
        import inspect

        from repro.core.pipeline import DetectionPipeline
        with pytest.raises(ImportError, match="BackendService"):
            from repro.backend import BackendService  # noqa: F401
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.backend.service")
        with pytest.raises(TypeError, match="transport_factory"):
            DetectionPipeline(transport_factory=None)
        import repro
        import repro.api
        assert not hasattr(repro.api, "TransportFactory")
        assert len(inspect.signature(DetectionPipeline).parameters) == 9
        assert not hasattr(repro.api, "run_detection")
        assert not hasattr(repro, "run_detection")

    @pytest.mark.parametrize("transport", ["memory", "wire", "socket"])
    def test_threshold_rule_governs_the_whole_session(self, transport):
        """The rule is a session setting: every round, before and after
        an epoch advance, thresholds with it, on every transport."""
        from repro.core.thresholds import ThresholdRule
        from repro.protocol.endpoint import mean_threshold
        median = ThresholdRule.MEDIAN.compute
        settings = SessionConfig(threshold_rule=median, transport=transport)
        enrollment = make_enrollment(6)
        for client in enrollment.clients[:2]:
            client.observe_ad("http://pair.example/ad")
        with ProtocolSession.create(enrollment, settings=settings) \
                as session:
            results = [session.run_next_round()]
            session.advance_epoch(leaves=["u5"])
            results.append(session.run_next_round())
        for result in results:
            assert result.users_threshold == median(result.distribution)
            assert result.users_threshold != \
                mean_threshold(result.distribution)

    def test_a_session_that_fails_to_wire_closes_the_socket_it_opened(
            self, monkeypatch):
        """Wiring fails after the named transport exists (a duplicated
        client): the caller gets no session to close, so the session
        closes the TCP pair it opened before re-raising."""
        from repro.errors import ProtocolError
        import repro.protocol.net as net

        opened = []

        class Recorded(net.SocketTransport):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(net, "SocketTransport", Recorded)
        clients = make_enrollment().clients
        with pytest.raises(ProtocolError, match="duplicate client"):
            ProtocolSession(CONFIG, clients + clients[:1],
                            SessionConfig(transport="socket"))
        [transport] = opened
        assert transport._closed

    def test_a_session_that_fails_to_wire_leaves_a_passed_transport_open(
            self):
        from repro.errors import ProtocolError
        from repro.protocol.net import SocketTransport

        clients = make_enrollment().clients
        with SocketTransport() as transport:
            with pytest.raises(ProtocolError, match="duplicate client"):
                ProtocolSession(CONFIG, clients + clients[:1],
                                SessionConfig(transport=transport))
            assert not transport._closed

    def test_create_refuses_a_second_config_for_an_enrollment(self):
        enrollment = make_enrollment()
        other = RoundConfig(cms_depth=2, cms_width=64, cms_seed=3,
                            id_space=200)
        with pytest.raises(ConfigurationError,
                           match="Enrollment carries its own RoundConfig"):
            ProtocolSession.create(enrollment, other)
        # The enrollment's own config object is not a second one.
        ProtocolSession.create(enrollment, enrollment.config).close()

    def test_create_refuses_user_ids_that_are_not_strings(self):
        with pytest.raises(ConfigurationError,
                           match="sequence containing int"):
            ProtocolSession.create(["u0", 1, "u2"], CONFIG, seed=1)

    def test_threshold_rule_is_fixed_at_construction(self):
        with pytest.raises(ConfigurationError, match="named rules"):
            SessionConfig(threshold_rule=lambda dist: 123.5)
        session = ProtocolSession(CONFIG, make_enrollment().clients)
        with pytest.raises(AttributeError):
            session.root.threshold_rule = lambda dist: 123.5


class TestOneShotHelpers:
    def test_run_private_round_matches_session(self):
        a = run_private_round(CONFIG, make_enrollment().clients, round_id=1)
        b = ProtocolSession.create(make_enrollment()).run_round(1)
        assert a.aggregate.cells == b.aggregate.cells
        assert a.users_threshold == b.users_threshold
