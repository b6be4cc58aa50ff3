"""Integration tests for the full privacy-preserving reporting round.

The key end-to-end property (paper §6): after a round, the server's
aggregate CMS answers #Users queries correctly — the estimate for every ad
is at least the true number of distinct users who saw it, and without every
enrolled user's participation (or the recovery round) the aggregate is
noise.
"""

import pytest

from repro.errors import (
    ConfigurationError,
    MissingReportError,
    ProtocolError,
    RoundStateError,
)
from repro.api import ProtocolSession, SessionConfig
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import OPRF_BITS, enroll_users
from repro.protocol.messages import BlindedReport
from repro.protocol.aggregator import CliqueAggregator
from repro.protocol.transport import InMemoryTransport


CONFIG = RoundConfig(cms_depth=4, cms_width=128, cms_seed=7, id_space=500)


def make_enrollment(n_users=4, use_oprf=False, seed=0):
    return enroll_users([f"user-{i}" for i in range(n_users)], CONFIG,
                        seed=seed, use_oprf=use_oprf)


def single_backend_session(clients, transport=None):
    """The paper's single back-end: an unsharded population is the
    k = 1 tree (one clique aggregator, one root)."""
    return ProtocolSession(CONFIG, clients,
                           SessionConfig(transport=transport))


def make_aggregator(clients, round_id=None):
    """One clique's aggregator over ``clients``, with ``round_id`` open
    unless it is None."""
    aggregator = CliqueAggregator(
        0, CONFIG, {c.user_id: c.blinding.user_index for c in clients})
    if round_id is not None:
        aggregator.on_round_start(round_id)
    return aggregator


class TestRoundConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RoundConfig(0, 10, 0, 10)
        with pytest.raises(ConfigurationError):
            RoundConfig(2, 10, 0, 0)

    def test_num_cells(self):
        assert CONFIG.num_cells == 512

    def test_make_sketch_dimensions(self):
        sketch = CONFIG.make_sketch()
        assert (sketch.depth, sketch.width, sketch.seed) == (4, 128, 7)


class TestEnrollment:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            enroll_users([], CONFIG)
        with pytest.raises(ConfigurationError):
            enroll_users(["a", "a"], CONFIG)

    def test_all_clients_wired(self):
        enrollment = make_enrollment(3)
        assert len(enrollment.clients) == 3
        indexes = {c.blinding.user_index for c in enrollment.clients}
        assert indexes == {0, 1, 2}

    def test_oprf_mode_has_server(self):
        enrollment = make_enrollment(2, use_oprf=True)
        assert enrollment.oprf_server is not None
        # One mapper per membership: the panel shares it (paper §6: the
        # id is a function of the URL alone).
        assert enrollment.clients[0].ad_mapper is enrollment.ad_mapper
        assert enrollment.clients[1].ad_mapper is enrollment.ad_mapper

    def test_oprf_server_key_size(self):
        enrollment = make_enrollment(2, use_oprf=True)
        public_key = enrollment.oprf_server.public_key
        assert public_key.modulus_bytes == OPRF_BITS // 8

    def test_keyed_prf_mode_shares_mapper(self):
        enrollment = make_enrollment(2, use_oprf=False)
        assert enrollment.clients[0].ad_mapper is enrollment.clients[1].ad_mapper


class TestClientObservation:
    def test_observe_returns_stable_id(self):
        client = make_enrollment(2).clients[0]
        a = client.observe_ad("http://ads.example/1")
        b = client.observe_ad("http://ads.example/1")
        assert a == b
        assert client.num_seen == 1

    def test_set_semantics(self):
        client = make_enrollment(2).clients[0]
        for _ in range(10):
            client.observe_ad("http://same.ad/x")
        sketch_cells = client.build_report(1).cells
        # The blinded cells are noise, but the underlying sketch counted
        # the ad once: verify via the cleartext report.
        assert client.build_cleartext_report(1).urls == ("http://same.ad/x",)

    def test_reset_window(self):
        client = make_enrollment(2).clients[0]
        client.observe_ad("u")
        client.reset_window()
        assert client.num_seen == 0


class TestFullRound:
    def test_aggregate_counts_distinct_users(self):
        enrollment = make_enrollment(4)
        clients = enrollment.clients
        # ad-popular: all 4 users; ad-niche: 1 user.
        for client in clients:
            client.observe_ad("http://popular.ad/1")
        clients[0].observe_ad("http://niche.ad/1")

        result = single_backend_session(clients).run_round(round_id=1)

        mapper = clients[0].ad_mapper
        popular_est = result.aggregate.query(mapper.ad_id("http://popular.ad/1"))
        niche_est = result.aggregate.query(mapper.ad_id("http://niche.ad/1"))
        assert popular_est >= 4
        assert niche_est >= 1
        assert popular_est > niche_est
        assert result.missing_users == []
        assert not result.recovery_round_used

    def test_distribution_and_threshold(self):
        enrollment = make_enrollment(4)
        clients = enrollment.clients
        for client in clients:
            client.observe_ad("http://everyone.sees/ad")
        clients[0].observe_ad("http://only.one/ad")
        result = single_backend_session(clients).run_round(1)
        # Two ads -> distribution has ~2 entries (maybe more from CMS
        # collisions); threshold is the mean, between 1 and 4.
        assert len(result.distribution) >= 2
        assert 1.0 <= result.users_threshold <= 4.0

    def test_blinded_report_is_not_cleartext(self):
        """Individual reports leak nothing: cells differ from the sketch."""
        enrollment = make_enrollment(3)
        client = enrollment.clients[0]
        client.observe_ad("http://secret.ad/1")
        report = client.build_report(1)
        raw = CONFIG.make_sketch()
        raw.update(client.ad_mapper.ad_id("http://secret.ad/1"))
        assert report.cells != raw.cells
        # And the blinded report looks dense (non-zero almost everywhere),
        # unlike the sparse true sketch.
        nonzero = sum(1 for c in report.cells if c != 0)
        assert nonzero > len(report.cells) * 0.9

    def test_round_with_oprf_mapping(self):
        enrollment = make_enrollment(3, use_oprf=True)
        clients = enrollment.clients
        for client in clients:
            client.observe_ad("http://with.oprf/ad")
        result = single_backend_session(clients).run_round(2)
        ad_id = clients[0].ad_mapper.ad_id("http://with.oprf/ad")
        assert result.aggregate.query(ad_id) >= 3

    def test_byte_accounting_positive(self):
        enrollment = make_enrollment(3)
        for client in enrollment.clients:
            client.observe_ad("http://x/1")
        result = single_backend_session(enrollment.clients).run_round(1)
        # 3 reports + 3 broadcasts at minimum.
        assert result.total_messages >= 6
        assert result.total_bytes > 3 * CONFIG.num_cells * 4


class TestFaultTolerance:
    def test_recovery_round_restores_counts(self):
        enrollment = make_enrollment(5)
        clients = enrollment.clients
        for client in clients:
            client.observe_ad("http://shared.ad/1")
        session = single_backend_session(clients, transport=InMemoryTransport())
        session.drop_users([clients[2].user_id])

        result = session.run_round(1)

        assert result.missing_users == [clients[2].user_id]
        assert result.recovery_round_used
        ad_id = clients[0].ad_mapper.ad_id("http://shared.ad/1")
        # 4 surviving users saw the ad; the dropped user's view is lost.
        assert result.aggregate.query(ad_id) >= 4

    def test_multiple_dropouts(self):
        enrollment = make_enrollment(6)
        clients = enrollment.clients
        for client in clients:
            client.observe_ad("http://shared.ad/1")
        session = single_backend_session(clients, transport=InMemoryTransport())
        session.drop_users([clients[0].user_id, clients[5].user_id])
        result = session.run_round(3)
        assert len(result.missing_users) == 2
        ad_id = clients[1].ad_mapper.ad_id("http://shared.ad/1")
        assert result.aggregate.query(ad_id) >= 4

    def test_unrecovered_aggregate_is_noise(self):
        """Without adjustments, a missing report leaves random cells."""
        enrollment = make_enrollment(4)
        clients = enrollment.clients
        reports = [c.build_report(1) for c in clients[:3]]  # one never reports
        aggregator = make_aggregator(clients, round_id=1)
        for report in reports:
            aggregator.on_message(report.user_id, report)
        notices = aggregator.on_idle(1)
        assert len(notices) == 3
        with pytest.raises(MissingReportError):
            aggregator.on_idle(1)
        # Noise: nearly all cells non-zero even though nothing was observed.
        noisy = sum(report.cells_as_array() for report in reports)
        nonzero = int((noisy != 0).sum())
        assert nonzero > len(noisy) * 0.9


class TestServerValidation:
    def test_requires_round(self):
        clients = make_enrollment(2).clients
        aggregator = make_aggregator(clients)
        with pytest.raises(RoundStateError):
            aggregator.on_message(clients[0].user_id,
                                  clients[0].build_report(1))

    def test_rejects_wrong_round(self):
        clients = make_enrollment(2).clients
        aggregator = make_aggregator(clients, round_id=2)
        with pytest.raises(RoundStateError, match="round 1, current is 2"):
            aggregator.on_message(clients[0].user_id,
                                  clients[0].build_report(1))

    def test_rejects_unknown_user(self):
        clients = make_enrollment(2).clients
        aggregator = make_aggregator(clients, round_id=1)
        report = BlindedReport("stranger", 1,
                               cells=tuple([0] * CONFIG.num_cells))
        with pytest.raises(RoundStateError, match="unknown user"):
            aggregator.on_message("stranger", report)

    def test_rejects_wrong_cell_count(self):
        clients = make_enrollment(2).clients
        aggregator = make_aggregator(clients, round_id=1)
        with pytest.raises(RoundStateError, match="2 cells"):
            aggregator.on_message(clients[0].user_id, BlindedReport(
                clients[0].user_id, 1, (1, 2)))

    def test_session_rejects_empty_and_duplicates(self):
        with pytest.raises(ProtocolError):
            single_backend_session([])
        clients = make_enrollment(2).clients
        with pytest.raises(ProtocolError):
            single_backend_session([clients[0], clients[0]])
