"""Property-based tests of the aggregation protocol's core guarantees.

Two invariants must hold for *any* assignment of ads to users:

1. **Correctness**: after a full round, the server's aggregate CMS
   estimate for every ad is at least the true number of distinct users
   who saw it (CMS never undercounts), and blinding adds no error at all
   — the aggregate equals the sum of the users' raw (unblinded) sketches
   cell-for-cell.
2. **Hiding**: an individual blinded report reveals nothing about how
   many ads its user saw: reports from a user with zero ads and a user
   with many ads are both full-entropy cell vectors.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MissingReportError
from repro.protocol.client import MIN_REPORTERS, RoundConfig
from repro.api import ProtocolSession
from repro.protocol.enrollment import enroll_users

CONFIG = RoundConfig(cms_depth=4, cms_width=64, cms_seed=5, id_space=300)

#: user -> list of ad numbers (ads are "ad-<n>").
assignments = st.lists(
    st.lists(st.integers(min_value=0, max_value=30), max_size=12),
    min_size=2, max_size=6)


class TestAggregateCorrectness:
    @settings(max_examples=15, deadline=None)
    @given(assignments)
    def test_aggregate_never_undercounts(self, per_user_ads):
        enrollment = enroll_users(
            [f"u{i}" for i in range(len(per_user_ads))], CONFIG,
            seed=1, use_oprf=False)
        truth = defaultdict(set)
        for client, ad_numbers in zip(enrollment.clients, per_user_ads):
            for n in set(ad_numbers):
                url = f"ad-{n}"
                client.observe_ad(url)
                truth[url].add(client.user_id)
        result = ProtocolSession(CONFIG, enrollment.clients).run_round(1)
        mapper = enrollment.clients[0].ad_mapper
        for url, users in truth.items():
            assert result.aggregate.query(mapper.ad_id(url)) >= len(users)

    @settings(max_examples=10, deadline=None)
    @given(assignments)
    def test_blinding_is_exactly_lossless(self, per_user_ads):
        """Aggregate-of-blinded == sum-of-raw, cell for cell."""
        enrollment = enroll_users(
            [f"u{i}" for i in range(len(per_user_ads))], CONFIG,
            seed=2, use_oprf=False)
        raw_sum = CONFIG.make_sketch()
        for client, ad_numbers in zip(enrollment.clients, per_user_ads):
            for n in set(ad_numbers):
                client.observe_ad(f"ad-{n}")
                raw_sum.update(client.ad_mapper.ad_id(f"ad-{n}"))
        result = ProtocolSession(CONFIG, enrollment.clients).run_round(7)
        assert result.aggregate.cells == raw_sum.cells

    @settings(max_examples=8, deadline=None)
    @given(assignments, st.integers(min_value=0, max_value=5))
    def test_dropout_recovery_property(self, per_user_ads, drop_index):
        """Any single dropout is recovered exactly for the survivors,
        unless it leaves a lone survivor: that one counts missing rather
        than be unblinded, and a round with no reporter left releases
        nothing."""
        n = len(per_user_ads)
        drop_index %= n
        enrollment = enroll_users([f"u{i}" for i in range(n)], CONFIG,
                                  seed=3, use_oprf=False)
        surviving_truth = defaultdict(set)
        for i, (client, ad_numbers) in enumerate(
                zip(enrollment.clients, per_user_ads)):
            for num in set(ad_numbers):
                url = f"ad-{num}"
                client.observe_ad(url)
                if i != drop_index:
                    surviving_truth[url].add(client.user_id)
        session = ProtocolSession(CONFIG, enrollment.clients)
        session.drop_users([enrollment.clients[drop_index].user_id])
        if n - 1 < MIN_REPORTERS:
            with pytest.raises(MissingReportError):
                session.run_round(2)
            return
        result = session.run_round(2)
        mapper = enrollment.clients[0].ad_mapper
        for url, users in surviving_truth.items():
            assert result.aggregate.query(mapper.ad_id(url)) >= len(users)


class TestReportHiding:
    def test_empty_and_full_reports_indistinguishable_by_density(self):
        """Zero-ads and many-ads reports look alike on the wire."""
        enrollment = enroll_users(["a", "b", "c"], CONFIG, seed=4,
                                  use_oprf=False)
        empty_client, busy_client = enrollment.clients[0], \
            enrollment.clients[1]
        for i in range(20):
            busy_client.observe_ad(f"ad-{i}")
        empty_report = empty_client.build_report(1)
        busy_report = busy_client.build_report(1)

        def density(cells):
            return sum(1 for c in cells if c != 0) / len(cells)

        # Both essentially full-entropy: every cell non-zero w.h.p.
        assert density(empty_report.cells) > 0.95
        assert density(busy_report.cells) > 0.95
        # And identical wire size regardless of activity.
        assert empty_report.size_bytes() == busy_report.size_bytes()

    def test_same_report_different_rounds_unlinkable(self):
        """The same sketch blinds to unrelated vectors across rounds."""
        enrollment = enroll_users(["a", "b"], CONFIG, seed=5,
                                  use_oprf=False)
        client = enrollment.clients[0]
        client.observe_ad("ad-1")
        r1 = client.build_report(round_id=1)
        r2 = client.build_report(round_id=2)
        differing = sum(1 for x, y in zip(r1.cells, r2.cells) if x != y)
        assert differing > len(r1.cells) * 0.95
