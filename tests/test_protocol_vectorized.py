"""The vectorized blinded-aggregation path vs the seed scalar semantics.

The protocol rewrite keeps cell vectors as ``uint32`` arrays from the
client's blinding step through the server's aggregate; these tests pin the
invariants that make that safe:

* a clique aggregator's vectorized partial is bit-identical to the
  seed's scalar per-cell modular sum over the same reports;
* the array blinding APIs agree with the independent reference round;
* :class:`CellVector` is interchangeable with the tuple form everywhere a
  message crosses a layer boundary (equality, hashing, wire round-trip);
* the batched #Users distribution equals the scalar id-by-id enumeration,
  on both the cached-table and chunked fallback paths.
"""

import numpy as np

from reference_round import ReferenceRound
from repro.crypto.blinding import BLINDING_MODULUS
from repro.protocol import wire
from repro.protocol.client import RoundConfig
from repro.api import ProtocolSession
from repro.protocol.enrollment import enroll_users
from repro.protocol.messages import BlindedReport, BlindingAdjustment, CellVector
from repro.protocol.aggregator import CliqueAggregator
from repro.protocol.server import UsersDistributionQuery
from repro.sketch.countmin import CountMinSketch
from repro.statsutil.distributions import EmpiricalDistribution

CONFIG = RoundConfig(cms_depth=4, cms_width=64, cms_seed=5, id_space=300)


def _seed_scalar_aggregate(config, reports, adjustments=()):
    """The seed implementation's aggregation loop, kept as the oracle."""
    cells = [0] * config.num_cells
    for report in reports:
        for i, value in enumerate(report.cells):
            cells[i] = (cells[i] + value) % BLINDING_MODULUS
    for adjustment in adjustments:
        for i, value in enumerate(adjustment.cells):
            cells[i] = (cells[i] + value) % BLINDING_MODULUS
    return CountMinSketch(config.cms_depth, config.cms_width,
                          config.cms_seed, cells=cells)


def _seed_scalar_distribution(config, aggregate):
    """The seed implementation's id-by-id distribution query."""
    dist = EmpiricalDistribution()
    for ad_id in range(config.id_space):
        estimate = aggregate.query(ad_id)
        if estimate > 0:
            dist.add(estimate)
    return dist


def _enrolled_round(seed=11, n_users=5, ads_per_user=8):
    enrollment = enroll_users([f"u{i}" for i in range(n_users)], CONFIG,
                              seed=seed, use_oprf=False)
    for i, client in enumerate(enrollment.clients):
        for j in range(ads_per_user):
            client.observe_ad(f"ad-{(i * 3 + j) % 20}")
    return enrollment


def _aggregator(index_of, round_id):
    aggregator = CliqueAggregator(0, CONFIG, index_of)
    aggregator.on_round_start(round_id)
    return aggregator


def _released_cells(aggregator, round_id):
    [(_root, partial)] = aggregator.on_idle(round_id)
    return CountMinSketch(CONFIG.cms_depth, CONFIG.cms_width,
                          CONFIG.cms_seed, cells=partial.cells_as_array())


class TestVectorizedAggregation:
    def test_aggregate_bit_identical_to_seed_scalar_path(self):
        enrollment = _enrolled_round()
        reports = [c.build_report(4) for c in enrollment.clients]
        aggregator = _aggregator(enrollment.index_of, 4)
        for report in reports:
            aggregator.on_message(report.user_id, report)
        vectorized = _released_cells(aggregator, 4)
        scalar = _seed_scalar_aggregate(CONFIG, reports)
        assert vectorized.cells == scalar.cells

    def test_aggregate_with_adjustments_matches_scalar(self):
        enrollment = _enrolled_round(seed=13)
        clients = enrollment.clients
        survivors = clients[:-1]
        reports = [c.build_report(2) for c in survivors]
        aggregator = _aggregator(enrollment.index_of, 2)
        for report in reports:
            aggregator.on_message(report.user_id, report)
        adjustments = []
        for client, (_user, notice) in zip(survivors,
                                           aggregator.on_idle(2)):
            [(_uplink, adjustment)] = client.on_message(
                aggregator.endpoint_id, notice)
            aggregator.on_message(client.user_id, adjustment)
            adjustments.append(adjustment)
        vectorized = _released_cells(aggregator, 2)
        scalar = _seed_scalar_aggregate(CONFIG, reports, adjustments)
        assert vectorized.cells == scalar.cells

    def test_aggregate_accepts_tuple_and_vector_reports(self):
        aggregator = _aggregator({"a": 0, "b": 1}, 1)
        ones = [1] * CONFIG.num_cells
        aggregator.on_message("a", BlindedReport("a", 1, cells=tuple(ones)))
        aggregator.on_message("b", BlindedReport(
            "b", 1, cells=CellVector(np.asarray(ones, dtype=np.uint64))))
        agg = _released_cells(aggregator, 1)
        assert agg.cells == tuple([2] * CONFIG.num_cells)


class TestVectorizedDistribution:
    def test_batched_distribution_matches_scalar(self):
        enrollment = _enrolled_round(seed=17)
        session = ProtocolSession(CONFIG, enrollment.clients)
        result = session.run_round(1)
        scalar = _seed_scalar_distribution(CONFIG, result.aggregate)
        assert result.distribution.values == scalar.values

    def test_chunked_fallback_matches_cached_table(self, monkeypatch):
        from repro.protocol import server as server_mod
        enrollment = _enrolled_round(seed=19)
        aggregate = ProtocolSession(
            CONFIG, enrollment.clients).run_round(1).aggregate

        def run(max_bytes):
            monkeypatch.setattr(server_mod, "_ID_TABLE_MAX_BYTES", max_bytes)
            monkeypatch.setattr(server_mod, "_ID_CHUNK", 77)
            return UsersDistributionQuery(CONFIG).distribution(aggregate)

        cached = run(128 * 1024 * 1024)
        chunked = run(0)  # force the no-table path
        assert cached.values == chunked.values

    def test_table_cache_reused_across_rounds(self):
        enrollment = _enrolled_round(seed=23)
        session = ProtocolSession(CONFIG, enrollment.clients)
        r1 = session.run_round(1)
        r2 = session.run_round(2)
        query = session.root._distribution_query
        table = query._id_table_for(r1.aggregate)
        assert table is query._id_table_for(r2.aggregate)
        assert not table.flags.writeable  # shared process-wide
        # Same observations -> identical distributions in both rounds.
        assert r1.distribution.values == r2.distribution.values

    def test_id_table_survives_an_epoch(self, monkeypatch):
        """``advance_epoch`` wires a new root aggregator (a new query
        object); the ID space must not be re-hashed for it."""
        from repro.protocol import server as server_mod
        server_mod._id_table.cache_clear()
        id_space_calls = []
        flat_indexes = CountMinSketch.flat_indexes

        def counting(self, items):
            if isinstance(items, range) and len(items) == CONFIG.id_space:
                id_space_calls.append(items)
            return flat_indexes(self, items)

        monkeypatch.setattr(CountMinSketch, "flat_indexes", counting)
        session = ProtocolSession.create(_enrolled_round(seed=37))
        before = session.run_next_round()
        query = session.root._distribution_query
        session.advance_epoch(joins=["joiner"], leaves=["u0"])
        assert session.root._distribution_query is not query
        after = session.run_next_round()
        assert len(id_space_calls) == 1
        assert before.distribution.values and after.distribution.values


class TestBlindingArrayApis:
    """The array forms against the reference round, whose report for a
    user that saw nothing is that user's blinding vector, and whose
    adjustments are the recovery vectors."""

    def test_blinding_vector_array_matches_the_reference(self):
        enrollment = _enrolled_round(seed=29, n_users=3)
        client = enrollment.clients[0]
        as_array = client.blinding.blinding_vector_array(CONFIG.num_cells,
                                                         round_id=6)
        blinding = ReferenceRound(enrollment, {}, 6, (), CONFIG).reports[
            client.user_id]
        assert as_array.dtype == np.uint32
        assert as_array.tolist() == blinding

    def test_adjustment_array_matches_the_reference(self):
        enrollment = _enrolled_round(seed=31, n_users=4)
        client, missing = enrollment.clients[0], enrollment.clients[-1]
        as_array = client.blinding.adjustment_for_missing_array(
            [missing.blinding.user_index], CONFIG.num_cells, round_id=3)
        reference = ReferenceRound(enrollment, {}, 3, [missing.user_id],
                                   CONFIG)
        assert as_array.tolist() == reference.adjustments[client.user_id]

    def test_blinding_vector_array_matches_the_reference(self):
        enrollment = _enrolled_round(seed=37, n_users=3)
        client = enrollment.clients[0]
        arr = client.blinding.blinding_vector_array(CONFIG.num_cells,
                                                    round_id=1)
        assert arr.dtype == np.uint32
        assert arr.tolist() == ReferenceRound(
            enrollment, {}, 1, (), CONFIG).reports[client.user_id]


class TestCellVector:
    def test_equality_with_tuple_both_directions(self):
        vector = CellVector([1, 2, 3])
        assert vector == (1, 2, 3)
        assert (1, 2, 3) == vector
        assert vector != (1, 2, 4)
        assert vector != (1, 2)

    def test_hash_matches_tuple(self):
        assert hash(CellVector([5, 6, 7])) == hash((5, 6, 7))

    def test_messages_mix_forms(self):
        a = BlindedReport("u", 1, cells=(9, 9))
        b = BlindedReport("u", 1, cells=CellVector([9, 9]))
        assert a == b
        assert BlindingAdjustment("u", 1, cells=CellVector([1])) == \
            BlindingAdjustment("u", 1, cells=(1,))

    def test_sequence_behaviour(self):
        vector = CellVector([4, 5, 6, 7])
        assert len(vector) == 4
        assert vector[0] == 4 and isinstance(vector[0], int)
        assert vector[1:3] == (5, 6)
        assert list(vector) == [4, 5, 6, 7]
        assert 6 in vector

    def test_wire_roundtrip_preserves_equality(self):
        report = BlindedReport("u", 3, cells=CellVector([0, 1, 0xFFFFFFFF]))
        decoded = wire.decode(wire.encode(report))
        assert decoded == report
        assert isinstance(decoded.cells, CellVector)
        # And against the tuple form of the same message.
        assert decoded == BlindedReport("u", 3, cells=(0, 1, 0xFFFFFFFF))

    def test_cells_as_array_zero_copy(self):
        arr = np.asarray([1, 2, 3], dtype=np.uint64)
        report = BlindedReport("u", 1, cells=CellVector(arr))
        assert report.cells_as_array() is report.cells.array
