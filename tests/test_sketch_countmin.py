"""Unit and property tests for the count-min sketch."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SketchDimensionMismatch
from repro.sketch.countmin import CountMinSketch


class TestConstruction:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(0, 10)
        with pytest.raises(ConfigurationError):
            CountMinSketch(3, -1)

    def test_from_error_bounds_paper_sizes(self):
        """delta=eps=0.001, 4-byte cells -> 185/196/207 KB (paper §7.1).

        The paper's KB is decimal (1 KB = 1000 bytes): 17 rows x 2719
        columns x 4 bytes = 184.9 KB, matching its 185 KB figure.
        """
        for items, expected_kb in ((10_000, 185), (50_000, 196), (100_000, 207)):
            cms = CountMinSketch.from_error_bounds(0.001, 0.001, items)
            assert round(cms.size_bytes(4) / 1000) == expected_kb

    def test_from_error_bounds_validates(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch.from_error_bounds(0, 0.1, 10)
        with pytest.raises(ConfigurationError):
            CountMinSketch.from_error_bounds(0.1, 1.5, 10)
        with pytest.raises(ConfigurationError):
            CountMinSketch.from_error_bounds(0.1, 0.1, 0)

    def test_same_dimension_sketches_share_one_hash_family(self):
        """The family is immutable and shared; the cells never are."""
        a, b = CountMinSketch(4, 32, seed=9), CountMinSketch(4, 32, seed=9)
        assert a.hash_family is b.hash_family
        assert a.empty_like().hash_family is a.hash_family
        assert CountMinSketch(4, 32, seed=10).hash_family is not a.hash_family
        assert CountMinSketch(4, 33, seed=9).hash_family is not a.hash_family
        a.update_many(["x", "y", "x"])
        assert a.total == 3 and a.query("x") >= 2
        assert b.total == 0 and not b.cells_array.any()
        assert not a.hash_family._a.flags.writeable
        assert not a.hash_family._b.flags.writeable

    def test_width_follows_e_over_epsilon(self):
        cms = CountMinSketch.from_error_bounds(0.01, 0.01, 100)
        assert cms.width == math.ceil(math.e / 0.01)

    def test_cells_roundtrip(self):
        cms = CountMinSketch(2, 8, seed=1)
        cms.update("a", 3)
        clone = CountMinSketch(2, 8, seed=1, cells=cms.cells)
        assert clone.query("a") >= 3

    def test_cells_length_checked(self):
        with pytest.raises(SketchDimensionMismatch):
            CountMinSketch(2, 4, cells=[0] * 7)

    def test_empty_like(self):
        cms = CountMinSketch(3, 16, seed=4)
        cms.update("x")
        fresh = cms.empty_like()
        assert fresh.total == 0
        assert fresh.query("x") == 0
        assert (fresh.depth, fresh.width, fresh.seed) == (3, 16, 4)


class TestUpdateQuery:
    def test_single_item(self):
        cms = CountMinSketch(4, 64)
        cms.update("ad-1")
        assert cms.query("ad-1") >= 1

    def test_counts_accumulate(self):
        cms = CountMinSketch(4, 64)
        for _ in range(5):
            cms.update("ad-1")
        assert cms.query("ad-1") >= 5

    def test_update_with_count(self):
        cms = CountMinSketch(4, 64)
        cms.update("ad-1", count=7)
        assert cms.query("ad-1") >= 7

    def test_negative_update_rejected(self):
        cms = CountMinSketch(2, 8)
        with pytest.raises(ConfigurationError):
            cms.update("x", count=-1)

    def test_absent_item_zero_when_sparse(self):
        cms = CountMinSketch(5, 1024)
        cms.update("present")
        assert cms.query("never-seen-item") <= cms.error_bound() + 1

    def test_contains(self):
        cms = CountMinSketch(4, 256)
        cms.update("here")
        assert "here" in cms

    def test_total_tracks_insertions(self):
        cms = CountMinSketch(3, 32)
        cms.update("a", 2)
        cms.update("b", 3)
        assert cms.total == 5


class TestMergeAndAggregate:
    def test_merge_adds_counts(self):
        a = CountMinSketch(4, 128, seed=2)
        b = CountMinSketch(4, 128, seed=2)
        a.update("ad", 2)
        b.update("ad", 3)
        a.merge(b)
        assert a.query("ad") >= 5
        assert a.total == 5

    def test_add_operator(self):
        a = CountMinSketch(4, 128, seed=2)
        b = CountMinSketch(4, 128, seed=2)
        a.update("x")
        b.update("y")
        c = a + b
        assert c.query("x") >= 1
        assert c.query("y") >= 1

    def test_incompatible_merge_rejected(self):
        a = CountMinSketch(4, 128, seed=2)
        for bad in (CountMinSketch(3, 128, seed=2),
                    CountMinSketch(4, 64, seed=2),
                    CountMinSketch(4, 128, seed=3)):
            with pytest.raises(SketchDimensionMismatch):
                a.merge(bad)

    def test_aggregate_many(self):
        sketches = []
        for i in range(10):
            s = CountMinSketch(4, 256, seed=0)
            s.update("common")
            s.update(f"unique-{i}")
            sketches.append(s)
        agg = CountMinSketch.aggregate(sketches)
        assert agg.query("common") >= 10
        assert agg.total == 20

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch.aggregate([])

    def test_merge_equals_single_stream(self):
        """Merging sketches of two streams == sketching the concatenation."""
        stream_a = [f"ad-{i % 7}" for i in range(50)]
        stream_b = [f"ad-{i % 5}" for i in range(30)]
        sa = CountMinSketch(5, 512, seed=1)
        sb = CountMinSketch(5, 512, seed=1)
        both = CountMinSketch(5, 512, seed=1)
        for x in stream_a:
            sa.update(x)
            both.update(x)
        for x in stream_b:
            sb.update(x)
            both.update(x)
        merged = sa + sb
        assert merged.cells == both.cells


class TestErrorGuarantees:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                    max_size=300))
    def test_never_undercounts(self, stream):
        """CMS invariant (1): query(x) >= true count, always."""
        cms = CountMinSketch(4, 32, seed=0)
        truth = Counter()
        for item in stream:
            cms.update(item)
            truth[item] += 1
        for item, count in truth.items():
            assert cms.query(item) >= count

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=200), st.integers(min_value=0, max_value=50))
    def test_merge_preserves_lower_bound(self, stream, split):
        split = min(split, len(stream))
        a = CountMinSketch(4, 64, seed=3)
        b = CountMinSketch(4, 64, seed=3)
        truth = Counter(stream)
        for item in stream[:split]:
            a.update(item)
        for item in stream[split:]:
            b.update(item)
        merged = a + b
        for item, count in truth.items():
            assert merged.query(item) >= count

    def test_overcount_within_bound_mostly(self):
        """Invariant (2): overcount <= eps*N for ~all of many items."""
        cms = CountMinSketch.from_error_bounds(0.01, 0.01, 2000, seed=5)
        truth = Counter()
        for i in range(2000):
            item = f"ad-{i % 500}"
            cms.update(item)
            truth[item] += 1
        bound = cms.error_bound()
        violations = sum(1 for item, c in truth.items()
                         if cms.query(item) > c + bound)
        assert violations <= max(1, int(0.01 * len(truth)))


class TestSizeAccounting:
    def test_size_bytes(self):
        cms = CountMinSketch(2, 10)
        assert cms.size_bytes(4) == 80

    def test_size_rejects_bad_cell_size(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(2, 2).size_bytes(0)

    def test_repr_mentions_dimensions(self):
        assert "depth=2" in repr(CountMinSketch(2, 4))
