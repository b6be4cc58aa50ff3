"""An object client keeps its window as cell indexes, not as a sketch.

:class:`~repro.protocol.client.ProtocolClient` caches the sorted flat
cell indexes of its window's ad ids and their sha256. A report is the
``uint32`` blinding vector with one count added per index. Here:

* a report's cells equal the blinding vector plus the ``uint32`` cells
  of ``CountMinSketch.update_many`` over the window, for an empty
  window, two URLs sharing an ad id, an observation mid-epoch and a
  window reset;
* after a round at the paper's sketch size no client attribute holds a
  vector of the sketch's size, and the guard's digest changes exactly
  when the window does;
* the pad-reuse guard keeps runs of rounds that share a digest
  (:class:`~repro.protocol.client.RoundDigests`), so 200 rounds of one
  window are one run, and every round still answers as before.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoundStateError
from repro.protocol.army import ClientArmy
from repro.protocol.client import RoundConfig, RoundDigests
from repro.protocol.enrollment import enroll_users
from repro.protocol.runner import (
    ClientPopulation,
    ProtocolRunner,
    build_aggregation_tree,
)
from repro.protocol.transport import InMemoryTransport

CONFIG = RoundConfig(cms_depth=4, cms_width=64, cms_seed=7, id_space=300)


class CollidingMapper:
    """Maps ``http://twin.example/a`` and ``/b`` to one ad id, every
    other URL through ``mapper``."""

    def __init__(self, mapper):
        self.mapper = mapper

    def ad_id(self, url):
        if url.startswith("http://twin.example/"):
            return 4242
        return self.mapper.ad_id(url)


def expected_cells(client, round_id):
    """The blinding vector (a second build of the round squeezes it
    afresh) plus the window's sketch, built by ``update_many`` over
    the ad ids of the seen URLs and narrowed to ``uint32``."""
    sketch = client.config.make_sketch()
    sketch.update_many([client.ad_mapper.ad_id(url)
                        for url in client.seen_urls])
    blinding = client.blinding.blinding_vector_array(client.config.num_cells,
                                                     round_id)
    return blinding + sketch.cells_array.astype(np.uint32)


def enrolled(num_users=3, config=CONFIG):
    return enroll_users([f"user-{i:02d}" for i in range(num_users)], config,
                        seed=4, use_oprf=False)


class TestReportEquivalence:
    def check(self, client, round_id):
        report = client.build_report(round_id)
        assert report.cells_as_array().dtype == np.uint32
        assert np.array_equal(report.cells_as_array(),
                              expected_cells(client, round_id))

    def test_an_empty_window_reports_its_blinding(self):
        client = enrolled().clients[0]
        self.check(client, 0)

    def test_two_urls_with_one_ad_id_count_twice(self):
        client = enrolled().clients[0]
        client.ad_mapper = CollidingMapper(client.ad_mapper)
        for url in ("http://twin.example/a", "http://twin.example/b",
                    "http://ads.example/1"):
            client.observe_ad(url)
        self.check(client, 1)

    def test_an_observation_mid_epoch_and_a_reset(self):
        client = enrolled().clients[1]
        client.observe_ad("http://ads.example/1")
        self.check(client, 1)
        client.observe_ad("http://ads.example/2")
        self.check(client, 2)
        client.reset_window()
        self.check(client, 3)
        client.observe_ad("http://ads.example/3")
        self.check(client, 4)


#: The paper's §7.1 sketch: 14 x 2719 = 38,066 cells.
PAPER_CONFIG = RoundConfig(cms_depth=14, cms_width=2719, cms_seed=1,
                           id_space=1000)


def arrays_in(value):
    """The NumPy arrays ``value`` holds, looking one container deep."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            yield from arrays_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from arrays_in(item)
    elif isinstance(value, RoundDigests):
        yield from arrays_in(vars(value))


def test_a_client_keeps_no_sketch_sized_vector_after_a_round():
    assert PAPER_CONFIG.num_cells == 38066
    enrollment = enrolled(num_users=20, config=PAPER_CONFIG)
    for i, client in enumerate(enrollment.clients):
        for j in range(30):
            client.observe_ad(f"http://ads.example/{(7 * i + j) % 90}")
    population = ClientPopulation(enrollment.clients)
    tree, root = build_aggregation_tree(PAPER_CONFIG, population.members(),
                                        population.user_ids)
    runner = ProtocolRunner([*population.endpoints, *tree], root,
                            InMemoryTransport())
    result = runner.run_round(0)
    assert len(result.reported_users) == 20
    for client in enrollment.clients:
        sizes = [array.size for value in vars(client).values()
                 for array in arrays_in(value)]
        assert sizes and max(sizes) < PAPER_CONFIG.num_cells
        indexes, increments, _digest = client._window
        assert indexes.size == 30 * PAPER_CONFIG.cms_depth
        assert increments is None


def test_the_guard_digest_changes_iff_the_window_does():
    client = enrolled().clients[0]

    def digest(round_id):
        client.build_report(round_id)
        return client._window[2]

    client.observe_ad("http://ads.example/1")
    first = digest(0)
    client.observe_ad("http://ads.example/1")  # seen already
    assert digest(1) == first
    client.observe_ad("http://ads.example/2")
    second = digest(2)
    assert second != first
    client.reset_window()
    assert digest(3) != first
    client.observe_ad("http://ads.example/2")
    client.observe_ad("http://ads.example/1")
    assert digest(4) == second  # the same window again, in another order


class TestRoundDigests:
    def test_two_hundred_rounds_of_one_window_are_one_run(self):
        client = enrolled(num_users=2).clients[0]
        client.observe_ad("http://ads.example/1")
        reports = [client.build_report(r).cells_as_array()
                   for r in range(200)]
        assert len(client._blinded_rounds) == 1
        for r in (0, 57, 123, 199):
            assert np.array_equal(client.build_report(r).cells_as_array(),
                                  reports[r])
        client.observe_ad("http://ads.example/2")
        for r in (0, 57, 199):
            with pytest.raises(RoundStateError):
                client.build_report(r)
        client.build_report(200)
        assert len(client._blinded_rounds) == 2

    def test_an_army_keeps_one_run_for_one_window(self):
        army = ClientArmy.enroll([f"user-{i}" for i in range(4)], CONFIG,
                                 seed=2, use_oprf=False)
        army.observe_ad("user-1", "http://ads.example/1")
        for r in range(200):
            army.on_round_start(r)
        assert len(army._round_digests) == 1
        army.observe_ad("user-2", "http://ads.example/2")
        with pytest.raises(RoundStateError):
            army.on_round_start(57)

    def test_runs_merge_with_their_neighbours(self):
        digests = RoundDigests()
        for r in (5, 7, 6):
            digests.add(r, b"a")
        assert len(digests) == 1
        digests.add(4, b"b")
        digests.add(8, b"b")
        assert len(digests) == 3
        assert [digests.get(r) for r in range(3, 10)] == \
            [None, b"b", b"a", b"a", b"a", b"b", None]
        with pytest.raises(RoundStateError):
            digests.add(6, b"b")

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.sampled_from(b"xyz")),
                    max_size=60))
    def test_every_round_answers_as_a_dict_would(self, adds):
        digests, model = RoundDigests(), {}
        for round_id, digest in adds:
            digest = bytes([digest])
            if model.get(round_id, digest) != digest:
                with pytest.raises(RoundStateError):
                    digests.add(round_id, digest)
                continue
            model[round_id] = digest
            digests.add(round_id, digest)
        assert all(digests.get(r) == model.get(r) for r in range(-1, 33))
        runs = sum(1 for r in model
                   if model.get(r - 1) != model[r])
        assert len(digests) == runs
