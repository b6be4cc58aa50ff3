"""The batched client backend and the hierarchical aggregation tree.

The contracts this file pins:

* **Byte-identical reports** — the same enrollment seed produces the
  very same :class:`BlindedReport` bytes from a
  :class:`~repro.protocol.army.ClientArmy` as from per-user
  :class:`ProtocolClient` objects, at every clique count, with and
  without OPRF mapping, and in rounds after an epoch transition. The
  vectorized clique-matrix blinding is the object path's math, not an
  approximation of it.
* **Identical recovery** — a dropout produces the same
  :class:`BlindingAdjustment` bytes and the same recovered aggregate
  from both backends.
* **Tree re-association** — inserting regional aggregator tiers between
  cliques and the root (any ``fan_in``) never changes the aggregate,
  distribution or threshold: modular addition is associative, and the
  tree only re-parenthesizes the sum.
* **Hash once** — a round hashes each distinct URL of the window once,
  army-wide, and builds no hash family; both are pinned by counting
  calls, not by a clock.
* **Chunked blinding** — cliques of one layout are blinded a bounded
  chunk at a time; mixed clique sizes, a joiner that breaks the
  ascending layout and any chunk size leave every byte unchanged, the
  pad-reuse guard still sees every cleartext change, and a round's
  working set stays within a few chunk budgets.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import ProtocolSession, SessionConfig, run_private_round
from repro.crypto import blinding as blinding_module
from repro.errors import (
    BlindingError,
    ConfigurationError,
    ProtocolError,
    RoundStateError,
)
from repro.protocol.aggregator import (
    RegionalAggregator,
    plan_aggregation_tree,
    regional_endpoint_id,
)
from repro.protocol.army import ARMY_ENDPOINT, ClientArmy
from repro.protocol.client import RoundConfig
from repro.protocol.endpoint import SERVER_ENDPOINT
from repro.protocol.membership import MembershipManager
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    PartialAggregate,
)
from repro.protocol.transport import InMemoryTransport
from repro.sketch.countmin import CountMinSketch
from repro.sketch.hashing import HashFamily

CONFIG = RoundConfig(cms_depth=4, cms_width=64, cms_seed=7, id_space=400)
USERS = [f"user-{i:03d}" for i in range(24)]


def ads_for(user_ids):
    """Deterministic, overlapping ad sets keyed by roster position."""
    return {uid: [f"http://ads.example/{i % 7}", f"http://ads.example/x{i % 3}"]
            for i, uid in enumerate(sorted(user_ids))}


def object_session(user_ids=USERS, num_cliques=4, record=False):
    transport = InMemoryTransport(record_transcript=True) if record else None
    session = ProtocolSession.create(
        list(user_ids), CONFIG, SessionConfig(transport=transport), seed=3,
        use_oprf=False, num_cliques=num_cliques)
    for client in session.clients:
        for url in ads_for(user_ids)[client.user_id]:
            client.observe_ad(url)
    return session


def army_session(user_ids=USERS, num_cliques=4, record=False, **wiring):
    transport = InMemoryTransport(record_transcript=True) if record else None
    session = ProtocolSession.create(
        list(user_ids), CONFIG,
        SessionConfig(transport=transport, client_backend="batched",
                      **wiring),
        seed=3, use_oprf=False, num_cliques=num_cliques)
    for uid in session.army.user_ids:
        for url in ads_for(user_ids)[uid]:
            session.army.observe_ad(uid, url)
    return session


def payloads_of(session, kind):
    """``{user_id: cell bytes}`` for every ``kind`` message sent.

    The two backends emit the same message *multiset* in different
    orders (objects iterate the enrollment roster, the army its chunks
    of same-layout cliques), so equivalence keys on the user, not the
    sequence.
    """
    out = {}
    for _sender, _recipient, payload in session.transport.transcript:
        if isinstance(payload, kind):
            out[payload.user_id] = payload.cells_as_array().tobytes()
    return out


def cells_of(result):
    return np.asarray(result.aggregate.cells_array)


def results_match(a, b):
    assert np.array_equal(cells_of(a), cells_of(b))
    assert list(a.distribution.values) == list(b.distribution.values)
    assert a.users_threshold == b.users_threshold
    assert sorted(a.reported_users) == sorted(b.reported_users)
    assert sorted(a.missing_users) == sorted(b.missing_users)


class TestBackendEquivalence:
    @pytest.mark.parametrize("num_cliques", [1, 4])
    def test_reports_byte_identical(self, num_cliques):
        s_obj = object_session(num_cliques=num_cliques, record=True)
        s_army = army_session(num_cliques=num_cliques, record=True)
        r_obj = s_obj.run_round(0)
        r_army = s_army.run_round(0)
        reports_obj = payloads_of(s_obj, BlindedReport)
        reports_army = payloads_of(s_army, BlindedReport)
        assert reports_obj.keys() == reports_army.keys()
        assert reports_obj == reports_army
        results_match(r_obj, r_army)

    def test_oprf_mapping_equivalent(self):
        users = USERS[:8]
        s_obj = ProtocolSession.create(
            users, CONFIG, seed=5, use_oprf=True, num_cliques=2)
        s_army = ProtocolSession.create(
            users, CONFIG, SessionConfig(client_backend="batched"), seed=5,
            use_oprf=True, num_cliques=2)
        for client in s_obj.clients:
            client.observe_ad("http://with.oprf/ad")
        for uid in s_army.army.user_ids:
            s_army.army.observe_ad(uid, "http://with.oprf/ad")
        results_match(s_obj.run_round(0), s_army.run_round(0))

    @pytest.mark.parametrize("num_cliques", [1, 4])
    def test_dropout_recovery_identical(self, num_cliques):
        dropped = [USERS[2], USERS[11]]
        s_obj = object_session(num_cliques=num_cliques, record=True)
        s_army = army_session(num_cliques=num_cliques, record=True)
        for session in (s_obj, s_army):
            session.drop_users(dropped)
        r_obj = s_obj.run_round(0)
        r_army = s_army.run_round(0)
        assert r_obj.recovery_round_used and r_army.recovery_round_used
        assert sorted(r_obj.missing_users) == sorted(dropped)
        adj_obj = payloads_of(s_obj, BlindingAdjustment)
        adj_army = payloads_of(s_army, BlindingAdjustment)
        assert adj_obj.keys() == adj_army.keys()
        assert adj_obj == adj_army
        results_match(r_obj, r_army)

    def test_post_epoch_round_identical(self):
        joins, leaves = ["user-900", "user-901"], [USERS[3], USERS[11]]
        s_obj = object_session(record=True)
        s_army = army_session(record=True)
        results_match(s_obj.run_round(0), s_army.run_round(0))
        t_obj = s_obj.advance_epoch(joins=joins, leaves=leaves)
        t_army = s_army.advance_epoch(joins=joins, leaves=leaves)
        assert s_obj.epoch == s_army.epoch
        assert t_obj.modexps == t_army.modexps
        assert t_obj.secrets_reused == t_army.secrets_reused
        assert t_obj.secrets_dropped == t_army.secrets_dropped
        roster = s_army.army.user_ids
        assert roster == sorted(set(USERS) - set(leaves)) + sorted(joins) \
            or set(roster) == (set(USERS) - set(leaves)) | set(joins)
        ads = ads_for(roster)
        s_obj.reset_windows()
        for client in s_obj.clients:
            for url in ads[client.user_id]:
                client.observe_ad(url)
        s_army.reset_windows()
        for uid in roster:
            for url in ads[uid]:
                s_army.army.observe_ad(uid, url)
        r_obj = s_obj.run_next_round()
        r_army = s_army.run_next_round()
        assert r_obj.round_id == r_army.round_id == 1
        reports_obj = payloads_of(s_obj, BlindedReport)
        reports_army = payloads_of(s_army, BlindedReport)
        assert reports_obj == reports_army
        results_match(r_obj, r_army)


def observe_window(session, roster):
    """Refill both backends' windows with ``ads_for(roster)``."""
    ads = ads_for(roster)
    session.reset_windows()
    if session.army is not None:
        for uid in roster:
            session.army.observe_ads(uid, ads[uid])
    else:
        for client in session.clients:
            for url in ads[client.user_id]:
                client.observe_ad(url)


class TestChunkedBlinding:
    """Reports and dropout adjustments stay byte-identical to the object
    path wherever clique layouts or the kernel's chunks vary."""

    #: Default, one clique a chunk, two and a half rows (chunks of two,
    #: the buffer's last half row unused), every clique in one chunk.
    BUDGETS = [None, 1, 5 * CONFIG.num_cells // 2, 2**30]

    @staticmethod
    def assert_same_round(s_obj, s_army, dropped):
        for session in (s_obj, s_army):
            session.drop_users(dropped)
        r_obj, r_army = s_obj.run_next_round(), s_army.run_next_round()
        assert r_obj.round_id == r_army.round_id
        assert sorted(r_army.missing_users) == sorted(dropped)
        for kind in (BlindedReport, BlindingAdjustment):
            assert payloads_of(s_obj, kind) == payloads_of(s_army, kind)
        assert payloads_of(s_army, BlindingAdjustment)
        results_match(r_obj, r_army)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_mixed_clique_sizes(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(blinding_module, "_SQUEEZE_CELLS", budget)
        users = USERS[:11]
        s_obj = object_session(users, num_cliques=3, record=True)
        s_army = army_session(users, num_cliques=3, record=True)
        assert sorted(map(len, s_army.army.members().values())) == [3, 4, 4]
        self.assert_same_round(s_obj, s_army, [users[1], users[6]])

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_joiner_breaks_the_ascending_layout(self, monkeypatch, budget):
        """The joiner sorts first in its clique but holds the highest
        index, so its clique has the others' size and not their layout."""
        if budget is not None:
            monkeypatch.setattr(blinding_module, "_SQUEEZE_CELLS", budget)
        joiner = "aaa-joiner"
        s_obj, s_army = object_session(record=True), army_session(record=True)
        results_match(s_obj.run_next_round(), s_army.run_next_round())
        for session in (s_obj, s_army):
            session.advance_epoch(joins=[joiner], leaves=[USERS[3]])
        army = s_army.army
        assert army.index_of[joiner] == max(army.index_of.values())
        assert {len(m) for m in army.members().values()} == {6}
        assert len({wiring[3] for wiring in army._wiring_of.values()}) == 2
        for session in (s_obj, s_army):
            observe_window(session, army.user_ids)
        self.assert_same_round(s_obj, s_army, [joiner, USERS[20]])


    @pytest.mark.parametrize("budget", BUDGETS[1:])
    def test_slot_buffers_equal_per_row_squeezes(self, monkeypatch, budget):
        """Each pair slot's buffer is filled with one big-endian read of
        all its rows; every row is ``_squeeze``'s byte for byte, and so is
        the blinding of five cliques of three written over a member-major
        stack, whether a chunk holds one clique, two (the last chunk one)
        or all five."""
        monkeypatch.setattr(blinding_module, "_SQUEEZE_CELLS", budget)
        num_cells, round_id = CONFIG.num_cells, 9
        lo, hi = np.array([0, 0, 1]), np.array([1, 2, 2])
        secrets = [bytes([k, p]) * 20 for k in range(5) for p in range(3)]
        per_row = [blinding_module._squeeze(secret, round_id, num_cells)
                   for secret in secrets]
        chunk = blinding_module.cliques_per_chunk(num_cells)
        for start in range(0, 5, chunk):
            stop = min(start + chunk, 5)
            slots = blinding_module._squeezed_slots(
                secrets[start * 3:stop * 3], 3, round_id, num_cells)
            for slot, rows in enumerate(slots):
                assert rows.tobytes() == np.stack(
                    per_row[start * 3 + slot:stop * 3:3]).tobytes()
        want = np.zeros((3, 5, num_cells), dtype=np.uint32)
        for n, stream in enumerate(per_row):
            clique, slot = divmod(n, 3)
            want[hi[slot], clique] += stream
            want[lo[slot], clique] -= stream
        cells = np.full_like(want, 0xDEADBEEF)
        blinding_module.blind_cliques(cells, secrets, lo, hi, round_id)
        assert cells.tobytes() == want.tobytes()


class TestPadReuseGuard:
    """The army's guard hashes each chunk's sorted flat cell indexes: it
    sees every change to any member's counts, in any chunk, and none to
    the order a window was observed in."""

    @staticmethod
    def army(users=8, num_cliques=2):
        return ClientArmy.enroll(USERS[:users], CONFIG, seed=1,
                                 use_oprf=False, num_cliques=num_cliques)

    def test_moving_a_url_between_members_raises(self):
        """The clique's summed cells do not change; one member's do."""
        army = self.army()
        first, second, *_ = army.members()[0]
        army.observe_ads(first, ["http://x/1", "http://x/2"])
        army.on_round_start(0)
        army.reset_window()
        army.observe_ad(first, "http://x/1")
        army.observe_ad(second, "http://x/2")
        with pytest.raises(RoundStateError, match="already blinded"):
            army.on_round_start(0)

    def test_change_in_the_last_chunk_raises(self, monkeypatch):
        """One clique a chunk; the last member of the last clique swaps a
        URL for another, so every chunk keeps its index count."""
        monkeypatch.setattr(blinding_module, "_SQUEEZE_CELLS", CONFIG.num_cells)
        army = self.army(users=12, num_cliques=4)
        *_, last = army.members()[max(army.members())]

        def observe(last_url):
            army.reset_window()
            for uid in army.user_ids:
                army.observe_ad(uid, last_url if uid == last else "http://x/1")

        observe("http://x/1")
        army.on_round_start(0)
        observe("http://x/2")
        with pytest.raises(RoundStateError, match="already blinded"):
            army.on_round_start(0)

    def test_reobserving_in_reverse_order_is_the_same_round(self):
        """A reset window refilled in reverse order fills the ad-id cache,
        the index table and the members' URL sets in another order: same
        counts, same round."""
        army = self.army()
        urls = [f"http://x/{i}" for i in range(60)]
        windows = {uid: urls[i:i + 40] for i, uid in enumerate(army.user_ids)}

        def reports():
            return [(recipient, message.user_id,
                     message.cells_as_array().tobytes())
                    for recipient, message in army.on_round_start(0)]

        for uid, window in windows.items():
            army.observe_ads(uid, window)
        first = reports()
        orders = [list(army._seen[uid]) for uid in windows]
        army.reset_window()
        for uid, window in reversed(list(windows.items())):
            army.observe_ads(uid, window[::-1])
        assert [list(army._seen[uid]) for uid in windows] != orders
        assert reports() == first

    def test_round_working_set_is_a_few_chunk_budgets(self):
        """1,000 cliques of 4 over 1,024 cells: the reports hold 16 MiB of
        cells; on top of what the round leaves behind, its peak is within
        a few squeeze buffers (a round-wide batch would add megabytes)."""
        config = RoundConfig(cms_depth=4, cms_width=256, cms_seed=7,
                             id_space=400)
        army = ClientArmy.enroll([f"user-{i:04d}" for i in range(4000)],
                                 config, seed=1, use_oprf=False,
                                 num_cliques=1000)
        for i, uid in enumerate(army.user_ids):
            army.observe_ads(uid, [f"http://ads.example/{(3 * i + j) % 400}"
                                   for j in range(3)])
        army.on_round_start(0)
        tracemalloc.start()
        try:
            outbox = army.on_round_start(1)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(outbox) == 4000
        assert retained >= 4000 * config.num_cells * 4
        four_buffers = 4 * 256 * 1024
        assert peak - retained < four_buffers, (peak, retained)


#: A pool small enough that users overlap, mapped onto an id space small
#: enough (2-3) that distinct URLs collide on one ad id.
POOL = [f"http://pool.example/{i}" for i in range(5)]


@st.composite
def windows(draw):
    """(id_space, num_cliques, one observation list per user): 1-12
    users, as many cliques as leave every clique two members (a single
    user is the one single-member clique enrollment allows), lists that
    may be empty or repeat a URL."""
    users = draw(st.integers(min_value=1, max_value=12))
    num_cliques = draw(st.integers(min_value=1,
                                   max_value=max(1, min(3, users // 2))))
    observed = draw(st.lists(st.lists(st.sampled_from(POOL), max_size=6),
                             min_size=users, max_size=users))
    return draw(st.integers(min_value=2, max_value=3)), num_cliques, observed


class TestGeneratedWindows:
    @settings(max_examples=40, deadline=None)
    @given(windows())
    @example((3, 3, [[]] * 6))  # a wholly empty window
    @example((2, 1, [POOL + POOL[:2]]))  # one user, every URL collides
    @example((2, 2, [POOL[:1], [], POOL[1:], [], POOL[::2]]))
    def test_reports_equal_objects_and_sum_is_cleartext(self, window):
        id_space, num_cliques, observed = window
        config = RoundConfig(cms_depth=3, cms_width=16, cms_seed=7,
                             id_space=id_space)
        roster = USERS[:len(observed)]
        s_obj, s_army = (ProtocolSession.create(
            roster, config,
            SessionConfig(transport=InMemoryTransport(record_transcript=True),
                          client_backend=backend),
            seed=3, use_oprf=False, num_cliques=num_cliques)
            for backend in ("objects", "batched"))
        urls_of = dict(zip(roster, observed))
        for client in s_obj.clients:
            for url in urls_of[client.user_id]:
                client.observe_ad(url)
        for uid in roster:
            s_army.army.observe_ads(uid, urls_of[uid])
        r_obj, r_army = s_obj.run_round(0), s_army.run_round(0)
        reports_obj = payloads_of(s_obj, BlindedReport)
        assert sorted(reports_obj) == roster
        assert reports_obj == payloads_of(s_army, BlindedReport)
        results_match(r_obj, r_army)
        cleartext = config.make_sketch()
        for urls in observed:  # a URL seen twice in a window counts once
            cleartext.update_many(
                [s_army.army.ad_mapper.ad_id(url) for url in set(urls)])
        assert np.array_equal(cells_of(r_army), cleartext.cells_array)


class TestHashOncePerRound:
    """Clock-free pins of the per-round index table and the shared hash
    family: both count calls, so they fail on a regression at any speed."""

    def test_each_distinct_url_is_hashed_once_army_wide(self, monkeypatch):
        """64 cliques of 4 over a 50-URL pool: one ``flat_indexes`` call
        over 50 items a round (per-clique hashing made 64 calls over all
        768 (user, URL) pairs) — also after the window is reset and
        refilled, and after joiners bring unseen URLs."""
        hashed = []
        flat_indexes = CountMinSketch.flat_indexes

        def counting(self, items):
            hashed.append(len(items))
            return flat_indexes(self, items)

        monkeypatch.setattr(CountMinSketch, "flat_indexes", counting)
        pool = [f"http://ads.example/{i}" for i in range(50)]
        army = ClientArmy.enroll([f"user-{i:03d}" for i in range(256)],
                                 CONFIG, seed=1, use_oprf=False,
                                 num_cliques=64)
        manager = MembershipManager(army)

        def observe(user_ids):
            for i, uid in enumerate(user_ids):
                army.observe_ads(uid, [pool[(3 * i + j) % 50]
                                       for j in range(3)])

        observe(army.user_ids)
        attributes = set(vars(army))
        assert len(army.on_round_start(0)) == 256
        assert hashed == [50]
        # Nothing about the table outlives the round that built it.
        assert set(vars(army)) == attributes
        army.reset_window()
        observe(army.user_ids)
        hashed.clear()
        army.on_round_start(1)
        assert hashed == [50]
        joiners = ["user-900", "user-901"]
        manager.advance_epoch(joins=joiners)
        army.observe_ads(joiners[0], ["http://new.example/a", pool[0]])
        army.observe_ads(joiners[1], ["http://new.example/b"])
        hashed.clear()
        assert len(army.on_round_start(2)) == 258
        assert hashed == [52]

    def test_table_built_in_slices_gives_the_same_reports(self, monkeypatch):
        """A window larger than one hashing slice only bounds the hash's
        temporaries: the reports do not depend on the slice size."""
        def reports(army):
            for i, uid in enumerate(army.user_ids):
                army.observe_ads(uid, [f"http://ads.example/{(5 * i + j) % 23}"
                                       for j in range(4)])
            return [(recipient, message.user_id,
                     message.cells_as_array().tobytes())
                    for recipient, message in army.on_round_start(0)]

        def enroll():
            return ClientArmy.enroll(USERS, CONFIG, seed=1, use_oprf=False,
                                     num_cliques=4)

        whole = reports(enroll())
        monkeypatch.setattr("repro.protocol.army._TABLE_SLICE", 5)
        assert reports(enroll()) == whole

    def test_warm_round_builds_no_hash_family_per_clique(self, monkeypatch):
        """Aggregating a clique needs cells, not coefficients: a warm
        fan-out round constructs as many ``HashFamily`` objects at 32
        cliques as at 8 (one fresh family per clique aggregate, before
        sketches shared theirs)."""
        built = []
        init = HashFamily.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(HashFamily, "__init__", counting)
        per_cliques = {}
        for num_cliques in (8, 32):
            session = army_session(
                [f"user-{i:03d}" for i in range(2 * num_cliques)],
                num_cliques=num_cliques)
            session.run_round(0)
            built.clear()
            session.run_round(1)
            per_cliques[num_cliques] = len(built)
        assert per_cliques[8] == per_cliques[32], per_cliques


class TestAggregationTreePlan:
    def test_flat_when_fan_in_none_or_sufficient(self):
        for fan_in in (None, 8, 100):
            plan = plan_aggregation_tree(list(range(8)), fan_in)
            assert plan.depth == 0
            assert plan.root_children == tuple(range(8))
            assert all(parent == SERVER_ENDPOINT
                       for parent in plan.clique_parent.values())

    def test_two_level_tree_shape(self):
        plan = plan_aggregation_tree(list(range(9)), fan_in=3)
        assert plan.depth == 1
        (tier,) = plan.levels
        assert [node.child_ids for node in tier] == \
            [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        assert all(node.parent_id == SERVER_ENDPOINT for node in tier)
        assert plan.clique_parent[4] == regional_endpoint_id(1, 1)
        assert plan.root_children == (0, 1, 2)

    def test_deep_tree_caps_every_fan_in(self):
        # 30 cliques -> 10 regions -> 4 -> 2 feeds for the root.
        plan = plan_aggregation_tree(list(range(30)), fan_in=3)
        assert plan.depth == 3
        for node in plan.nodes():
            assert len(node.child_ids) <= 3
        assert len(plan.root_children) <= 3
        # Every clique and every regional node has exactly one parent,
        # and every parent referenced exists.
        endpoints = {node.endpoint_id for node in plan.nodes()}
        for parent in plan.clique_parent.values():
            assert parent in endpoints
        for node in plan.nodes():
            assert node.parent_id in endpoints | {SERVER_ENDPOINT}

    def test_validation(self):
        with pytest.raises(ProtocolError):
            plan_aggregation_tree([], None)
        with pytest.raises(ProtocolError):
            plan_aggregation_tree([1, 1], None)
        with pytest.raises(ProtocolError):
            plan_aggregation_tree([1, 2], fan_in=1)

    @pytest.mark.parametrize("fan_in", [2, 3, 5])
    def test_tree_aggregate_matches_flat(self, fan_in):
        r_flat = army_session(num_cliques=8).run_round(0)
        r_tree = army_session(num_cliques=8, fan_in=fan_in).run_round(0)
        results_match(r_flat, r_tree)


    def test_tiered_army_round_over_sockets_matches_flat(self):
        """The regional merges of the batched backend's tree ride the
        socket transport like every other hop."""
        r_flat = army_session(num_cliques=4).run_round(0)
        session = ProtocolSession.create(
            list(USERS), CONFIG,
            SessionConfig(transport="socket", client_backend="batched",
                          fan_in=2),
            seed=3, use_oprf=False, num_cliques=4)
        with session:
            for uid in session.army.user_ids:
                for url in ads_for(USERS)[uid]:
                    session.army.observe_ad(uid, url)
            r_tree = session.run_round(0)
            senders = set(session.transport.bytes_sent)
        results_match(r_flat, r_tree)
        assert sum(sender.startswith("regional-") for sender in senders) == 2


class TestRegionalAggregator:
    def make(self):
        return RegionalAggregator(0, 0, CONFIG, child_ids=[0, 1],
                                  parent_id=SERVER_ENDPOINT)

    def partial(self, clique_id, round_id=1, value=1):
        # Raw ndarray cells on purpose: the duplicate check must compare
        # by value for every legal Cells container, not just CellVector.
        cells = np.full(CONFIG.num_cells, value, dtype=np.uint64)
        return PartialAggregate(clique_id=clique_id, round_id=round_id,
                                cells=cells, reported=(f"u{clique_id}",),
                                missing=())

    def test_merges_once_when_complete(self):
        agg = self.make()
        agg.on_round_start(1)
        assert agg.on_message("clique-aggregator-0", self.partial(0)) == []
        out = agg.on_message("clique-aggregator-1", self.partial(1, value=2))
        [(recipient, merged)] = out
        assert recipient == SERVER_ENDPOINT
        assert merged.clique_id == 0
        assert set(merged.reported) == {"u0", "u1"}
        assert np.asarray(merged.cells_as_array()).tolist() == \
            [3] * CONFIG.num_cells

    def test_rejects_wrong_round_and_stranger(self):
        agg = self.make()
        agg.on_round_start(1)
        with pytest.raises(RoundStateError):
            agg.on_message("x", self.partial(0, round_id=2))
        with pytest.raises(RoundStateError):
            agg.on_message("x", self.partial(7))

    def test_duplicate_partial_idempotent_but_not_conflicting(self):
        agg = self.make()
        agg.on_round_start(1)
        agg.on_message("x", self.partial(0))
        assert agg.on_message("x", self.partial(0)) == []
        with pytest.raises(RoundStateError):
            agg.on_message("x", self.partial(0, value=9))


class TestClientArmy:
    def test_register_aliases_and_endpoint(self):
        army = ClientArmy.enroll(USERS[:6], CONFIG, seed=1, use_oprf=False,
                                 num_cliques=2)
        assert army.endpoint_id == ARMY_ENDPOINT
        transport = InMemoryTransport()
        transport.register(ARMY_ENDPOINT)
        army.register_mailboxes(transport)
        transport.send("someone", USERS[0], "ping")
        assert transport.receive(ARMY_ENDPOINT) == ("someone", "ping")

    def test_observe_unknown_user(self):
        army = ClientArmy.enroll(USERS[:4], CONFIG, seed=1, use_oprf=False)
        with pytest.raises(ConfigurationError):
            army.observe_ad("nobody", "http://x/1")

    def test_rebuild_same_round_different_sketches_raises(self):
        army = ClientArmy.enroll(USERS[:4], CONFIG, seed=1, use_oprf=False)
        army.on_round_start(0)
        army.observe_ad(USERS[0], "http://x/1")
        with pytest.raises(RoundStateError):
            army.on_round_start(0)

    def test_round_working_set_is_smaller_than_the_pad_matrix(self):
        """Clock-free pin of the streamed blinding: one clique of 32
        users x 4096 cells has P = 496 pairs, so its pad matrix alone
        would be P*C*4 = 8.1 MB. A round that squeezes a row, adds it
        twice and drops it peaks at the (members, cells) accumulators
        instead; materialising the matrix (and scattering copies of it)
        peaked at 5.4x the matrix."""
        users, cells = 32, 4096
        config = RoundConfig(cms_depth=4, cms_width=cells // 4, cms_seed=7,
                             id_space=400)
        army = ClientArmy.enroll([f"user-{i:03d}" for i in range(users)],
                                 config, seed=1, use_oprf=False)
        for i, uid in enumerate(army.user_ids):
            army.observe_ad(uid, f"http://ads.example/{i % 7}")
        pad_matrix_bytes = users * (users - 1) // 2 * cells * 4
        tracemalloc.start()
        try:
            outbox = army.on_round_start(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(outbox) == users
        assert peak < pad_matrix_bytes, (peak, pad_matrix_bytes)

    def test_drop_and_restore(self):
        session = army_session(num_cliques=2)
        session.army.drop_users([USERS[0]])
        r1 = session.run_round(0)
        assert r1.missing_users == [USERS[0]]
        session.army.restore_users([USERS[0]])
        r2 = session.run_round(1)
        assert r2.missing_users == []

    def test_a_drop_after_the_reports_went_out_keeps_the_round(self):
        """Recovery is answered for the users whose reports went out at
        the round's start: a reporter dropped afterwards still adjusts
        in this round (its pads are in the sum) and is silent from the
        next one."""
        from repro.protocol.messages import MissingClientsNotice

        def recovery(late_drop):
            army = ClientArmy.enroll(USERS[:4], CONFIG, seed=1,
                                     use_oprf=False)
            army.drop_users([USERS[0]])
            outbox = army.on_round_start(0)
            army.drop_users(late_drop)
            notice = MissingClientsNotice(
                round_id=0, missing_indexes=(army.index_of[USERS[0]],),
                clique_id=0)
            adjustments = army.on_message("clique-aggregator-0", notice)
            assert [m.user_id for _, m in outbox] == USERS[1:4]
            return [(m.user_id, m.cells) for _, m in adjustments]

        late = recovery([USERS[1]])
        assert [uid for uid, _ in late] == USERS[1:4]
        assert late == recovery([])

    def test_adjustment_for_non_member_rejected(self):
        army = ClientArmy.enroll(USERS[:4], CONFIG, seed=1, use_oprf=False)
        army.on_round_start(0)
        from repro.protocol.messages import MissingClientsNotice
        with pytest.raises(BlindingError):
            army.on_message(
                "clique-aggregator-0",
                MissingClientsNotice(round_id=0, missing_indexes=(99,),
                                     clique_id=0))

    def test_churn_validation_matches_membership(self):
        """The army has no lifecycle of its own: the one validator
        refuses the same churn for it, at the manager and the session
        entry point alike, before any army state changes."""
        from repro.protocol.membership import MembershipManager
        for entry in (MembershipManager, ProtocolSession.create):
            army = ClientArmy.enroll(USERS[:6], CONFIG, seed=1,
                                     use_oprf=False, num_cliques=2)
            owner = entry(army)
            with pytest.raises(ConfigurationError, match="already enrolled"):
                owner.advance_epoch(joins=[USERS[0]])
            with pytest.raises(ConfigurationError, match="not currently"):
                owner.advance_epoch(leaves=["nobody"])
            with pytest.raises(ConfigurationError, match=">= 2"):
                owner.advance_epoch(leaves=USERS[:4])  # below the floor
            assert army.user_ids == USERS[:6]
            assert owner.epoch.epoch_id == 0
        assert not hasattr(ClientArmy, "advance_epoch")

    def test_army_session_rejects_membership(self):
        army = ClientArmy.enroll(USERS[:4], CONFIG, seed=1, use_oprf=False)
        from repro.protocol.enrollment import enroll_users
        from repro.protocol.membership import MembershipManager
        manager = MembershipManager(
            enroll_users(USERS[:4], CONFIG, seed=1, use_oprf=False))
        with pytest.raises(ConfigurationError):
            ProtocolSession(CONFIG, army, membership=manager)

    def test_run_private_round_facade(self):
        army = ClientArmy.enroll(USERS[:8], CONFIG, seed=3, use_oprf=False,
                                 num_cliques=2)
        for uid in army.user_ids:
            army.observe_ad(uid, "http://x/1")
        result = run_private_round(
            CONFIG, army, round_id=0, settings=SessionConfig(fan_in=2))
        ad_id = army.ad_mapper.ad_id("http://x/1")
        assert result.aggregate.query(ad_id) >= 8

