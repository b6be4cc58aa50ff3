"""The epoch lifecycle: churn, minimal re-sharding, pad-stream caching.

The contracts this file pins:

* **Determinism** — same seed + same join/leave sequence ⇒ identical
  clique maps, pair secrets and aggregates across two independently
  constructed sessions.
* **Minimal re-keying** — ``advance_epoch`` re-keys only users whose
  clique changed; everyone else keeps the very same secret bytes, and
  even affected cliques reuse every surviving pair secret.
* **Aggregate equivalence** — rounds after any number of epoch
  transitions aggregate bit-identically to a fresh enrollment of the
  same roster (pads differ, their sum does not).
* **Pad-stream hand-off** — a shared :class:`PadStreamProvider` gives
  byte-identical blinding (so even individual *reports* and adjustments
  match the provider-less path, in any build order) while squeezing each
  pair's stream once per round and holding at most one vector per member
  still to build, of one round.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from reference_round import ReferenceRound
from repro.api import ProtocolSession, SessionConfig
from repro.crypto.blinding import BlindingGenerator
from repro.errors import BlindingError, ConfigurationError, RoundStateError
from repro.protocol.army import ClientArmy
from repro.protocol.client import ProtocolClient, RoundConfig
from repro.protocol.endpoint import clique_endpoint_id
from repro.protocol.enrollment import enroll_users
from repro.protocol.membership import Epoch, MembershipManager, reshard
from repro.protocol.transport import InMemoryTransport, WireTransport

CONFIG = RoundConfig(cms_depth=4, cms_width=128, cms_seed=7, id_space=400)
USERS = [f"user-{i:02d}" for i in range(12)]


def observe(clients, salt=0):
    for i, client in enumerate(sorted(clients, key=lambda c: c.user_id)):
        for j in range(5):
            client.observe_ad(f"ad-{(i * 3 + j + salt) % 15}")


def session_for(user_ids=USERS, num_cliques=3, seed=3, **wiring):
    return ProtocolSession.create(user_ids, CONFIG, SessionConfig(**wiring),
                                  seed=seed, use_oprf=False,
                                  num_cliques=num_cliques)


def secrets_of(session):
    """user id -> {peer index: secret bytes} for every active client."""
    return {c.user_id: dict(c.blinding._secret_bytes)
            for c in session.clients}


class TestEpochZero:
    def test_enrollment_is_epoch_zero(self):
        session = session_for()
        epoch = session.epoch
        assert epoch.epoch_id == 0
        assert epoch.first_round == 0
        assert epoch.user_ids == tuple(sorted(USERS))
        assert epoch.num_cliques == 3
        assert epoch.min_clique_size == 4

    def test_hand_built_session_has_no_membership(self):
        enrollment = enroll_users(USERS, CONFIG, use_oprf=False)
        session = ProtocolSession(CONFIG, enrollment.clients)
        assert session.epoch is None
        with pytest.raises(ConfigurationError, match="membership"):
            session.advance_epoch(joins=["x"])

    def test_manager_requires_key_material(self):
        from repro.protocol.enrollment import Enrollment
        bare = Enrollment(clients=[], group=None, oprf_server=None,
                          config=CONFIG)
        bare.clients = enroll_users(["a", "b"], CONFIG,
                                    use_oprf=False).clients
        with pytest.raises(ConfigurationError, match="key material"):
            MembershipManager(bare)
        # Key pairs and indexes but no ad mapper: joiners could not be
        # wired, so that is refused up front too.
        full = enroll_users(["a", "b"], CONFIG, use_oprf=False)
        full.ad_mapper = None
        with pytest.raises(ConfigurationError, match="key material"):
            MembershipManager(full)


class TestAdvanceEpoch:
    def test_join_leave_roster(self):
        session = session_for()
        transition = session.advance_epoch(
            joins=["newbie-a", "newbie-b"], leaves=["user-03", "user-07"])
        epoch = session.epoch
        assert epoch.epoch_id == 1
        assert "newbie-a" in epoch.user_ids
        assert "user-03" not in epoch.user_ids
        assert transition.joined == ("newbie-a", "newbie-b")
        assert transition.left == ("user-03", "user-07")
        assert len(session.clients) == 12

    def test_rekeys_only_changed_cliques(self):
        session = session_for()
        before = secrets_of(session)
        clique_before = dict(session.epoch.clique_of)
        leaver = "user-05"
        transition = session.advance_epoch(joins=["newbie-a"],
                                           leaves=[leaver])
        # The joiner replaces the leaver; nobody is forced to move.
        assert transition.moved == ()
        assert transition.rekeyed == ("newbie-a",)
        after = secrets_of(session)
        affected = clique_before[leaver]
        joiner_clique = session.epoch.clique_of["newbie-a"]
        for client in session.clients:
            uid = client.user_id
            if uid == "newbie-a":
                continue
            assert session.epoch.clique_of[uid] == clique_before[uid]
            if clique_before[uid] not in (affected, joiner_clique):
                # Untouched clique: the exact same secrets object state.
                assert after[uid] == before[uid]
            else:
                # Affected clique: surviving pairs keep identical bytes.
                for peer, secret in after[uid].items():
                    if peer in before[uid]:
                        assert secret is before[uid][peer]
        # Modexp accounting: only the joiner's pairs are new. Both ends
        # of each new pair pay one modexp, exactly like real clients.
        mates = session.epoch.members_of(joiner_clique)
        assert transition.modexps == 2 * (len(mates) - 1)

    def test_leaver_secret_dropped_by_mates(self):
        session = session_for()
        manager = session.membership
        leaver = "user-02"
        leaver_index = manager._index_of[leaver]
        clique = session.epoch.clique_of[leaver]
        mates = [u for u in session.epoch.members_of(clique) if u != leaver]
        session.advance_epoch(joins=["replacement"], leaves=[leaver])
        for uid in mates:
            assert leaver_index not in \
                manager.client_of(uid).blinding._secret_bytes

    def test_rejoin_reuses_identity(self):
        session = session_for()
        manager = session.membership
        old_index = manager._index_of["user-04"]
        old_secret = dict(
            manager.client_of("user-04").blinding._secret_bytes)
        session.advance_epoch(joins=["standin"], leaves=["user-04"])
        session.advance_epoch(joins=["user-04"], leaves=["standin"])
        client = manager.client_of("user-04")
        assert client.blinding.user_index == old_index
        # Pairs with mates of its (deterministically chosen) clique that
        # it already knew come back with the same shared secrets.
        for peer, secret in client.blinding._secret_bytes.items():
            if peer in old_secret:
                assert secret == old_secret[peer]

    def test_forced_move_when_clique_starves(self):
        # 3 cliques of 4; removing 3 members of one clique leaves 1 —
        # someone must move, deterministically.
        session = session_for()
        clique0_members = list(session.epoch.members_of(0))
        transition = session.advance_epoch(leaves=clique0_members[:3])
        assert session.epoch.min_clique_size >= 2
        assert len(transition.moved) >= 1
        assert set(transition.rekeyed) == set(transition.moved)

    def test_scheduled_churn_rekeys_exactly_joiners_and_movers(self):
        # A churn_schedule delta (joins and leaves together, 25% of the
        # roster) — not a hand-picked one-in-one-out swap.
        from repro.simulation.churn import churn_schedule
        plan = churn_schedule(USERS, 1, 0.25, seed=11,
                              rejoin_probability=0.0)[0]
        session = session_for()
        transition = session.advance_epoch(joins=plan.joins,
                                           leaves=plan.leaves)
        assert set(transition.joined) == set(plan.joins)
        assert set(transition.rekeyed) == \
            set(transition.joined) | set(transition.moved)
        assert transition.secrets_reused > 0

    def test_validation(self):
        session = session_for()
        with pytest.raises(ConfigurationError, match="already enrolled"):
            session.advance_epoch(joins=["user-00"])
        with pytest.raises(ConfigurationError, match="not currently"):
            session.advance_epoch(leaves=["stranger"])
        with pytest.raises(ConfigurationError, match="join and leave"):
            session.advance_epoch(joins=["x"], leaves=["x"])
        with pytest.raises(ConfigurationError, match="duplicate"):
            session.advance_epoch(joins=["x", "x"])
        with pytest.raises(ConfigurationError, match=">= 2 members"):
            session.advance_epoch(leaves=USERS[:8])  # 4 users, 3 cliques

    @pytest.mark.parametrize("client_backend", ["objects", "batched"])
    def test_leaves_scanned_a_constant_number_of_times(self, client_backend):
        """``advance_epoch`` hoists ``set(leaves)``: it used to rebuild
        it once per roster member, Θ(U·L). Pinned without a clock — the
        number of passes over ``leaves`` must not grow with the roster."""

        class CountingList(list):
            passes = 0

            def __iter__(self):
                type(self).passes += 1
                return super().__iter__()

        def passes_for(num_users):
            users = [f"user-{i:03d}" for i in range(num_users)]
            manager = MembershipManager.enroll(
                users, CONFIG, client_backend=client_backend, seed=3,
                use_oprf=False, num_cliques=2)
            CountingList.passes = 0
            manager.advance_epoch(leaves=CountingList(users[:2]))
            return CountingList.passes

        small, large = passes_for(8), passes_for(32)
        assert small == large
        assert large < 32

    def test_k1_cannot_churn_below_two_users(self):
        """The privacy floor applies to k=1 too: a session must refuse
        to shrink to one user, whose report would be unblinded."""
        session = session_for(["a", "b", "c"], num_cliques=1)
        with pytest.raises(ConfigurationError, match="raw sketch"):
            session.advance_epoch(leaves=["b", "c"])
        # Down to the floor itself is fine.
        session.advance_epoch(leaves=["c"])
        assert session.epoch.size == 2

    def test_round_ids_cannot_rewind_into_previous_epoch(self):
        session = session_for()
        observe(session.clients)
        session.run_round(0)
        session.run_round(1)
        session.advance_epoch(joins=["n-1"], leaves=["user-00"])
        assert session.epoch.first_round == 2
        with pytest.raises(RoundStateError, match="one-time pads"):
            session.run_round(1)


class TestFromMembership:
    def test_session_over_advanced_membership_is_runnable(self):
        """create() on a mid-lifecycle manager must start at the
        epoch's first round, not at 0 (whose pads are spent)."""
        session = session_for()
        observe(session.clients)
        session.run_next_round()
        session.run_next_round()
        session.advance_epoch(joins=["n-a"], leaves=["user-00"])
        rebound = ProtocolSession.create(session.membership)
        assert rebound.next_round == 2
        rebound.reset_windows()
        observe(rebound.clients, salt=1)
        result = rebound.run_next_round()  # must not raise
        assert result.round_id == 2

    def test_stale_session_cannot_rewind_spent_rounds(self):
        """A session built before rounds ran elsewhere carries a stale
        counter; its advance_epoch must not re-open spent pads."""
        session = session_for()
        stale = ProtocolSession.create(session.membership)
        observe(session.clients)
        session.run_next_round()
        session.run_next_round()  # rounds 0, 1 spent via the manager
        transition = stale.advance_epoch(joins=["n-a"],
                                         leaves=["user-00"])
        assert transition.epoch.first_round == 2

    def test_rebuild_mid_epoch_resumes_after_spent_rounds(self):
        """Rounds run in the *current* epoch are spent too: a session
        rebuilt without an intervening advance must resume after them."""
        session = session_for()
        observe(session.clients)
        session.run_next_round()
        session.run_next_round()
        rebound = ProtocolSession.create(session.membership)
        assert rebound.next_round == 2
        rebound.reset_windows()
        observe(rebound.clients, salt=2)
        result = rebound.run_next_round()  # round 0/1 pads not reused
        assert result.round_id == 2

    def test_sessions_on_one_membership_share_its_round_ids(self):
        """Round ids have one owner, the membership: of two sessions
        built on one manager, the second runs the round after the
        first's, never the same id on the same pads."""
        membership = session_for().membership
        a = ProtocolSession.create(membership)
        b = ProtocolSession.create(membership)
        observe(membership.clients)
        assert a.run_next_round().round_id == 0
        assert (membership.next_round, a.next_round, b.next_round) \
            == (1, 1, 1)
        assert b.run_next_round().round_id == 1
        assert a.next_round == 2


class TestAggregateEquivalence:
    def run_epoch_round(self, **wiring):
        session = session_for(**wiring)
        observe(session.clients)
        session.run_next_round()
        session.advance_epoch(joins=["n-a", "n-b"],
                              leaves=["user-01", "user-08"])
        session.reset_windows()
        observe(session.clients, salt=2)
        return session, session.run_next_round()

    def test_post_epoch_round_matches_fresh_enrollment(self):
        session, result = self.run_epoch_round()
        roster = list(session.epoch.user_ids)
        reference = ProtocolSession.create(
            roster, CONFIG, seed=99, use_oprf=False, num_cliques=3)
        # Same observations on the reference population (the shared
        # KeyedPRF is seed-keyed, so map ads through *this* session's
        # mapper semantics: both use the same (seed-independent) id
        # space only if the PRF key matches — use the session's mapper).
        observe(reference.clients, salt=2)
        ref_result = reference.run_round(0)
        # The reference PRF key differs (different enrollment seed), so
        # compare semantics through each population's own mapper: every
        # ad's #Users estimate must match exactly.
        mapper = session.clients[0].ad_mapper
        ref_mapper = reference.clients[0].ad_mapper
        for n in range(15):
            url = f"ad-{n}"
            assert result.aggregate.query(mapper.ad_id(url)) == \
                ref_result.aggregate.query(ref_mapper.ad_id(url))
        assert sorted(result.distribution.values) == \
            sorted(ref_result.distribution.values)

    def test_post_epoch_round_bit_identical_same_seed_reference(self):
        """With the same PRF seed the aggregates are bit-identical."""
        session, result = self.run_epoch_round()
        roster = list(session.epoch.user_ids)
        reference = ProtocolSession.create(
            roster, CONFIG, seed=3, use_oprf=False, num_cliques=3)
        observe(reference.clients, salt=2)
        ref_result = reference.run_round(0)
        assert result.aggregate.cells == ref_result.aggregate.cells
        assert result.users_threshold == ref_result.users_threshold

    def test_topologies_and_drivers_agree_post_epoch(self):
        baseline, base_result = self.run_epoch_round()
        other, other_result = self.run_epoch_round(fan_in=2)
        assert len(other.endpoints) > len(baseline.endpoints)
        assert other_result.aggregate.cells == base_result.aggregate.cells
        assert other_result.users_threshold == base_result.users_threshold
        # ... and both equal the reference round over the post-epoch
        # roster's key material, read from the membership.
        membership = baseline.membership
        roster = membership.roster
        keys = SimpleNamespace(
            group=membership.group, keypairs=membership._keypairs,
            index_of={u: membership._index_of[u] for u in roster},
            clique_of=membership.epoch.clique_of)
        ad_ids = {c.user_id: [c.ad_mapper.ad_id(url) for url in c.seen_urls]
                  for c in baseline.clients}
        reference = ReferenceRound(keys, ad_ids, base_result.round_id, (),
                                   CONFIG)
        assert base_result.aggregate.cells == tuple(reference.root_cells)
        assert base_result.users_threshold == reference.users_threshold

    def test_recovery_round_works_after_epoch_advance(self):
        session = session_for(transport=InMemoryTransport())
        observe(session.clients)
        session.run_next_round()
        session.advance_epoch(joins=["n-a"], leaves=["user-06"])
        session.reset_windows()
        observe(session.clients, salt=1)
        session.drop_users(["user-09"])
        result = session.run_next_round()
        assert result.missing_users == ["user-09"]
        assert result.recovery_round_used
        # Survivor truth is preserved.
        mapper = session.clients[0].ad_mapper
        for client in session.clients:
            if client.user_id == "user-09":
                continue
            for url in client.seen_urls:
                assert result.aggregate.query(mapper.ad_id(url)) >= 1

    def test_epoch_round_over_wire_transport(self):
        session = session_for(transport=WireTransport())
        observe(session.clients)
        session.run_next_round()
        session.advance_epoch(joins=["n-a", "n-b"],
                              leaves=["user-02", "user-10"])
        session.reset_windows()
        observe(session.clients, salt=4)
        result = session.run_next_round()
        assert len(result.reported_users) == 12


class TestUplinkFollowsClique:
    """A client's uplink is a pure function of its clique id: a forced
    re-shard move re-points it with no wiring call — no session, no
    ``build_aggregation_tree``, nothing but the epoch advance."""

    ROSTER = [f"user-{i:02d}" for i in range(8)]

    def force_move(self, manager):
        """Shrink one clique to a single member so the re-shard must
        move a continuing user into it; returns (mover, old, new)."""
        before = dict(manager.epoch.clique_of)
        doomed = before[self.ROSTER[0]]
        mates = [u for u, c in before.items()
                 if c == doomed and u != self.ROSTER[0]]
        transition = manager.advance_epoch(leaves=mates)
        (mover,) = transition.moved
        after = transition.epoch.clique_of[mover]
        assert after == doomed != before[mover]
        return mover, before[mover], after

    def test_object_client_uplink_is_its_new_cliques_aggregator(self):
        manager = MembershipManager(enroll_users(
            self.ROSTER, CONFIG, seed=3, use_oprf=False, num_cliques=3))
        for client in manager.clients:
            assert client.uplink == clique_endpoint_id(client.clique_id)
        mover, old, new = self.force_move(manager)
        client = manager.client_of(mover)
        assert client.clique_id == new
        assert client.uplink == clique_endpoint_id(new)
        assert client.uplink != clique_endpoint_id(old)

    def test_army_reports_go_to_the_new_cliques_aggregator(self):
        army = ClientArmy.enroll(self.ROSTER, CONFIG, seed=3,
                                 use_oprf=False, num_cliques=3)
        manager = MembershipManager(army)
        mover, old, new = self.force_move(manager)
        recipient_of = {message.user_id: recipient for recipient, message
                        in army.on_round_start(manager.next_round)}
        assert recipient_of[mover] == clique_endpoint_id(new)
        assert recipient_of == {
            uid: clique_endpoint_id(clique)
            for uid, clique in manager.epoch.clique_of.items()}


class TestDeterminism:
    def lifecycle(self):
        """One full churned lifecycle; returns (session, results)."""
        session = session_for(seed=17, num_cliques=3)
        observe(session.clients)
        results = [session.run_next_round()]
        session.advance_epoch(joins=["j-01", "j-02"],
                              leaves=["user-00", "user-11"])
        session.reset_windows()
        observe(session.clients, salt=1)
        results.append(session.run_next_round())
        session.advance_epoch(joins=["j-03"], leaves=["j-01"])
        session.reset_windows()
        observe(session.clients, salt=2)
        results.append(session.run_next_round())
        return session, results

    def test_same_seed_same_sequence_identical_everything(self):
        a_session, a_results = self.lifecycle()
        b_session, b_results = self.lifecycle()
        # Identical clique maps and epochs.
        assert a_session.epoch == b_session.epoch
        # Identical pair secrets, client by client.
        a_secrets, b_secrets = secrets_of(a_session), secrets_of(b_session)
        assert a_secrets == b_secrets
        # Identical aggregates, round by round (bit-for-bit).
        for ra, rb in zip(a_results, b_results):
            assert ra.aggregate.cells == rb.aggregate.cells
            assert ra.users_threshold == rb.users_threshold


def provider_less_twins(enrollment):
    """user id -> a twin of that enrolled client: the same key material
    behind a provider-less generator that squeezes every stream itself."""
    publics = {enrollment.index_of[u]: kp.public
               for u, kp in enrollment.keypairs.items()}
    twins = {}
    for client in enrollment.clients:
        blinding = BlindingGenerator(
            enrollment.group, enrollment.index_of[client.user_id],
            enrollment.keypairs[client.user_id],
            {j: publics[j] for j in client.blinding.peer_indexes})
        twins[client.user_id] = ProtocolClient(
            client.user_id, CONFIG, blinding, enrollment.ad_mapper,
            clique_id=client.clique_id)
    return twins


def held_vectors(provider):
    """Arrays the provider holds, found through its attributes whatever
    containers they sit in."""
    def count(value):
        if isinstance(value, np.ndarray):
            return 1
        if isinstance(value, dict):
            return sum(count(v) for v in value.values())
        if isinstance(value, (list, tuple, set)):
            return sum(count(v) for v in value)
        return 0
    return count(vars(provider))


class TestPadStreamProvider:
    def test_cached_streams_match_uncached_reports_bitwise(self):
        """Reports and adjustments through the shared provider equal a
        provider-less generator's bit for bit, whatever the build order:
        shuffled, two cliques interleaved, a same-round rebuild, an
        older-round request in the middle of a round, and a recovery
        round."""
        enrollment = enroll_users(USERS, CONFIG, seed=5, use_oprf=False,
                                  num_cliques=2)
        pads = enrollment.pad_streams
        assert pads is not None
        clients = {c.user_id: c for c in enrollment.clients}
        twins = provider_less_twins(enrollment)
        observe(clients.values())
        observe(twins.values())

        def check(user_id, round_id):
            assert clients[user_id].build_report(round_id).cells == \
                twins[user_id].build_report(round_id).cells

        rng = random.Random(11)
        for round_id in (1, 2, 3):
            order = sorted(clients)
            rng.shuffle(order)
            for user_id in order:
                check(user_id, round_id)
        # Two cliques of 6 registered interleaved, as a detection
        # session registers its cliques' clients.
        cliques = [[c.user_id for c in enrollment.clients if c.clique_id == k]
                   for k in (0, 1)]
        interleaved = [u for pair in zip(*cliques) for u in pair]
        before = (pads.misses, pads.hits)
        for user_id in interleaved[:5]:
            check(user_id, 4)
        check(interleaved[2], 4)  # a same-round rebuild
        check(interleaved[0], 3)  # an older round...
        for user_id in interleaved[5:]:
            check(user_id, 4)
        # ...neither of which touched round 4's pending sums: each of
        # the 2 x 15 pairs was squeezed once and handed off once.
        assert (pads.misses - before[0], pads.hits - before[1]) == (30, 30)
        assert pads.pending_sums == 0
        # Recovery: one member of each clique went missing.
        missing = {enrollment.index_of[members[0]] for members in cliques}
        for members in cliques:
            survivors = members[1:]
            gone = [i for i in missing
                    if i in clients[survivors[0]].blinding.peer_indexes]
            for user_id in survivors:
                assert clients[user_id].build_adjustment(4, gone).cells == \
                    twins[user_id].build_adjustment(4, gone).cells
        assert (pads.misses - before[0], pads.hits - before[1]) == (30, 30)

    def test_each_pair_stream_computed_once_per_round(self):
        enrollment = enroll_users(USERS, CONFIG, seed=5, use_oprf=False,
                                  num_cliques=3)
        observe(enrollment.clients)
        pads = enrollment.pad_streams
        for client in enrollment.clients:
            client.build_report(1)
        # 3 cliques of 4: 6 pairs each, 18 pair streams; 36 pair ends.
        assert pads.misses == 18
        assert pads.hits == 18
        # Every pending sum was taken by its member.
        assert pads.pending_sums == 0

    def test_second_round_reuses_absorbed_state_not_streams(self):
        """What a pair keeps across rounds is its secret bytes, the
        input every squeeze absorbs; each round squeezes them afresh."""
        enrollment = enroll_users(USERS, CONFIG, seed=5, use_oprf=False,
                                  num_cliques=3)
        observe(enrollment.clients)
        pads = enrollment.pad_streams
        secrets = secrets_of(enrollment)
        for client in enrollment.clients:
            client.build_report(1)
        for client in enrollment.clients:
            client.build_report(2)
        # Fresh streams per round (pads are one-time)...
        assert (pads.misses, pads.hits, pads.pending_sums) == (36, 36, 0)
        # ...from the same pair secrets.
        assert secrets_of(enrollment) == secrets

    def test_newer_round_evicts_unconsumed_leftovers(self):
        """A member that never builds leaves its pending sum behind; the
        next round drops it, so leftovers do not pile up round after
        round (round ids only move forward) or leak into a later pad."""
        enrollment = enroll_users(USERS, CONFIG, seed=5, use_oprf=False,
                                  num_cliques=3)
        pads = enrollment.pad_streams
        twins = provider_less_twins(enrollment)
        observe(enrollment.clients)
        observe(twins.values())
        dropout = enrollment.clients[3]
        for round_id in (1, 2):
            for client in enrollment.clients:
                if client is not dropout:
                    client.build_report(round_id)
            # Its clique mates folded their pads into one pending sum.
            assert pads.pending_sums == 1
            assert held_vectors(pads) == 1
        for client in enrollment.clients:
            assert client.build_report(3).cells == \
                twins[client.user_id].build_report(3).cells
        assert pads.pending_sums == 0
        assert held_vectors(pads) == 0

    def test_a_pad_from_a_non_peer_is_refused(self):
        """Peer sets of one enrollment are symmetric; if they were not,
        a member would be handed a pair's pad it does not share, which
        the server could not tell from a right one."""
        enrollment = enroll_users(USERS[:3], CONFIG, seed=5, use_oprf=False)
        first, second, third = sorted(
            enrollment.clients, key=lambda c: c.blinding.user_index)
        # ``third`` forgets ``first``, who still names it as a peer.
        third.blinding.set_peers({
            second.blinding.user_index:
                enrollment.keypairs[second.user_id].public})
        observe(enrollment.clients)
        first.build_report(1)
        with pytest.raises(BlindingError, match="not its peers"):
            third.build_report(1)

    def test_one_clique_holds_one_vector_per_waiting_member(self):
        """Built in registration order, a clique of 20 leaves at most 19
        members waiting, so at most 19 vectors are held, not one stream
        per pair still to hand off (100 at the halfway point)."""
        users = [f"user-{i:02d}" for i in range(20)]
        enrollment = enroll_users(users, CONFIG, seed=5, use_oprf=False)
        pads = enrollment.pad_streams
        observe(enrollment.clients)
        held = []
        for client in enrollment.clients:
            client.build_report(1)
            held.append(held_vectors(pads))
        assert max(held) <= 19
        assert held[-1] == 0

    def test_transition_accounting_covers_whole_population(self):
        """secrets_reused counts untouched cliques too, and a leaver's
        own generator ends count as dropped."""
        session = session_for()  # 12 users, 3 cliques of 4
        leaver = "user-05"
        clique = session.epoch.clique_of[leaver]
        transition = session.advance_epoch(joins=["n-a"], leaves=[leaver])
        # Every pair end in the two untouched cliques (4*3 each), plus
        # the affected clique's surviving mate pairs (3 survivors keep
        # 2 mate-ends each), is reused.
        assert transition.secrets_reused == 2 * (4 * 3) + 3 * 2
        # Dropped: the leaver's own 3 ends + each mate dropping it.
        assert transition.secrets_dropped == 3 + 3
        assert transition.epoch.clique_of["n-a"] == clique


class TestReshardHelper:
    def test_joiners_fill_smallest_cliques(self):
        current = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1}
        assignment, moved = reshard(current, 2, ["f", "g"])
        assert moved == []
        assert assignment["f"] == 1  # smallest first
        sizes = [list(assignment.values()).count(c) for c in (0, 1)]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_forced_move(self):
        current = {"a": 0, "b": 0, "c": 0, "d": 0, "e": 1}
        a1, m1 = reshard(dict(current), 2, [])
        a2, m2 = reshard(dict(current), 2, [])
        assert (a1, m1) == (a2, m2)
        assert m1 == ["d"]  # lexicographically largest member of donor
        assert a1["d"] == 1

    def test_impossible_layout_raises(self):
        with pytest.raises(ConfigurationError):
            reshard({"a": 0, "b": 1, "c": 1}, 2, [])


class TestEpochIntrospection:
    def test_members_and_sizes(self):
        epoch = Epoch(epoch_id=0, user_ids=("a", "b", "c"),
                      clique_of={"a": 0, "b": 0, "c": 1}, num_cliques=2)
        assert epoch.members_of(0) == ("a", "b")
        assert epoch.clique_sizes() == {0: 2, 1: 1}
        assert epoch.min_clique_size == 1
        assert epoch.size == 3
