"""Struct-of-arrays client backend: one endpoint hosts the whole army.

The object-backed client path (:class:`~repro.protocol.client.
ProtocolClient` + one :class:`~repro.crypto.blinding.BlindingGenerator`
each) tops out long before the crypto does: at 100k users a round pays
for 100k Python objects, 100k per-object sketch builds and one
keystream per pair folded between its ends by one shared hand-off,
user by user. This module keeps
the *protocol* — every message, every byte — and deletes the objects:

* a :class:`ClientArmy` is **one**
  :class:`~repro.protocol.endpoint.ProtocolEndpoint` hosting N users as
  rows of struct-of-arrays state (stable blinding indexes, DH pair
  secrets, per-user URL multisets);
* a sketch row is a function of the ad alone (paper §6, "CMS
  computation") and a window has far fewer distinct ads than (user, ad)
  pairs, so each distinct URL is hashed **once per round**, army-wide:
  :meth:`ClientArmy.on_round_start` builds one index table with
  :meth:`~repro.sketch.countmin.CountMinSketch.flat_indexes`;
* cliques of one layout (member count and pair wiring) are reported a
  bounded **chunk** at a time: one member-major ``(m, g, cells)``
  ``uint32`` stack is written with the blinding by one
  :func:`~repro.crypto.blinding.blind_cliques` call
  (each pair slot squeezed into one buffer of at most 64 Ki cells and
  scattered with one ``+=`` and one ``-=`` across the chunk), then the
  members' counts — a gather from the index table — are added on with
  one ``np.add.at``; the stack is then made read-only and checked once,
  and every report wraps a row view of it unchecked
  (``CellVector._wrap_rows``: a kernel's cells need no range check;
  cells from outside the process still get one). The
  round's floor is the squeeze of the pad XOF in ``crypto/blinding.py``,
  and no ``(pairs, cells)`` pad matrix is held;
* a chunk's wiring — its cliques' uplinks, members, pairs and shared
  secrets in kernel order — is built by an epoch's first round and kept
  until :meth:`ClientArmy.rewire` drops it;
* the pad-reuse guard hashes each chunk's sorted flat cell indexes (the
  canonical form of its counts), not its cells, and keeps runs of rounds
  that share a digest (:class:`~repro.protocol.client.RoundDigests`);
* a survivor answers a recovery notice only if its clique keeps two
  reporters (:func:`~repro.protocol.client.keeps_reporters`), as an
  object client does;
* because both backends consume the same
  :func:`~repro.protocol.enrollment.derive_key_material` derivation and
  the blinding sum is exact mod 2^32 in any order, every
  :class:`~repro.protocol.messages.BlindedReport` is **byte-identical**
  to what the per-object path emits for the same ``(user_ids, seed)`` —
  the equivalence suite in ``tests/test_protocol_army.py`` holds that
  line.

Transport-wise the army registers every hosted user id as an *alias* of
its single mailbox (:meth:`~repro.protocol.transport.InMemoryTransport.
register_alias`), so aggregators keep addressing users by id — missing
-client notices and threshold broadcasts route unchanged, and the
aggregation tier cannot tell which backend it is serving.

The army owns no roster lifecycle. A
:class:`~repro.protocol.membership.MembershipManager` built from it owns
the epoch, the round watermark and the durable key material — exactly
as it does for per-object clients — and calls the army's one backend
hook, :meth:`ClientArmy.rewire`, with the re-sharded clique map and the
cliques churn touched. The army holds rows for the *active* roster only.
See ``docs/scaling.md`` for the cost model.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import (
    BlindingError,
    ConfigurationError,
    RoundStateError,
)
from repro.crypto.blinding import (
    PairKey,
    blind_cliques,
    clique_blinding,
    cliques_per_chunk,
)
from repro.crypto.group import DHGroup, KeyPair
from repro.protocol.client import (
    ONE_COUNT,
    RoundConfig,
    RoundDigests,
    keeps_reporters,
    notice_needs_answer,
)
from repro.protocol.endpoint import (
    Outbox,
    ProtocolEndpoint,
    clique_endpoint_id,
)
from repro.protocol.enrollment import KeyMaterial, derive_key_material
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    CellVector,
    MissingClientsNotice,
    ThresholdBroadcast,
)
from repro.protocol.transport import InMemoryTransport

#: Default transport mailbox name of the batched backend.
ARMY_ENDPOINT = "client-army"

#: A clique's shape as the blinding kernel sees it: the member count and
#: the bytes of both per-pair row maps. Cliques with one layout are
#: blinded together, a chunk at a time.
Layout = Tuple[int, bytes, bytes]

#: A clique's pairwise wiring: the (lo, hi) index pairs in derivation
#: order, per pair the member-row of each end (rows index the clique's
#: sorted member list), and the clique's layout.
CliqueWiring = Tuple[List[PairKey], np.ndarray, np.ndarray, Layout]


class _Chunk(NamedTuple):
    """A chunk of same-layout cliques, wired for an epoch: what every
    round of the epoch would otherwise rebuild before its one
    :func:`~repro.crypto.blinding.blind_cliques` call."""

    #: Every clique's sorted members, clique-major.
    members: List[str]
    #: Per member, its clique and the aggregator it reports to.
    routes: List[Tuple[int, str]]
    #: The chunk's member-major ``(m, g, cells)`` stack shape.
    shape: Tuple[int, int, int]
    #: Per member, the offset of its row in the flattened stack.
    row_offsets: np.ndarray
    #: Every clique's pair secrets, clique-major.
    secrets: List[bytes]
    lo_rows: np.ndarray
    hi_rows: np.ndarray


#: One round's sketch index table: URL -> row, and per row the URL's
#: ``depth`` flat cell indexes (an ``(n, depth)`` ``int64`` array, so a
#: clique's gather is a row ``take``).
IndexTable = Tuple[Dict[str, int], np.ndarray]

#: Ad ids hashed per ``flat_indexes`` call while building the table: keeps
#: the hash's ``(depth, slice)`` temporaries independent of the window
#: size (the ``server._ID_CHUNK`` precedent).
_TABLE_SLICE = 65536


class ClientArmy(ProtocolEndpoint):
    """N protocol clients as one struct-of-arrays endpoint.

    Build one with :meth:`enroll` (epoch 0); hand it to a
    :class:`~repro.protocol.membership.MembershipManager` (or a session,
    which builds one) for churn — the army itself only implements the
    :meth:`rewire` hook. The army plays every
    hosted user's part of the round: :meth:`on_round_start` uploads one
    :class:`~repro.protocol.messages.BlindedReport` per active user
    (whole cliques at a time), :meth:`on_message` answers missing-client
    notices with every survivor's adjustment in one batch and records
    the threshold broadcast.

    Dropouts reach it through the session's one seam,
    :meth:`~repro.api.ProtocolSession.drop_users`, which calls
    :meth:`drop_users` here (and sets a client object's ``dropped``
    flag otherwise): from the next round start the user's report is
    never sent, and because adjustments are only built for users that
    *reported*, the dropped user stays silent through recovery like a
    crashed client.
    """

    #: Every army answers at one mailbox; hosted users are aliased to it.
    endpoint_id = ARMY_ENDPOINT

    def __init__(self, config: RoundConfig, material: KeyMaterial,
                 seed: int = 0, num_cliques: int = 1) -> None:
        missing = [u for u in material.clique_of
                   if u not in material.keypairs
                   or u not in material.index_of]
        if missing:
            raise ConfigurationError(
                f"army lacks key material for {missing[:5]}; derive it "
                f"with derive_key_material() or ClientArmy.enroll()")
        self.config = config
        self.group = material.group
        self.seed = seed
        self.num_cliques = num_cliques
        self.oprf_server = material.oprf_server
        self.use_oprf = material.oprf_server is not None
        self.ad_mapper = material.ad_mapper
        #: Rows of the active roster only — same names as
        #: :class:`~repro.protocol.enrollment.Enrollment` so a
        #: MembershipManager reads either. The manager keeps departed
        #: users' material and hands it back through :meth:`rewire`.
        self.keypairs: Dict[str, KeyPair] = dict(material.keypairs)
        self.index_of: Dict[str, int] = dict(material.index_of)
        self.clique_of: Dict[str, int] = dict(material.clique_of)
        #: Per-user URL multiset-as-set (client semantics: a URL seen
        #: twice in a window still counts once — sets deduplicate).
        self._seen: Dict[str, Set[str]] = {u: set() for u in self.clique_of}
        #: Shared ad-id cache: the mapping is user-independent for both
        #: mapper kinds, so one cache serves the whole army.
        self._ad_ids: Dict[str, int] = {}
        self._inactive: Set[str] = set()
        self.last_threshold: Optional[float] = None
        self.last_threshold_round: Optional[int] = None
        #: round id -> sha256 over the round's cleartext counts, chunk by
        #: chunk: a length prefix, the member count and the sorted flat
        #: cell indexes (the batched analogue of ProtocolClient's
        #: pad-reuse guard: a *differing* rebuild under an already-blinded
        #: round id would reuse one-time pads on new cleartext).
        self._round_digests = RoundDigests()
        self._scratch = config.make_sketch()
        #: (lo index, hi index) -> shared-secret bytes, derived once per
        #: pair by the host (``DHGroup.pair_secret``).
        self._pair_secret: Dict[PairKey, bytes] = {}
        self._members_of: Dict[int, List[str]] = {}
        self._wiring_of: Dict[int, CliqueWiring] = {}
        #: The epoch's chunks, built by its first round and dropped by
        #: :meth:`rewire`.
        self._chunks: Optional[List[_Chunk]] = None
        #: User ids aliased to this army's mailbox by the last
        #: :meth:`register_mailboxes`.
        self._aliased: Set[str] = set()
        self._refresh_members()
        for clique in sorted(self._members_of):
            self._rewire_clique(clique)
        # Per-round volatile state: the last round reported in, the
        # roster and silent users it was reported from (a clique's
        # reporters are its members that were not silent; a rewire
        # replaces the roster map, never mutates it), and the missing set
        # each clique answered.
        self._reported_round: Optional[int] = None
        self._reporters: Tuple[Dict[int, List[str]], FrozenSet[str]] = ({}, frozenset())
        self._answered: Dict[int, FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def enroll(cls, user_ids: Sequence[str], config: RoundConfig,
               group: Optional[DHGroup] = None,
               seed: int = 0,
               use_oprf: bool = True,
               num_cliques: int = 1) -> "ClientArmy":
        """Epoch-0 enrollment of the batched backend.

        Consumes the same :func:`~repro.protocol.enrollment.
        derive_key_material` derivation as :func:`~repro.protocol.
        enrollment.enroll_users`, so the army's clique map, key pairs
        and blinding indexes — and therefore its pads and reports — are
        bit-identical to an object-backed enrollment of the same
        ``(user_ids, seed)``.
        """
        material = derive_key_material(user_ids, config, group=group,
                                       seed=seed, use_oprf=use_oprf,
                                       num_cliques=num_cliques)
        return cls(config, material, seed=seed, num_cliques=num_cliques)

    # ------------------------------------------------------------------
    # Population surface (what the wiring layer reads)
    # ------------------------------------------------------------------
    @property
    def user_ids(self) -> List[str]:
        """The sorted active roster."""
        return sorted(self.clique_of)

    @property
    def endpoints(self) -> List[ProtocolEndpoint]:
        """The client endpoints a runner drives for this population:
        the army itself, standing in for every hosted user."""
        return [self]

    def members(self) -> Dict[int, Dict[str, int]]:
        """clique id -> {user id -> blinding index}, for wiring the
        aggregation tier (same shape the object path derives from its
        client list)."""
        return {clique: {uid: self.index_of[uid] for uid in member_list}
                for clique, member_list in self._members_of.items()}

    # ------------------------------------------------------------------
    # Transport wiring
    # ------------------------------------------------------------------
    def register_mailboxes(self, transport: InMemoryTransport) -> None:
        """Alias every hosted user id to the army's mailbox, so
        aggregators address users exactly as they do object clients;
        aliases of users an earlier epoch hosted are dropped."""
        for uid in self._aliased - self.clique_of.keys():
            transport.unregister_alias(uid)
        for uid in self.clique_of:
            transport.register_alias(uid, self.endpoint_id)
        self._aliased = set(self.clique_of)

    # ------------------------------------------------------------------
    # Observation window
    # ------------------------------------------------------------------
    def observe_ad(self, user_id: str, url: str) -> int:
        """Record that ``user_id`` saw an ad at ``url``; returns its id."""
        seen = self._seen.get(user_id)
        if seen is None:
            raise ConfigurationError(
                f"{user_id!r} is not in the army's current roster")
        ad_id = self._ad_id(url)
        seen.add(url)
        return ad_id

    def observe_ads(self, user_id: str, urls: Iterable[str]) -> None:
        for url in urls:
            self.observe_ad(user_id, url)

    def reset_window(self) -> None:
        """Clear every user's observation window (and the shared ad-id
        cache, mirroring ``ProtocolClient.reset_window``). Round digests
        are kept — pads are no fresher after a window reset."""
        for seen in self._seen.values():
            seen.clear()
        self._ad_ids.clear()

    def _ad_id(self, url: str) -> int:
        ad_id = self._ad_ids.get(url)
        if ad_id is None:
            ad_id = self._ad_ids[url] = self.ad_mapper.ad_id(url)
        return ad_id

    # ------------------------------------------------------------------
    # Dropout injection
    # ------------------------------------------------------------------
    def drop_users(self, user_ids: Iterable[str]) -> None:
        """Make roster members silent for subsequent rounds (no report,
        no adjustments) until restored or until they leave the roster;
        the session's seam checks the ids against the roster."""
        self._inactive.update(user_ids)

    def restore_users(self, user_ids: Iterable[str]) -> None:
        self._inactive.difference_update(user_ids)

    # ------------------------------------------------------------------
    # Struct-of-arrays internals
    # ------------------------------------------------------------------
    def _refresh_members(self) -> None:
        members: Dict[int, List[str]] = {}
        for uid in sorted(self.clique_of):
            members.setdefault(self.clique_of[uid], []).append(uid)
        self._members_of = members

    def _rewire_clique(self, clique: int) -> None:
        """(Re)build one clique's pair list and row maps, deriving any
        pair secret not already held (one :meth:`~repro.crypto.group.
        DHGroup.pair_secret` table walk per new pair)."""
        member_list = self._members_of.get(clique)
        if not member_list:
            self._wiring_of.pop(clique, None)
            return
        indexes = [self.index_of[u] for u in member_list]
        pairs: List[PairKey] = []
        lo_rows: List[int] = []
        hi_rows: List[int] = []
        for a in range(len(member_list)):
            for b in range(a + 1, len(member_list)):
                i, j = indexes[a], indexes[b]
                if i < j:
                    pair = (i, j)
                    lo_rows.append(a)
                    hi_rows.append(b)
                else:
                    pair = (j, i)
                    lo_rows.append(b)
                    hi_rows.append(a)
                pairs.append(pair)
                if pair not in self._pair_secret:
                    lo_uid = member_list[lo_rows[-1]]
                    hi_uid = member_list[hi_rows[-1]]
                    self._pair_secret[pair] = self.group.element_to_bytes(
                        self.group.pair_secret(self.keypairs[lo_uid],
                                               self.keypairs[hi_uid]))
        lo = np.asarray(lo_rows, dtype=np.intp)
        hi = np.asarray(hi_rows, dtype=np.intp)
        self._wiring_of[clique] = (pairs, lo, hi,
                                   (len(member_list), lo.tobytes(),
                                    hi.tobytes()))

    def _index_table(self) -> IndexTable:
        """Hash every URL of the window once: the round's index table.

        Rows follow the shared ad-id cache, a superset of the window's
        URLs (every observed URL passed through :meth:`_ad_id`). Two URLs
        that collide on one ad id keep a row each, like two
        ``update_many`` items. Rebuilt from scratch every round, so there
        is nothing to invalidate when the window or the roster changes.
        """
        ad_ids = list(self._ad_ids.values())
        row_of = {url: row for row, url in enumerate(self._ad_ids)}
        flat = np.empty((len(ad_ids), self.config.cms_depth), dtype=np.int64)
        for start in range(0, len(ad_ids), _TABLE_SLICE):
            stop = start + _TABLE_SLICE
            flat[start:stop] = self._scratch.flat_indexes(
                ad_ids[start:stop]).T
        return row_of, flat

    def _chunk_wiring(self) -> List[_Chunk]:
        """The epoch's chunks: cliques grouped by layout, in clique order
        within a layout, :func:`~repro.crypto.blinding.cliques_per_chunk`
        at a time. Built once per epoch; :meth:`rewire` drops them."""
        if self._chunks is not None:
            return self._chunks
        by_layout: Dict[Layout, List[int]] = {}
        for clique in sorted(self._members_of):
            by_layout.setdefault(self._wiring_of[clique][3], []).append(clique)
        num_cells = self.config.num_cells
        size = cliques_per_chunk(num_cells)
        chunks: List[_Chunk] = []
        for (num_members, _, _), same_layout in by_layout.items():
            for start in range(0, len(same_layout), size):
                cliques = same_layout[start:start + size]
                lo_rows, hi_rows = self._wiring_of[cliques[0]][1:3]
                # Member r of clique k sits at [r, k] of the (m, g) stack.
                offsets = (np.arange(num_members, dtype=np.int64) * len(cliques)
                           + np.arange(len(cliques), dtype=np.int64)[:, None])
                routes = [(clique, clique_endpoint_id(clique))
                          for clique in cliques]
                chunks.append(_Chunk(
                    members=[uid for clique in cliques
                             for uid in self._members_of[clique]],
                    routes=[route for route in routes
                            for _ in range(num_members)],
                    shape=(num_members, len(cliques), num_cells),
                    row_offsets=offsets.ravel() * num_cells,
                    secrets=[self._pair_secret[pair] for clique in cliques
                             for pair in self._wiring_of[clique][0]],
                    lo_rows=lo_rows, hi_rows=hi_rows))
        self._chunks = chunks
        return chunks

    def _chunk_reports(
        self, chunk: _Chunk, round_id: int, table: IndexTable, digest: "hashlib._Hash"
    ) -> Outbox:
        """Blind and report a chunk of same-layout cliques: its active
        members' reports, clique-major.

        The chunk's cells are one member-major ``(m, g, cells)``
        ``uint32`` stack: written with the blinding by one
        :func:`~repro.crypto.blinding.blind_cliques` call, then the
        members' cleartext counts are added on with one ``np.add.at``
        over their flat cell indexes (a gather from the round's index
        table, offset by each member's row). That equals per-user
        ``CountMinSketch.update_many`` plus the blinding mod 2^32, which
        is all a blinded cell keeps. The stack is then made read-only,
        its rows are wrapped clique-major after one check of the stack
        (``CellVector._wrap_rows``: the kernel's cells need no range
        check), and the reports are built in one pass over the members.
        The sorted indexes are the canonical form of the chunk's counts,
        so they, behind a length prefix and the member count, are what
        the pad-reuse guard hashes.
        """
        row_of, flat = table
        members = chunk.members
        seen = list(map(self._seen.__getitem__, members))
        lengths = list(map(len, seen))
        rows = list(map(row_of.__getitem__, chain.from_iterable(seen)))
        indexes = flat.take(rows, axis=0)
        indexes += chunk.row_offsets.repeat(lengths)[:, None]
        indexes = indexes.ravel()
        indexes.sort()
        digest.update(np.array([indexes.size, len(members)], dtype=np.int64))
        digest.update(indexes)
        cells = np.empty(chunk.shape, dtype=np.uint32)
        blind_cliques(cells, chunk.secrets, chunk.lo_rows, chunk.hi_rows, round_id)
        np.add.at(cells.reshape(-1), indexes, ONE_COUNT)
        cells.setflags(write=False)
        routes, sent = chunk.routes, None
        if self._inactive:  # a dropped member's row is never wrapped
            sent = [i for i, uid in enumerate(members) if uid not in self._inactive]
            members, routes = [members[i] for i in sent], [routes[i] for i in sent]
        return [
            (uplink, BlindedReport(uid, round_id, vector, clique))
            for uid, vector, (clique, uplink) in zip(
                members, CellVector._wrap_rows(cells, sent), routes)
        ]

    def _build_adjustments(self, clique: int, round_id: int,
                           missing_indexes: Sequence[int],
                           recipient: str) -> Outbox:
        members_of, silent = self._reporters
        survivors = [uid for uid in members_of.get(clique, ()) if uid not in silent]
        if not survivors:
            return []
        missing = sorted(set(missing_indexes))
        named = sorted({self.index_of[u] for u in survivors}
                       .intersection(missing))
        if named:
            raise BlindingError(
                f"a surviving user cannot be in the missing set: "
                f"{named[:5]} reported in clique {clique}")
        known = {self.index_of[u] for u in self._members_of[clique]}
        unknown = [j for j in missing if j not in known]
        if unknown:
            raise BlindingError(
                f"no shared secret for peers {unknown[:5]} in clique "
                f"{clique}")
        secrets: List[bytes] = []
        lo_rows: List[int] = []
        hi_rows: List[int] = []
        for row, uid in enumerate(survivors):
            i = self.index_of[uid]
            for j in missing:
                secrets.append(self._pair_secret[(i, j) if i < j else (j, i)])
                # The missing end of the pair produces no adjustment:
                # row -1 discards it in the accumulation.
                if i < j:
                    lo_rows.append(row)
                    hi_rows.append(-1)
                else:
                    lo_rows.append(-1)
                    hi_rows.append(row)
        adjustments = clique_blinding(
            secrets, np.asarray(lo_rows, dtype=np.intp),
            np.asarray(hi_rows, dtype=np.intp), len(survivors), round_id,
            self.config.num_cells, negate=True)
        adjustments.setflags(write=False)
        return [(recipient, BlindingAdjustment(
            user_id=uid, round_id=round_id, cells=vector, clique_id=clique))
            for uid, vector in zip(
                survivors, CellVector._wrap_rows(adjustments[:, None]))]

    # ------------------------------------------------------------------
    # Endpoint hooks
    # ------------------------------------------------------------------
    def on_round_start(self, round_id: int) -> Outbox:
        table = self._index_table()
        digest = hashlib.sha256()
        outbox: Outbox = []
        for chunk in self._chunk_wiring():
            outbox += self._chunk_reports(chunk, round_id, table, digest)
        fingerprint = digest.digest()
        previous = self._round_digests.get(round_id)
        if previous is not None and previous != fingerprint:
            raise RoundStateError(
                f"round {round_id} already blinded different sketches; "
                f"reusing its one-time pads on new cleartext would leak "
                f"pad differences")
        # Round state is committed only once the guard passed; a rebuild
        # of the same round keeps the notices it answered.
        self._round_digests.add(round_id, fingerprint)
        if round_id != self._reported_round:
            self._reported_round, self._answered = round_id, {}
        self._reporters = (self._members_of, frozenset(self._inactive))
        return outbox

    def on_message(self, sender: str, message: Any) -> Outbox:
        if isinstance(message, ThresholdBroadcast):
            # Tested first: every hosted user receives one a round.
            self.last_threshold = message.users_threshold
            self.last_threshold_round = message.round_id
            return []
        if isinstance(message, MissingClientsNotice):
            # The aggregator notifies every survivor individually; the
            # first notice for a clique yields *all* survivors'
            # adjustments in one batch, the identical rest need none.
            clique = message.clique_id
            if not notice_needs_answer(message, self._reported_round,
                                       clique in self._members_of,
                                       self._answered.get(clique)):
                return []
            members = (self.index_of[u] for u in self._members_of[clique])
            if not keeps_reporters(members, message.missing_indexes):
                return []
            outbox = self._build_adjustments(clique, message.round_id,
                                             message.missing_indexes,
                                             sender)
            self._answered[clique] = frozenset(message.missing_indexes)
            return outbox
        return super().on_message(sender, message)

    # ------------------------------------------------------------------
    # The backend hook of MembershipManager.advance_epoch
    # ------------------------------------------------------------------
    def rewire(self, clique_of: Dict[str, int], affected: Iterable[int],
               joiners: Dict[str, Tuple[int, KeyPair]],
               leavers: Sequence[str]) -> Tuple[int, int, int]:
        """Adopt the next epoch's clique map and re-wire the cliques
        churn touched.

        Called by :meth:`~repro.protocol.membership.MembershipManager.
        advance_epoch` after it validated and re-sharded the roster;
        ``joiners`` carries each joiner's (stable index, key pair) from
        the manager's durable tables. Returns the pair secrets
        ``(added, kept, dropped)`` across the affected cliques, counted
        per *generator end* (×2 per pair), the deployment's cost, as
        the object path counts them; either host derives a pair once.
        """
        affected = sorted(affected)
        old_pairs: Set[PairKey] = set()
        for clique in affected:
            if clique in self._wiring_of:
                old_pairs.update(self._wiring_of[clique][0])
        for uid, (index, keypair) in joiners.items():
            self.index_of[uid] = index
            self.keypairs[uid] = keypair
            self._seen[uid] = set()
        for uid in leavers:
            del self.index_of[uid], self.keypairs[uid], self._seen[uid]
            self._inactive.discard(uid)
        self.clique_of = dict(clique_of)
        self._refresh_members()
        self._chunks = None
        new_pairs: Set[PairKey] = set()
        for clique in affected:
            self._rewire_clique(clique)
            if clique in self._wiring_of:
                new_pairs.update(self._wiring_of[clique][0])
        dropped = old_pairs - new_pairs
        for pair in dropped:
            del self._pair_secret[pair]
        return (2 * len(new_pairs - old_pairs),
                2 * len(old_pairs & new_pairs), 2 * len(dropped))
