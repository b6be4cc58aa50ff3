"""Epoch-based membership lifecycle: churn without re-enrollment.

The paper's protocol fixes the enrolled population per reporting window.
A production deployment does not get that luxury: users install and
uninstall the extension, go dormant, and come back *between* windows —
and re-running the full DH enrollment (U·(U/k−1) modexps) every window
is unaffordable at millions of users. This module makes membership a
first-class lifecycle:

* an :class:`Epoch` is an immutable snapshot — a frozen roster, its
  clique map, and the first round id valid under it. Rounds run against
  one epoch's wiring; the roster never changes mid-round.
* a :class:`MembershipManager` owns the durable key material (DH key
  pairs, stable blinding indexes, the panel's ad-ID mapper and OPRF
  server, the object clients' pad-stream hand-off) and produces the next epoch from ``joins``
  and ``leaves``. Re-sharding is *minimal and deterministic*: continuing
  users keep their clique wherever possible, joiners fill the smallest
  cliques, and only when a clique would fall below two members does a
  deterministically chosen member move. Consequently only users whose
  clique actually changed are re-keyed, and even they reuse their DH
  key pair — a secret is derived per genuinely new pair, never for a
  surviving one (:meth:`~repro.crypto.blinding.BlindingGenerator.
  rekey`).

Lifecycle::

    enrollment = enroll_users(users, config, num_cliques=8)   # epoch 0
    manager = MembershipManager(enrollment)
    ... run rounds ...
    transition = manager.advance_epoch(joins=[...], leaves=[...])
    ... run more rounds against the new epoch ...

There is one lifecycle for both client backends. The manager is built
from an :class:`~repro.protocol.enrollment.Enrollment` (per-user client
objects) *or* a :class:`~repro.protocol.army.ClientArmy` (the
struct-of-arrays backend), and everything that decides *who is
enrolled* — validation, re-sharding, the anonymity floor, joiners' key
material, the epoch and the round watermark — runs once, here. The
backends differ in exactly one step, the hook that re-wires the cliques
churn touched and reports the pair secrets added, kept and dropped:
``ClientArmy.rewire`` for the army, ``_rewire_clients`` below for
objects. Replay (:meth:`MembershipManager.from_history`) therefore
rebuilds either backend, which is what lets a batched session resume.

Correctness: blinding cancels within whatever peer set a clique's
generators agree on, so any epoch's rounds aggregate bit-identically to
a fresh enrollment of the same roster — the pads differ, their sum does
not. Privacy: the anonymity set of a report is its clique's *reporting*
members; churn that shrinks a clique shrinks that set, so the manager
refuses rosters that cannot keep every clique at two members or more
(and deployments should keep U/k comfortably larger — see
:func:`~repro.protocol.enrollment.assign_cliques`).

Epoch ids and round ids only move forward. Pads are keyed by
``(pair secret, round id)`` and pair secrets survive epochs, so reusing
a round id after an epoch advance would reuse one-time pads. The
manager owns the round watermark: every
:class:`repro.api.ProtocolSession` built on it reads its next round id
here and reports spent rounds via :meth:`MembershipManager.note_round`,
and :meth:`MembershipManager.advance_epoch` starts the new epoch after
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError
from repro.crypto.blinding import (
    BlindingGenerator,
    PadStreamProvider,
    wire_clique,
)
from repro.crypto.group import KeyPair
from repro.protocol.army import ClientArmy
from repro.protocol.client import ProtocolClient, RoundConfig
from repro.protocol.enrollment import Enrollment, enroll_users, keypair_seed
from repro.statsutil.sampling import make_rng

#: Supported client backends: per-user objects, or the struct-of-arrays
#: :class:`~repro.protocol.army.ClientArmy` (bit-identical reports, one
#: endpoint for the whole population — the 100k+-user path).
CLIENT_BACKENDS = ("objects", "batched")


@dataclass(frozen=True)
class Epoch:
    """One immutable membership snapshot.

    Rounds ``first_round, first_round + 1, ...`` (until the next epoch's
    ``first_round``) run against this roster and clique map. The roster
    is the frozen, sorted user-id tuple; the clique map assigns each of
    them to a blinding clique.
    """

    epoch_id: int
    user_ids: Tuple[str, ...]
    clique_of: Dict[str, int]
    num_cliques: int = 1
    first_round: int = 0

    @property
    def size(self) -> int:
        return len(self.user_ids)

    def members_of(self, clique_id: int) -> Tuple[str, ...]:
        """The sorted members of one clique."""
        return tuple(sorted(u for u, c in self.clique_of.items()
                            if c == clique_id))

    def clique_sizes(self) -> Dict[int, int]:
        sizes: Dict[int, int] = {c: 0 for c in range(self.num_cliques)}
        for clique in self.clique_of.values():
            sizes[clique] += 1
        return sizes

    @property
    def min_clique_size(self) -> int:
        """The smallest clique — the epoch's worst-case anonymity bound
        (a report hides among its clique's reporting members only)."""
        return min(self.clique_sizes().values())


@dataclass(frozen=True)
class EpochTransition:
    """What one :meth:`MembershipManager.advance_epoch` call did.

    ``rekeyed`` lists every user whose peer set was rebuilt because its
    clique assignment changed: joiners plus forcibly moved continuing
    users. Everyone else kept their generator untouched (or, in a clique
    that only gained/lost a member, kept every surviving pair secret).
    The pair-secret counters are per *generator end*, the deployment's
    cost: a brand-new pair counts two modexps, one per device, while
    the in-process host derives it once (one table walk, on either
    backend).
    """

    epoch: Epoch
    joined: Tuple[str, ...]
    left: Tuple[str, ...]
    #: Continuing users whose clique id changed (forced re-shard moves).
    moved: Tuple[str, ...]
    #: joined + moved: the only users whose blinding was rebuilt.
    rekeyed: Tuple[str, ...]
    #: Modexps a deployment pays (one per new generator-end secret).
    modexps: int
    #: Generator-end pair secrets reused unchanged across the transition.
    secrets_reused: int
    #: Generator-end pair secrets dropped (departed or re-sharded pairs).
    secrets_dropped: int


def suggest_num_cliques(roster: Sequence[str],
                        churn_forecast: float = 0.0,
                        k_min: int = 2,
                        max_cliques: Optional[int] = None) -> int:
    """Anonymity-aware clique count for an enrollment.

    A report hides among its clique's *reporting* members, so the clique
    count must keep every clique at ``k_min`` members or more even after
    the forecast fraction of users churns away mid-epoch. The suggestion
    is the largest clique count (most parallelism, cheapest enrollment —
    modexps scale with U·(U/k−1)) that still guarantees the floor for
    the post-churn population::

        survivors = |roster| - ceil(|roster| * churn_forecast)
        suggestion = survivors // k_min        (capped by max_cliques)

    Raises :class:`~repro.errors.ConfigurationError` when no clique
    count can hold the floor (fewer forecast survivors than ``k_min``) —
    the caller must enroll more users or accept a smaller floor, not
    silently run with a collapsed anonymity set.
    """
    size = len(roster)
    if len(set(roster)) != size:
        raise ConfigurationError("duplicate user ids in roster")
    if not 0.0 <= churn_forecast < 1.0:
        raise ConfigurationError(
            f"churn_forecast must be a fraction in [0, 1), got "
            f"{churn_forecast!r}")
    if k_min < 2:
        raise ConfigurationError(
            f"k_min must be >= 2 (a 1-member clique reports its raw "
            f"sketch), got {k_min}")
    survivors = size - math.ceil(size * churn_forecast)
    if survivors < k_min:
        raise ConfigurationError(
            f"no clique count can hold the anonymity floor: {size} users "
            f"with churn forecast {churn_forecast:.0%} leaves "
            f"{survivors} expected survivors, below k_min={k_min}; enroll "
            f"more users or lower the floor")
    suggestion = max(1, survivors // k_min)
    if max_cliques is not None:
        suggestion = min(suggestion, int(max_cliques))
    return suggestion


def validate_churn(roster: Sequence[str], joins: Sequence[str],
                   leaves: Sequence[str], num_cliques: int) -> None:
    """Validate one join/leave delta against the current roster."""
    current = set(roster)
    if len(set(joins)) != len(joins):
        raise ConfigurationError("duplicate user ids in joins")
    if len(set(leaves)) != len(leaves):
        raise ConfigurationError("duplicate user ids in leaves")
    both = sorted(set(joins) & set(leaves))
    if both:
        raise ConfigurationError(
            f"users cannot join and leave in the same transition: "
            f"{both[:5]}")
    already = sorted(set(joins) & current)
    if already:
        raise ConfigurationError(
            f"joins already enrolled: {already[:5]}")
    unknown = sorted(set(leaves) - current)
    if unknown:
        raise ConfigurationError(
            f"leaves not currently enrolled: {unknown[:5]}")
    new_size = len(current) - len(leaves) + len(joins)
    # The privacy floor holds for every k, including k=1: a clique
    # with a single member has no peers, so its user's "blinded"
    # report would be the raw cleartext sketch.
    if new_size < 2 * max(1, num_cliques):
        raise ConfigurationError(
            f"advance_epoch would leave {new_size} users across "
            f"{num_cliques} clique(s); blinding needs >= 2 "
            f"members per clique (>= {2 * num_cliques} users), "
            f"or a lone survivor would report its raw sketch")


def enforce_clique_floor(clique_of: Dict[str, int], num_cliques: int,
                         min_clique_floor: int) -> None:
    """Refuse an assignment whose smallest clique breaks the floor.

    Raised **before any state changes**, so ``Epoch.min_clique_size``
    never silently collapses below the caller's anonymity requirement.
    """
    sizes: Dict[int, int] = {c: 0 for c in range(num_cliques)}
    for clique in clique_of.values():
        sizes[clique] += 1
    small = sorted(c for c, n in sizes.items() if n < min_clique_floor)
    if small:
        raise ConfigurationError(
            f"advance_epoch would drop clique(s) {small} below the "
            f"anonymity floor k_min={min_clique_floor} (sizes: "
            f"{ {c: sizes[c] for c in small} }); a report would "
            f"hide among fewer than {min_clique_floor} users. "
            f"Enroll more users, or size the population with "
            f"suggest_num_cliques(roster, churn_forecast, k_min)")


def reshard(clique_of: Dict[str, int], num_cliques: int,
            joins: Sequence[str]) -> Tuple[Dict[str, int], List[str]]:
    """Minimal-movement deterministic re-shard.

    ``clique_of`` holds the continuing users' current assignment (leavers
    already removed). Joiners (processed in sorted order) fill whichever
    clique is currently smallest (ties: lowest clique id). If any clique
    still has fewer than two members, the lexicographically largest
    member of the largest clique moves over, repeatedly — the only case
    that re-keys a continuing user. Returns the new assignment and the
    moved users.
    """
    assignment = dict(clique_of)
    sizes = {c: 0 for c in range(num_cliques)}
    for clique in assignment.values():
        sizes[clique] += 1
    for joiner in sorted(joins):
        target = min(sizes, key=lambda c: (sizes[c], c))
        assignment[joiner] = target
        sizes[target] += 1
    moved: List[str] = []
    if num_cliques > 1:
        while min(sizes.values()) < 2:
            target = min(sizes, key=lambda c: (sizes[c], c))
            donor = max(sizes, key=lambda c: (sizes[c], -c))
            if sizes[donor] <= 2:
                raise ConfigurationError(
                    f"cannot keep {num_cliques} cliques at >= 2 members "
                    f"with {len(assignment)} users")
            mover = max(u for u, c in assignment.items() if c == donor)
            assignment[mover] = target
            sizes[donor] -= 1
            sizes[target] += 1
            moved.append(mover)
    return assignment, sorted(moved)


class MembershipManager:
    """Owns the roster, epoch, round watermark and durable key material
    of one enrolled population — whichever client backend hosts it.

    Construct from an epoch-0 :class:`~repro.protocol.enrollment.
    Enrollment` (see :func:`~repro.protocol.enrollment.enroll_users`) or
    a :class:`~repro.protocol.army.ClientArmy`, then call
    :meth:`advance_epoch` between reporting windows. Key pairs
    and blinding indexes are remembered even for departed users, so a
    user that leaves and later rejoins gets its old identity back — and
    round ids never repeat across epochs, so the rejoined pairs' pads
    stay one-time.
    """

    def __init__(self, source: Union[Enrollment, ClientArmy]) -> None:
        missing = [u for u in source.user_ids
                   if u not in source.keypairs
                   or u not in source.index_of]
        if missing or source.ad_mapper is None:
            raise ConfigurationError(
                f"enrollment lacks key material for {missing[:5] or 'ad ids'}"
                f"; build it with enroll_users() (epoch-aware enrollments "
                f"carry keypairs, stable indexes and the panel's ad mapper)")
        #: The batched backend this manager drives, or None when the
        #: population is per-user client objects.
        self.army: Optional[ClientArmy] = (
            source if isinstance(source, ClientArmy) else None)
        self.config: RoundConfig = source.config
        self.group = source.group
        self.seed = source.seed
        self.use_oprf = source.use_oprf
        self.oprf_server = source.oprf_server
        #: The panel's one URL -> ad-id mapper, held by epoch-0 clients,
        #: joiners and returning users alike.
        self.ad_mapper = source.ad_mapper
        #: The object clients' shared pad-stream hand-off; None for the
        #: army, whose kernel squeezes each pair once on its own.
        self.pad_streams: Optional[PadStreamProvider] = (
            None if self.army is not None else source.pad_streams)
        self.num_cliques = source.num_cliques
        self._keypairs = dict(source.keypairs)
        self._index_of = dict(source.index_of)
        self._next_index = max(self._index_of.values()) + 1
        self._clients: Dict[str, ProtocolClient] = (
            {} if self.army is not None
            else {c.user_id: c for c in source.clients})
        self._next_round = 0
        self._epoch = Epoch(
            epoch_id=0,
            user_ids=tuple(sorted(source.user_ids)),
            clique_of=dict(source.clique_of),
            num_cliques=source.num_cliques,
            first_round=0,
        )

    # ------------------------------------------------------------------
    @classmethod
    def enroll(cls, user_ids: Sequence[str], config: RoundConfig,
               client_backend: str = "objects",
               **enroll_kwargs: Any) -> "MembershipManager":
        """Epoch-0 enrollment and manager construction in one step."""
        if client_backend not in CLIENT_BACKENDS:
            raise ConfigurationError(
                f"unknown client_backend {client_backend!r}; expected one "
                f"of {CLIENT_BACKENDS}")
        enroll = (ClientArmy.enroll if client_backend == "batched"
                  else enroll_users)
        return cls(enroll(user_ids, config, **enroll_kwargs))

    @classmethod
    def from_history(cls, user_ids: Sequence[str], config: RoundConfig,
                     transitions: Sequence[Tuple[Sequence[str],
                                                 Sequence[str], int]] = (),
                     last_round: Optional[int] = None,
                     **enroll_kwargs: Any) -> "MembershipManager":
        """Rebuild a membership by replaying its persisted history.

        Crash recovery leans on two determinism guarantees this module
        already provides: enrollment is a pure function of
        ``(user_ids, config, seed, ...)`` (see
        :func:`~repro.protocol.enrollment.keypair_seed`), and
        :meth:`advance_epoch` is deterministic in its join/leave
        sequence. So a manager reconstructed from the *epoch-0* roster
        plus the recorded ``(joins, leaves, first_round)`` of every
        later epoch carries bit-identical key material — every DH pair,
        pair secret and pad stream matches the crashed instance, and the
        next round aggregates identically to an uninterrupted run.
        ``enroll_kwargs`` forward to :meth:`enroll`, ``client_backend``
        included: the replay is the same for either backend.

        ``last_round`` marks the highest round id already completed
        (persisted) by the previous life of this membership; it is
        recorded via :meth:`note_round` so the resumed session's pads
        stay one-time. Callers should verify the replayed final epoch
        against the persisted roster/clique snapshot to detect store
        drift (:meth:`repro.api.ProtocolSession.attach_store` does).
        """
        manager = cls.enroll(user_ids, config, **enroll_kwargs)
        for joins, leaves, first_round in transitions:
            manager.advance_epoch(joins=joins, leaves=leaves,
                                  first_round=first_round)
        if last_round is not None:
            manager.note_round(last_round)
        return manager

    @property
    def epoch(self) -> Epoch:
        return self._epoch

    @property
    def next_round(self) -> int:
        """The first round id not yet spent against this membership's
        pads (sessions report completed rounds via :meth:`note_round`,
        so a session rebuilt mid-epoch resumes after them)."""
        return max(self._next_round, self._epoch.first_round)

    def note_round(self, round_id: int) -> None:
        """Record that ``round_id`` ran: its (pair, round) pads are
        spent and may never be reused by any future session."""
        self._next_round = max(self._next_round, round_id + 1)

    @property
    def roster(self) -> Tuple[str, ...]:
        return self._epoch.user_ids

    @property
    def client_backend(self) -> str:
        """Which of :data:`CLIENT_BACKENDS` hosts this population."""
        return "objects" if self.army is None else "batched"

    @property
    def clients(self) -> List[ProtocolClient]:
        """Active client objects in roster (sorted user id) order;
        empty when the army hosts the population."""
        if self.army is not None:
            return []
        return [self._clients[u] for u in self._epoch.user_ids]

    @property
    def population(self) -> Union[List[ProtocolClient], ClientArmy]:
        """What the wiring layer wires: the army, or :attr:`clients`."""
        return self.clients if self.army is None else self.army

    def client_of(self, user_id: str) -> ProtocolClient:
        try:
            return self._clients[user_id]
        except KeyError:
            raise ConfigurationError(
                f"{user_id!r} is not in epoch {self._epoch.epoch_id}'s "
                f"roster") from None

    # ------------------------------------------------------------------
    def _materialize(self, user_id: str) -> Tuple[int, KeyPair]:
        """Stable index + key pair for a joiner (new or returning)."""
        keypair = self._keypairs.get(user_id)
        if keypair is None:
            keypair = self.group.keypair(
                make_rng(keypair_seed(self.seed, user_id)))
            self._keypairs[user_id] = keypair
        index = self._index_of.get(user_id)
        if index is None:
            index = self._next_index
            self._next_index += 1
            self._index_of[user_id] = index
        return index, keypair

    def _rewire_clients(self, clique_of: Dict[str, int],
                        affected: Iterable[int],
                        joiners: Dict[str, Tuple[int, KeyPair]],
                        leavers: Sequence[str]) -> Tuple[int, int, int]:
        """The object backend's hook (the army's is ``ClientArmy.
        rewire``): drop leavers' clients, build joiners' with an empty
        peer set, then reconcile the peer sets of the affected cliques'
        members — nobody else's generator is touched. Returns generator
        -end pair secrets ``(added, kept, dropped)``; a leaver's ends
        go with its client and count as dropped.
        """
        added = kept = dropped = 0
        for user in leavers:
            dropped += len(self._clients.pop(user).blinding.peer_indexes)
        for user, (index, keypair) in joiners.items():
            blinding = BlindingGenerator(self.group, index, keypair, {},
                                         pad_streams=self.pad_streams)
            self._clients[user] = ProtocolClient(
                user, self.config, blinding, self.ad_mapper,
                clique_id=clique_of[user])
        members_of: Dict[int, List[str]] = {c: [] for c in affected}
        for user, clique in clique_of.items():
            if clique in members_of:
                members_of[clique].append(user)
        for clique in sorted(members_of):
            generators = []
            for user in sorted(members_of[clique]):
                client = self._clients[user]
                client.clique_id = clique
                generators.append(client.blinding)
            was_kept, was_added, was_removed = wire_clique(self.group,
                                                           generators)
            kept += was_kept
            added += was_added
            dropped += was_removed
        return added, kept, dropped

    def advance_epoch(self, joins: Sequence[str] = (),
                      leaves: Sequence[str] = (),
                      first_round: Optional[int] = None,
                      min_clique_floor: Optional[int] = None,
                      ) -> EpochTransition:
        """Produce the next epoch from a join/leave delta.

        ``first_round`` is the first round id the new epoch will run
        (a replay passes the recorded one); omitted, the rounds
        recorded via :meth:`note_round` decide, so round ids, and
        therefore pads, never repeat across epochs.

        ``min_clique_floor`` enforces an anonymity floor *above* the
        structural minimum of two: if the new epoch's smallest clique
        would drop below it, the advance is refused with
        :class:`~repro.errors.ConfigurationError` **before any state
        changes** — ``Epoch.min_clique_size`` never silently collapses.
        Size the enrollment with :func:`suggest_num_cliques` to keep the
        floor holdable under forecast churn.

        Only users whose clique changed are re-keyed; everyone else
        keeps their pair secrets, and survivors of an affected clique
        keep every pair secret that survives (one derivation per
        genuinely new pair). Returns the bookkeeping as an
        :class:`EpochTransition`.
        """
        old = self._epoch
        validate_churn(old.user_ids, joins, leaves, self.num_cliques)
        old_clique = old.clique_of
        leaving = set(leaves)
        continuing = {u: c for u, c in old_clique.items()
                      if u not in leaving}
        new_clique, moved = reshard(continuing, self.num_cliques, joins)
        if min_clique_floor is not None:
            enforce_clique_floor(new_clique, self.num_cliques,
                                 min_clique_floor)

        # Cliques whose membership changed: old homes of leavers and
        # moved users, new homes of joiners and moved users. Only their
        # members' pair secrets are touched at all.
        affected = {old_clique[u] for u in leaves}
        affected.update(old_clique[u] for u in moved)
        affected.update(new_clique[u] for u in moved)
        affected.update(new_clique[u] for u in joins)

        joiners = {user: self._materialize(user) for user in sorted(joins)}
        rewire = (self._rewire_clients if self.army is None
                  else self.army.rewire)
        modexps, reused, dropped = rewire(new_clique, affected, joiners,
                                          leaves)
        epoch = Epoch(
            epoch_id=old.epoch_id + 1,
            user_ids=tuple(sorted(new_clique)),
            clique_of=new_clique,
            num_cliques=self.num_cliques,
            # Clamp even an explicit first_round to the rounds already
            # recorded: a stale session's counter must not re-open
            # spent (pair, round) one-time pads.
            first_round=(self.next_round if first_round is None
                         else max(first_round, self.next_round)),
        )
        # Cliques the churn never touched reuse every end untouched —
        # count them so the totals describe the whole transition, not
        # just the affected cliques.
        reused += sum(size * (size - 1)
                      for clique, size in epoch.clique_sizes().items()
                      if clique not in affected)
        self._epoch = epoch
        self._next_round = epoch.first_round
        return EpochTransition(
            epoch=epoch,
            joined=tuple(sorted(joins)),
            left=tuple(sorted(leaves)),
            moved=tuple(moved),
            rekeyed=tuple(sorted(set(joins) | set(moved))),
            modexps=modexps,
            secrets_reused=reused,
            secrets_dropped=dropped,
        )
