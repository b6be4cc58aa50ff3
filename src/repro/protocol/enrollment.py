"""Enrollment: turn a list of user ids into fully wired protocol clients.

Enrollment in the paper is the out-of-band phase where users post DH public
keys to the bulletin board and learn the round parameters. This factory
performs that phase in-process: it generates a key pair per user, exchanges
public keys, builds each user's :class:`BlindingGenerator` and connects
everyone to a shared OPRF server for ad-ID mapping.

In the epoch lifecycle (:mod:`repro.protocol.membership`) this is the
**epoch-0 constructor**: an :class:`Enrollment` carries the key material
(key pairs, stable blinding indexes, the panel's ad-ID mapper and its OPRF
server, and the pad-stream provider) that a
:class:`~repro.protocol.membership.MembershipManager` reuses when the
population churns between epochs, so joins and leaves never re-derive
the U·(U/k−1)/2 pair secrets of the full exchange.

A device pays one modexp per peer for its pair secrets. This in-process
host holds both ends' key pairs, so it derives each pair's secret once
(:func:`~repro.crypto.blinding.wire_clique`, one fixed-base table walk
a pair) and hands both ends the same bytes.

Blinding cliques
----------------
The pairwise blinding keystream of §6 costs Θ(users² · cells) per round
when every user shares a secret with every other user. ``num_cliques``
shards the population into ``k`` disjoint cliques (deterministically from
``seed``): each user exchanges keys and derives keystreams only *within*
its clique, cutting per-round keystream work to Θ((U/k) · U · cells).
Each clique's blinding terms sum to zero independently, so the global sum
of all blinded reports — and therefore the final aggregate — is
bit-identical to the unsharded protocol. The privacy trade-off is that a
report now hides among its clique (U/k users) rather than the whole
population; ``k=1`` (the default) preserves the original protocol exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.crypto.blinding import (
    BlindingGenerator,
    PadStreamProvider,
    wire_clique,
)
from repro.crypto.group import DHGroup, KeyPair
from repro.crypto.oprf import OPRFClient, OPRFServer
from repro.crypto.prf import KeyedPRF, ObliviousAdMapper
from repro.protocol.client import ProtocolClient, RoundConfig
from repro.statsutil.sampling import make_rng

#: Largest supported clique count: clique ids ride a 16-bit wire field
#: (see the header format in :mod:`repro.protocol.wire`).
MAX_CLIQUES = 0xFFFF + 1

#: RSA modulus size of the panel's OPRF server, in bits.
OPRF_BITS = 256


@dataclass
class Enrollment:
    """The wired population: clients plus the shared infrastructure.

    Beyond the clients themselves, an enrollment retains the epoch-0 key
    material — per-user :class:`~repro.crypto.group.KeyPair` objects and
    stable blinding indexes — so a
    :class:`~repro.protocol.membership.MembershipManager` can rotate the
    roster between epochs without regenerating keys for users that stay.
    """

    clients: List[ProtocolClient]
    group: DHGroup
    oprf_server: Optional[OPRFServer]
    config: RoundConfig
    #: user id -> clique id; every user of a clique shares pairwise
    #: secrets with exactly the other members of that clique.
    clique_of: Dict[str, int] = field(default_factory=dict)
    num_cliques: int = 1
    #: user id -> DH key pair (epoch-0 key material, reused across epochs).
    keypairs: Dict[str, KeyPair] = field(default_factory=dict)
    #: user id -> stable blinding index (never reassigned by churn).
    index_of: Dict[str, int] = field(default_factory=dict)
    #: Enrollment seed: the determinism root for clique assignment and
    #: for deriving joiners' key material in later epochs.
    seed: int = 0
    use_oprf: bool = True
    #: The one URL -> ad-ID mapper every client of the panel holds (see
    #: :class:`KeyMaterial`; None only on a hand-built enrollment).
    ad_mapper: Optional[Union[KeyedPRF, ObliviousAdMapper]] = None
    #: The round's pad-stream hand-off shared by this population's
    #: generators (None only on a hand-built enrollment).
    pad_streams: Optional[PadStreamProvider] = None

    @property
    def user_ids(self) -> List[str]:
        return [c.user_id for c in self.clients]


def _clique_sizes(num_users: int, num_cliques: int) -> List[int]:
    """Sizes of the round-robin deal: clique ``i`` takes every
    ``num_cliques``-th user starting at position ``i``."""
    return [len(range(i, num_users, num_cliques))
            for i in range(num_cliques)]


def assign_cliques(user_ids: Sequence[str], num_cliques: int,
                   seed: int = 0) -> Dict[str, int]:
    """Deterministic, balanced partition of users into blinding cliques.

    The sorted user list is shuffled with an RNG derived from ``seed``
    (independent of the key-generation RNG stream, so ``k=1`` enrollments
    are bit-identical to the pre-sharding protocol) and dealt round-robin
    into ``num_cliques`` groups whose sizes differ by at most one.

    Every clique must end up with at least two members — a singleton
    clique would have no peers, making its user's "blinded" report the
    raw cleartext sketch. Note the sharper form of the same limit during
    recovery: pads only hide a report among a clique's *reporting*
    members, so if dropouts reduce a clique to one survivor, that
    survivor's report plus its adjustment reveals its raw sketch (as in
    the unsharded protocol with ``U - 1`` dropouts — inherent to the
    additive-blinding scheme). Deployments should size ``k`` so that
    ``U / k`` stays a comfortable anonymity set even under churn.
    """
    if len(set(user_ids)) != len(user_ids):
        raise ConfigurationError("duplicate user ids in clique assignment")
    if isinstance(num_cliques, bool) or not isinstance(num_cliques, int):
        raise ConfigurationError(
            f"num_cliques must be an int, got {num_cliques!r}")
    if num_cliques < 1:
        raise ConfigurationError(
            f"num_cliques must be >= 1, got {num_cliques} (0 cliques would "
            f"leave every user unassigned; negative counts are meaningless)")
    if num_cliques > MAX_CLIQUES:
        raise ConfigurationError(
            f"num_cliques {num_cliques} exceeds the wire format's clique-id "
            f"range (max {MAX_CLIQUES})")
    if num_cliques > 1 and len(user_ids) < 2 * num_cliques:
        sizes = _clique_sizes(len(user_ids), num_cliques)
        offenders = [i for i, size in enumerate(sizes) if size < 2]
        kind = "empty" if min(sizes) == 0 else "singleton"
        raise ConfigurationError(
            f"num_cliques={num_cliques} over {len(user_ids)} users would "
            f"leave {kind} cliques {offenders} (sizes {sizes}); blinding "
            f"needs >= 2 members per clique, i.e. at least "
            f"{2 * num_cliques} users for {num_cliques} cliques")
    shuffled = sorted(user_ids)
    # A distinct RNG stream: must not perturb the keypair RNG, and must
    # not collide with it either (hence the tag constant).
    make_rng(seed * 0x9E3779B1 + num_cliques).shuffle(shuffled)
    return {uid: i % num_cliques for i, uid in enumerate(shuffled)}


@dataclass(frozen=True)
class KeyMaterial:
    """The deterministic enrollment-phase outputs, backend-agnostic.

    Everything epoch 0 derives *before* any client object exists: the
    clique map, the per-user DH key pairs (generated sequentially from
    ``make_rng(seed)`` in input order), the stable blinding indexes
    (sorted user ids) and the shared ad-ID mapping infrastructure. Both
    client backends — per-user :class:`~repro.protocol.client.
    ProtocolClient` objects and the struct-of-arrays
    :class:`~repro.protocol.army.ClientArmy` — consume this one
    derivation, which is what makes their reports byte-identical for the
    same ``(user_ids, seed)``.

    ``ad_mapper`` is built once per membership and held by every client,
    joiners and returning users included: the :class:`KeyedPRF` when
    ``use_oprf=False``, otherwise ONE :class:`ObliviousAdMapper` over
    ``oprf_server``. ``id = F(k, url) mod |A|`` (paper §6) is a function of
    the URL alone — the blind-RSA blinding factor cancels — so the panel
    runs the blind/sign/verify/unblind exchange once per *distinct* URL:
    ``oprf_server.evaluations`` and the mapper's ``protocol_rounds`` /
    ``bytes_exchanged()`` count panel-distinct URLs. A *deployed* user's
    §7.1 OPRF traffic stays the analytic ``unique_ads x OPRFClient.
    exchange_bytes()`` of ``tests/test_paper_claims.py``'s weekly budget.
    """

    group: DHGroup
    clique_of: Dict[str, int]
    keypairs: Dict[str, KeyPair]
    index_of: Dict[str, int]
    oprf_server: Optional[OPRFServer]
    ad_mapper: Union[KeyedPRF, ObliviousAdMapper]


def derive_key_material(user_ids: Sequence[str], config: RoundConfig,
                        group: Optional[DHGroup] = None,
                        seed: int = 0,
                        use_oprf: bool = True,
                        num_cliques: int = 1) -> KeyMaterial:
    """Derive the epoch-0 key material for a population.

    The exact derivation sequence is load-bearing: clique assignment
    first (its RNG stream is independent of the keypair stream), then
    key pairs from ``make_rng(seed)`` sequentially in *input* order,
    then stable indexes over the *sorted* ids. Any backend that replays
    this sequence derives bit-identical pads and reports.
    """
    if not user_ids:
        raise ConfigurationError("enrollment needs at least one user id")
    if len(set(user_ids)) != len(user_ids):
        raise ConfigurationError("duplicate user ids in enrollment")

    clique_of = assign_cliques(user_ids, num_cliques, seed=seed)

    rng = make_rng(seed)
    group = group or DHGroup.standard(128)
    keypairs = {uid: group.keypair(rng) for uid in user_ids}
    # Canonical blinding order: sorted user ids. These indexes are stable
    # for the lifetime of a membership manager; later joiners extend the
    # range, they never renumber epoch-0 users.
    index_of = {uid: i for i, uid in enumerate(sorted(user_ids))}

    oprf_server: Optional[OPRFServer] = None
    ad_mapper: Union[KeyedPRF, ObliviousAdMapper]
    if use_oprf:
        oprf_server = OPRFServer.generate(bits=OPRF_BITS,
                                          rng=random.Random(seed + 1))
        # The blinding factor cancels, so ad ids do not depend on this
        # rng stream (nor on who asks): one mapper serves the panel.
        ad_mapper = ObliviousAdMapper(
            OPRFClient(oprf_server.public_key,
                       rng=random.Random(seed << 16)),
            oprf_server, id_space=config.id_space)
    else:
        ad_mapper = KeyedPRF(key=seed.to_bytes(8, "big", signed=True),
                             id_space=config.id_space)
    return KeyMaterial(group=group, clique_of=clique_of, keypairs=keypairs,
                       index_of=index_of, oprf_server=oprf_server,
                       ad_mapper=ad_mapper)


def keypair_seed(seed: int, user_id: str) -> int:
    """The deterministic RNG seed for one user's DH key pair.

    Keyed by ``(enrollment seed, user id)`` only — independent of join
    order and epoch — so two runs replaying the same join/leave sequence
    derive identical key material for every user, which is what makes
    epoch transitions reproducible across independently constructed
    sessions.
    """
    import hashlib as _hashlib
    digest = _hashlib.sha256(
        b"repro-keypair:%d:%s" % (seed, user_id.encode())).digest()
    return int.from_bytes(digest[:8], "big")


def enroll_users(user_ids: Sequence[str], config: RoundConfig,
                 group: Optional[DHGroup] = None,
                 seed: int = 0,
                 use_oprf: bool = True,
                 num_cliques: int = 1) -> Enrollment:
    """Wire up a population of protocol clients (epoch 0).

    With ``use_oprf=True`` (deployment fidelity) ad URLs are mapped through
    a blind-RSA OPRF server, with ``use_oprf=False`` through a
    :class:`KeyedPRF` directly — the same function without protocol
    messages, for large simulations and detector-level tests. Either way
    every client holds the panel's one mapper, so each panel-distinct URL
    is mapped once (:class:`KeyMaterial` says what its counters count).

    ``num_cliques`` shards the blinding graph (see the module docstring);
    the default of 1 reproduces the unsharded protocol exactly.

    Every client is wired to one :class:`~repro.crypto.blinding.
    PadStreamProvider`: a pair's first end to build squeezes its stream
    and folds it into the second end's pending blinding sum, halving the
    session's work for the pad XOF in ``crypto/blinding.py`` while
    holding one vector per member still to build, not one stream per
    pair. Each member's sum is byte-identical to the one a deployment
    client derives on its own, so every report is too.
    """
    material = derive_key_material(user_ids, config, group=group, seed=seed,
                                   use_oprf=use_oprf,
                                   num_cliques=num_cliques)
    group = material.group
    clique_of = material.clique_of
    keypairs = material.keypairs
    index_of = material.index_of

    pad_streams = PadStreamProvider()
    clients: List[ProtocolClient] = []
    generators_of: Dict[int, List[BlindingGenerator]] = {}
    for uid in user_ids:
        clique = clique_of[uid]
        blinding = BlindingGenerator(group, index_of[uid], keypairs[uid], {},
                                     pad_streams=pad_streams)
        generators_of.setdefault(clique, []).append(blinding)
        clients.append(ProtocolClient(uid, config, blinding,
                                      material.ad_mapper, clique_id=clique))
    # Key exchange is clique-scoped: a user only peers with its own
    # clique's members.
    for generators in generators_of.values():
        wire_clique(group, generators)
    return Enrollment(clients=clients, group=group,
                      oprf_server=material.oprf_server,
                      config=config, clique_of=clique_of,
                      num_cliques=num_cliques, keypairs=keypairs,
                      index_of=index_of, seed=seed, use_oprf=use_oprf,
                      ad_mapper=material.ad_mapper, pad_streams=pad_streams)
