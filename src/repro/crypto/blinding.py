"""Additive shares of zero for blinding sketch cells (paper §6, ref [36]).

Following Kursawe, Danezis & Kohlweiss, user ``u_i`` blinds the ``m``-th
cell of its report in round ``s`` with

    b_i[m] = sum_{j != i}  H(y_j^{x_i} || s)[m] * (-1)^{i < j}   (mod 2^32)

where ``y_j^{x_i}`` is the pairwise DH shared secret with user ``u_j``
and ``H(.)[m]`` is the ``m``-th 32-bit block of the pad XOF: SHAKE-128
absorbing the shared secret's bytes, then the round id as 8 signed
big-endian bytes, squeezed for ``4 * cells`` bytes read as big-endian
``uint32``. Because ``H`` is evaluated on the *shared* secret, users
``i`` and ``j`` derive the same keystream with opposite signs, so
summing all users' blinding vectors gives zero in every cell — without
any interaction beyond the one-time public-key exchange.

Using one XOF call per (peer, round) instead of one hash per cell keeps
the construction equivalent (a PRF keyed by the DH secret) while making
rounds with thousands of sketch cells practical. SHAKE-128 is rated at
128-bit strength (FIPS 202), above every bundled DH group (the largest,
1024-bit Oakley group 2, is about 80 bits per NIST SP 800-57), so the
extra capacity of SHAKE-256 would buy nothing and cost a fifth of every
squeeze. Changing the XOF changes every pad byte, so a remote client and
its operator must run the same release.

Arithmetic is modulo ``2**32`` (matching the paper's 4-byte CMS cells):
blinded cells are uniformly random individually, yet their sum recovers
the true aggregate as long as true cell sums stay below ``2**32``. The
blinding sums accumulate in wrapping ``uint32``, which is exact mod
``2^32``, so the order and grouping of the additions cannot matter.

Cancellation is a property of whichever *peer set* a generator was built
over, not of the global population: when enrollment shards users into
blinding cliques, each user's ``peer_publics`` holds only its clique
mates, the ``i``/``j`` keystream pairs cancel clique by clique, and the
sum over all cliques' reports equals the true aggregate exactly as in the
unsharded protocol — while each user evaluates ``|clique| - 1`` instead
of ``U - 1`` keystreams per round. The recovery adjustment works the same
way: a survivor can (and may only) correct for missing peers *it shares a
secret with*, i.e. dropouts inside its own clique.

Every operation (:meth:`BlindingGenerator.blinding_vector_array`,
:meth:`BlindingGenerator.adjustment_for_missing_array`) returns its
wrapping ``numpy.uint32`` accumulator unchanged, the 4-byte cell a report
carries to the root, so no cell is boxed, widened or masked on the way: a
client adds its cleartext counts onto its blinding vector in place.

Pads are derived as the formula reads
-------------------------------------
Every squeeze is one SHAKE-128 over ``secret || round``
(:func:`_pad_bytes`), and no hash state is kept between calls. Absorbing
a secret of at most 128 bytes costs one Keccak permutation, against 25
to 900 for the squeeze itself: on a 2-vCPU machine, forking a per-pair
state cached across rounds measured no faster than hashing afresh
(2,450 pairs × 6,144 cells, 208.6 vs 205.1 ms a round; 6,000 × 1,024,
107.1 vs 107.9 ms; 380 × 38,066, 192.0 vs 193.8 ms), so none is kept.

What is kept is one round's hand-off, on the object path only. An
in-process session hosts *both* ends of every pair, and both ends derive
the same stream. A :class:`PadStreamProvider` shared by an enrollment's
generators lets the first end squeeze it and fold it, with the second
end's sign, into the second end's pending blinding sum, so it holds one
vector per member still to build, never one per pair, and the current
round's alone. Sums mod ``2^32`` of :func:`_squeeze`'s streams do not
depend on their order, so reports are bit-identical with or without a
provider. The batched path hosts both ends itself and squeezes each pair
once without one.

Batched cliques
---------------
A caller hosting whole cliques (:class:`~repro.protocol.army.ClientArmy`)
needs every member's ``b_i`` at once, and the formula above is a running
sum. :func:`blind_cliques` writes it into a member-major ``(m, g, C)``
``uint32`` stack of ``g`` cliques sharing one layout ``(m, lo_rows,
hi_rows)`` (``stack[r, k]`` is member row ``r`` of clique ``k``),
:func:`cliques_per_chunk` cliques at a time: per pair slot it
copies each clique's squeeze into one byte buffer of at most
``_SQUEEZE_CELLS`` cells, or one row if a row is longer, reads the
buffer as big-endian into a ``uint32`` buffer of the same shape once,
then adds that into the slot's high-end rows and subtracts it from its
low-end rows of every clique with one ``+=`` and one ``-=``
(:func:`_scatter_slots`, the only scatter); a row's first pad is copied
(or negated) into it instead, so the stack needs no zero fill.
Member-major, each of those writes one contiguous ``(g, C)`` block, not
``g`` rows ``m * C`` cells apart. The working set is the stack plus the
two buffers, and the cost is the squeeze itself: a chunk's Python and
NumPy overhead is paid per pair slot, not per clique and pair.
:func:`clique_blinding` (recovery adjustments) is the one-clique call.
The ``(pairs, cells)`` pad matrix (:meth:`PadStreamProvider.
clique_matrix`) exists for inspection only and feeds the same scatter
through :meth:`BlindingGenerator.accumulate_clique_matrix`.
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import (
    Callable,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import BlindingError, ConfigurationError
from repro.crypto.group import DHGroup, KeyPair

#: Blinding modulus: 2^32, the range of a 4-byte CMS cell.
BLINDING_MODULUS = 1 << 32

#: Bytes per keystream block (one 32-bit cell).
_CELL_BYTES = 4

#: A pair of user indexes, ordered (low, high): the key of one shared
#: secret's keystream.
PairKey = Tuple[int, int]


def _round_bytes(round_id: int) -> bytes:
    """The round id as the pad XOF absorbs it: 8 signed big-endian bytes."""
    return round_id.to_bytes(8, "big", signed=True)


def _pad_bytes(secret_bytes: bytes, round_bytes: bytes, num_cells: int) -> bytes:
    """SHAKE-128 over the pair's shared secret and the encoded round id
    (:func:`_round_bytes`), squeezed for ``num_cells`` big-endian 32-bit
    cells: the one squeeze every path runs."""
    return hashlib.shake_128(secret_bytes + round_bytes).digest(
        num_cells * _CELL_BYTES)


def _squeeze(secret_bytes: bytes, round_id: int, num_cells: int) -> np.ndarray:
    """One pair's keystream for one round as a native ``uint32`` array."""
    raw = _pad_bytes(secret_bytes, _round_bytes(round_id), num_cells)
    return np.frombuffer(raw, dtype=">u4").astype(np.uint32)


def _pad_sum(
    user_index: int,
    secrets: Mapping[int, bytes],
    round_id: int,
    num_cells: int,
    negate: bool,
) -> np.ndarray:
    """Member ``user_index``'s blinding sum over its ``secrets`` (peer ->
    shared-secret bytes), every pair squeezed here.

    For a pair ``(lo, hi)`` the high end adds the stream and the low end
    subtracts it, the opposite under ``negate=True`` (the recovery
    adjustment). Wrapping ``uint32`` is exact mod ``2^32``, the blinding
    modulus.
    """
    acc = np.zeros(num_cells, dtype=np.uint32)
    for peer, secret in secrets.items():
        stream = _squeeze(secret, round_id, num_cells)
        if (user_index > peer) != negate:
            acc += stream
        else:
            acc -= stream
    return acc


#: Cells of the batched kernel's squeeze buffer (256 KiB): a chunk of
#: same-layout cliques is as many as one pair slot of theirs fits in it.
#: Bounds the working set of a batched round; a clique whose own row is
#: longer is a chunk of one.
_SQUEEZE_CELLS = 1 << 16


def cliques_per_chunk(num_cells: int) -> int:
    """How many cliques of ``num_cells``-cell rows one kernel call blinds
    at a time: one pair slot of theirs fills the squeeze buffer."""
    return max(1, _SQUEEZE_CELLS // num_cells)


def _check_cells(num_cells: int) -> None:
    if num_cells <= 0:
        raise ConfigurationError(f"num_cells must be positive, got {num_cells}")


def _slot_ends(
    lo_rows: np.ndarray, hi_rows: np.ndarray, num_pairs: int, negate: bool
) -> Tuple[List[int], List[int]]:
    """Per pair slot, the member row the pad is added into and the row it
    is subtracted from (``-1``: that end is skipped).

    The sign convention is :func:`_pad_sum`'s: for a pair ``(lo, hi)``
    the high end adds the stream and the low end subtracts it, the
    opposite under ``negate=True`` (the recovery adjustment).
    """
    lo = np.asarray(lo_rows, dtype=np.intp)
    hi = np.asarray(hi_rows, dtype=np.intp)
    if lo.shape != (num_pairs,) or hi.shape != (num_pairs,):
        raise ConfigurationError(
            f"need one lo/hi row per pair: pad has {num_pairs} "
            f"pairs, got {lo.shape} / {hi.shape}"
        )
    plus, minus = (lo, hi) if negate else (hi, lo)
    return plus.tolist(), minus.tolist()


def _scatter_slots(
    cells: np.ndarray, slots: Iterable[np.ndarray], plus: List[int], minus: List[int]
) -> None:
    """The blinding sum, written over ``cells``: the one scatter every
    batched path runs.

    ``cells`` is a member-major ``(m, g, C)`` wrapping ``uint32`` stack
    of ``g`` cliques sharing one layout, its contents ignored; ``slots``
    yields, per pair slot ``p``, a ``(g, C)`` array holding each
    clique's pad row of that slot (the same buffer, refilled, may be
    yielded every time). Slot ``p``'s rows are added into member row
    ``plus[p]`` and subtracted from ``minus[p]`` of every clique at
    once: one ``+=`` and one ``-=`` a slot, whatever ``g``, each into
    the member's contiguous ``(g, C)`` block. A row's first pad is
    copied (or negated) into it rather than added to zeros, and a row no
    slot reaches is zeroed. Row ``r`` of clique ``k`` (``cells[r, k]``)
    then equals :func:`_pad_sum` over that member's pairs bit-for-bit:
    both are sums mod ``2^32`` of the same streams.
    """
    written: Set[int] = set()
    for rows, plus_row, minus_row in zip(slots, plus, minus):
        if plus_row in written:
            cells[plus_row] += rows
        elif plus_row >= 0:
            np.copyto(cells[plus_row], rows)
            written.add(plus_row)
        if minus_row in written:
            cells[minus_row] -= rows
        elif minus_row >= 0:
            np.negative(rows, out=cells[minus_row])
            written.add(minus_row)
    for row in range(len(cells)):
        if row not in written:
            cells[row] = 0


def _squeezed_slots(
    secrets: Sequence[bytes], num_pairs: int, round_id: int, num_cells: int
) -> Iterator[np.ndarray]:
    """Per pair slot, every clique's pad row for one round, squeezed into
    one preallocated ``(g, C)`` ``uint32`` buffer.

    ``secrets`` lists the cliques' pair secrets clique-major (clique
    ``k``'s slot ``p`` at ``k * num_pairs + p``). Each squeeze is copied
    into one byte buffer as it comes, and the buffer is read as
    big-endian into the ``uint32`` rows once per slot, so a slot costs
    one NumPy call, not one per row. Rows are :func:`_squeeze`'s, byte
    for byte; the round id is encoded once.
    """
    num_cliques = len(secrets) // num_pairs if num_pairs else 0
    if not num_cliques:
        return
    row_bytes = num_cells * _CELL_BYTES
    raw = bytearray(num_cliques * row_bytes)
    squeezed = np.frombuffer(raw, dtype=">u4").reshape(num_cliques, num_cells)
    rows = np.empty((num_cliques, num_cells), dtype=np.uint32)
    round_bytes = _round_bytes(round_id)
    for slot in range(num_pairs):
        start = 0
        for secret in secrets[slot::num_pairs]:
            raw[start : start + row_bytes] = _pad_bytes(secret, round_bytes, num_cells)
            start += row_bytes
        np.copyto(rows, squeezed)
        yield rows


def blind_cliques(
    cells: np.ndarray,
    secrets: Sequence[bytes],
    lo_rows: np.ndarray,
    hi_rows: np.ndarray,
    round_id: int,
    negate: bool = False,
) -> None:
    """Write the blinding of ``g`` same-layout cliques into ``cells``,
    whatever it held.

    ``cells`` is a member-major ``(m, g, C)`` ``uint32`` stack, one
    ``(g, C)`` block per member row (``cells[r, k]`` is row ``r`` of
    clique ``k``); the cliques share the layout ``(m, lo_rows, hi_rows)``:
    ``lo_rows[p]`` / ``hi_rows[p]`` is the member row of pair slot
    ``p``'s low- and high-index end (``-1`` skips that end, as a
    dropout-recovery pad does for its missing member). ``secrets`` lists
    the ``g * P`` pair secrets clique-major (clique ``k``'s slot ``p`` at
    ``k * P + p``). Afterwards row ``r`` of clique ``k`` is member
    ``r``'s :meth:`BlindingGenerator.blinding_vector_array` (its
    :meth:`~BlindingGenerator.adjustment_for_missing_array` under
    ``negate=True``), so a caller may pass ``np.empty``.

    Cliques are blinded :func:`cliques_per_chunk` at a time, each pair
    slot squeezed into one bounded buffer and scattered with one ``+=``
    and one ``-=`` (:func:`_scatter_slots`), so the working set beyond
    ``cells`` is two buffers of at most ``_SQUEEZE_CELLS`` cells (or one
    row) each: the squeezed bytes and their ``uint32`` rows. Arguments
    are checked before the first squeeze.
    """
    if cells.ndim != 3 or cells.dtype != np.uint32:
        raise ConfigurationError(
            f"cells must be a (members, cliques, cells) uint32 stack, "
            f"got {cells.dtype} {cells.shape}"
        )
    _, num_cliques, num_cells = cells.shape
    _check_cells(num_cells)
    num_pairs = len(secrets) // num_cliques if num_cliques else 0
    if num_pairs * num_cliques != len(secrets):
        raise ConfigurationError(
            f"need one lo/hi row per pair: {len(secrets)} secrets do not "
            f"split over {num_cliques} cliques"
        )
    plus, minus = _slot_ends(lo_rows, hi_rows, num_pairs, negate)
    chunk = cliques_per_chunk(num_cells)
    for start in range(0, num_cliques, chunk):
        chunk_secrets = secrets[start * num_pairs:(start + chunk) * num_pairs]
        _scatter_slots(
            cells[:, start : start + chunk],
            _squeezed_slots(chunk_secrets, num_pairs, round_id, num_cells),
            plus, minus)


def clique_blinding(
    secrets: Sequence[bytes],
    lo_rows: np.ndarray,
    hi_rows: np.ndarray,
    num_members: int,
    round_id: int,
    num_cells: int,
    negate: bool = False,
) -> np.ndarray:
    """Every member's blinding vector for one clique and round: the
    ``(num_members, num_cells)`` ``uint32`` result of
    :func:`blind_cliques` on a stack of one clique."""
    _check_cells(num_cells)
    acc = np.empty((num_members, 1, num_cells), dtype=np.uint32)
    blind_cliques(acc, secrets, lo_rows, hi_rows, round_id, negate)
    return acc.reshape(num_members, num_cells)


class PadStreamProvider:
    """One round's blinding sums, each pair folded from its first end
    into its second.

    One provider is shared by every :class:`BlindingGenerator` of an
    in-process enrollment, which hosts both ends of every pair. The first
    end of a pair to build (:meth:`blinding`) squeezes the pair's stream,
    adds it into its own sum and folds it, with the peer's sign, into the
    peer's *pending sum*; a member that builds later starts from its
    pending sum and skips the pairs folded into it. Each pair is squeezed
    once a round, and the provider holds at most one vector per member
    still to build (Θ(m·C) cells a clique, not one stream per pair).

    A newer round drops what is left (a dropout's pending sum). An older
    round and a member's second build of the current round squeeze
    locally and leave the pending state alone, as recovery adjustments
    do. Sums mod ``2^32`` do not depend on their order, so every sum is
    bit-identical to a provider-less generator's. A member whose peer set
    lacks a contributor to its pending sum raises
    :class:`~repro.errors.BlindingError` rather than send a pad the
    server could not tell was wrong. Deployment clients never share a
    provider. ``misses`` counts squeezes, ``hits`` pairs the other end
    had already folded in.
    """

    def __init__(self) -> None:
        self._round: Optional[int] = None
        self._cells = 0
        #: member -> its pending sum and the peers folded into it.
        self._pending: Dict[int, Tuple[np.ndarray, Set[int]]] = {}
        #: Members that built the current round's blinding.
        self._built: Set[int] = set()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def stream(
        pair: PairKey, secret_bytes: bytes, round_id: int, num_cells: int
    ) -> np.ndarray:
        """The pair's unsigned keystream for one round, squeezed afresh:
        a native ``uint32`` array. ``pair`` is the ordered ``(low_index,
        high_index)`` tuple; both ends pass the same shared-secret bytes
        and get the same stream."""
        return _squeeze(secret_bytes, round_id, num_cells)

    def blinding(
        self,
        member: int,
        secrets: Mapping[int, bytes],
        round_id: int,
        num_cells: int,
    ) -> np.ndarray:
        """Member ``member``'s blinding vector over its ``secrets`` (peer
        -> shared-secret bytes) for one round, as a ``uint32`` array the
        caller owns."""
        if self._round is None or round_id > self._round:
            self._round, self._cells = round_id, num_cells
            self._pending.clear()
            self._built.clear()
        if (round_id != self._round or num_cells != self._cells
                or member in self._built):
            return _pad_sum(member, secrets, round_id, num_cells, negate=False)
        acc, folded = self._pending.get(member, (None, set()))
        foreign = folded.difference(secrets)
        if foreign:
            raise BlindingError(
                f"user {member} was sent pads from {sorted(foreign)}, "
                f"which are not its peers")
        self._pending.pop(member, None)
        self._built.add(member)
        if acc is None:
            acc = np.zeros(num_cells, dtype=np.uint32)
        self.hits += len(folded)
        for peer, secret in secrets.items():
            if peer in folded:
                continue
            self.misses += 1
            stream = _squeeze(secret, round_id, num_cells)
            if member > peer:
                acc += stream
            else:
                acc -= stream
            if peer not in self._built:
                self._fold(peer, member, stream)
        return acc

    def _fold(self, peer: int, member: int, stream: np.ndarray) -> None:
        """Fold ``member``'s pair stream into ``peer``'s pending sum with
        the peer's sign (the high end adds). A first contribution becomes
        the sum itself, negated in place when the peer subtracts."""
        entry = self._pending.get(peer)
        if entry is None:
            if peer < member:
                np.negative(stream, out=stream)
            self._pending[peer] = (stream, {member})
            return
        pending, folded = entry
        if peer > member:
            pending += stream
        else:
            pending -= stream
        folded.add(member)

    @staticmethod
    def clique_matrix(
        pairs: Sequence[PairKey],
        secrets: Sequence[bytes],
        round_id: int,
        num_cells: int,
    ) -> np.ndarray:
        """One clique's whole pad matrix for one round: row ``p`` is the
        unsigned keystream of ``pairs[p]``, derived exactly as
        :meth:`stream` derives it.

        Returns a read-only ``(len(pairs), num_cells)`` ``uint32`` array.
        A round never needs it — :func:`blind_cliques` sums the same rows
        without holding them — it is the inspectable form of a clique's
        pads.
        """
        if len(pairs) != len(secrets):
            raise ConfigurationError(f"{len(pairs)} pairs but {len(secrets)} secrets")
        _check_cells(num_cells)
        matrix = np.empty((len(pairs), num_cells), dtype=np.uint32)
        for row, secret in enumerate(secrets):
            matrix[row] = _squeeze(secret, round_id, num_cells)
        matrix.setflags(write=False)
        return matrix

    @property
    def pending_sums(self) -> int:
        """Vectors held for members that have not built this round."""
        return len(self._pending)


class BlindingGenerator:
    """Per-user generator of blinding vectors and recovery adjustments.

    Parameters
    ----------
    group:
        The DH group all users share.
    user_index:
        This user's position in the canonical (sorted) user ordering. The
        ``(-1)^(i < j)`` sign convention needs a total order on users.
    keypair:
        This user's DH key pair.
    peer_publics:
        Mapping of peer index -> peer public key for every user this one
        blinds against, excluding self: the whole round's population in
        the unsharded protocol, or just the members of this user's
        blinding clique under sharded enrollment. Cancellation holds
        within whatever peer set is given here, provided every peer's
        generator is built over the matching set. The set is mutable
        between epochs (:meth:`set_peers`, or :meth:`rekey` on a host
        that holds the peers' key pairs, see :func:`wire_clique`):
        membership churn re-keys only the pairs that actually changed,
        reusing every surviving shared secret.
    pad_streams:
        Optional shared :class:`PadStreamProvider`. ``None`` (the
        deployment-faithful default) derives every stream locally.
    """

    def __init__(
        self,
        group: DHGroup,
        user_index: int,
        keypair: KeyPair,
        peer_publics: Dict[int, int],
        pad_streams: Optional[PadStreamProvider] = None,
    ) -> None:
        if user_index in peer_publics:
            raise ConfigurationError(
                f"peer_publics must not contain the user's own index " f"({user_index})"
            )
        self.group = group
        self.user_index = user_index
        self.keypair = keypair
        self.pad_streams = pad_streams
        # Shared-secret bytes per peer, reused for every cell and round
        # (and across epochs while the pair survives membership changes).
        self._secret_bytes: Dict[int, bytes] = {}
        self.set_peers(peer_publics)

    @property
    def peer_indexes(self) -> List[int]:
        return sorted(self._secret_bytes)

    # ------------------------------------------------------------------
    # Epoch membership: incremental peer management
    # ------------------------------------------------------------------
    def set_peers(self, peer_publics: Mapping[int, int]) -> Tuple[int, int, int]:
        """Reconcile the peer set against a new clique roster, as a
        device does: one modexp, ``shared_secret(own, peer_public)``,
        per new peer (see :meth:`rekey`)."""
        group, keypair = self.group, self.keypair
        return self.rekey(
            peer_publics,
            lambda j: group.element_to_bytes(group.shared_secret(keypair, peer_publics[j])),
        )

    def rekey(
        self, peers: Collection[int], secret_of: Callable[[int], bytes]
    ) -> Tuple[int, int, int]:
        """Reconcile the peer set to ``peers``.

        Keeps the secret of every pair that survives, removes departed
        pairs, and asks ``secret_of(peer)`` for the bytes of genuinely
        new pairs only (the caller guarantees key pairs are stable
        across epochs, so a kept pair's secret cannot have changed).
        Returns ``(kept, added, removed)`` pair counts — the bookkeeping
        epoch transitions report.
        """
        wanted = set(peers)
        if self.user_index in wanted:
            raise ConfigurationError(
                f"a generator's peers must not contain the user's own index "
                f"({self.user_index})"
            )
        removed = [j for j in self._secret_bytes if j not in wanted]
        for j in removed:
            del self._secret_bytes[j]
        added = 0
        for j in peers:
            if j not in self._secret_bytes:
                self._secret_bytes[j] = secret_of(j)
                added += 1
        return len(self._secret_bytes) - added, added, len(removed)

    def _accumulate(
        self, peers: Sequence[int], round_id: int, num_cells: int, negate: bool
    ) -> np.ndarray:
        """The blinding sum over ``peers``: through the shared provider
        for a report, squeezed here for an adjustment (its streams were
        consumed in the report phase) or without a provider."""
        secrets = {peer: self._secret_bytes[peer] for peer in peers}
        if self.pad_streams is not None and not negate:
            return self.pad_streams.blinding(
                self.user_index, secrets, round_id, num_cells)
        return _pad_sum(self.user_index, secrets, round_id, num_cells, negate)

    @staticmethod
    def accumulate_clique_matrix(
        pad_matrix: np.ndarray,
        lo_rows: np.ndarray,
        hi_rows: np.ndarray,
        num_members: int,
        negate: bool = False,
    ) -> np.ndarray:
        """Every member's blinding vector from a materialised pad matrix.

        ``pad_matrix`` is a clique's ``(P, C)`` unsigned keystream matrix
        (one row per pair, e.g. :meth:`PadStreamProvider.clique_matrix`).
        Returns the ``(num_members, C)`` ``uint32`` blinding matrix:
        :func:`_scatter_slots` over the matrix's rows, hence equal to
        :func:`clique_blinding` over the same pairs.
        """
        pad = np.asarray(pad_matrix)
        if pad.ndim != 2:
            raise ConfigurationError(
                f"pad_matrix must be 2-D (pairs x cells), got shape {pad.shape}"
            )
        if pad.dtype.kind != "u":
            pad = pad.astype(np.uint32)
        num_pairs, num_cells = pad.shape
        plus, minus = _slot_ends(lo_rows, hi_rows, num_pairs, negate)
        acc = np.empty((num_members, 1, num_cells), dtype=np.uint32)
        _scatter_slots(acc, pad[:, None, :], plus, minus)
        return acc.reshape(num_members, num_cells)

    def blinding_vector_array(self, num_cells: int, round_id: int) -> np.ndarray:
        """Blinding factors over every known peer for ``num_cells`` cells,
        as a ``uint32`` array."""
        _check_cells(num_cells)
        return self._accumulate(self.peer_indexes, round_id, num_cells, negate=False)

    def adjustment_for_missing_array(
        self, missing: Iterable[int], num_cells: int, round_id: int
    ) -> np.ndarray:
        """Correction vector for the §6 fault-tolerance round (``uint32``).

        If peers in ``missing`` never reported, their blinding terms do not
        cancel. Every *surviving* user sends the negation of the terms it
        shares with the missing peers; the server adds these corrections to
        the aggregate, restoring cancellation. Equivalent to re-reporting
        with blindings computed over the surviving set only, but costs one
        short vector instead of a full re-report.
        """
        missing = sorted(set(missing))
        if self.user_index in missing:
            raise BlindingError("a surviving user cannot be in the missing set")
        unknown = [p for p in missing if p not in self._secret_bytes]
        if unknown:
            raise BlindingError(f"no shared secret with peers {unknown}")
        return self._accumulate(missing, round_id, num_cells, negate=True)

    def exchange_bytes(self) -> int:
        """Bytes this user downloads for the key exchange (one public key
        per peer), the quantity reported in §7.1."""
        return len(self._secret_bytes) * self.group.element_bytes


def wire_clique(
    group: DHGroup, generators: Sequence[BlindingGenerator]
) -> Tuple[int, int, int]:
    """Reconcile one clique's generators to each other, as the host that
    holds every member's key pair.

    Each end's new pairs come from :meth:`BlindingGenerator.rekey`; the
    pair's first end derives it once with :meth:`DHGroup.pair_secret`
    (one table walk, the value a device's modexp gives) and the second
    end takes the same bytes. Returns ``(kept, added, removed)`` summed
    over the generators, i.e. counted per generator end.
    """
    keys = {blinding.user_index: blinding.keypair for blinding in generators}
    handed: Dict[PairKey, bytes] = {}

    def pair_bytes(own: int, peer: int) -> bytes:
        pair = (own, peer) if own < peer else (peer, own)
        secret = handed.pop(pair, None)
        if secret is None:
            secret = handed[pair] = group.element_to_bytes(
                group.pair_secret(keys[own], keys[peer]))
        return secret

    kept = added = removed = 0
    for blinding in generators:
        own = blinding.user_index
        counts = blinding.rekey([j for j in keys if j != own], partial(pair_bytes, own))
        kept += counts[0]
        added += counts[1]
        removed += counts[2]
    return kept, added, removed
