"""Client role of the reporting protocol (the browser extension's uplink).

A :class:`ProtocolClient` accumulates the *set* of ads its user saw during
the current window (set, not multiset: the global statistic is "how many
users saw ad α", so each user contributes at most 1 per ad), then produces
a blinded CMS report on demand. It never materialises its sketch: the
window is kept as the sorted flat cell indexes of its ad ids, and a
report is the blinding vector with one count added per index.

The client is a reactive :class:`~repro.protocol.endpoint.
ProtocolEndpoint`: when a round opens it uploads its blinded report to
its :attr:`~ProtocolClient.uplink` (its clique's aggregator — a pure
function of its clique id), a
:class:`~repro.protocol.messages.MissingClientsNotice` makes it answer
with a :class:`~repro.protocol.messages.BlindingAdjustment`, and a
:class:`~repro.protocol.messages.ThresholdBroadcast` is recorded as
:attr:`~ProtocolClient.last_threshold`. The report/adjustment builders
remain callable directly for tests and analyses that exercise the
primitives without a driver.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import ConfigurationError, ProtocolError, RoundStateError
from repro.crypto.blinding import BlindingGenerator
from repro.protocol.endpoint import (
    Outbox,
    ProtocolEndpoint,
    clique_endpoint_id,
)
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    CellVector,
    CleartextReport,
    MissingClientsNotice,
    ThresholdBroadcast,
)
from repro.sketch.countmin import CountMinSketch, flat_indexes

#: The fewest reporters a released clique sum may cover. With one, the
#: reporter's recovery adjustment would cancel every pad left in its
#: report and release its cleartext sketch. A constant, not a knob.
MIN_REPORTERS = 2

#: One cleartext count, typed: ``np.add.at`` takes its fast path only for
#: a value of the cells' own dtype.
ONE_COUNT = np.uint32(1)

#: A window's cleartext counts: the sorted ``int64`` flat cell indexes,
#: the ``uint32`` increment per index (``None``: one each) and the sha256
#: the pad-reuse guard compares.
WindowCounts = Tuple[np.ndarray, Optional[np.ndarray], bytes]


@dataclass(frozen=True)
class RoundConfig:
    """Parameters every participant must agree on for a round.

    ``cms_seed`` fixes the hash family so sketches are mergeable;
    ``id_space`` is the public (over-estimated) size of the ad-ID set the
    server will enumerate when querying the aggregate.
    """

    cms_depth: int
    cms_width: int
    cms_seed: int
    id_space: int

    def __post_init__(self) -> None:
        if self.cms_depth <= 0 or self.cms_width <= 0:
            raise ConfigurationError(
                f"bad CMS dimensions {self.cms_depth}x{self.cms_width}")
        if self.id_space <= 0:
            raise ConfigurationError(
                f"id_space must be positive, got {self.id_space}")

    @property
    def num_cells(self) -> int:
        return self.cms_depth * self.cms_width

    def make_sketch(self) -> CountMinSketch:
        return CountMinSketch(self.cms_depth, self.cms_width, self.cms_seed)

    def flat_indexes(self, ad_ids: Sequence[int]) -> np.ndarray:
        """The ``(depth, n)`` flat cell indexes of ``ad_ids`` in this
        config's sketch layout, without allocating a sketch."""
        return flat_indexes(self.cms_depth, self.cms_width, self.cms_seed,
                            ad_ids)


class AdMapper(Protocol):
    """What a client needs from its URL-to-ad-id mapper: one total map.

    Satisfied structurally by :class:`~repro.crypto.prf.KeyedPRF` and
    :class:`~repro.crypto.prf.ObliviousAdMapper`.
    """

    def ad_id(self, url: str) -> int: ...


def notice_needs_answer(notice: MissingClientsNotice,
                        reported_round: Optional[int], hosted: bool,
                        answered: Optional[FrozenSet[int]]) -> bool:
    """Whether a recovery notice still needs its adjustments.

    Answering hands the notice's sender the pads the answering client
    shares with the named peers in the notice's round; in a clique of
    two that is the peer's whole blinding. So the notice must carry the
    round the client last reported in (:class:`RoundStateError`
    otherwise) and a clique it serves (``hosted``; a
    :class:`ProtocolError` otherwise), and a clique is answered once a
    round: ``answered`` is the missing set already answered there, if
    any. An identical repeat needs no answer, a differing one raises.
    """
    if notice.round_id != reported_round:
        raise RoundStateError(
            f"recovery notice for round {notice.round_id}, but the last "
            f"report went out in round {reported_round}; answering would "
            f"hand out pads of a round this client did not report in")
    if not hosted:
        raise ProtocolError(
            f"recovery notice for clique {notice.clique_id}, which this "
            f"endpoint does not serve")
    if answered is None:
        return True
    if answered != frozenset(notice.missing_indexes):
        raise RoundStateError(
            f"clique {notice.clique_id} already answered a different "
            f"recovery notice in round {notice.round_id}")
    return False


def keeps_reporters(members: Iterable[int], missing: Iterable[int]) -> bool:
    """Whether a clique of ``members`` (blinding indexes) keeps
    :data:`MIN_REPORTERS` reporters once a notice's ``missing`` are gone.

    A survivor answers a recovery notice only if this holds: its
    adjustment cancels the pads it shares with the named peers, so a
    notice naming all of its peers would turn its report into its
    cleartext sketch. The party whose data is at stake enforces the
    floor, whatever the aggregator asks.
    """
    return len(set(members).difference(missing)) >= MIN_REPORTERS


class RoundDigests:
    """round id -> digest of the cleartext blinded in that round: the
    pad-reuse guard's memory.

    Kept as runs of consecutive round ids that share one digest, found
    by bisecting on the run starts, so the state grows with the changes
    of a window, not with its rounds. A round id holds at most one
    digest; :meth:`add` of a differing one raises
    :class:`~repro.errors.RoundStateError` (callers check with
    :meth:`get` first and say why).
    """

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._digests: List[bytes] = []

    def _run_at(self, round_id: int) -> int:
        """The index of the last run starting at or before ``round_id``
        (-1 if none)."""
        return bisect_right(self._starts, round_id) - 1

    def get(self, round_id: int) -> Optional[bytes]:
        run = self._run_at(round_id)
        if run >= 0 and round_id <= self._ends[run]:
            return self._digests[run]
        return None

    def add(self, round_id: int, digest: bytes) -> None:
        previous = self.get(round_id)
        if previous is not None:
            if previous != digest:
                raise RoundStateError(
                    f"round {round_id} already holds a different digest")
            return
        run = self._run_at(round_id)
        joins_left = (run >= 0 and self._ends[run] == round_id - 1
                      and self._digests[run] == digest)
        nxt = run + 1
        joins_right = (nxt < len(self._starts)
                       and self._starts[nxt] == round_id + 1
                       and self._digests[nxt] == digest)
        if joins_left and joins_right:
            self._ends[run] = self._ends[nxt]
            del self._starts[nxt], self._ends[nxt], self._digests[nxt]
        elif joins_left:
            self._ends[run] = round_id
        elif joins_right:
            self._starts[nxt] = round_id
        else:
            self._starts.insert(nxt, round_id)
            self._ends.insert(nxt, round_id)
            self._digests.insert(nxt, digest)

    def __len__(self) -> int:
        """The number of runs held."""
        return len(self._starts)


class ProtocolClient(ProtocolEndpoint):
    """One user's protocol endpoint.

    Its window is cached as counts, not as a sketch: the sorted flat
    cell indexes of its ad ids (Θ(a·d) for ``a`` ads and ``d`` rows, not
    one cell per sketch cell) and their sha256. A report adds one count
    per index onto the ``uint32`` blinding vector, so the client never
    holds a vector of the sketch's size between rounds. Subclasses that
    report other counts (:class:`~repro.protocol.adversary.
    PoisoningClient`) override :meth:`_window_counts`.

    Parameters
    ----------
    user_id:
        Stable identifier (endpoint name on the transport).
    config:
        The shared :class:`RoundConfig`.
    blinding:
        This user's :class:`BlindingGenerator` (pairwise secrets with every
        other enrolled user).
    ad_mapper:
        Anything exposing ``ad_id(url) -> int``; in deployment an
        :class:`~repro.crypto.prf.ObliviousAdMapper`, in unit tests often a
        :class:`~repro.crypto.prf.KeyedPRF`.
    clique_id:
        The blinding clique this user was enrolled into (0 when the
        population is unsharded); stamped on every report and adjustment
        so the server can track recovery per clique.
    """

    def __init__(self, user_id: str, config: RoundConfig,
                 blinding: BlindingGenerator,
                 ad_mapper: AdMapper, clique_id: int = 0) -> None:
        self.user_id = user_id
        self.config = config
        self.blinding = blinding
        self.ad_mapper = ad_mapper
        self.clique_id = clique_id
        #: The last ``Users_th`` received via ThresholdBroadcast (what the
        #: extension's local detector consumes), and its round.
        self.last_threshold: Optional[float] = None
        self.last_threshold_round: Optional[int] = None
        self._seen_urls: Set[str] = set()
        #: URL -> ad ID, filled as ads are observed so report building
        #: never re-runs the OPRF/PRF evaluation.
        self._ad_ids: Dict[str, int] = {}
        #: The window's counts (see :meth:`_window_counts`), reused
        #: across an epoch's rounds (observations fix them); invalidated
        #: by new observations and window resets.
        self._window: Optional[WindowCounts] = None
        #: round id -> digest of the counts blinded in that round.
        #: The pairwise keystream is a one-time pad keyed by
        #: ``(pair, round_id)``; blinding two *different* sketches under
        #: the same round id would hand the server the cell difference in
        #: the clear, so reuse is refused (identical rebuilds are
        #: idempotent and allowed). Survives :meth:`reset_window` — the
        #: pads are no fresher after a window reset.
        self._blinded_rounds = RoundDigests()
        #: The round of the last report built, and the missing set of the
        #: recovery notice answered in it (see notice_needs_answer).
        self._reported_round: Optional[int] = None
        self._answered: Optional[FrozenSet[int]] = None
        #: Offline from the next round start on, as the army's dropped
        #: rows are; set only by the session's
        #: :meth:`~repro.api.ProtocolSession.drop_users` seam.
        self.dropped = False

    @property
    def clique_id(self) -> int:
        return self._clique_id

    @clique_id.setter
    def clique_id(self, clique_id: int) -> None:
        self._clique_id = clique_id
        # Where this client's reports and adjustments go: its clique's
        # aggregator. Derived here, where the clique is assigned, so it
        # cannot drift from the clique map after a re-shard.
        self.uplink = clique_endpoint_id(clique_id)

    # ------------------------------------------------------------------
    # Observation phase
    # ------------------------------------------------------------------
    def observe_ad(self, url: str) -> int:
        """Record that this user saw ``url``; returns its ad ID.

        The OPRF mapping happens here (once per unique ad), matching the
        paper's note that mapping is done as ads arrive, not at report
        time; the resulting ID is cached so :meth:`build_report` costs no
        further PRF evaluations.
        """
        self.observe_ads((url,))
        return self._ad_ids[url]

    def observe_ads(self, urls: Iterable[str]) -> None:
        """Record a batch of seen ads (a window's, say), mapping each
        new one as :meth:`observe_ad` does."""
        ad_ids = self._ad_ids
        seen = self._seen_urls
        map_ad = self.ad_mapper.ad_id
        num_seen = len(seen)
        for url in urls:
            if url not in ad_ids:
                ad_ids[url] = map_ad(url)
            seen.add(url)
        if len(seen) != num_seen:
            self._window = None

    @property
    def seen_urls(self) -> Set[str]:
        return set(self._seen_urls)

    @property
    def num_seen(self) -> int:
        return len(self._seen_urls)

    def reset_window(self) -> None:
        """Clear observations at the start of a new weekly window."""
        self._seen_urls.clear()
        self._ad_ids.clear()
        self._window = None

    # ------------------------------------------------------------------
    # Reporting phase
    # ------------------------------------------------------------------
    def _ad_id_cached(self, url: str) -> int:
        ad_id = self._ad_ids.get(url)
        if ad_id is None:
            ad_id = self.ad_mapper.ad_id(url)
            self._ad_ids[url] = ad_id
        return ad_id

    def _window_counts(self) -> WindowCounts:
        """This window's counts: one per flat cell index of each seen
        ad, hashed for the pad-reuse guard. The sorted indexes determine
        the sketch's cells and back, so their digest changes exactly
        when the cells would."""
        ad_ids = self._ad_ids  # every seen url was mapped at observation
        indexes = self.config.flat_indexes(
            [ad_ids[url] for url in self._seen_urls]
        ).astype(np.int64).ravel()
        indexes.sort()
        return indexes, None, hashlib.sha256(indexes).digest()

    def build_report(self, round_id: int) -> BlindedReport:
        """Blind this window's counts, wrap them as a report.

        The ``uint32`` blinding vector is the report's cell buffer: one
        count per cell index is added onto it with ``np.add.at``, which
        equals blinding the window's sketch mod 2^32, and it is wrapped
        read-only and unchecked — no sketch, cast or per-cell boxing.

        Raises :class:`RoundStateError` if ``round_id`` was already used
        to blind a *different* cell vector: the ``(pair, round_id)``
        keystream is a one-time pad, and reusing it across two sketches
        would leak their cell-wise difference. Rebuilding the identical
        report (e.g. a retransmission) is allowed.
        """
        if self._window is None:
            self._window = self._window_counts()
        indexes, increments, digest = self._window
        previous = self._blinded_rounds.get(round_id)
        if previous is not None and previous != digest:
            raise RoundStateError(
                f"client {self.user_id!r} already blinded a different "
                f"sketch under round {round_id}; reusing the pairwise "
                f"keystream would leak the cell difference")
        cells = self.blinding.blinding_vector_array(self.config.num_cells,
                                                    round_id)
        np.add.at(cells, indexes,
                  ONE_COUNT if increments is None else increments)
        cells.setflags(write=False)
        self._blinded_rounds.add(round_id, digest)
        if round_id != self._reported_round:
            self._reported_round, self._answered = round_id, None
        return BlindedReport(user_id=self.user_id, round_id=round_id,
                             cells=CellVector._wrap(cells),
                             clique_id=self._clique_id)

    def build_cleartext_report(self, round_id: int) -> CleartextReport:
        """The non-private baseline used for §7.1 size comparison."""
        return CleartextReport(user_id=self.user_id, round_id=round_id,
                               urls=tuple(sorted(self._seen_urls)))

    def build_adjustment(self, round_id: int,
                         missing_indexes: Iterable[int]) -> BlindingAdjustment:
        """Fault-tolerance round: corrections for missing peers.

        Trust caveat (inherent to the paper's §6 scheme, unsharded or
        not): the client cannot verify the server's missing list. A
        lying server that names a peer who actually *did* report
        receives that pair's live keystream and can partially unblind
        the named peer's submitted report. Defending this needs missing
        lists authenticated by multiple parties (e.g. the bulletin
        board) — out of scope here; the honest-but-curious model of the
        paper assumes the server follows the protocol.
        """
        cells = self.blinding.adjustment_for_missing_array(
            missing_indexes, self.config.num_cells, round_id)
        return BlindingAdjustment(user_id=self.user_id, round_id=round_id,
                                  cells=CellVector(cells),
                                  clique_id=self._clique_id)

    # ------------------------------------------------------------------
    # Reactive endpoint behaviour (driven by a ProtocolRunner)
    # ------------------------------------------------------------------
    @property
    def endpoint_id(self) -> str:
        return self.user_id

    def on_round_start(self, round_id: int) -> Outbox:
        """The round opened: upload this window's blinded report, unless
        :attr:`dropped` — then nothing, and no notice of this round is
        ever answered, like a client that went offline."""
        if self.dropped:
            return []
        return [(self.uplink, self.build_report(round_id))]

    def on_message(self, sender: str, message: Any) -> Outbox:
        """React to server traffic: a notice for the round this client
        last reported in begets one adjustment if the clique keeps
        :data:`MIN_REPORTERS` reporters (nothing otherwise), the
        threshold broadcast is recorded; anything else is a protocol
        violation and raises."""
        if isinstance(message, MissingClientsNotice):
            if not notice_needs_answer(
                    message, self._reported_round,
                    message.clique_id == self._clique_id, self._answered):
                return []
            members = (self.blinding.user_index, *self.blinding.peer_indexes)
            if not keeps_reporters(members, message.missing_indexes):
                return []
            adjustment = self.build_adjustment(message.round_id,
                                               message.missing_indexes)
            self._answered = frozenset(message.missing_indexes)
            return [(sender, adjustment)]
        if isinstance(message, ThresholdBroadcast):
            self.last_threshold = message.users_threshold
            self.last_threshold_round = message.round_id
            return []
        return super().on_message(sender, message)
