"""The aggregation tree: clique aggregators, regional tiers, the root.

Blinding cancellation is *clique-local*: each clique's pads sum to zero
independently, so a clique's reports (plus its own recovery
adjustments) can be collected and summed without ever seeing another
clique's traffic. The back-end is therefore a tree:

* one :class:`CliqueAggregator` per blinding clique — collects exactly
  its clique's :class:`~repro.protocol.messages.BlindedReport` messages,
  runs the clique-local recovery round when members drop out, and emits
  one :class:`~repro.protocol.messages.PartialAggregate` upward;
* optional :class:`RegionalAggregator` tiers that merge partials so no
  endpoint collects more than ``fan_in`` feeds;
* one :class:`RootAggregator` — combines the partials into the global
  aggregate (bit-identical to the flat sum over every report: each
  partial is the clique's cell-wise sum modulo the blinding modulus, and
  modular addition is associative), answers the #Users distribution
  query and broadcasts the threshold.

The paper's single honest-but-curious back-end is the k = 1 tree: one
clique aggregator that collects and recovers, one root that queries and
thresholds. Because clique aggregators share no state, they are the
unit of concurrency: a multi-server deployment would place each behind
its own socket.

Each :class:`CliqueAggregator` holds its clique's round state and runs
every check on it: intake validation (round, sender, cell count and
range, clique claim, duplicate and late traffic) and the release checks
(adjustments only from notified reporters, full recovery coverage). A
release reads the clique's roster once and hands the missing list to
those checks, and its partial wraps the sum it built unchecked and
read-only (only cells from outside the process are range-checked).
Once released, a clique aggregator accepts only identical resends of
what it counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import MissingReportError, ProtocolError, RoundStateError
from repro.protocol.client import MIN_REPORTERS, RoundConfig
from repro.protocol.endpoint import (
    SERVER_ENDPOINT,
    Outbox,
    ProtocolEndpoint,
    RoundSummary,
    ThresholdRuleFn,
    clique_endpoint_id,
    mean_threshold,
)
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    CellVector,
    MissingClientsNotice,
    PartialAggregate,
    ThresholdBroadcast,
    cells_to_array,
)
from repro.protocol.server import UsersDistributionQuery
from repro.sketch.countmin import CountMinSketch

#: A member's submission to its clique aggregator.
Submission = Union[BlindedReport, BlindingAdjustment]


def _cell_sum(arrays: Sequence[np.ndarray], num_cells: int) -> np.ndarray:
    """The wrapping ``uint32`` sum of ``arrays`` as a new array, each
    read once: the first two in one ``np.add``, the rest added in place
    (no zero vector to start from; all zeros for no array)."""
    if len(arrays) < 2:
        return (arrays[0].copy() if arrays
                else np.zeros(num_cells, dtype=np.uint32))
    cells = np.add(arrays[0], arrays[1])
    for array in arrays[2:]:
        cells += array
    return cells


def regional_endpoint_id(level: int, region_id: int) -> str:
    """Canonical transport name of one regional (mid-tier) aggregator."""
    return f"regional-aggregator-{level}-{region_id}"


@dataclass(frozen=True)
class RegionalNode:
    """One planned mid-tier aggregator: which child partials it merges
    (clique ids at level 1, lower-region ids above) and where the merged
    partial goes next."""

    level: int
    region_id: int
    child_ids: Tuple[int, ...]
    endpoint_id: str
    parent_id: str


@dataclass(frozen=True)
class AggregationTreePlan:
    """A fan-in-bounded aggregation tree over a set of cliques.

    With ``fan_in=None`` (or few enough cliques) the plan is flat:
    every clique feeds the root directly. Otherwise sorted
    clique ids are grouped into consecutive chunks of ``fan_in``,
    each chunk merged by a :class:`RegionalAggregator`, and the grouping
    repeats level by level until at most ``fan_in`` feeds survive for
    the root — so no endpoint, root included, ever collects more than
    ``fan_in`` partials. The tree only re-associates the root's modular
    sum, so the global aggregate is bit-identical at every depth.
    """

    fan_in: Optional[int]
    #: clique id -> endpoint id its partial is sent to.
    clique_parent: Dict[int, str]
    #: Regional tiers bottom-up; empty for the flat tree.
    levels: Tuple[Tuple[RegionalNode, ...], ...]
    #: The ids whose partials the root expects (clique ids when flat,
    #: top-tier region ids otherwise).
    root_children: Tuple[int, ...]

    @property
    def depth(self) -> int:
        """Number of regional tiers between cliques and root."""
        return len(self.levels)

    def nodes(self) -> List[RegionalNode]:
        return [node for tier in self.levels for node in tier]


def _same_partial(a: PartialAggregate, b: PartialAggregate) -> bool:
    """Value equality for partials regardless of the cells container
    (``CellVector`` vs raw ndarray — dataclass ``==`` on the latter
    yields an ambiguous element-wise array instead of a bool)."""
    return (a.clique_id == b.clique_id and a.round_id == b.round_id
            and a.reported == b.reported and a.missing == b.missing
            and np.array_equal(a.cells_as_array(), b.cells_as_array()))


def plan_aggregation_tree(clique_ids: Sequence[int],
                          fan_in: Optional[int] = None,
                          root_id: str = SERVER_ENDPOINT,
                          ) -> AggregationTreePlan:
    """Plan the (possibly multi-level) aggregation tree.

    Deterministic: sorted clique ids, consecutive chunks, region ids
    numbered 0.. per level — two sessions over the same population plan
    the same tree.
    """
    ids = sorted(clique_ids)
    if not ids:
        raise ProtocolError("an aggregation tree needs at least one clique")
    if len(set(ids)) != len(ids):
        raise ProtocolError("duplicate clique ids")
    if fan_in is not None and fan_in < 2:
        raise ProtocolError(
            f"fan_in must be >= 2 (a 1-child tier merges nothing), got "
            f"{fan_in}")
    if fan_in is None or len(ids) <= fan_in:
        return AggregationTreePlan(fan_in=fan_in,
                                   clique_parent={c: root_id for c in ids},
                                   levels=(),
                                   root_children=tuple(ids))
    tiers: List[List[Tuple[int, ...]]] = []
    current: List[int] = list(ids)
    while len(current) > fan_in:
        groups = [tuple(current[i:i + fan_in])
                  for i in range(0, len(current), fan_in)]
        tiers.append(groups)
        current = list(range(len(groups)))
    levels: List[Tuple[RegionalNode, ...]] = []
    for tier_index, groups in enumerate(tiers):
        level = tier_index + 1
        top = tier_index == len(tiers) - 1
        levels.append(tuple(
            RegionalNode(
                level=level, region_id=region_id, child_ids=group,
                endpoint_id=regional_endpoint_id(level, region_id),
                parent_id=(root_id if top else regional_endpoint_id(
                    level + 1, region_id // fan_in)))
            for region_id, group in enumerate(groups)))
    clique_parent = {cid: regional_endpoint_id(1, region_id)
                     for region_id, group in enumerate(tiers[0])
                     for cid in group}
    return AggregationTreePlan(fan_in=fan_in, clique_parent=clique_parent,
                               levels=tuple(levels),
                               root_children=tuple(current))


class CliqueAggregator(ProtocolEndpoint):
    """Aggregation endpoint for one blinding clique.

    ``index_of`` maps exactly this clique's members to their blinding
    indexes (public enrollment metadata: the aggregator needs them only
    to name missing members in the recovery notice). A report or
    adjustment from anyone else is rejected — a message routed to the
    wrong aggregator is an error, never silently absorbed.

    Round flow: collect reports until the driver signals idle (the
    deployment's phase timeout); if members are missing *and* at least
    :data:`~repro.protocol.client.MIN_REPORTERS` members reported,
    notify the survivors and wait for their adjustments; then release
    the clique's partial sum to the root. A clique whose members all
    dropped out emits an all-zero partial — its pads never entered any
    sum, so there is nothing to recover (the root still learns its
    roster went missing). A lone reporter gets no notice: its
    adjustment would cancel every pad left in its report and release
    its cleartext sketch. Its report is dropped, it is counted missing,
    and the clique releases the same all-zero partial.

    Every submission is validated at intake: the round, the sender, the
    cell count and the clique claim, with a cell outside ``[0, 2^32)``
    a :class:`~repro.errors.ProtocolError`. An identical resend is a
    no-op and a differing one is refused, since overwriting would let a
    replayed or forged upload corrupt the sum unnoticed. An adjustment
    is accepted only from a member that reported and was sent this
    round's notice. After the release, a report or adjustment that is
    not an identical resend of one already counted raises
    :class:`~repro.errors.RoundStateError`: it would be stored and never
    counted.
    """

    def __init__(self, clique_id: int, config: RoundConfig,
                 index_of: Dict[str, int],
                 root_id: str = SERVER_ENDPOINT) -> None:
        if not index_of:
            raise ProtocolError(
                f"clique {clique_id} has no members to aggregate")
        self.clique_id = clique_id
        self.config = config
        #: Read at every intake: ``config.num_cells`` is computed per call.
        self._num_cells = config.num_cells
        self.root_id = root_id
        self.endpoint_id = clique_endpoint_id(clique_id)
        self.index_of = dict(index_of)
        self._round_id: Optional[int] = None
        self._reports: Dict[str, BlindedReport] = {}
        self._adjustments: Dict[str, BlindingAdjustment] = {}
        #: Users this round's MissingClientsNotice named (empty until
        #: the notice goes out).
        self._noticed: FrozenSet[str] = frozenset()
        self._released = False

    def on_round_start(self, round_id: int) -> Outbox:
        self._round_id = round_id
        self._reports.clear()
        self._adjustments.clear()
        self._noticed = frozenset()
        self._released = False
        return []

    def on_message(self, sender: str, message: Any) -> Outbox:
        if isinstance(message, BlindedReport):
            if message.user_id in self._noticed:
                # Minus the survivors' adjustments for this user, the
                # report would be its cleartext sketch: never store it.
                raise RoundStateError(
                    f"late report from {message.user_id!r}: clique "
                    f"{self.clique_id}'s recovery notice already counted "
                    f"that user missing in round {message.round_id}")
            if self._released:
                self._refuse_late(message, self._reports)
            self._store(message, self._checked(message), self._reports)
            return []
        if isinstance(message, BlindingAdjustment):
            if self._released:
                self._refuse_late(message, self._adjustments)
            cells = self._checked(message)
            if not self._noticed or message.user_id not in self._reports:
                # Stored, it would wedge the release: nothing could
                # cancel its pads.
                raise RoundStateError(
                    f"unsolicited adjustment from {message.user_id!r}: "
                    f"clique {self.clique_id} sent it no recovery notice "
                    f"in round {message.round_id}")
            self._store(message, cells, self._adjustments)
            return []
        return super().on_message(sender, message)

    def _checked(self, message: Submission) -> np.ndarray:
        """The submission's cells, after its round, sender, cell count
        and clique claim passed (reading the cells range-checks any that
        came from outside the process)."""
        if message.round_id != self._round_id:
            raise RoundStateError(
                f"{type(message).__name__} for round {message.round_id}, "
                f"current is {self._round_id}")
        if message.user_id not in self.index_of:
            raise RoundStateError(
                f"{type(message).__name__} from unknown user "
                f"{message.user_id!r}")
        cells = cells_to_array(message.cells)
        if len(cells) != self._num_cells:
            raise RoundStateError(
                f"{type(message).__name__} has {len(cells)} cells, "
                f"expected {self.config.num_cells}")
        if message.clique_id != self.clique_id:
            raise RoundStateError(
                f"{type(message).__name__} from {message.user_id!r} claims "
                f"clique {message.clique_id}, enrolled in {self.clique_id}")
        return cells

    def _store(self, message: Submission, cells: np.ndarray,
               counted: Dict[str, Any]) -> None:
        """Count a checked submission; an identical resend is a no-op."""
        existing = counted.get(message.user_id)
        if existing is None:
            counted[message.user_id] = message
        elif not np.array_equal(existing.cells_as_array(), cells):
            raise RoundStateError(
                f"duplicate {type(message).__name__} from "
                f"{message.user_id!r} with differing cells in round "
                f"{self._round_id}")

    def _refuse_late(self, message: Submission,
                     counted: Mapping[str, Any]) -> None:
        """After the release only a resend of a counted submission may
        reach intake (which drops it if identical and refuses it if
        not): anything new would be stored and never counted."""
        if message.user_id not in counted:
            raise RoundStateError(
                f"late {type(message).__name__} from {message.user_id!r}: "
                f"clique {self.clique_id} already released its partial for "
                f"round {message.round_id}")

    def missing_users(self) -> List[str]:
        """Members whose report has not arrived this round."""
        if len(self._reports) == len(self.index_of):
            # Intake refuses unknown users: a full count is everyone.
            return []
        return sorted(self.index_of.keys() - self._reports.keys())

    def on_idle(self, round_id: int) -> Outbox:
        if self._released:
            return []
        # The roster is read once per idle; the release checks reuse it.
        missing = self.missing_users()
        if missing and len(self._reports) < MIN_REPORTERS:
            # Too few reporters to hide among: count them missing too.
            self._reports.clear()
            missing = sorted(self.index_of)
        if missing and self._reports and not self._noticed:
            self._noticed = frozenset(missing)
            notice_indexes = tuple(sorted(self.index_of[u] for u in missing))
            notice = MissingClientsNotice(round_id=round_id,
                                          missing_indexes=notice_indexes,
                                          clique_id=self.clique_id)
            return [(user_id, notice) for user_id in sorted(self._reports)]
        return [(self.root_id, self._release(round_id, missing))]

    def _check_release(self, missing: List[str]) -> None:
        """Raise unless the clique's reports and adjustments sum to its
        true counts; ``missing`` is :meth:`missing_users`' answer.

        An adjustment from a member whose report never arrived, or one
        when nobody is missing, would itself add un-cancelled pads
        (:class:`~repro.errors.RoundStateError`). With members missing,
        *every* reporter must have adjusted: partial coverage leaves
        un-cancelled pads in every cell, indistinguishable from a valid
        sum by inspection (:class:`~repro.errors.MissingReportError`).
        """
        for user in sorted(self._adjustments):
            if user not in self._reports:
                raise RoundStateError(
                    f"adjustment from {user!r} whose own report never "
                    f"arrived; its pads are not in the sum to correct")
            if not missing:
                raise RoundStateError(
                    f"adjustment from {user!r} in clique {self.clique_id}, "
                    f"which has no missing users; applying it would add "
                    f"un-cancelled noise")
        if not missing:
            return
        unadjusted = sorted(self._reports.keys() - self._adjustments.keys())
        if unadjusted:
            survivors = len(self._reports)
            raise MissingReportError(
                f"clique {self.clique_id} has missing users but only "
                f"{survivors - len(unadjusted)}/{survivors} survivors "
                f"adjusted; blinding cannot cancel (first unadjusted: "
                f"{unadjusted[:5]})")

    def _release(self, round_id: int,
                 missing: List[str]) -> PartialAggregate:
        """The clique's partial sum, after its recovery completed;
        ``missing`` is :meth:`missing_users`' current answer.

        The reports and adjustments are summed in one wrapping
        ``uint32`` accumulator, exact mod 2^32, so any grouping of the
        additions (per clique, per tree tier) gives the same cells. A
        whole-clique dropout contributes zeros: none of its pads entered
        any sum.
        """
        counted: List[np.ndarray] = []
        if self._reports:
            self._check_release(missing)
            counted = [submission.cells_as_array() for submission in
                       (*self._reports.values(), *self._adjustments.values())]
        cells = _cell_sum(counted, self._num_cells)
        self._released = True
        cells.setflags(write=False)
        return PartialAggregate(clique_id=self.clique_id, round_id=round_id,
                                cells=CellVector._wrap(cells),
                                reported=tuple(sorted(self._reports)),
                                missing=tuple(missing))


class _PartialCollector(ProtocolEndpoint):
    """Partial intake shared by the regional tiers and the root: one
    :class:`~repro.protocol.messages.PartialAggregate` per expected
    child per round. Wrong-round, unexpected-child and wrong-size
    partials raise, identical retransmissions are idempotent, differing
    duplicates are rejected; :meth:`_complete` fires once, when the
    last child's partial arrived."""

    def __init__(self, config: RoundConfig,
                 child_ids: Sequence[int]) -> None:
        if not child_ids:
            raise ProtocolError(
                f"{type(self).__name__} needs at least one child")
        #: Membership test per partial — built once, not per message.
        self._children: FrozenSet[int] = frozenset(child_ids)
        if len(self._children) != len(child_ids):
            raise ProtocolError("duplicate child ids")
        self.config = config
        #: Read at every intake: ``config.num_cells`` is computed per call.
        self._num_cells = config.num_cells
        self.child_ids: List[int] = sorted(child_ids)
        self._round_id: Optional[int] = None
        self._partials: Dict[int, PartialAggregate] = {}

    def on_round_start(self, round_id: int) -> Outbox:
        self._round_id = round_id
        self._partials.clear()
        return []

    def on_message(self, sender: str, message: Any) -> Outbox:
        if not isinstance(message, PartialAggregate):
            return super().on_message(sender, message)
        if self._round_id is None:
            raise RoundStateError(
                f"no round in progress at {self.endpoint_id}")
        if message.round_id != self._round_id:
            raise RoundStateError(
                f"partial for round {message.round_id}, current is "
                f"{self._round_id}")
        if message.clique_id not in self._children:
            raise RoundStateError(
                f"partial from unexpected child {message.clique_id} at "
                f"{self.endpoint_id}")
        if len(message.cells) != self._num_cells:
            raise RoundStateError(
                f"partial has {len(message.cells)} cells, expected "
                f"{self.config.num_cells}")
        existing = self._partials.get(message.clique_id)
        if existing is not None:
            if _same_partial(existing, message):
                return []  # idempotent retransmission
            raise RoundStateError(
                f"duplicate partial from child {message.clique_id} with "
                f"differing content")
        self._partials[message.clique_id] = message
        if len(self._partials) == len(self.child_ids):
            return self._complete(self._round_id)
        return []

    def _complete(self, round_id: int) -> Outbox:
        raise NotImplementedError

    def _merged(self) -> Tuple[np.ndarray, List[str], List[str]]:
        """Every child's partial, in child-id order: the cell-wise sum in
        wrapping ``uint32`` (exact mod 2^32, so the result is
        bit-identical at every tree depth) and the concatenated
        participation rosters."""
        partials = [self._partials[child] for child in self.child_ids]
        reported: List[str] = []
        missing: List[str] = []
        for partial in partials:
            reported.extend(partial.reported)
            missing.extend(partial.missing)
        cells = _cell_sum([partial.cells_as_array() for partial in partials],
                          self._num_cells)
        return cells, reported, missing


class RegionalAggregator(_PartialCollector):
    """Mid-tier fan-in: merges child partials into one bigger partial.

    Purely message-driven like the root, but it finalizes nothing: once
    every expected child's :class:`~repro.protocol.messages.
    PartialAggregate` arrived it emits a single merged partial — cells
    summed modulo the blinding modulus, participation rosters
    concatenated — upward and goes quiet. Reusing ``PartialAggregate``
    for the merged result means the regional tier introduces no new
    wire message: a regional feed is indistinguishable from a very
    large clique's feed, which is exactly why the root needs no
    tree awareness beyond its child-id list.
    """

    def __init__(self, region_id: int, level: int, config: RoundConfig,
                 child_ids: Sequence[int], parent_id: str) -> None:
        super().__init__(config, child_ids)
        self.region_id = region_id
        self.level = level
        self.parent_id = parent_id
        self.endpoint_id = regional_endpoint_id(level, region_id)

    def _complete(self, round_id: int) -> Outbox:
        cells, reported, missing = self._merged()
        cells.setflags(write=False)
        return [(self.parent_id, PartialAggregate(
            clique_id=self.region_id, round_id=round_id,
            cells=CellVector._wrap(cells), reported=tuple(reported),
            missing=tuple(missing)))]


class RootAggregator(_PartialCollector):
    """Combines every clique's partial into the round's global result.

    Purely message-driven: it neither knows users nor touches blinding —
    it waits for one :class:`PartialAggregate` per expected child, adds
    the cell vectors modulo the blinding modulus (bit-identical to the
    flat sum over every report), answers the #Users distribution query
    and broadcasts ``Users_th`` to every client, by a rule fixed at
    construction. A round nobody reported in releases nothing: its
    :meth:`round_summary` raises :class:`~repro.errors.MissingReportError`.
    """

    def __init__(self, config: RoundConfig, clique_ids: Sequence[int],
                 client_ids: Sequence[str],
                 threshold_rule: ThresholdRuleFn = mean_threshold,
                 endpoint_id: str = SERVER_ENDPOINT) -> None:
        super().__init__(config, clique_ids)
        self.clique_ids = self.child_ids
        self.client_ids = list(client_ids)
        self._threshold_rule = threshold_rule
        self.endpoint_id = endpoint_id
        self._distribution_query = UsersDistributionQuery(config)
        self._summary: Optional[RoundSummary] = None
        #: Why this round has no summary although every partial arrived.
        self._failure: Optional[str] = None

    @property
    def threshold_rule(self) -> ThresholdRuleFn:
        """Maps the round's #Users distribution to ``Users_th``."""
        return self._threshold_rule

    def on_round_start(self, round_id: int) -> Outbox:
        self._summary = None
        self._failure = None
        return super().on_round_start(round_id)

    def _complete(self, round_id: int) -> Outbox:
        cells, reported, missing = self._merged()
        if not reported:
            self._failure = (f"no reports arrived; all {len(missing)} "
                             f"enrolled users are missing")
            return []
        aggregate = CountMinSketch(self.config.cms_depth,
                                   self.config.cms_width,
                                   self.config.cms_seed, cells=cells)
        distribution = self._distribution_query.distribution(aggregate)
        threshold = self._threshold_rule(distribution)
        self._summary = RoundSummary(
            round_id=round_id,
            aggregate=aggregate,
            distribution=distribution,
            users_threshold=threshold,
            reported_users=sorted(reported),
            missing_users=sorted(missing),
            recovery_round_used=bool(missing),
        )
        broadcast = ThresholdBroadcast(round_id=round_id,
                                       users_threshold=threshold)
        return [(user_id, broadcast) for user_id in self.client_ids]

    def round_summary(self) -> RoundSummary:
        if self._failure is not None:
            raise MissingReportError(self._failure)
        if self._summary is None:
            raise ProtocolError(
                f"round has not finalized: {len(self._partials)}/"
                f"{len(self.child_ids)} partials arrived")
        return self._summary
