"""Server role: aggregate blinded reports and recover the #Users counters.

The server is honest-but-curious (paper §6, "Security"): it follows the
protocol but would read anything it can. What it receives are uniformly
random-looking cell vectors; only the sum over *all* enrolled users (plus
adjustments for dropouts) is meaningful.

The aggregation hot path is fully vectorized: report cell vectors are
summed in one wrapping ``uint32`` array, the 4-byte cells they arrive
as (exact mod 2^32, the blinding modulus, so nothing is left to reduce),
and the #Users distribution query batches the whole public ID space through
:meth:`~repro.sketch.countmin.CountMinSketch.query_many`. Because the
ID-space indexes depend only on the round's hash family, the server caches
the index table across rounds (and epochs) and a steady-state distribution
query is a single NumPy gather.

Clique-scoped cancellation
--------------------------
When enrollment shards users into blinding cliques, each clique's pads sum
to zero *independently*, so the sum over all cliques' submissions is
bit-identical to the unsharded sum, however the aggregation tree groups
it (modular addition is associative). Dropout recovery is
likewise clique-local — a missing user only un-cancels pads inside its own
clique, so only that clique's survivors owe adjustments, and a clique that
vanished entirely contributed no pads at all (its counts are simply
absent, not noise).

The recovery round is validated strictly: adjustments must come from
users that reported, from cliques that actually have missing members, and
*every* survivor of an affected clique must adjust before the aggregate is
released — partial coverage leaves un-cancelled pads in every cell, which
is indistinguishable from a valid aggregate by inspection.

In the message-driven protocol this class is pure aggregation state and
validation: each :class:`~repro.protocol.aggregator.CliqueAggregator`
wraps a clique-restricted instance as its reactive endpoint, and the
tests feed one directly as the reference the aggregation tree must
match.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.errors import MissingReportError, RoundStateError
from repro.protocol.client import RoundConfig
from repro.protocol.messages import BlindedReport, BlindingAdjustment
from repro.sketch.countmin import CountMinSketch
from repro.statsutil.distributions import EmpiricalDistribution

#: Never cache an ID-space index table larger than this many bytes; larger
#: spaces fall back to chunked (still vectorized) query_many calls.
_ID_TABLE_MAX_BYTES = 128 * 1024 * 1024

#: Chunk size for the uncached fallback enumeration of the ID space.
_ID_CHUNK = 65536


@functools.lru_cache(maxsize=4, typed=True)
def _id_table(depth: int, width: int, seed: int, id_space: int) -> np.ndarray:
    """The read-only flat ``(depth, id_space)`` cell-index table of one
    hash family over one public ID space — a function of nothing else, so
    it serves every round, epoch and session of the process. Small and
    bounded like :func:`~repro.sketch.hashing.shared_hash_family`: an
    evicted table is re-derived, identically."""
    table = CountMinSketch(depth, width, seed).flat_indexes(range(id_space))
    table.setflags(write=False)
    return table


class UsersDistributionQuery:
    """The #Users distribution query over an aggregate sketch.

    Queries every ID in the public ID space (the server cannot enumerate
    ads — only IDs, paper §6) as one batched gather against a cached,
    round-independent index table, or in vectorized chunks when the table
    would be unreasonably large. Zero-count IDs are excluded — they carry
    no information about any ad.

    Extracted from :class:`AggregationServer` so the root aggregator
    answers the query with the very same code (and therefore
    bit-identical values); the table comes from
    :func:`_id_table`, so it survives rounds *and* the new query object
    every epoch advance wires.
    """

    def __init__(self, config: RoundConfig) -> None:
        self.config = config

    def _id_table_for(self, aggregate: CountMinSketch) -> Optional[np.ndarray]:
        """Flat cell indexes of every public ID, or None when the table
        would be unreasonably large."""
        if aggregate.depth * self.config.id_space * 8 > _ID_TABLE_MAX_BYTES:
            return None
        return _id_table(aggregate.depth, aggregate.width, aggregate.seed,
                         self.config.id_space)

    def distribution(self, aggregate: CountMinSketch) -> EmpiricalDistribution:
        table = self._id_table_for(aggregate)
        if table is not None:
            estimates = aggregate.cells_array[table].min(axis=0)
        else:
            chunks = [aggregate.query_many(range(start, min(
                start + _ID_CHUNK, self.config.id_space)))
                for start in range(0, self.config.id_space, _ID_CHUNK)]
            estimates = np.concatenate(chunks) if chunks else \
                np.empty(0, dtype=np.uint64)
        dist = EmpiricalDistribution()
        dist.extend(estimates[estimates > 0].tolist())
        return dist


class AggregationServer:
    """Collects one round of blinded reports from an enrolled user set.

    ``index_of`` maps user ids to their canonical blinding index; the
    server needs it only to name missing users in the recovery round —
    indexes are public enrollment metadata, not private data. ``clique_of``
    maps user ids to their blinding clique (public metadata too); omitted,
    every user is in clique 0, the unsharded protocol.
    """

    def __init__(self, config: RoundConfig, index_of: Dict[str, int],
                 clique_of: Optional[Dict[str, int]] = None) -> None:
        self.config = config
        self.index_of = dict(index_of)
        if clique_of is None:
            self.clique_of: Dict[str, int] = {u: 0 for u in self.index_of}
        else:
            unknown = sorted(set(index_of) - set(clique_of))
            if unknown:
                raise RoundStateError(
                    f"users with no clique assignment: {unknown[:5]}")
            self.clique_of = {u: clique_of[u] for u in self.index_of}
        self._reports: Dict[str, BlindedReport] = {}
        self._adjustments: Dict[str, BlindingAdjustment] = {}
        self._round_id: Optional[int] = None
        self._distribution_query = UsersDistributionQuery(config)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def start_round(self, round_id: int) -> None:
        """Open a collection round, discarding any previous state."""
        self._round_id = round_id
        self._reports.clear()
        self._adjustments.clear()

    def _require_round(self) -> int:
        if self._round_id is None:
            raise RoundStateError("no round in progress; call start_round()")
        return self._round_id

    def submit_report(self, report: BlindedReport) -> None:
        """Accept one client's blinded report after validating it.

        A resend of the identical report is idempotent; a *different*
        report from a user that already reported is rejected — silently
        overwriting would let a replayed or forged upload corrupt the
        aggregate without any survivor noticing.
        """
        round_id = self._require_round()
        if report.round_id != round_id:
            raise RoundStateError(
                f"report for round {report.round_id}, current is {round_id}")
        if report.user_id not in self.index_of:
            raise RoundStateError(f"unknown user {report.user_id!r}")
        # Checked at intake: a cell outside [0, 2^32) is a ProtocolError.
        cells = report.cells_as_array()
        if len(cells) != self.config.num_cells:
            raise RoundStateError(
                f"report has {len(cells)} cells, expected "
                f"{self.config.num_cells}")
        if report.clique_id != self.clique_of[report.user_id]:
            raise RoundStateError(
                f"report from {report.user_id!r} claims clique "
                f"{report.clique_id}, enrolled in "
                f"{self.clique_of[report.user_id]}")
        existing = self._reports.get(report.user_id)
        if existing is not None:
            if np.array_equal(existing.cells_as_array(), cells):
                return  # idempotent retransmission
            raise RoundStateError(
                f"duplicate report from {report.user_id!r} with differing "
                f"cells in round {round_id}")
        self._reports[report.user_id] = report

    def submit_adjustment(self, adjustment: BlindingAdjustment) -> None:
        """Accept one survivor's fault-tolerance correction vector.

        Identical resends are idempotent; a differing second adjustment
        from the same user is rejected like a duplicate report.
        """
        round_id = self._require_round()
        if adjustment.round_id != round_id:
            raise RoundStateError(
                f"adjustment for round {adjustment.round_id}, current is "
                f"{round_id}")
        if adjustment.user_id not in self.index_of:
            raise RoundStateError(
                f"adjustment from unknown user {adjustment.user_id!r}")
        cells = adjustment.cells_as_array()
        if len(cells) != self.config.num_cells:
            raise RoundStateError("adjustment cell-count mismatch")
        if adjustment.clique_id != self.clique_of[adjustment.user_id]:
            raise RoundStateError(
                f"adjustment from {adjustment.user_id!r} claims clique "
                f"{adjustment.clique_id}, enrolled in "
                f"{self.clique_of[adjustment.user_id]}")
        existing = self._adjustments.get(adjustment.user_id)
        if existing is not None:
            if np.array_equal(existing.cells_as_array(), cells):
                return
            raise RoundStateError(
                f"duplicate adjustment from {adjustment.user_id!r} with "
                f"differing cells in round {round_id}")
        self._adjustments[adjustment.user_id] = adjustment

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    @property
    def reported_users(self) -> Set[str]:
        return set(self._reports)

    @property
    def adjusted_users(self) -> Set[str]:
        """Users whose recovery adjustment has arrived this round."""
        return set(self._adjustments)

    def missing_users(self) -> List[str]:
        """Enrolled users whose report has not arrived this round."""
        if len(self._reports) == len(self.index_of):
            # Intake refuses unknown users: a full count is everyone.
            return []
        return sorted(self.index_of.keys() - self._reports.keys())

    def missing_indexes(self) -> List[int]:
        return sorted(self.index_of[u] for u in self.missing_users())

    def missing_indexes_by_clique(self) -> Dict[int, List[int]]:
        """Missing users' blinding indexes grouped by their clique.

        Only these cliques need a recovery round; a dropout's pads exist
        solely inside its own clique.
        """
        by_clique: Dict[int, List[int]] = {}
        for user in self.missing_users():
            by_clique.setdefault(self.clique_of[user], []).append(
                self.index_of[user])
        return {clique: sorted(idx) for clique, idx in by_clique.items()}

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _check_recovery_coverage(self, missing: Sequence[str]) -> None:
        """Raise unless every affected clique's recovery round completed.

        Blinding cancels per clique, so the conditions are clique-local:
        for every clique with at least one missing member, *every* one of
        its surviving reporters must have submitted an adjustment.
        Partial coverage leaves un-cancelled keystream terms in every
        cell — the aggregate would be silently random noise. ``missing``
        is :meth:`missing_users`' current answer.
        """
        if not missing:
            return  # no clique is affected
        if not self._reports:
            # Degenerate round: everyone dropped. A zero aggregate would
            # feed a garbage threshold downstream; fail loudly instead.
            raise MissingReportError(
                f"no reports arrived; all {len(missing)} enrolled users "
                f"are missing")
        survivors_by_clique: Dict[int, Set[str]] = {}
        for user in self._reports:
            survivors_by_clique.setdefault(
                self.clique_of[user], set()).add(user)
        adjusted = set(self._adjustments)
        for clique in sorted({self.clique_of[u] for u in missing}):
            survivors = survivors_by_clique.get(clique, set())
            unadjusted = sorted(survivors - adjusted)
            if unadjusted:
                raise MissingReportError(
                    f"clique {clique} has missing users but only "
                    f"{len(survivors) - len(unadjusted)}/{len(survivors)} "
                    f"survivors adjusted; blinding cannot cancel (first "
                    f"unadjusted: {unadjusted[:5]})")

    def _check_adjustment_consistency(self, missing: Sequence[str]) -> None:
        """Reject adjustments that would themselves corrupt the sum;
        ``missing`` is :meth:`missing_users`' current answer."""
        if not self._adjustments:
            return  # nothing to reject
        missing_cliques = {self.clique_of[u] for u in missing}
        for user in sorted(self._adjustments):
            if user not in self._reports:
                raise RoundStateError(
                    f"adjustment from {user!r} whose own report never "
                    f"arrived; its pads are not in the sum to correct")
            if self.clique_of[user] not in missing_cliques:
                raise RoundStateError(
                    f"adjustment from {user!r} in clique "
                    f"{self.clique_of[user]}, which has no missing users; "
                    f"applying it would add un-cancelled noise")

    def aggregate(self, allow_missing: bool = False) -> CountMinSketch:
        """The sum of all reports and adjustments as the cleartext
        aggregate sketch: :meth:`aggregate_cells`, widened to the
        sketch's counts."""
        return CountMinSketch(self.config.cms_depth, self.config.cms_width,
                              self.config.cms_seed,
                              cells=self.aggregate_cells(allow_missing))

    def aggregate_cells(self, allow_missing: bool = False) -> np.ndarray:
        """Sum all reports (and adjustments) in one wrapping ``uint32``
        accumulator: exact mod 2^32, so any order and any grouping of the
        additions — per clique, per tree tier — gives the same cells.

        If any clique's recovery is incomplete — some of its members are
        missing and not every survivor submitted an adjustment — the
        blinding does not cancel and every cell is random noise; that
        state raises :class:`MissingReportError` unless ``allow_missing``
        is set (tests use it to demonstrate exactly that noise property).
        A clique that is missing *entirely* needs no recovery: none of
        its pads entered the sum.

        ``allow_missing=True`` bypasses every release check and returns
        whatever the submissions sum to — the escape hatch for
        inspecting a corrupt or partial round state.
        """
        if allow_missing:
            self._require_round()
            return self._sum_cells()
        return self._checked_cells(self.missing_users())

    def _checked_cells(self, missing: Sequence[str]) -> np.ndarray:
        """:meth:`aggregate_cells` behind its release checks, for a caller
        that already read the roster: ``missing`` is
        :meth:`missing_users`' current answer."""
        self._require_round()
        self._check_adjustment_consistency(missing)
        self._check_recovery_coverage(missing)
        return self._sum_cells()

    def _sum_cells(self) -> np.ndarray:
        cells = np.zeros(self.config.num_cells, dtype=np.uint32)
        for submission in (*self._reports.values(),
                           *self._adjustments.values()):
            cells += submission.cells_as_array()
        return cells

    def users_distribution(self, aggregate: CountMinSketch
                           ) -> EmpiricalDistribution:
        """The #Users distribution: query every ID in the public ID space.

        Delegates to :class:`UsersDistributionQuery` — one batched gather
        against a cached index table (or vectorized chunks when the table
        would be unreasonably large), replacing ``id_space * depth``
        scalar hash evaluations per round.
        """
        return self._distribution_query.distribution(aggregate)
