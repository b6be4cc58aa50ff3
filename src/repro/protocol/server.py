"""The #Users distribution query the aggregation root answers (paper §6).

The server is honest-but-curious (paper §6, "Security"): it follows the
protocol but would read anything it can. What reaches it are uniformly
random-looking cell vectors; only the sum over a clique's reports plus
its survivors' recovery adjustments is meaningful, and collecting and
checking those is :class:`~repro.protocol.aggregator.CliqueAggregator`'s
job. This module holds what the root does with the released aggregate.

The query is vectorized: it batches the whole public ID space through
:meth:`~repro.sketch.countmin.CountMinSketch.query_many`. Because the
ID-space indexes depend only on the round's hash family, the index table
is cached across rounds (and epochs) and a steady-state distribution
query is a single NumPy gather.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.protocol.client import RoundConfig
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

    The table comes from :func:`_id_table`, so it survives rounds *and*
    the new query object every epoch advance wires.
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
