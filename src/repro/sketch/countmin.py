"""Count-min sketch (CMS), the synopsis eyeWnder reports are encoded in.

Follows the paper's §6.1 parameterization: a sketch counting up to ``T``
elements has ``d = ceil(ln(T / delta))`` rows and ``w = ceil(e / epsilon)``
columns, and guarantees for every item ``x`` with true count ``c_x``:

1. ``c_x <= query(x)``                       (never undercounts), and
2. ``query(x) <= c_x + epsilon * N`` with probability ``1 - delta``,
   where ``N`` is the total count inserted.

Note the paper's row formula is more conservative than the textbook
``ceil(ln(1/delta))``; with ``delta = epsilon = 0.001`` and 4-byte cells it
reproduces exactly the 185 / 196 / 207 KB sketch sizes reported in §7.1 for
10k / 50k / 100k ads (see ``tests/test_paper_claims.py``).

Cells are backed by a ``numpy.uint64`` array (values must lie in
``[0, 2^64)``); only blinded cells are the 4-byte ``uint32`` a report
carries. The aggregation protocol blinds cells with additive shares modulo
``2**32``, so the sketch exposes its raw cell vector — as Python ints via
:attr:`CountMinSketch.cells`, or zero-copy via
:attr:`CountMinSketch.cells_array` — and can be reconstructed from one.

Scalar operations (:meth:`~CountMinSketch.update`,
:meth:`~CountMinSketch.query`) coexist with batch equivalents
(:meth:`~CountMinSketch.update_many`, :meth:`~CountMinSketch.query_many`,
:meth:`~CountMinSketch.update_many_conservative`) that hash all items once
and do the index arithmetic and cell updates in NumPy; both paths produce
bit-identical cell vectors (``tests/test_sketch_batch.py``).

A sketch owns its cells and nothing else: the row hash family is the
immutable, shared :func:`~repro.sketch.hashing.shared_hash_family` of its
``(depth, width, seed)``, so constructing a sketch — a round builds one
per client and one per clique aggregate — draws no coefficients.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, SketchDimensionMismatch
from repro.sketch.hashing import (
    HashFamily,
    Item,
    shared_hash_family,
    stable_hash_many,
)

#: Euler's number, spelled out for the w = ceil(e / epsilon) sizing rule.
_E = math.e


def _as_cell_array(cells: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """Copy a cell vector to ``uint64``, with a clear error on bad values."""
    try:
        return np.array(cells, dtype=np.uint64)
    except (OverflowError, ValueError, TypeError) as exc:
        raise ConfigurationError(
            f"cell values must be integers in [0, 2^64): {exc}"
        ) from None


def flat_indexes(
    depth: int, width: int, seed: int, items: Sequence[Item]
) -> np.ndarray:
    """Flat (row-major) ``uint64`` cell index per (row, item) of a
    ``depth x width`` sketch with hash seed ``seed``: shape ``(d, n)``.

    The single source of truth for the sketch's cell layout; callers
    that gather against :attr:`CountMinSketch.cells_array` directly (the
    aggregation server's cached ID-space table, the batched client
    backend's per-round index table) or that count without a sketch (an
    object client's window, through ``RoundConfig.flat_indexes``) must
    use this rather than re-deriving
    ``row * width + column``. Indexes depend on the item alone, so a
    caller counting many users' items hashes each distinct item once.
    """
    matrix = shared_hash_family(depth, width, seed).index_matrix(
        stable_hash_many(items)
    )
    rows = np.arange(depth, dtype=np.uint64).reshape(-1, 1)
    return rows * np.uint64(width) + matrix


class CountMinSketch:
    """A ``d x w`` count-min sketch with mergeable, blindable cells."""

    def __init__(
        self,
        depth: int,
        width: int,
        seed: int = 0,
        cells: Optional[Union[Sequence[int], np.ndarray]] = None,
    ) -> None:
        if depth <= 0 or width <= 0:
            raise ConfigurationError(
                f"CMS dimensions must be positive, got depth={depth} width={width}"
            )
        self.depth = depth
        self.width = width
        self.seed = seed
        # Shared, immutable: same-dimension sketches hash alike. Cells below
        # are always this sketch's own.
        self._hashes = shared_hash_family(depth, width, seed)
        if cells is None:
            self._cells = np.zeros(depth * width, dtype=np.uint64)
        else:
            if len(cells) != depth * width:
                raise SketchDimensionMismatch(
                    f"cell vector has {len(cells)} entries, expected {depth * width}"
                )
            self._cells = _as_cell_array(cells)
        self._total = int(self._cells.sum(dtype=np.uint64)) // max(depth, 1)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_error_bounds(
        cls, epsilon: float, delta: float, expected_items: int, seed: int = 0
    ) -> "CountMinSketch":
        """Size a sketch from (epsilon, delta, T) per the paper's formula."""
        if not 0 < epsilon < 1:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0 < delta < 1:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        if expected_items <= 0:
            raise ConfigurationError(
                f"expected_items must be positive, got {expected_items}"
            )
        depth = max(1, math.ceil(math.log(expected_items / delta)))
        width = max(1, math.ceil(_E / epsilon))
        return cls(depth=depth, width=width, seed=seed)

    def empty_like(self) -> "CountMinSketch":
        """A zeroed sketch with identical dimensions and hash family."""
        return CountMinSketch(self.depth, self.width, self.seed)

    # ------------------------------------------------------------------
    # Core operations (scalar)
    # ------------------------------------------------------------------
    def update(self, item: Item, count: int = 1) -> None:
        """Add ``count`` occurrences of ``item`` (count may not be negative)."""
        if count < 0:
            raise ConfigurationError(f"negative update ({count}) not allowed")
        for row, col in enumerate(self._hashes.indexes(item)):
            self._cells[row * self.width + col] += np.uint64(count)
        self._total += count

    def update_conservative(self, item: Item, count: int = 1) -> None:
        """Conservative update (Estan–Varghese): raise only the cells that
        constrain the estimate.

        Reduces overcounting versus :meth:`update`, but the resulting
        sketch is *not* mergeable by cell-wise addition — exactly why
        eyeWnder's blinded-aggregation design cannot use it.
        """
        if count < 0:
            raise ConfigurationError(f"negative update ({count}) not allowed")
        flats = [
            row * self.width + col
            for row, col in enumerate(self._hashes.indexes(item))
        ]
        new_estimate = min(int(self._cells[flat]) for flat in flats) + count
        estimate64 = np.uint64(new_estimate)
        for flat in flats:
            if self._cells[flat] < estimate64:
                self._cells[flat] = estimate64
        self._total += count

    def query(self, item: Item) -> int:
        """Point estimate of the count of ``item`` (never an undercount)."""
        return int(
            min(
                self._cells[row * self.width + col]
                for row, col in enumerate(self._hashes.indexes(item))
            )
        )

    def __contains__(self, item: Item) -> bool:
        return self.query(item) > 0

    # ------------------------------------------------------------------
    # Core operations (batch) — bit-identical to looping the scalar ones
    # ------------------------------------------------------------------
    def flat_indexes(self, items: Sequence[Item]) -> np.ndarray:
        """Flat (row-major) cell index per (row, item): shape ``(d, n)``;
        the module's :func:`flat_indexes` for this sketch's shape."""
        return flat_indexes(self.depth, self.width, self.seed, items)

    @staticmethod
    def _count_array(counts: Union[int, Sequence[int], None], n: int) -> np.ndarray:
        if counts is None:
            return np.ones(n, dtype=np.uint64)
        if isinstance(counts, int):
            if counts < 0:
                raise ConfigurationError(f"negative update ({counts}) not allowed")
            return np.full(n, counts, dtype=np.uint64)
        arr = np.asarray(counts)
        if arr.shape != (n,):
            raise ConfigurationError(f"counts has shape {arr.shape}, expected ({n},)")
        if arr.size and int(arr.min()) < 0:
            raise ConfigurationError(
                f"negative update ({int(arr.min())}) not allowed"
            )
        return arr.astype(np.uint64)

    def update_many(
        self, items: Sequence[Item], counts: Union[int, Sequence[int], None] = None
    ) -> None:
        """Batch :meth:`update`: add ``counts[i]`` of ``items[i]`` for all i.

        Hashes every item once, computes all ``d x n`` indexes with array
        arithmetic and scatters the counts with ``np.add.at`` (duplicate
        items accumulate correctly). Produces the same cells as calling
        :meth:`update` in a loop.
        """
        items = list(items)
        if not items:
            return
        count_arr = self._count_array(counts, len(items))
        flat = self.flat_indexes(items)
        np.add.at(
            self._cells, flat.ravel(), np.broadcast_to(count_arr, flat.shape).ravel()
        )
        self._total += int(count_arr.sum(dtype=np.uint64))

    def update_many_conservative(
        self, items: Sequence[Item], counts: Union[int, Sequence[int], None] = None
    ) -> None:
        """Batch :meth:`update_conservative` with batched hashing.

        Conservative updates are order-dependent (each item's estimate reads
        the cells previous items wrote), so the cell writes stay sequential;
        the hashing and index arithmetic — the scalar path's dominant cost —
        are still done once for the whole batch. Matches a scalar loop over
        ``items`` in order, bit for bit.
        """
        items = list(items)
        if not items:
            return
        count_arr = self._count_array(counts, len(items))
        flat = self.flat_indexes(items)
        cells = self._cells
        for i in range(len(items)):
            rows = flat[:, i]
            current = cells[rows]
            estimate = current.min() + count_arr[i]
            cells[rows] = np.maximum(current, estimate)
        self._total += int(count_arr.sum(dtype=np.uint64))

    def query_many(self, items: Sequence[Item]) -> np.ndarray:
        """Batch :meth:`query`: ``uint64`` estimates, one per item.

        One gather over the cell array plus a row-wise minimum; equals
        ``[query(x) for x in items]`` element for element.
        """
        items = list(items)
        if not items:
            return np.empty(0, dtype=np.uint64)
        flat = self.flat_indexes(items)
        return self._cells[flat].min(axis=0)

    @property
    def total(self) -> int:
        """Total count inserted (denominator of the epsilon*N error bound)."""
        return self._total

    @property
    def cells(self) -> Tuple[int, ...]:
        """Flat row-major cell vector, length ``depth * width``."""
        return tuple(self._cells.tolist())

    @property
    def cells_array(self) -> np.ndarray:
        """Zero-copy read-only ``uint64`` view of the cell vector."""
        view = self._cells.view()
        view.setflags(write=False)
        return view

    @property
    def num_cells(self) -> int:
        return self.depth * self.width

    @property
    def hash_family(self) -> HashFamily:
        """The row hash family (shared by all compatible sketches)."""
        return self._hashes

    def error_bound(self) -> float:
        """The additive overcount bound ``epsilon_effective * total``.

        ``epsilon_effective = e / width`` inverts the sizing rule, so the
        bound is valid for sketches built directly from (depth, width) too.
        """
        return (_E / self.width) * self._total

    # ------------------------------------------------------------------
    # Merging / arithmetic (cell-wise; dimensions and seeds must agree)
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "CountMinSketch") -> None:
        if (self.depth, self.width, self.seed) != (
            other.depth, other.width, other.seed
        ):
            raise SketchDimensionMismatch(
                f"incompatible sketches: ({self.depth}x{self.width}, seed "
                f"{self.seed}) vs ({other.depth}x{other.width}, seed {other.seed})"
            )

    def merge(self, other: "CountMinSketch") -> None:
        """In-place cell-wise sum; equivalent to counting both streams."""
        self._check_compatible(other)
        self._cells += other._cells
        self._total += other._total

    def __add__(self, other: "CountMinSketch") -> "CountMinSketch":
        self._check_compatible(other)
        return CountMinSketch(
            self.depth, self.width, self.seed, cells=self._cells + other._cells
        )

    @classmethod
    def aggregate(cls, sketches: Iterable["CountMinSketch"]) -> "CountMinSketch":
        """Cell-wise sum of any number of compatible sketches.

        Seeds the accumulator from :meth:`empty_like` and merges with array
        additions, avoiding any round trip through the boxed ``cells``
        tuple.
        """
        result: Optional[CountMinSketch] = None
        for sketch in sketches:
            if result is None:
                result = sketch.empty_like()
            result.merge(sketch)
        if result is None:
            raise ConfigurationError("aggregate() needs at least one sketch")
        return result

    # ------------------------------------------------------------------
    # Size accounting (paper §7.1)
    # ------------------------------------------------------------------
    def size_bytes(self, cell_size: int = 4) -> int:
        """Wire size with fixed-width cells (paper assumes 4-byte cells)."""
        if cell_size <= 0:
            raise ConfigurationError(f"cell_size must be positive, got {cell_size}")
        return self.num_cells * cell_size

    def __repr__(self) -> str:
        return (
            f"CountMinSketch(depth={self.depth}, width={self.width}, "
            f"seed={self.seed}, total={self._total})"
        )
