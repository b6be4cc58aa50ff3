"""Wire messages with byte-size accounting (paper §7.1).

Every message type knows its serialized size under the paper's assumptions
(4-byte sketch cells, group elements of the DH modulus size, 100-character
Unicode URLs for the cleartext baseline), so §7.1's communication costs
need no real network stack.

Cell-carrying messages (:class:`BlindedReport`, :class:`BlindingAdjustment`,
:class:`PartialAggregate`) accept either a plain tuple of ints or a
:class:`CellVector` — an immutable sequence backed by a ``numpy.uint32``
array, the paper's 4-byte cell. Blinded cells stay ``uint32`` from the
client's blinding step through every aggregation tier (:func:`cells_to_array`
recovers the array without per-cell boxing); only the root widens the final
sum, into a cleartext ``CountMinSketch``. Equality, iteration and indexing
behave exactly like the tuple form, so the two are interchangeable.

Every message type is a frozen, slotted dataclass with its own
``__init__``, the one constructor of the type (keyword, positional,
``dataclasses.replace`` and the wire decoders all call it). It stores
each argument through its field's slot setter, bound once per type
(``_Message._stores``), where the generated frozen ``__init__`` looks
each field up through ``object.__setattr__``: a round builds one
message per user and one per clique, and a slotted message is smaller
than one with a ``__dict__``. Equality, hashing, ``repr`` and the
refusal of assignment are still the dataclass's; the ``__init__``
parameters must list the fields in order with their defaults, which
``tests/test_protocol_messages.py`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import (
    Any,
    Callable,
    ClassVar,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ProtocolError

#: Size of one sketch cell on the wire, per the paper.
CELL_BYTES = 4

#: Fixed header cost assumed per message (ids, round number, framing).
HEADER_BYTES = 16


class CellVector(Sequence):
    """Immutable cell vector backed by a read-only ``numpy.uint32`` array.

    Compares equal to any integer sequence with the same values (so tests
    and callers may mix tuples and vectors freely) and hashes like the
    equivalent tuple. The constructor does not copy an array that is
    already ``uint32`` — callers hand over ownership and must not mutate
    it afterwards — and refuses values outside ``[0, 2^32)``.

    Cells this process built skip that check: an aggregator's sum
    through :meth:`_wrap`, the army's blinded stack through
    :meth:`_wrap_rows`. So do cells the wire codec decodes (socket
    frames, HTTP bodies), through :meth:`_wrap`: they are a big-endian
    4-byte read converted to ``uint32``, which cannot be out of range.
    Everything else — caller tuples, arrays of any other dtype — is
    checked here.
    """

    __slots__ = ("_array", "_hash")

    def __init__(self, values: Union[Sequence[int], np.ndarray]) -> None:
        arr = cells_to_array(values)
        arr.setflags(write=False)
        self._array = arr
        self._hash = None

    @classmethod
    def _wrap(cls, array: np.ndarray) -> "CellVector":
        """Wrap a ``uint32`` array that is already read-only, unchecked
        and uncopied: a kernel's output needs no range check, and its
        owner made it read-only once for a whole stack of rows."""
        if array.dtype != np.uint32 or array.flags.writeable:
            raise ProtocolError(
                "only a read-only uint32 array is wrapped unchecked")
        vector = cls.__new__(cls)
        vector._array = array
        vector._hash = None
        return vector

    @classmethod
    def _wrap_rows(cls, stack: np.ndarray,
                   rows: Optional[Sequence[int]] = None) -> List["CellVector"]:
        """Wrap the rows of a read-only member-major ``(m, g, C)``
        ``uint32`` stack (``stack[r, k]`` is member row ``r`` of clique
        ``k``) unchecked and uncopied, clique-major: clique 0's ``m``
        rows, then clique 1's, or only the positions ``rows`` picks in
        that order. The stack is checked once, before any row is wrapped,
        where :meth:`_wrap` would check every row."""
        if stack.ndim != 3 or stack.dtype != np.uint32 or stack.flags.writeable:
            raise ProtocolError(
                "only a read-only (members, cliques, cells) uint32 stack "
                "is wrapped unchecked")
        by_clique = stack.swapaxes(0, 1)
        picked = ((row for clique in by_clique for row in clique) if rows is None
                  else (by_clique[divmod(i, stack.shape[0])] for i in rows))
        new = cls.__new__
        vectors: List[CellVector] = []
        for row in picked:
            vector = new(cls)
            vector._array = row
            vector._hash = None
            vectors.append(vector)
        return vectors

    def __array__(
        self, dtype: Any = None, copy: Optional[bool] = None
    ) -> np.ndarray:
        if dtype is None or dtype == self._array.dtype:
            return self._array.copy() if copy else self._array
        if copy is False:
            raise ValueError(
                f"CellVector cannot be viewed as dtype {dtype} without "
                "copying; pass copy=None or copy=True")
        return self._array.astype(dtype)

    @property
    def array(self) -> np.ndarray:
        """The backing read-only ``uint32`` array (no copy)."""
        return self._array

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[int, Tuple[int, ...]]:
        if isinstance(index, slice):
            return tuple(self._array[index].tolist())
        return int(self._array[index])

    def __iter__(self) -> Iterator[int]:
        return iter(self._array.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CellVector):
            return np.array_equal(self._array, other._array)
        if isinstance(other, (tuple, list)):
            return len(other) == len(self._array) and \
                tuple(self._array.tolist()) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self._array.tolist()))
        return self._hash

    def __repr__(self) -> str:
        return f"CellVector({tuple(self._array.tolist())!r})"


#: Either representation of a cell vector on a message.
Cells = Union[Tuple[int, ...], CellVector]


def cells_to_array(cells: Union[Cells, np.ndarray]) -> np.ndarray:
    """The ``uint32`` array behind a cell vector, the one conversion
    point: a value outside ``[0, 2^32)`` raises
    :class:`~repro.errors.ProtocolError`, never wraps."""
    if isinstance(cells, CellVector):
        return cells.array
    arr = np.asarray(cells)
    if arr.dtype == np.uint32:
        return arr
    if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0
                     or arr.max() > 0xFFFFFFFF):
        raise ProtocolError(
            "cell values must be integers in [0, 2^32), the range of a "
            "4-byte cell")
    return arr.astype(np.uint32)


class _Message:
    """Base of the frozen message types: every field is a slot, and
    ``_stores`` holds each field's slot setter in field order, which the
    type's ``__init__`` unpacks (bound at the end of this module, once
    the slots exist)."""

    __slots__ = ()
    _stores: ClassVar[Tuple[Callable[[Any, Any], None], ...]] = ()


@dataclass(frozen=True, slots=True, init=False)
class PublicKeyAnnouncement(_Message):
    """A user's DH public key posted to the bulletin board."""

    user_id: str
    public_key: int
    element_bytes: int

    def __init__(self, user_id: str, public_key: int,
                 element_bytes: int) -> None:
        set_user_id, set_public_key, set_element_bytes = self._stores
        set_user_id(self, user_id)
        set_public_key(self, public_key)
        set_element_bytes(self, element_bytes)

    def size_bytes(self) -> int:
        return HEADER_BYTES + self.element_bytes


@dataclass(frozen=True, slots=True, init=False)
class BlindedReport(_Message):
    """One client's blinded CMS cell vector for a round.

    ``clique_id`` names the blinding clique the cells were blinded
    within; the server tracks dropouts and recovery per clique. An
    unsharded population is a single clique 0.
    """

    user_id: str
    round_id: int
    cells: Cells
    clique_id: int = 0

    def __init__(self, user_id: str, round_id: int, cells: Cells,
                 clique_id: int = 0) -> None:
        set_user_id, set_round_id, set_cells, set_clique_id = self._stores
        set_user_id(self, user_id)
        set_round_id(self, round_id)
        set_cells(self, cells)
        set_clique_id(self, clique_id)

    def cells_as_array(self) -> np.ndarray:
        """The cell vector as a ``uint32`` array (zero-copy when possible)."""
        return cells_to_array(self.cells)

    def size_bytes(self) -> int:
        return HEADER_BYTES + len(self.cells) * CELL_BYTES


@dataclass(frozen=True, slots=True, init=False)
class CleartextReport(_Message):
    """The non-private baseline: the client uploads its ad URLs verbatim.

    §7.1 compares CMS size against this; the paper assumes 100-character
    Unicode URLs (2 bytes/char), i.e. ~200 bytes per ad, and notes an
    average of 35 unique ads per user (~3.5 KB at 100 single-byte chars).
    We count the actual URL lengths.
    """

    user_id: str
    round_id: int
    urls: Tuple[str, ...]
    bytes_per_char: int = 1

    def __init__(self, user_id: str, round_id: int, urls: Tuple[str, ...],
                 bytes_per_char: int = 1) -> None:
        set_user_id, set_round_id, set_urls, set_bytes_per_char = \
            self._stores
        set_user_id(self, user_id)
        set_round_id(self, round_id)
        set_urls(self, urls)
        set_bytes_per_char(self, bytes_per_char)

    def size_bytes(self) -> int:
        return HEADER_BYTES + sum(len(u) * self.bytes_per_char
                                  for u in self.urls)


@dataclass(frozen=True, slots=True, init=False)
class MissingClientsNotice(_Message):
    """Server -> surviving clients: these peers never reported.

    With a sharded population the notice is clique-scoped: it lists only
    the missing members of ``clique_id`` and is sent only to that
    clique's survivors (the only users holding the pads to cancel).
    """

    round_id: int
    missing_indexes: Tuple[int, ...]
    clique_id: int = 0

    def __init__(self, round_id: int, missing_indexes: Tuple[int, ...],
                 clique_id: int = 0) -> None:
        set_round_id, set_missing_indexes, set_clique_id = self._stores
        set_round_id(self, round_id)
        set_missing_indexes(self, missing_indexes)
        set_clique_id(self, clique_id)

    def size_bytes(self) -> int:
        return HEADER_BYTES + 4 * len(self.missing_indexes)


@dataclass(frozen=True, slots=True, init=False)
class BlindingAdjustment(_Message):
    """Surviving client -> server: correction for missing peers' blindings."""

    user_id: str
    round_id: int
    cells: Cells
    clique_id: int = 0

    def __init__(self, user_id: str, round_id: int, cells: Cells,
                 clique_id: int = 0) -> None:
        set_user_id, set_round_id, set_cells, set_clique_id = self._stores
        set_user_id(self, user_id)
        set_round_id(self, round_id)
        set_cells(self, cells)
        set_clique_id(self, clique_id)

    def cells_as_array(self) -> np.ndarray:
        """The cell vector as a ``uint32`` array (zero-copy when possible)."""
        return cells_to_array(self.cells)

    def size_bytes(self) -> int:
        return HEADER_BYTES + len(self.cells) * CELL_BYTES


@dataclass(frozen=True, slots=True, init=False)
class ThresholdBroadcast(_Message):
    """Server -> all clients: the global Users_th for this round."""

    round_id: int
    users_threshold: float

    def __init__(self, round_id: int, users_threshold: float) -> None:
        set_round_id, set_users_threshold = self._stores
        set_round_id(self, round_id)
        set_users_threshold(self, users_threshold)

    def size_bytes(self) -> int:
        return HEADER_BYTES + 8


@dataclass(frozen=True, slots=True, init=False)
class PartialAggregate(_Message):
    """Clique aggregator -> root: one clique's recovered partial sum.

    Sent once per round by each :class:`~repro.protocol.aggregator.
    CliqueAggregator` after its clique's blinding has cancelled (all
    members reported, or the clique-local recovery round completed).
    ``cells`` is the clique's cell-wise sum modulo the blinding modulus;
    the root adds the partials and reduces again, which is bit-identical
    to the flat sum (modular addition is associative). ``reported``
    and ``missing`` carry the clique's participation roster so the root
    can reconstruct the round-wide accounting.
    """

    clique_id: int
    round_id: int
    cells: Cells
    reported: Tuple[str, ...] = ()
    missing: Tuple[str, ...] = ()

    def __init__(self, clique_id: int, round_id: int, cells: Cells,
                 reported: Tuple[str, ...] = (),
                 missing: Tuple[str, ...] = ()) -> None:
        set_clique_id, set_round_id, set_cells, set_reported, set_missing = \
            self._stores
        set_clique_id(self, clique_id)
        set_round_id(self, round_id)
        set_cells(self, cells)
        set_reported(self, reported)
        set_missing(self, missing)

    def cells_as_array(self) -> np.ndarray:
        """The cell vector as a ``uint32`` array (zero-copy when possible)."""
        return cells_to_array(self.cells)

    def size_bytes(self) -> int:
        return (HEADER_BYTES + len(self.cells) * CELL_BYTES
                + sum(map(len, self.reported)) + sum(map(len, self.missing)))


for _type in (PublicKeyAnnouncement, BlindedReport, CleartextReport,
              MissingClientsNotice, BlindingAdjustment, ThresholdBroadcast,
              PartialAggregate):
    _type._stores = tuple(getattr(_type, field.name).__set__
                          for field in fields(_type))
del _type
