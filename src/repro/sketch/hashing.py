"""Pairwise-independent hash family for sketch row indexing.

The CMS analysis (Cormode & Muthukrishnan, the paper's reference [29])
requires ``d`` pairwise-independent hash functions mapping items to columns.
We use the classic Carter–Wegman construction ``h(x) = ((a*x + b) mod p)
mod w`` over a Mersenne prime ``p = 2^61 - 1``, with items first reduced to
integers by a stable (process-independent) byte hash.

Python's builtin ``hash`` is salted per process, so sketches built in
different processes would disagree; :func:`stable_hash` uses BLAKE2b instead.

Two evaluation paths produce bit-identical indexes:

* the scalar path (:meth:`HashFamily.index`, :meth:`HashFamily.indexes`)
  computes ``(a*x + b) mod p`` with Python big ints;
* the batch path (:func:`stable_hash_many`, :meth:`HashFamily.index_matrix`,
  :meth:`HashFamily.indexes_many`) digests every item once and then computes
  all ``d x n`` indexes with NumPy ``uint64`` arithmetic, using the Mersenne
  fold ``y mod p = (y >> 61) + (y & p)`` and 32-bit limb multiplication so
  no intermediate exceeds 64 bits.

The batch path's cost is per *call* as much as per item (a BLAKE2b loop,
then a dozen small-array NumPy operations), so callers batch widely — one
call per round, not one per clique — and take their immutable family
from :func:`shared_hash_family` instead of constructing one per sketch.
"""

from __future__ import annotations

import functools
import hashlib
import random
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

#: Mersenne prime 2^61 - 1; large enough that 64-bit item digests rarely wrap.
MERSENNE_P = (1 << 61) - 1

Item = Union[str, bytes, int]

_P64 = np.uint64(MERSENNE_P)
_MASK32 = np.uint64(0xFFFFFFFF)
_U3 = np.uint64(3)
_U30 = np.uint64(30)
_U32 = np.uint64(32)
_U61 = np.uint64(61)
_ZERO_SALT = b"\0" * 16


def _item_bytes(item: Item) -> bytes:
    """Canonical byte encoding of an item (shared by both hash paths)."""
    if isinstance(item, int):
        return item.to_bytes((item.bit_length() + 8) // 8 or 1, "big", signed=item < 0)
    if isinstance(item, str):
        return item.encode("utf-8")
    if isinstance(item, bytes):
        return item
    raise ConfigurationError(f"unhashable item type: {type(item)!r}")


def stable_hash(item: Item, salt: bytes = b"") -> int:
    """Deterministic 64-bit digest of an item, independent of PYTHONHASHSEED."""
    data = _item_bytes(item)
    digest = hashlib.blake2b(
        data, digest_size=8, salt=salt[:16].ljust(16, b"\0") if salt else _ZERO_SALT
    ).digest()
    return int.from_bytes(digest, "big")


def stable_hash_many(items: Sequence[Item], salt: bytes = b"") -> np.ndarray:
    """Batch :func:`stable_hash`: one ``uint64`` digest per item.

    Bit-identical to calling :func:`stable_hash` per item; the per-item
    BLAKE2b call is unavoidable, but batching keeps the digests in a NumPy
    array so every downstream index computation is vectorized. The
    digests are joined and read as big-endian words in one step.
    """
    saltb = salt[:16].ljust(16, b"\0") if salt else _ZERO_SALT
    blake2b = hashlib.blake2b
    item_bytes = _item_bytes
    digests = [
        blake2b(item_bytes(item), digest_size=8, salt=saltb).digest() for item in items
    ]
    return np.frombuffer(b"".join(digests), dtype=">u8").astype(np.uint64)


def _fold61(y: np.ndarray) -> np.ndarray:
    """Reduce ``uint64`` values modulo ``p = 2^61 - 1``.

    Valid for any ``y < 2^64``: since ``2^61 = p + 1``, folding the top bits
    down (``(y >> 61) + (y & p)``) preserves the residue, and one conditional
    subtraction lands the result in ``[0, p)``.
    """
    y = (y >> _U61) + (y & _P64)
    return np.where(y >= _P64, y - _P64, y)


def _mulmod61(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(a * x) mod p`` for ``a, x < p`` without leaving ``uint64``.

    Splits both operands into 32-bit limbs; every partial product and every
    partial sum stays below ``2^64`` (``a``'s high limb is at most 29 bits),
    and ``2^64 ≡ 8 (mod p)`` folds the high partial products back down.
    """
    ah, al = a >> _U32, a & _MASK32
    xh, xl = x >> _U32, x & _MASK32
    hh = _fold61((ah * xh) << _U3)  # ah*xh < 2^58, so << 3 fits
    mid = _fold61(ah * xl + al * xh)  # each term < 2^61, sum < 2^62
    mid_h, mid_l = mid >> _U32, mid & _MASK32
    # mid * 2^32 = mid_h * 2^64 + mid_l * 2^32 ≡ 8*mid_h + mid_l*2^32 (mod p)
    total = hh + (mid_h << _U3) + _fold61(mid_l << _U32) + _fold61(al * xl)
    return _fold61(total)  # total < 2^63: one fold suffices


class HashFamily:
    """``d`` pairwise-independent hash functions onto ``[0, width)``.

    Coefficients are drawn from a seeded RNG so that two parties
    constructing a family with the same (d, width, seed) agree on every
    hash value — a requirement for blinded sketches to be mergeable.

    A family is immutable after ``__init__`` (the coefficient arrays are
    read-only), so any number of sketches may hold the same instance:
    :func:`shared_hash_family` hands out one per ``(d, width, seed)``
    instead of re-seeding an RNG and re-drawing ``2·d`` coefficients per
    sketch.
    """

    def __init__(self, d: int, width: int, seed: int = 0) -> None:
        if d <= 0:
            raise ConfigurationError(f"need d >= 1 hash functions, got {d}")
        if width <= 0:
            raise ConfigurationError(f"width must be positive, got {width}")
        self.d = d
        self.width = width
        self.seed = seed
        rng = random.Random(seed)
        self._coeffs: Tuple[Tuple[int, int], ...] = tuple(
            (rng.randrange(1, MERSENNE_P), rng.randrange(0, MERSENNE_P))
            for _ in range(d)
        )
        # Column vectors (d, 1) so index_matrix broadcasts against (n,) digests.
        self._a = np.array([a for a, _ in self._coeffs], dtype=np.uint64).reshape(
            -1, 1
        )
        self._b = np.array([b for _, b in self._coeffs], dtype=np.uint64).reshape(
            -1, 1
        )
        self._a.setflags(write=False)
        self._b.setflags(write=False)
        self._width64 = np.uint64(width)

    def index(self, row: int, item: Item) -> int:
        """Column index of ``item`` under hash function ``row``."""
        a, b = self._coeffs[row]
        x = stable_hash(item)
        return ((a * x + b) % MERSENNE_P) % self.width

    def indexes(self, item: Item) -> List[int]:
        """Column index per row, in row order."""
        x = stable_hash(item)
        return [((a * x + b) % MERSENNE_P) % self.width for a, b in self._coeffs]

    def index_matrix(self, digests: np.ndarray) -> np.ndarray:
        """All column indexes for pre-hashed items: shape ``(d, n)``.

        ``digests`` is the ``uint64`` output of :func:`stable_hash_many`.
        Bit-identical to the scalar path: reducing a digest mod ``p`` before
        the Carter–Wegman multiply does not change ``(a*x + b) mod p``.
        """
        x = _fold61(np.asarray(digests, dtype=np.uint64))
        ax = _mulmod61(self._a, x)  # broadcast (d,1) x (n,) -> (d,n)
        return _fold61(ax + self._b) % self._width64

    def indexes_many(self, items: Sequence[Item]) -> np.ndarray:
        """Batch :meth:`indexes`: digest once per item, then vectorize."""
        return self.index_matrix(stable_hash_many(items))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashFamily):
            return NotImplemented
        return (self.d, self.width, self.seed) == (other.d, other.width, other.seed)

    def __repr__(self) -> str:
        return f"HashFamily(d={self.d}, width={self.width}, seed={self.seed})"


@functools.lru_cache(maxsize=64, typed=True)
def shared_hash_family(d: int, width: int, seed: int = 0) -> HashFamily:
    """The one :class:`HashFamily` for ``(d, width, seed)``.

    Every :class:`~repro.sketch.countmin.CountMinSketch` takes its family
    from here: a round builds thousands of same-dimension sketches (one
    per client, one per clique aggregate) and they all hash alike. Only
    the immutable family is shared — cells never are. The cache is small
    and bounded (an evicted family is simply re-derived, identically)
    and typed, so a family's ``seed`` is the caller's own value, never
    an equal-comparing one of another type.
    """
    return HashFamily(d, width, seed)
