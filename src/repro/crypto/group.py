"""Diffie–Hellman group and key pairs for the blinding scheme.

The blinding construction of Kursawe et al. (paper reference [36]) works in
a cyclic group where Computational Diffie–Hellman is hard. We use the
subgroup of quadratic residues of a safe prime ``p = 2q + 1``: the subgroup
has prime order ``q``, and any square ``h^2 mod p`` (other than 1) generates
it.

A few precomputed groups are bundled so tests and examples do not pay
safe-prime generation costs; ``DHGroup.generate`` creates fresh ones.

Key set-up pays only for the modexps its security needs. A key the group
drew, ``g^x``, is a member by construction and is remembered without a
check; any other element takes the ``y^q`` check on its first use and is
remembered if it passed. A refusal is never remembered: a bad key, or the
identity (whose pair secret anyone can compute), raises on every call.
Key generation raises the fixed generator through a window table built on
first use, so a key pair costs a few dozen multiplications instead of a
generic ``pow``.

A pair secret has two derivations. A device holds only its own exponent
and pays one modexp per peer, ``shared_secret(own, peer_public)``. A
simulator's host holds both ends' key pairs, so ``pair_secret`` derives
the pair once, as ``g^(x_i * x_j mod q)`` through the same table: the
same value, since it trusts a key pair only once its public key is
``g^private``. Neither ``pow`` nor the table is constant-time; this is
a simulator, not a hardened DH stack.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, KeyGenerationError
from repro.crypto.primes import generate_safe_prime, is_probable_prime

#: Precomputed safe primes by bit length (verified at import in tests).
_PRECOMPUTED_SAFE_PRIMES: Dict[int, int] = {
    128: 0x8B5405F129C6F870FEA540F0A2EF4BFF,
    256: 0xDBD532F9E900235EBE4539097B46C63B38D470944482B65AA15CDD0C64439617,
    # RFC 2409 Oakley group 2 (1024-bit), a standard safe prime.
    1024: int(
        "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
        "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
        "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
        "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
        16,
    ),
}

#: Bits of the private exponent consumed per row of the fixed-base table.
_WINDOW_BITS = 4
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1


@dataclass(frozen=True)
class KeyPair:
    """A DH key pair: private exponent ``x``, public element ``y = g^x``."""

    private: int
    public: int


class DHGroup:
    """Prime-order subgroup of quadratic residues mod a safe prime."""

    def __init__(self, p: int, generator: Optional[int] = None) -> None:
        if p < 7 or p % 2 == 0:
            raise ConfigurationError(f"not a valid safe prime: {p}")
        q = (p - 1) // 2
        if not is_probable_prime(q):
            raise ConfigurationError("p is not a safe prime: (p-1)/2 is composite")
        self.p = p
        self.q = q
        # Elements that passed the membership check (never a refusal).
        self._members: Set[int] = set()
        # Key pairs whose public key is g^private (drawn here or checked).
        self._keys: Set[KeyPair] = set()
        # Row i holds g^(d * 16^i) for every digit d; built on first use.
        self._g_table: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._g_table_lock = threading.Lock()
        if generator is None:
            generator = self._find_generator()
        if not self.contains(generator) or generator == 1:
            raise ConfigurationError(
                f"{generator} does not generate the order-q subgroup"
            )
        self.g = generator

    @classmethod
    def generate(cls, bits: int, rng: Optional[random.Random] = None) -> "DHGroup":
        """Fresh group over a random ``bits``-bit safe prime."""
        rng = rng or random.Random(0xD1F_F1E)
        return cls(generate_safe_prime(bits, rng))

    @classmethod
    def standard(cls, bits: int = 256) -> "DHGroup":
        """One of the bundled precomputed groups (128, 256 or 1024 bits)."""
        try:
            return cls(_PRECOMPUTED_SAFE_PRIMES[bits])
        except KeyError:
            raise ConfigurationError(
                f"no precomputed {bits}-bit group; available: "
                f"{sorted(_PRECOMPUTED_SAFE_PRIMES)}"
            ) from None

    def _find_generator(self) -> int:
        for h in range(2, 1000):
            g = pow(h, 2, self.p)
            if g != 1:
                return g
        raise KeyGenerationError("could not find a subgroup generator")

    # ------------------------------------------------------------------
    def contains(self, element: int) -> bool:
        """Membership test: element^q == 1 mod p and element in (0, p).

        An element that passes is remembered, so the modexp runs once per
        distinct element; one that fails is checked again on every call.
        """
        if element in self._members:
            return True
        if 0 < element < self.p and pow(element, self.q, self.p) == 1:
            self._members.add(element)
            return True
        return False

    def keypair(self, rng: random.Random) -> KeyPair:
        """Sample a key pair with private exponent in [1, q)."""
        x = rng.randrange(1, self.q)
        key = KeyPair(private=x, public=self._power_of_g(x))
        # g^x lies in the subgroup g generates: a member without a check,
        # and a key pair ``pair_secret`` trusts without a table walk.
        self._members.add(key.public)
        self._keys.add(key)
        return key

    def _power_of_g(self, exponent: int) -> int:
        """``g^exponent mod p`` for ``0 <= exponent < q``, one table row
        per window of the exponent."""
        result, rest = 1, exponent
        for row in self._generator_table():
            digit = rest & _WINDOW_MASK
            if digit:
                result = result * row[digit] % self.p
            rest >>= _WINDOW_BITS
        return result

    def _generator_table(self) -> Tuple[Tuple[int, ...], ...]:
        """Fixed-base table for ``g^x``: one row per window of ``x``.

        Built once per group, under a lock so two threads that race to
        build it agree on one table (e.g. 32 rows of 16 at 128 bits, 256
        rows at 1024 bits).
        """
        table = self._g_table
        if table is not None:
            return table
        with self._g_table_lock:
            if self._g_table is None:
                rows: List[Tuple[int, ...]] = []
                base = self.g
                for _ in range(-(-self.q.bit_length() // _WINDOW_BITS)):
                    row = [1, base]
                    for _ in range(_WINDOW_MASK):
                        row.append(row[-1] * base % self.p)
                    # The row's last entry is base^16: the next row's base.
                    base = row.pop()
                    rows.append(tuple(row))
                self._g_table = tuple(rows)
            return self._g_table

    def shared_secret(self, own: KeyPair, peer_public: int) -> int:
        """DH shared secret ``peer_public ^ own.private mod p``.

        Symmetric: both endpoints derive ``g^(x_i * x_j)``. A peer key is
        checked once at most (see ``contains``); the identity always
        raises, since anyone can compute its pair secret.
        """
        if peer_public == 1 or not self.contains(peer_public):
            raise ConfigurationError(
                "peer public key is the identity or not in the group")
        return pow(peer_public, own.private, self.p)

    def pair_secret(self, one: KeyPair, other: KeyPair) -> int:
        """The pair secret of two key pairs one host holds, derived once.

        ``g^(x_i * x_j mod q)`` through the fixed-base table: equal to
        ``shared_secret`` taken from either end, at a table walk instead
        of a modexp per end. It refuses what ``shared_secret`` refuses
        (the identity and non-members) and any key pair whose public key
        is not ``g^private``, which is what makes the two agree. A key
        pair this group drew is trusted; any other is checked once (one
        table walk) and remembered if it passed.
        """
        for key in (one, other):
            if key not in self._keys:
                if key.public == 1 or key.public != self._power_of_g(
                        key.private % self.q):
                    raise ConfigurationError(
                        "key pair's public key is the identity or not "
                        "g^private")
                self._keys.add(key)
        return self._power_of_g(one.private * other.private % self.q)

    @property
    def element_bytes(self) -> int:
        """Wire size of one group element (used for §7.1 byte accounting)."""
        return (self.p.bit_length() + 7) // 8

    def element_to_bytes(self, element: int) -> bytes:
        return element.to_bytes(self.element_bytes, "big")

    def __repr__(self) -> str:
        return f"DHGroup(bits={self.p.bit_length()})"
