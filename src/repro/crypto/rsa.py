"""Textbook RSA key generation for the blind-signature OPRF.

The Jarecki–Liu OPRF (paper reference [33]) is built on raw RSA
exponentiation — no padding is involved because the "message" is already a
hash output and blinding provides the randomization. This module therefore
implements exactly what the OPRF needs: keygen, raw signing ``x^d mod N``
by CRT, checked with ``e`` before it leaves (a faulty CRT signature reveals
a factor of ``N``: Boneh, DeMillo & Lipton, EUROCRYPT '97), and raw
verification ``x^e mod N``.

This is **not** a general-purpose RSA implementation and must not be used
for encryption or signatures outside the OPRF construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.errors import KeyGenerationError, OPRFError
from repro.crypto.primes import generate_prime

#: Standard RSA public exponent.
DEFAULT_PUBLIC_EXPONENT = 65537


@dataclass(frozen=True)
class RSAPublicKey:
    """Public half: modulus ``n`` and exponent ``e``."""

    n: int
    e: int

    def apply(self, x: int) -> int:
        """Raw public operation ``x^e mod n``."""
        return pow(x, self.e, self.n)

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8


class RSAKeyPair:
    """RSA key pair exposing raw private/public exponentiation."""

    def __init__(self, p: int, q: int, e: int) -> None:
        self.n = p * q
        self.e = e
        self._p, self._q = p, q
        # d = e^-1 mod (p-1)(q-1), reduced mod each prime less one.
        self._dp = pow(e, -1, p - 1)
        self._dq = pow(e, -1, q - 1)
        self._q_inv = pow(q, -1, p)

    @classmethod
    def generate(
        cls, bits: int, rng: random.Random, e: int = DEFAULT_PUBLIC_EXPONENT
    ) -> "RSAKeyPair":
        """Generate a ``bits``-bit modulus from two ``bits/2``-bit primes."""
        if bits < 32:
            raise KeyGenerationError(f"RSA modulus too small: {bits} bits")
        half = bits // 2
        for _ in range(100):
            p = generate_prime(half, rng)
            q = generate_prime(bits - half, rng)
            if p == q:
                continue
            phi = (p - 1) * (q - 1)
            if math.gcd(e, phi) != 1:
                continue
            return cls(p, q, e)
        raise KeyGenerationError(
            f"could not generate an RSA key with e={e} after 100 attempts"
        )

    @property
    def public(self) -> RSAPublicKey:
        return RSAPublicKey(n=self.n, e=self.e)

    def sign_raw(self, x: int) -> int:
        """Raw private operation ``x^d mod n`` (the OPRF server step), by CRT.

        Raises :class:`OPRFError` instead of returning a signature that
        fails ``y^e == x (mod n)``: a faulty half would leak a factor of n.
        """
        p, q = self._p, self._q
        s_q = pow(x, self._dq, q)
        y = s_q + q * ((pow(x, self._dp, p) - s_q) * self._q_inv % p)
        if pow(y, self.e, self.n) != x % self.n:
            raise OPRFError("CRT signature failed its public-exponent check")
        return y

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def __repr__(self) -> str:
        return f"RSAKeyPair(bits={self.n.bit_length()}, e={self.e})"
