"""RSA-based oblivious pseudo-random function (paper §6, ref [33]).

The PRF is ``F(d, x) = G(H(x)^d mod N)`` where ``(N, e, d)`` is an RSA
triple held by the oprf-server, ``H`` hashes strings into ``Z_N`` and ``G``
hashes group elements to fixed-length bitstrings. A client evaluates the
PRF *obliviously* via RSA blind signatures:

1. client:  ``x' = H(x) * r^e mod N``      (blind with random ``r``)
2. server:  ``y  = (x')^d mod N``          (raw RSA signature)
3. client:  ``y' = y * r^{-1} mod N = H(x)^d``; output ``G(y')``.

The server never sees ``H(x)`` (it is masked by the uniformly random
``r^e``); the client never learns ``d``. The exchange is exactly two group
elements, which is the cost figure §7.1 reports.

Footnote 4 of the paper suggests XOR-ing several independently keyed OPRFs
to remove the single point of trust; :class:`MultiServerOPRF` implements
that composition.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import OPRFError
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey


def hash_to_group(x: str, n: int) -> int:
    """``H: {0,1}* -> Z_N`` — full-domain hash via counter-mode BLAKE2b.

    Produces enough digest bytes to cover the modulus plus a 64-bit safety
    margin so the reduction mod ``n`` is statistically uniform.
    """
    needed = (n.bit_length() + 7) // 8 + 8
    out = b""
    counter = 0
    while len(out) < needed:
        h = hashlib.blake2b(digest_size=32)
        h.update(counter.to_bytes(4, "big"))
        h.update(x.encode("utf-8"))
        out += h.digest()
        counter += 1
    value = int.from_bytes(out[:needed], "big") % n
    return value if value > 1 else 2  # avoid degenerate 0/1 inputs


def hash_to_output(y: int, length: int = 16) -> bytes:
    """``G: Z_N -> {0,1}^l`` — output hash of the unblinded signature."""
    data = y.to_bytes((y.bit_length() + 7) // 8 or 1, "big")
    return hashlib.blake2b(data, digest_size=length).digest()


@dataclass(frozen=True)
class BlindedRequest:
    """Client-side state for one OPRF evaluation in flight."""

    blinded: int
    unblinder: int  # r^{-1} mod N


class OPRFServer:
    """Holds the RSA secret key; evaluates blind-signature requests."""

    def __init__(self, keypair: RSAKeyPair) -> None:
        self._keypair = keypair
        self.evaluations = 0  # served request counter (ops metric)

    @classmethod
    def generate(
        cls, bits: int = 512, rng: Optional[random.Random] = None
    ) -> "OPRFServer":
        rng = rng or random.Random(0x09F)
        return cls(RSAKeyPair.generate(bits, rng))

    @property
    def public_key(self) -> RSAPublicKey:
        return self._keypair.public

    def evaluate_blinded(self, blinded: int) -> int:
        """Server step: raw-sign the blinded element."""
        if not 0 < blinded < self._keypair.n:
            raise OPRFError("blinded element outside Z_N")
        signed = self._keypair.sign_raw(blinded)
        self.evaluations += 1
        return signed

    def evaluate_direct(self, x: str, output_length: int = 16) -> bytes:
        """Unblinded PRF evaluation — test oracle only.

        A real deployment never exposes this: it is exactly what
        obliviousness prevents. Tests use it to check that the blinded
        protocol computes the same function.
        """
        hx = hash_to_group(x, self._keypair.n)
        return hash_to_output(self._keypair.sign_raw(hx), output_length)


class OPRFClient:
    """Client side of the blind-RSA OPRF."""

    def __init__(
        self,
        public_key: RSAPublicKey,
        rng: Optional[random.Random] = None,
        output_length: int = 16,
    ) -> None:
        self.public_key = public_key
        self._rng = rng or random.Random(0xC11E)
        self.output_length = output_length

    def blind(self, x: str) -> BlindedRequest:
        """Step 1: map ``x`` into Z_N and mask it with ``r^e``."""
        n = self.public_key.n
        hx = hash_to_group(x, n)
        while True:
            r = self._rng.randrange(2, n - 1)
            if math.gcd(r, n) == 1:
                break
        blinded = (hx * self.public_key.apply(r)) % n
        return BlindedRequest(blinded=blinded, unblinder=pow(r, -1, n))

    def finalize(self, request: BlindedRequest, signed: int) -> bytes:
        """Step 3: strip the blinding and hash to the PRF output.

        Verifies the server response (``unblinded^e == H(x)``-consistency
        is implied by re-blinding): a malformed signature raises
        :class:`OPRFError` rather than yielding a garbage ad ID.
        """
        n = self.public_key.n
        if not 0 < signed < n:
            raise OPRFError("signed element outside Z_N")
        # Check the server actually applied d: the e-th power of its reply
        # must reproduce the blinded request.
        if self.public_key.apply(signed) != request.blinded:
            raise OPRFError("OPRF server response failed verification")
        unblinded = (signed * request.unblinder) % n
        return hash_to_output(unblinded, self.output_length)

    def evaluate(self, x: str, server: OPRFServer) -> bytes:
        """Full two-message protocol against an in-process server."""
        request = self.blind(x)
        signed = server.evaluate_blinded(request.blinded)
        return self.finalize(request, signed)

    def exchange_bytes(self) -> int:
        """Wire cost of one evaluation: two group elements (§7.1)."""
        return 2 * self.public_key.modulus_bytes


class MultiServerOPRF:
    """XOR composition of independent OPRFs (paper footnote 4).

    The combined PRF is pseudo-random as long as *any one* server keeps its
    key private, removing the single point of failure.
    """

    def __init__(
        self,
        servers: Sequence[OPRFServer],
        rng: Optional[random.Random] = None,
        output_length: int = 16,
    ) -> None:
        if not servers:
            raise OPRFError("MultiServerOPRF needs at least one server")
        self._servers = list(servers)
        self._clients = [
            OPRFClient(s.public_key, rng=rng, output_length=output_length)
            for s in self._servers
        ]
        self.output_length = output_length

    def evaluate(self, x: str) -> bytes:
        result = bytes(self.output_length)
        for client, server in zip(self._clients, self._servers):
            share = client.evaluate(x, server)
            result = bytes(a ^ b for a, b in zip(result, share))
        return result
