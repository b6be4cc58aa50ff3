"""Cryptographic substrate for the privacy-preserving protocol (paper §6).

Three building blocks, each implemented from scratch:

* :mod:`repro.crypto.blinding` — Kursawe-style additive shares of zero
  derived from pairwise Diffie–Hellman (paper reference [36]), used to blind
  count-min-sketch cells.
* :mod:`repro.crypto.oprf` — the RSA-based oblivious PRF of Jarecki & Liu
  (paper reference [33]), used to map ad URLs to dense ad IDs without the
  back-end learning URLs or the client learning the key.
* :mod:`repro.crypto.prf` — the keyed PRF view of the same mapping, plus the
  multi-server XOR composition mentioned in the paper's footnote 4.

Parameter sizes are configurable: tests run with small-but-real moduli,
§7.1's overhead figures use paper-scale 1024-bit parameters.
"""

from repro.crypto.primes import generate_prime, generate_safe_prime, is_probable_prime
from repro.crypto.group import DHGroup, KeyPair
from repro.crypto.blinding import (
    BlindingGenerator,
    BLINDING_MODULUS,
    PadStreamProvider,
)
from repro.crypto.rsa import RSAKeyPair
from repro.crypto.oprf import OPRFClient, OPRFServer, MultiServerOPRF
from repro.crypto.prf import KeyedPRF, ObliviousAdMapper

__all__ = [
    "generate_prime",
    "generate_safe_prime",
    "is_probable_prime",
    "DHGroup",
    "KeyPair",
    "BlindingGenerator",
    "BLINDING_MODULUS",
    "PadStreamProvider",
    "RSAKeyPair",
    "OPRFClient",
    "OPRFServer",
    "MultiServerOPRF",
    "KeyedPRF",
    "ObliviousAdMapper",
]
