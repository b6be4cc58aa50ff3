"""Ad-URL -> ad-ID mapping (paper §6, "CMS computation").

The server must be able to enumerate the ID space ``[0, |A|)`` to query the
aggregate CMS, but must not be able to map an ad URL to its ID on its own.
The mapping is therefore ``id = F(k, url) mod id_space`` where ``F`` is the
OPRF keyed by the oprf-server.

Two views of the same function live here:

* :class:`KeyedPRF` — the direct keyed construction ``F(k, x)``, used by
  tests and by trusted evaluation code paths;
* :class:`ObliviousAdMapper` — the deployment path: evaluates ``F`` through
  the blind-RSA protocol of :mod:`repro.crypto.oprf` and caches results, as
  the paper prescribes ("the mapping is done once per unique ad").

The ID space should *over*-estimate the true number of distinct ads to keep
collisions rare: bigger space -> more server false-positive queries,
smaller space -> more collisions inflating counts (paper §6).
``DetectionPipeline.default_round_config`` takes ten times the distinct ads.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.errors import ConfigurationError
from repro.crypto.oprf import OPRFClient, OPRFServer


class KeyedPRF:
    """Direct PRF ``F(k, x) -> [0, id_space)`` via keyed BLAKE2b."""

    def __init__(self, key: bytes, id_space: int) -> None:
        if not key:
            raise ConfigurationError("PRF key must be non-empty")
        if id_space <= 0:
            raise ConfigurationError(f"id_space must be positive, got {id_space}")
        self._key = key
        self.id_space = id_space

    def ad_id(self, url: str) -> int:
        digest = hashlib.blake2b(
            url.encode("utf-8"), digest_size=16, key=self._key[:64]
        ).digest()
        return int.from_bytes(digest, "big") % self.id_space


class ObliviousAdMapper:
    """Maps ad URLs to ad IDs through the oprf-server, with a local cache.

    The extension calls :meth:`ad_id` as ads are encountered; each unique
    URL costs one two-message OPRF round (two group elements on the wire),
    repeats are free. :attr:`protocol_rounds` and :meth:`bytes_exchanged`
    count what *this mapper* evaluated: an enrolled panel shares one
    (:class:`~repro.protocol.enrollment.KeyMaterial`), so there they count
    panel-distinct URLs, not one deployed user's §7.1 traffic.
    """

    def __init__(self, client: OPRFClient, server: OPRFServer, id_space: int) -> None:
        if id_space <= 0:
            raise ConfigurationError(f"id_space must be positive, got {id_space}")
        self._client = client
        self._server = server
        self.id_space = id_space
        self._cache: Dict[str, int] = {}
        self.protocol_rounds = 0

    def ad_id(self, url: str) -> int:
        cached = self._cache.get(url)
        if cached is not None:
            return cached
        output = self._client.evaluate(url, self._server)
        ad_id = int.from_bytes(output, "big") % self.id_space
        self._cache[url] = ad_id
        self.protocol_rounds += 1
        return ad_id

    def bytes_exchanged(self) -> int:
        """Total OPRF traffic so far: two group elements per unique ad."""
        return self.protocol_rounds * self._client.exchange_bytes()

    @property
    def cache_size(self) -> int:
        return len(self._cache)
