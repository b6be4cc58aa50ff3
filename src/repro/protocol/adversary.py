"""Adversarial protocol participants and their provable damage bounds.

The paper's threat model is honest-but-curious servers; *clients* are
another matter. Nothing in the §6 counting scheme authenticates what a
client feeds into its own sketch before blinding, so a compromised
extension can poison the aggregate. This module makes that attacker
concrete — and quantifies what it buys.

:class:`PoisoningClient` is a :class:`~repro.protocol.client
.ProtocolClient` that follows the protocol *exactly* — same blinding,
same adjustments, same message sizes, byte-indistinguishable on the wire
— but reports a doctored sketch: per target URL, a signed delta added to
that ad's CMS cells (positive to fake viewers, negative to suppress
real ones).

The damage is bounded by construction.  With total poison budget
``B = sum(|delta|)`` across targets:

* any single CMS estimate moves by at most ``B`` (each poisoned URL
  shifts only its own ``d`` cells by its delta; a cell collects at most
  the sum of deltas hashing into it, and a CMS estimate is the min over
  one cell per row);
* the #Users distribution is the multiset of per-ad estimates, so its
  mean — the default ``Users_th`` — moves by at most ``B`` as well
  (every sampled estimate moves by at most ``B``).

``tests/test_protocol_adversarial.py`` checks the actual pull against
this bound at boosts 1, 8 and 64; the
mitigation knobs are protocol-level (clique sizing via
:func:`~repro.protocol.membership.suggest_num_cliques`, threshold rules
robust to outliers) rather than cryptographic.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Mapping

import numpy as np

from repro.crypto.blinding import BLINDING_MODULUS
from repro.errors import ConfigurationError
from repro.protocol.client import ProtocolClient, WindowCounts


def poisoning_pull_bound(poison: Mapping[str, int]) -> int:
    """The provable ceiling on any CMS estimate's shift (and hence on
    the mean-rule ``Users_th`` shift) a poison map can cause."""
    return sum(abs(int(delta)) for delta in poison.values())


class PoisoningClient(ProtocolClient):
    """A protocol-conformant client that reports a doctored sketch.

    Parameters are the honest client's, plus ``poison``: a mapping of
    target URL to a signed per-user count delta. ``{"ad": +3}`` claims
    three phantom sightings of ``ad``; ``{"ad": -1}`` erases this user's
    real one (cells wrap modulo the blinding modulus exactly as the
    aggregation arithmetic does, so suppression of counts the aggregate
    does not contain degrades other ads' estimates, not the protocol).

    The rogue overrides one hook, :meth:`_window_counts`: its window
    is the honest cell indexes with one count each, followed by every
    target's cell indexes with its delta as a ``uint32`` increment mod
    2^32. Everything after it is inherited unchanged — adding the counts
    onto the blinding vector, pad bookkeeping and the reuse guard,
    adjustments, reactive behaviour — so the poisoned report is
    byte-indistinguishable from an honest one on the wire (the tests
    assert equal message sizes): detection must work on the *aggregate*,
    which is what the damage bound above is for.
    """

    def __init__(
        self, *args: Any, poison: Mapping[str, int], **kwargs: Any
    ) -> None:
        super().__init__(*args, **kwargs)
        self.poison: Dict[str, int] = {
            url: int(delta) for url, delta in poison.items()
        }
        for url, delta in self.poison.items():
            if delta == 0:
                raise ConfigurationError(
                    f"poison delta for {url!r} is 0; drop the entry"
                )

    @classmethod
    def infiltrate(
        cls, client: ProtocolClient, poison: Mapping[str, int]
    ) -> "PoisoningClient":
        """Take over an enrolled honest client in place.

        The rogue keeps the victim's identity, blinding generator, ad
        mapper, clique and observation window — the compromise model of
        a malicious extension update. Because the blinding is shared,
        swapping the rogue into a session shifts the aggregate by
        exactly the poison delta (the pads still cancel).
        """
        rogue = cls(
            client.user_id,
            client.config,
            client.blinding,
            client.ad_mapper,
            clique_id=client.clique_id,
            poison=poison,
        )
        for url in client.seen_urls:
            rogue.observe_ad(url)
        return rogue

    @property
    def pull_bound(self) -> int:
        return poisoning_pull_bound(self.poison)

    def _window_counts(self) -> WindowCounts:
        """The honest counts, then each target's ``d`` cell indexes with
        its delta mod 2^32 (a negative delta wraps, like the pads do).
        The poison is fixed, so the digest over both parts changes
        exactly when the honest window does."""
        honest, _, _ = super()._window_counts()
        targets = sorted(self.poison)
        poisoned = self.config.flat_indexes(
            [self._ad_id_cached(url) for url in targets]
        ).astype(np.int64)
        deltas = np.array(
            [self.poison[url] % BLINDING_MODULUS for url in targets],
            dtype=np.uint32,
        )
        indexes = np.concatenate([honest, poisoned.ravel()])
        increments = np.concatenate([
            np.ones(honest.size, dtype=np.uint32),
            np.broadcast_to(deltas, poisoned.shape).ravel(),
        ])
        digest = hashlib.sha256(indexes)
        digest.update(increments)
        return indexes, increments, digest.digest()


__all__ = ["PoisoningClient", "poisoning_pull_bound"]
