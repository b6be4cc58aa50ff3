"""The two counters the algorithm runs on (paper §4.1).

:class:`UserDomainCounter` is the *local* state one browser extension
keeps: for each ad, the set of publisher domains where this user saw it,
plus the set of ad-serving domains visited (the activity gate's input).

:class:`GlobalUserCounter` is the *global* statistic: for each ad, the set
of users who saw it. In deployment the server only ever holds the CMS
estimate of these counts; the exact counter exists as the evaluation
oracle (Figure 2 compares the two).

:func:`count_window` fills every user's local counter (and, when given,
the global one) in one pass over a window's impressions; every other
way of feeding a counter goes through the same loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.statsutil.distributions import EmpiricalDistribution
from repro.types import Ad, Impression


class UserDomainCounter:
    """Per-user #Domains(u, a) counters over one time window."""

    def __init__(self, user_id: str) -> None:
        self.user_id = user_id
        #: Ad identity -> the last :class:`Ad` seen for it, in first-seen
        #: order: the ads this user's verdicts are about.
        self.ads: Dict[str, Ad] = {}
        self._domains_by_ad: Dict[str, Set[str]] = {}
        self._ad_serving_domains: Set[str] = set()

    def observe(self, impression: Impression) -> None:
        self.observe_all((impression,))

    def observe_all(self, impressions: Iterable[Impression]) -> None:
        """Count this user's impressions; other users' are ignored."""
        _count(impressions, {self.user_id: self}, None, grow=False)

    def domains_seen(self, ad_identity: str) -> int:
        """#Domains(u, a): distinct domains where this user saw the ad."""
        return len(self._domains_by_ad.get(ad_identity, ()))

    def domains_seen_all(self, ad_identities: Iterable[str]) -> List[int]:
        """#Domains(u, a) of each identity, in order."""
        domains_by_ad = self._domains_by_ad
        return [len(domains_by_ad.get(identity, ()))
                for identity in ad_identities]

    @property
    def num_ad_serving_domains(self) -> int:
        """Distinct domains that served this user ads (activity gate)."""
        return len(self._ad_serving_domains)

    def distribution(self) -> EmpiricalDistribution:
        """Distribution of #Domains(u, a) over all ads this user saw.

        The user's Domains_th(u) is a moment of this distribution.
        """
        return EmpiricalDistribution(
            len(domains) for domains in self._domains_by_ad.values())

    def clear(self) -> None:
        self.ads.clear()
        self._domains_by_ad.clear()
        self._ad_serving_domains.clear()


class GlobalUserCounter:
    """Exact #Users(a) counters — the cleartext evaluation oracle."""

    def __init__(self) -> None:
        self._users_by_ad: Dict[str, Set[str]] = {}

    def observe(self, impression: Impression) -> None:
        self.observe_all((impression,))

    def observe_all(self, impressions: Iterable[Impression]) -> None:
        count_window(impressions, self)

    def users_seen(self, ad_identity: str) -> int:
        """#Users(a): distinct users who saw the ad."""
        return len(self._users_by_ad.get(ad_identity, ()))

    @property
    def ads(self) -> List[str]:
        return sorted(self._users_by_ad)

    def distribution(self) -> EmpiricalDistribution:
        """Distribution of #Users(a) over all ads — Users_th's input."""
        return EmpiricalDistribution(
            len(users) for users in self._users_by_ad.values())

    def clear(self) -> None:
        self._users_by_ad.clear()


def count_window(impressions: Iterable[Impression],
                 users: Optional[GlobalUserCounter] = None
                 ) -> Dict[str, UserDomainCounter]:
    """Every user's :class:`UserDomainCounter` over ``impressions``, in
    one pass, keyed in sorted user order; ``users``, when given, counts
    #Users(a) in the same loop."""
    counters: Dict[str, UserDomainCounter] = {}
    _count(impressions, counters, users, grow=True)
    return {user_id: counters[user_id] for user_id in sorted(counters)}


def _count(impressions: Iterable[Impression],
           counters: Dict[str, UserDomainCounter],
           users: Optional[GlobalUserCounter], grow: bool) -> None:
    """The one counting loop: no method call per impression. A user
    missing from ``counters`` gets a fresh counter when ``grow``, and is
    skipped otherwise."""
    users_by_ad = users._users_by_ad if users is not None else None
    fields: Dict[str, Tuple[Dict[str, Ad], Dict[str, Set[str]], Set[str]]] = {
        user_id: (c.ads, c._domains_by_ad, c._ad_serving_domains)
        for user_id, c in counters.items()}
    for imp in impressions:
        user_id = imp.user_id
        own = fields.get(user_id)
        if own is None:
            if not grow:
                continue
            counter = counters[user_id] = UserDomainCounter(user_id)
            own = fields[user_id] = (counter.ads, counter._domains_by_ad,
                                     counter._ad_serving_domains)
        ads, domains_by_ad, ad_serving_domains = own
        ad = imp.ad
        # Ad.identity, read off the fields: the property call would
        # cost more than the rest of this loop's body.
        identity = ad.url or ad.content_hash
        domain = imp.domain
        ads[identity] = ad
        ad_serving_domains.add(domain)
        domains = domains_by_ad.get(identity)
        if domains is not None:
            domains.add(domain)
            continue
        domains_by_ad[identity] = {domain}
        if users_by_ad is not None:
            seen_by = users_by_ad.get(identity)
            if seen_by is None:
                users_by_ad[identity] = {user_id}
            else:
                seen_by.add(user_id)
