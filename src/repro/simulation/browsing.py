"""User-centric browsing model (after Burklen et al., paper ref [14]).

Each user's weekly visit count is Poisson around ``average_user_visits``
scaled by a personal activity level. Each visit picks a site either from
the user's interest categories (probability ``interest_affinity``) or from
the global Zipf popularity law — heavy users of a niche still see the big
mainstream sites.

Visits are spread over the week's ticks with a day-of-week weight: the
paper picked the one-week window precisely because "users tend to browse
differently during weekdays and weekends", so the model gives weekends a
different intensity.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError
from repro.simulation.population import Population, UserProfile
from repro.simulation.websites import Website, WebsiteCatalog
from repro.statsutil.sampling import make_rng
from repro.types import TICKS_PER_DAY, TICKS_PER_WEEK

#: Relative browsing intensity per weekday (Mon..Sun); weekend evenings
#: are busier, working days flatter.
DAY_WEIGHTS = (1.0, 1.0, 1.0, 1.0, 1.1, 1.4, 1.3)

#: Relative intensity per hour of day: low at night, peaks in the evening.
HOUR_WEIGHTS = tuple(
    0.2 if h < 7 else (0.8 if h < 17 else 1.5 if h < 23 else 0.4)
    for h in range(24)
)


@dataclass(frozen=True)
class Visit:
    """One page view: user, site, time."""

    user_id: str
    website: Website
    tick: int

    @property
    def week(self) -> int:
        return self.tick // TICKS_PER_WEEK


class BrowsingModel:
    """Generates visit streams for a population over a catalogue."""

    def __init__(self, population: Population, catalog: WebsiteCatalog,
                 average_user_visits: int = 138,
                 interest_affinity: float = 0.6, seed: int = 0) -> None:
        if average_user_visits <= 0:
            raise ConfigurationError("average_user_visits must be positive")
        if not 0.0 <= interest_affinity <= 1.0:
            raise ConfigurationError("interest_affinity must be in [0, 1]")
        self.population = population
        self.catalog = catalog
        self.average_user_visits = average_user_visits
        self.interest_affinity = interest_affinity
        self._rng = make_rng(seed)
        # Precompute the tick weighting for one week.
        weights = []
        for tick in range(TICKS_PER_WEEK):
            day, hour = divmod(tick, TICKS_PER_DAY)
            weights.append(DAY_WEIGHTS[day] * HOUR_WEIGHTS[hour])
        total = sum(weights)
        self._tick_cdf = list(itertools.accumulate(w / total for w in weights))

    def _poisson(self, lam: float) -> int:
        """Knuth's algorithm; adequate for lam up to a few hundred."""
        if lam <= 0:
            return 0
        threshold = math.exp(-lam)
        k, p = 0, 1.0
        while True:
            p *= self._rng.random()
            if p <= threshold:
                return k
            k += 1

    def _pick_tick(self, week: int) -> int:
        tick = bisect.bisect_left(self._tick_cdf, self._rng.random())
        return week * TICKS_PER_WEEK + min(tick, TICKS_PER_WEEK - 1)

    def _pick_site(self, user: UserProfile) -> Website:
        if user.interests and self._rng.random() < self.interest_affinity:
            category = self._rng.choice(user.interests)
            site = self.catalog.sample_in_category(category, self._rng)
            if site is not None:
                return site
        return self.catalog.sample_popular()

    def visits_for_user(self, user: UserProfile, week: int = 0) -> List[Visit]:
        """One week of visits for one user, sorted by tick."""
        count = self._poisson(self.average_user_visits * user.activity)
        visits = [Visit(user_id=user.user_id, website=self._pick_site(user),
                        tick=self._pick_tick(week))
                  for _ in range(count)]
        visits.sort(key=lambda v: v.tick)
        return visits

    def visits_for_week(self, week: int = 0) -> List[Visit]:
        """One week of visits for the whole population, time-ordered."""
        visits: List[Visit] = []
        for user in self.population:
            visits.extend(self.visits_for_user(user, week))
        visits.sort(key=lambda v: v.tick)
        return visits
