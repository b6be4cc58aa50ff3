"""Back-end substrate (paper §5): crawler and service.

The paper's MySQL metadata role — active users, anonymized weekly
aggregates, crawler findings — is served by
:class:`repro.store.HistoryStore`, which both modules below write to.

* :mod:`repro.backend.crawler` — the clean-profile crawler that visits
  audited pages with empty history; any ad it sees cannot have been
  behaviourally targeted, which is what the validation tree keys on;
* :mod:`repro.backend.service` — the weekly cadence: run the aggregation
  round, persist the distribution and threshold, answer client queries.
"""

from repro.backend.crawler import CleanProfileCrawler
from repro.backend.service import BackendService, WeeklySnapshot

__all__ = [
    "CleanProfileCrawler",
    "BackendService",
    "WeeklySnapshot",
]
