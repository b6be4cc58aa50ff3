"""Back-end substrate (paper §5): crawler and deployment loop.

The paper's MySQL metadata role — anonymized weekly aggregates — is
served by :class:`repro.store.HistoryStore`, which either weekly
operator below writes when given one; the crawler keeps its findings in
memory for the audit.

* :mod:`repro.backend.crawler` — the clean-profile crawler that visits
  audited pages with empty history; any ad it sees cannot have been
  behaviourally targeted, which is what the validation tree keys on;
* :mod:`repro.backend.operations` — the weekly cadence under churn and
  mid-round dropouts: one :class:`~repro.core.pipeline.DetectionPipeline`
  operated week over week, on either client backend (each week's
  dropouts go to :meth:`~repro.api.ProtocolSession.drop_users`).

The weekly round itself has two operators, both driving one
:class:`~repro.api.ProtocolSession` and differing in where the clients
are: :class:`~repro.core.pipeline.DetectionPipeline` hosts them
in-process, :class:`~repro.service.state.ServiceState` serves remote
ones over HTTP.
"""

from repro.backend.crawler import CleanProfileCrawler

__all__ = [
    "CleanProfileCrawler",
]
