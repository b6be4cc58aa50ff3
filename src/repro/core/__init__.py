"""The paper's primary contribution: count-based targeted-ad detection.

The algorithm (paper §4) labels an ad ``a`` seen by user ``u`` as targeted
iff both:

* ``#Domains(u, a) > Domains_th(u)`` — the ad follows the user across
  more domains than is typical for that user, and
* ``#Users(a) < Users_th`` — fewer users see the ad than is typical
  across the crowd.

``#Domains`` and its threshold are local (computed in the browser);
``#Users`` and its threshold are global and come from the
privacy-preserving aggregation protocol (or a cleartext oracle, for
evaluation). Thresholds are moments of the respective count distributions;
the paper settles on the mean.
"""

from repro.core.counters import GlobalUserCounter, UserDomainCounter
from repro.core.thresholds import ThresholdRule
from repro.core.detector import CountBasedDetector, DetectorConfig
from repro.core.pipeline import DetectionPipeline, PipelineResult

__all__ = [
    "GlobalUserCounter",
    "UserDomainCounter",
    "ThresholdRule",
    "CountBasedDetector",
    "DetectorConfig",
    "DetectionPipeline",
    "PipelineResult",
]
