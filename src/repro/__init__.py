"""repro — a reproduction of eyeWnder (CoNEXT 2019).

"Beyond content analysis: detecting targeted ads via distributed
counting" by Iordanou, Kourtellis, Carrascosa, Soriente, Cuevas and
Laoutaris.

The package implements the paper's three layers end to end:

* the **count-based detection algorithm** (:mod:`repro.core`): an ad is
  targeted iff it follows its user across more domains than usual while
  being seen by fewer users than usual;
* the **privacy-preserving counting protocol** (:mod:`repro.protocol`,
  :mod:`repro.crypto`, :mod:`repro.sketch`): blinded count-min sketches
  aggregated by an honest-but-curious server, with OPRF-based ad-ID
  mapping; :mod:`repro.api` (``ProtocolSession``) is the supported
  entry point for driving its message-driven rounds;
* the **evaluation apparatus** (:mod:`repro.simulation`,
  :mod:`repro.validation`, :mod:`repro.analysis`, :mod:`repro.backend`,
  :mod:`repro.extension`): the controlled simulator, the Figure-4 live
  validation methodology and the §8 bias study.

Quickstart::

    from repro import DetectionPipeline, SimulationConfig, Simulator

    result = Simulator(SimulationConfig.small(seed=1)).run()
    out = DetectionPipeline(private=True).run_week(result.impressions)
    for call in out.targeted[:5]:
        print(call.user_id, call.ad.identity)
"""

from repro.types import (
    Ad,
    AdKind,
    ClassifiedAd,
    ConfusionCounts,
    Demographics,
    Impression,
    Label,
)
from repro.core import (
    CountBasedDetector,
    DetectionPipeline,
    DetectorConfig,
    ThresholdRule,
)
from repro.sketch import CountMinSketch
from repro.protocol import (
    Epoch,
    MembershipManager,
    RoundConfig,
    enroll_users,
)
from repro.api import ProtocolSession, run_private_round
from repro.simulation import SimulationConfig, Simulator
from repro.validation import LiveValidationStudy

__version__ = "1.0.0"

__all__ = [
    "Ad",
    "AdKind",
    "ClassifiedAd",
    "ConfusionCounts",
    "Demographics",
    "Impression",
    "Label",
    "CountBasedDetector",
    "DetectionPipeline",
    "DetectorConfig",
    "ThresholdRule",
    "CountMinSketch",
    "RoundConfig",
    "Epoch",
    "MembershipManager",
    "ProtocolSession",
    "run_private_round",
    "enroll_users",
    "SimulationConfig",
    "Simulator",
    "LiveValidationStudy",
    "__version__",
]

