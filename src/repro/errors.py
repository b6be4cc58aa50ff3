"""Exception hierarchy for the repro (eyeWnder reproduction) package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Sub-hierarchies mirror the package layout: sketch, crypto,
protocol and analysis errors are distinguishable without string matching.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigurationError(ReproError):
    """A user-supplied parameter is out of range or inconsistent."""


class SketchError(ReproError):
    """Base class for synopsis data-structure errors."""


class SketchDimensionMismatch(SketchError):
    """Two sketches with incompatible dimensions were combined."""


class CryptoError(ReproError):
    """Base class for cryptographic substrate errors."""


class KeyGenerationError(CryptoError):
    """Prime or key generation failed (e.g. bit length too small)."""


class BlindingError(CryptoError):
    """Blinding-share computation or cancellation failed."""


class OPRFError(CryptoError):
    """Oblivious-PRF protocol violation (bad blinding, bad signature)."""


class ProtocolError(ReproError):
    """Base class for aggregation-protocol errors."""


class RoundStateError(ProtocolError):
    """An operation was attempted in the wrong round phase."""


class MissingReportError(ProtocolError):
    """Aggregation attempted while reports are missing and unrecovered."""


class TransportError(ProtocolError):
    """Message delivery failed (unknown endpoint, closed transport)."""


class StoreError(ReproError):
    """Base class for durable-history store errors (repro.store):
    migration failures, closed-store use, corrupted or mismatched
    persisted session records."""


class DetectorError(ReproError):
    """Base class for count-based detector errors."""


class ValidationError(ReproError):
    """Base class for evaluation-methodology errors."""


class AnalysisError(ReproError):
    """Base class for statistical-analysis errors."""


class ModelNotFittedError(AnalysisError):
    """A regression model was queried before ``fit`` was called."""


class ConvergenceError(AnalysisError):
    """An iterative fitting procedure failed to converge."""
