"""Tests for the exception hierarchy contract.

Callers rely on two properties: every library error is a
:class:`ReproError`, and subsystem errors are distinguishable by their
base class (so a caller can catch ``SketchError`` without touching
protocol failures).
"""

import inspect

import pytest

import repro.errors as errors_module
from repro.errors import (
    AnalysisError,
    BlindingError,
    CryptoError,
    KeyGenerationError,
    MissingReportError,
    OPRFError,
    ProtocolError,
    ReproError,
    RoundStateError,
    SketchDimensionMismatch,
    SketchError,
    TransportError,
    ValidationError,
)


def all_error_classes():
    return [obj for _name, obj in inspect.getmembers(errors_module)
            if inspect.isclass(obj) and issubclass(obj, Exception)]


class TestHierarchy:
    def test_everything_derives_from_repro_error(self):
        for cls in all_error_classes():
            assert issubclass(cls, ReproError), cls.__name__

    def test_subsystem_bases(self):
        assert issubclass(KeyGenerationError, CryptoError)
        assert issubclass(BlindingError, CryptoError)
        assert issubclass(OPRFError, CryptoError)
        assert issubclass(RoundStateError, ProtocolError)
        assert issubclass(MissingReportError, ProtocolError)
        assert issubclass(TransportError, ProtocolError)
        assert issubclass(SketchDimensionMismatch, SketchError)

    def test_subsystems_disjoint(self):
        assert not issubclass(SketchError, CryptoError)
        assert not issubclass(ProtocolError, CryptoError)
        assert not issubclass(AnalysisError, ValidationError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise OPRFError("boom")
        with pytest.raises(CryptoError):
            raise BlindingError("boom")

    def test_every_class_documented(self):
        for cls in all_error_classes():
            assert cls.__doc__, f"{cls.__name__} lacks a docstring"
