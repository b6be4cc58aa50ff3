"""Pinning regressions for the protolint PL004 sweep of ``__del__`` paths.

``ProcessAggregatorPool.__del__`` used to swallow *every* exception from
``close()``. Best-effort cleanup may only absorb expected teardown noise
(dead workers, half-closed pipes, interpreter shutdown); a genuine bug in
``close()`` must surface. ``SocketTransport.__del__`` keeps the broad
catch deliberately (its protolint PL004 allowlist entry): its ``close()``
is shutdown-safe by construction, and ``__del__`` during interpreter
teardown must never raise.
"""

import pytest

from repro.errors import ProtocolError
from repro.protocol.net.pool import ProcessAggregatorPool
from repro.protocol.net.transport import SocketTransport


def raiser(exc):
    def _raise():
        raise exc

    return _raise


class TestPoolDel:
    def make_pool(self):
        # No subprocesses: __del__'s error filtering is what's under test.
        pool = object.__new__(ProcessAggregatorPool)
        pool._closed = True
        pool._workers = {}
        return pool

    @pytest.mark.parametrize(
        "exc",
        [
            ProtocolError("worker already gone"),
            OSError("pipe closed"),
            ValueError("I/O operation on closed file"),
            RuntimeError("cannot schedule new futures after shutdown"),
        ],
    )
    def test_del_swallows_expected_teardown_noise(self, exc):
        pool = self.make_pool()
        pool.close = raiser(exc)
        try:
            pool.__del__()  # must not raise
        finally:
            del pool.close  # keep the later GC-time __del__ quiet

    def test_del_propagates_genuine_bugs(self):
        pool = self.make_pool()
        pool.close = raiser(TypeError("close() called with wrong state"))
        try:
            with pytest.raises(TypeError):
                pool.__del__()
        finally:
            del pool.close

    def test_del_on_closed_pool_is_quiet(self):
        self.make_pool().__del__()


class TestTransportDel:
    def test_del_on_unfinished_init_is_quiet(self):
        # __init__ may die before the sockets exist; __del__ still runs.
        transport = object.__new__(SocketTransport)
        transport.__del__()

    def test_del_never_raises_even_on_bugs(self):
        transport = object.__new__(SocketTransport)
        transport.close = raiser(TypeError("torn-down module"))
        try:
            transport.__del__()  # the documented broad-catch contract
        finally:
            del transport.close
