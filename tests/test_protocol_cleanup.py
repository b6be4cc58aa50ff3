"""Pinning regressions for the protolint PL004 sweep of ``__del__`` paths.

``SocketTransport.__del__`` keeps the broad catch deliberately (its
protolint PL004 allowlist entry): its ``close()`` is shutdown-safe by
construction — it closes whichever socket ends exist and survives one
that fails to close — and ``__del__`` during interpreter teardown must
never raise.
"""

import socket

from repro.protocol.net.chaos import ChaosSocketTransport
from repro.protocol.net.transport import SocketTransport


def raiser(exc):
    def _raise():
        raise exc

    return _raise


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

    def test_chaos_del_on_unfinished_init_is_quiet(self):
        transport = object.__new__(ChaosSocketTransport)
        transport.__del__()

    def test_close_closes_the_end_that_exists(self):
        # __init__ died between opening the two ends.
        left, right = socket.socketpair()
        try:
            transport = object.__new__(SocketTransport)
            transport._closed = False
            transport._in = left
            transport.close()
            assert left.fileno() == -1
            assert transport._closed
        finally:
            left.close()
            right.close()

    def test_close_survives_an_end_that_fails_to_close(self):
        class Unclosable:
            def close(self):
                raise OSError("bad file descriptor")

        left, right = socket.socketpair()
        try:
            transport = object.__new__(SocketTransport)
            transport._closed = False
            transport._out = Unclosable()
            transport._in = left
            transport.close()
            assert left.fileno() == -1
        finally:
            left.close()
            right.close()
