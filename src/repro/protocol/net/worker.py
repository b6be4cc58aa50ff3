"""Aggregator worker process: ``python -m repro.protocol.net.worker``.

Reads one JSON endpoint spec line from stdin (see
:mod:`repro.protocol.net.spec`), builds the aggregation endpoint it
describes, serves the frame protocol on an ephemeral loopback port and
announces ``{"host": ..., "port": ...}`` as one JSON line on stdout. The
parent's :class:`~repro.protocol.net.pool.ProcessAggregatorPool` reads
the announcement and connects.

Lifetime: the process exits on a SHUTDOWN frame, or — the leash against
orphaning — when stdin reaches EOF, which happens automatically when the
parent process dies with the pipe open.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from typing import Tuple

from repro.protocol.net.server import EndpointServer
from repro.protocol.net.spec import build_endpoint


def _stdin_leash() -> None:
    """Block until the parent closes stdin, then exit hard.

    Reads the raw fd rather than ``sys.stdin.buffer``: holding the
    buffered reader's lock in a daemon thread aborts interpreter
    shutdown on the orderly SHUTDOWN-frame exit path.
    """
    try:
        while os.read(0, 4096):
            pass
    except OSError:
        pass
    os._exit(0)


def main() -> int:
    line = sys.stdin.buffer.readline()
    if not line:
        return 2
    server = EndpointServer(build_endpoint(json.loads(line)))
    threading.Thread(target=_stdin_leash, daemon=True).start()

    def announce(address: Tuple[str, int]) -> None:
        host, port = address
        sys.stdout.write(json.dumps({"host": host, "port": port}) + "\n")
        sys.stdout.flush()

    server.serve(announce=announce)
    return 0


if __name__ == "__main__":
    sys.exit(main())
