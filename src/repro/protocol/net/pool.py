"""Subprocess pool: one OS process per aggregation endpoint.

:class:`ProcessAggregatorPool` launches each
:class:`~repro.protocol.aggregator.CliqueAggregator` — and the
:class:`~repro.protocol.aggregator.RootAggregator` — as a real
subprocess (``python -m repro.protocol.net.worker``) serving the frame
protocol on a loopback TCP port, and hands back
:class:`~repro.protocol.net.proxy.ProcessEndpointProxy` endpoints the
existing driver can run unmodified. The paper's deployment picture —
clients and aggregation servers as separate network parties — becomes
literal: reports, recovery notices, adjustments and partial aggregates
all cross process boundaries as wire-encoded bytes.

:meth:`ensure` is diff-based, which is what makes
``ProtocolSession.advance_epoch`` cheap over live processes: surviving
cliques get a RECONFIGURE frame with their new membership (same PID, no
restart), vanished cliques are shut down, new cliques spawn, and the
root learns the new clique/client rosters the same way.

The tree it hosts is the session's own: :meth:`ensure` builds the
in-process tree (:func:`~repro.protocol.runner.build_aggregation_tree`)
and hosts each endpoint from its :func:`~repro.protocol.net.spec.
endpoint_spec`; only an epoch advance's RECONFIGURE changes it later.

The pool is also the workers' supervisor: :meth:`respawn` replaces a
dead or hung worker from its stored spec, and ``max_restarts`` is the
per-endpoint, per-round restart budget its proxies spend (see
:mod:`repro.protocol.net.proxy` for the exchange loop and why replay is
sound). The default budget is 0: the first worker death fails the round
with a :class:`~repro.errors.ProtocolError` — "never a hang" — and a
deployment where aggregation servers do die mid-round passes a budget.
The pool schedules no fault itself: a worker dies or wedges from
outside, as a signal to its pid (:attr:`~ProcessAggregatorPool.pids`).
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
import socket
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.protocol.client import RoundConfig
from repro.protocol.endpoint import ProtocolEndpoint, ThresholdRuleFn, mean_threshold
from repro.protocol.net import frames
from repro.protocol.net.proxy import ProcessEndpointProxy
from repro.protocol.net.spec import endpoint_spec
from repro.protocol.runner import as_population, build_aggregation_tree

if TYPE_CHECKING:
    from repro.protocol.runner import Clients

logger = logging.getLogger(__name__)


@dataclass
class _Worker:
    """One launched aggregator process and its attached proxy."""

    process: subprocess.Popen
    proxy: ProcessEndpointProxy
    spec: Dict[str, Any]


def _src_path() -> str:
    """The import root of this package, for the child's PYTHONPATH."""
    import repro

    return str(Path(repro.__file__).resolve().parents[1])


class ProcessAggregatorPool:
    """Launches and re-wires per-clique aggregator subprocesses.

    Parameters
    ----------
    config:
        The shared :class:`~repro.protocol.client.RoundConfig` every
        hosted aggregator is built with.
    max_restarts:
        How many times one worker may be respawned within one round
        before the crash loop is declared unrecoverable and the round
        fails with the underlying :class:`~repro.errors.ProtocolError`.
        0 (default): the first worker death raises.
    timeout:
        Seconds a worker has to announce its port, and each proxy's
        per-exchange deadline.
    fan_in:
        The session's fan-in bound, handed to
        :func:`~repro.protocol.runner.build_aggregation_tree`: with more
        cliques than ``fan_in`` the pool also hosts the regional merge
        tiers as subprocesses. ``None`` (default) keeps the flat
        clique -> root tree.
    """

    def __init__(
        self,
        config: RoundConfig,
        max_restarts: int = 0,
        timeout: float = 60.0,
        fan_in: Optional[int] = None,
    ) -> None:
        self.config = config
        self.max_restarts = max_restarts
        self.timeout = timeout
        self.fan_in = fan_in
        self._workers: Dict[str, _Worker] = {}
        #: endpoint id -> lifetime respawn count (telemetry).
        self.restarts: Counter = Counter()
        self._closed = False

    # ------------------------------------------------------------------
    # Wiring (what ProtocolSession._wire consumes)
    # ------------------------------------------------------------------
    def wire(
        self,
        clients: "Clients",
        threshold_rule: ThresholdRuleFn,
    ) -> Tuple[List[ProtocolEndpoint], ProcessEndpointProxy]:
        """Endpoints for a round over this pool: the clients (objects
        or an army) stay local, aggregation runs in the subprocesses —
        the counterpart of :func:`~repro.protocol.runner.
        build_aggregation_tree`."""
        population = as_population(clients)
        proxies, root = self.ensure(
            population.members(), population.user_ids, threshold_rule
        )
        return [*population.endpoints, *proxies, root], root

    def ensure(
        self,
        members: Dict[int, Dict[str, int]],
        client_ids: Sequence[str],
        threshold_rule: ThresholdRuleFn = mean_threshold,
    ) -> Tuple[List[ProcessEndpointProxy], ProcessEndpointProxy]:
        """Converge the process set onto the session's tree over
        ``members``.

        Surviving endpoints are RECONFIGUREd in place (PID preserved),
        missing ones are spawned, stale ones shut down. Returns the
        non-root proxies in the tree's order (cliques by clique id, then
        any regional tiers bottom-up) and the root proxy.
        """
        if self._closed:
            raise ProtocolError("aggregator pool is closed")
        tree, _root = build_aggregation_tree(
            self.config, members, client_ids, threshold_rule, self.fan_in
        )
        desired = {
            endpoint.endpoint_id: endpoint_spec(endpoint) for endpoint in tree
        }

        for endpoint_id in sorted(set(self._workers) - set(desired)):
            self._workers.pop(endpoint_id).proxy.shutdown()

        # Spawn all missing processes first (imports dominate startup;
        # launching concurrently overlaps them), then attach in order.
        # A failure mid-convergence must not strand the processes this
        # call already launched: the caller never got a handle to close.
        launched: Dict[str, subprocess.Popen] = {}
        try:
            for endpoint_id in desired:
                if endpoint_id not in self._workers:
                    launched[endpoint_id] = self._launch(desired[endpoint_id])
            for endpoint_id, process in launched.items():
                self._workers[endpoint_id] = self._attach(
                    endpoint_id, process, desired[endpoint_id]
                )
            for endpoint_id, spec in desired.items():
                worker = self._workers[endpoint_id]
                if endpoint_id not in launched and worker.spec != spec:
                    worker.proxy.reconfigure(spec)
                    worker.spec = spec
        except BaseException:
            for endpoint_id, process in launched.items():
                worker = self._workers.pop(endpoint_id, None)
                if worker is not None:
                    worker.proxy.close()
                self._terminate(process, hard=True)
            raise

        *proxies, root = (self._workers[endpoint_id].proxy
                          for endpoint_id in desired)
        return proxies, root

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def _launch(self, spec: Dict[str, Any]) -> subprocess.Popen:
        env = dict(os.environ)
        src = _src_path()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.protocol.net.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        assert process.stdin is not None
        process.stdin.write(json.dumps(spec).encode("utf-8") + b"\n")
        process.stdin.flush()
        # stdin stays open: it is the child's parent-liveness leash
        # (EOF there makes the worker exit even if we die uncleanly).
        return process

    def _handshake(
        self, endpoint_id: str, worker: subprocess.Popen
    ) -> Tuple[str, int]:
        """The worker's one-line port announcement, read within the pool
        timeout: ``readline()`` on the pipe would block forever on a
        worker that wedges before announcing.
        """
        import select

        assert worker.stdout is not None
        deadline = time.monotonic() + self.timeout
        line = bytearray()
        fd = worker.stdout.fileno()
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProtocolError(
                    f"aggregator process for {endpoint_id!r} (pid "
                    f"{worker.pid}) did not announce its port within "
                    f"{self.timeout}s"
                )
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ProtocolError(
                    f"aggregator process for {endpoint_id!r} exited before "
                    f"announcing its port (exit code {worker.poll()})"
                )
            line += chunk
        try:
            announcement = json.loads(line)
            return announcement["host"], int(announcement["port"])
        except (ValueError, KeyError, TypeError):
            raise ProtocolError(
                f"aggregator process for {endpoint_id!r} announced garbage: "
                f"{bytes(line[:200])!r}"
            ) from None

    def _attach(
        self,
        endpoint_id: str,
        process: subprocess.Popen,
        spec: Dict[str, Any],
    ) -> _Worker:
        host, port = self._handshake(endpoint_id, process)
        proxy = ProcessEndpointProxy.connect(
            host, port, endpoint_id, config=self.config, timeout=self.timeout,
            pid=process.pid, pool=self,
        )
        return _Worker(process, proxy, spec)

    def _terminate(
        self,
        process: subprocess.Popen,
        grace: float = 5.0,
        hard: bool = False,
    ) -> None:
        """The one worker-shutdown escalation path: signal, bounded wait,
        escalate to SIGKILL (logged), bounded wait again.

        ``hard=True`` skips SIGTERM and goes straight to SIGKILL (a
        failed launch, a hung worker). Already-exited processes just reap.
        """
        if process.poll() is None:
            if hard:
                process.kill()
            else:
                process.terminate()
        try:
            process.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            logger.warning(
                "aggregator pid %s ignored %s for %.1fs; escalating to "
                "SIGKILL",
                process.pid,
                "SIGKILL" if hard else "SIGTERM",
                grace,
            )
            process.kill()
            try:
                process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                logger.error(
                    "aggregator pid %s survived SIGKILL for %.1fs; "
                    "abandoning the wait",
                    process.pid,
                    grace,
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pids(self) -> Dict[str, int]:
        """endpoint id -> OS pid of its hosting process."""
        return {
            endpoint_id: worker.process.pid
            for endpoint_id, worker in sorted(self._workers.items())
        }

    def _worker(self, endpoint_id: str) -> _Worker:
        try:
            return self._workers[endpoint_id]
        except KeyError:
            raise ProtocolError(f"no aggregator process for {endpoint_id!r}") from None

    # ------------------------------------------------------------------
    # Supervision (what the proxies invoke)
    # ------------------------------------------------------------------

    def respawn(self, endpoint_id: str) -> Tuple[socket.socket, int]:
        """Replace one worker's process in place; returns the proxy's
        new connection and the new PID.

        The replacement is built from the worker's stored spec: the
        spec of the endpoint as the session's tree built it, or as the
        last epoch advance reconfigured it.
        """
        if self._closed:
            raise ProtocolError("aggregator pool is closed")
        worker = self._worker(endpoint_id)
        self.restarts[endpoint_id] += 1
        # The old process may be a hung-but-alive worker: take it down
        # hard before spawning its replacement, and release its pipes.
        self._terminate(worker.process, grace=10.0, hard=True)
        for pipe in (worker.process.stdin, worker.process.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass
        process = self._launch(worker.spec)
        host, port = self._handshake(endpoint_id, process)
        worker.process = process
        logger.info("respawned %s as pid %s", endpoint_id, process.pid)
        sock = frames.connect_stream(host, port, timeout=self.timeout)
        return sock, process.pid

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down; hard-kill stragglers."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            worker.proxy.shutdown()
        for worker in self._workers.values():
            self._terminate(worker.process)
            if worker.process.stdin is not None:
                worker.process.stdin.close()
            if worker.process.stdout is not None:
                worker.process.stdout.close()
        self._workers.clear()

    def __enter__(self) -> "ProcessAggregatorPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except (ProtocolError, OSError, ValueError, RuntimeError):
            # Expected teardown noise: workers already dead, pipes and
            # sockets half-closed, interpreter shutting down. Anything
            # else is a real bug in close() and must surface (as an
            # unraisable warning from GC, or an exception when close is
            # called directly) instead of vanishing.
            pass
