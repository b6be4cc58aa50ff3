"""A retrying worker-pool job queue for detection runs.

The service plane accepts detection jobs over HTTP (submit → poll →
result). Detection runs are subprocess work that can fail for boring
operational reasons — a worker killed mid-run, a transient timeout — so
the queue retries with exponential backoff, reusing the *same*
:class:`~repro.protocol.net.RetryPolicy` arithmetic the aggregator
pool applies to crashed aggregator processes: a job
gets ``max_restarts`` retries after its first attempt, attempt *n*'s
failure waits ``backoff_s(n)`` before requeueing, and a job that
exhausts the budget lands in a queryable **dead-letter** state — it
never hangs, and its failure history is part of the record.

Scheduling is a ready-time heap under one condition variable; worker
threads pull the earliest-ready job, so backoff delays never block an
unrelated job behind a cooling-off one. Handlers are synchronous
callables keyed by job ``kind`` (the detection handler spawns a
subprocess; tests install toy handlers), and a handler exceeding the
job's ``timeout_s`` counts as a failed attempt like any other.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError, ReproError
from repro.protocol.net import RetryPolicy

#: Job lifecycle states (JSON values of the status field).
QUEUED = "queued"
RUNNING = "running"
RETRYING = "retrying"
SUCCEEDED = "succeeded"
DEAD = "dead"

STATUSES = (QUEUED, RUNNING, RETRYING, SUCCEEDED, DEAD)

#: States that will not change again.
TERMINAL = (SUCCEEDED, DEAD)


class JobError(ReproError):
    """A job attempt failed (handler error, timeout, killed worker)."""


@dataclass
class JobRecord:
    """One job's full lifecycle, as the API exposes it."""

    job_id: str
    kind: str
    params: Dict[str, Any]
    timeout_s: float
    status: str = QUEUED
    attempts: int = 0
    #: PID of the most recent worker subprocess, when the handler runs
    #: one (the detection handler does); None for in-process handlers.
    pid: Optional[int] = None
    #: One entry per failed attempt: "attempt N: <error>".
    failures: List[str] = field(default_factory=list)
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    def to_spec(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "params": dict(self.params),
            "timeout_s": self.timeout_s,
            "status": self.status,
            "attempts": self.attempts,
            "pid": self.pid,
            "failures": list(self.failures),
            "error": self.error,
            "result": self.result,
        }


#: Handler signature: runs one attempt, returns the job's result dict,
#: raises (JobError or anything else) to fail the attempt.
JobHandler = Callable[[JobRecord], Dict[str, Any]]


class JobQueue:
    """Submit → poll → result, with supervised retries and dead-letter.

    ``retry_policy.max_restarts`` is the retry budget *after* the first
    attempt (matching the aggregator pool's restarts-after-crash
    semantics), so a job runs at most ``max_restarts + 1`` times.
    """

    def __init__(self, handlers: Dict[str, JobHandler],
                 workers: int = 2,
                 retry_policy: Optional[RetryPolicy] = None,
                 default_timeout_s: float = 60.0) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"a job queue needs at least one worker, got {workers}")
        self.handlers = dict(handlers)
        self.retry_policy = retry_policy or RetryPolicy()
        self.default_timeout_s = default_timeout_s
        self._records: Dict[str, JobRecord] = {}
        #: (ready_monotonic, seq, job_id) — earliest-ready first.
        self._heap: List[Any] = []
        self._seq = 0
        self._cond = threading.Condition()
        self._closing = False
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-job-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission and queries
    # ------------------------------------------------------------------
    def submit(self, kind: str, params: Optional[Dict[str, Any]] = None,
               timeout_s: Optional[float] = None) -> JobRecord:
        """Queue one job; returns its record (poll it via :meth:`get`)."""
        if kind not in self.handlers:
            raise ConfigurationError(
                f"unknown job kind {kind!r}; expected one of "
                f"{sorted(self.handlers)}")
        timeout = self.default_timeout_s if timeout_s is None \
            else float(timeout_s)
        if timeout <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {timeout}")
        with self._cond:
            if self._closing:
                raise ConfigurationError("job queue is closed")
            self._seq += 1
            record = JobRecord(job_id=f"job-{self._seq}", kind=kind,
                               params=dict(params or {}), timeout_s=timeout)
            self._records[record.job_id] = record
            heapq.heappush(self._heap,
                           (time.monotonic(), self._seq, record.job_id))
            self._cond.notify()
        return record

    def get(self, job_id: str) -> JobRecord:
        with self._cond:
            record = self._records.get(job_id)
            if record is None:
                raise KeyError(job_id)
            return record

    def list_jobs(self, status: Optional[str] = None) -> List[JobRecord]:
        """All records (optionally filtered), submission order.

        ``list_jobs(status=DEAD)`` is the dead-letter query.
        """
        if status is not None and status not in STATUSES:
            raise ConfigurationError(
                f"unknown job status {status!r}; expected one of {STATUSES}")
        with self._cond:
            records = sorted(self._records.values(),
                             key=lambda r: int(r.job_id.split("-")[1]))
        return [r for r in records
                if status is None or r.status == status]

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        """Block until ``job_id`` reaches a terminal state."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                record = self._records.get(job_id)
                if record is None:
                    raise KeyError(job_id)
                if record.status in TERMINAL:
                    return record
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"{job_id} still {record.status} after {timeout}s")
                self._cond.wait(remaining)

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _next_ready(self) -> Optional[JobRecord]:
        """Pop the earliest-ready job, blocking until one exists or the
        queue closes. Called with the lock NOT held."""
        with self._cond:
            while True:
                if self._closing:
                    return None
                if self._heap:
                    ready_at = self._heap[0][0]
                    now = time.monotonic()
                    if ready_at <= now:
                        _, _, job_id = heapq.heappop(self._heap)
                        record = self._records[job_id]
                        record.status = RUNNING
                        return record
                    self._cond.wait(ready_at - now)
                else:
                    self._cond.wait()

    def _worker_loop(self) -> None:
        while True:
            record = self._next_ready()
            if record is None:
                return
            record.attempts += 1
            try:
                result = self.handlers[record.kind](record)
            except Exception as exc:  # noqa: BLE001 - recorded, retried
                self._attempt_failed(record, exc)
            else:
                with self._cond:
                    record.status = SUCCEEDED
                    record.result = result
                    record.error = None
                    self._cond.notify_all()

    def _attempt_failed(self, record: JobRecord, exc: Exception) -> None:
        with self._cond:
            record.failures.append(
                f"attempt {record.attempts}: {type(exc).__name__}: {exc}")
            budget = self.retry_policy.max_restarts + 1
            if record.attempts >= budget:
                record.status = DEAD
                record.error = (
                    f"dead after {record.attempts}/{budget} attempts: "
                    f"{record.failures[-1]}")
            else:
                # Same arithmetic as the aggregator pool: retry n
                # (1-based) backs off base * factor**(n-1), capped.
                delay = self.retry_policy.backoff_s(record.attempts)
                record.status = RETRYING
                self._seq += 1
                heapq.heappush(
                    self._heap,
                    (time.monotonic() + delay, self._seq, record.job_id))
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work and join the workers. Queued-but-unrun
        jobs stay queued in the records (their status tells the story);
        running handlers finish their current attempt."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout)

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
