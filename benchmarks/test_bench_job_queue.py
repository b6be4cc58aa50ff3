"""Nightly bench: job-queue retry/backoff latency and worker overhead.

Times the service plane's :class:`~repro.service.jobs.JobQueue` on the
paths that matter operationally — how much latency the queue itself
adds around a successful attempt, how close the measured retry delay
tracks the :class:`~repro.protocol.net.RetryPolicy`
arithmetic, how long budget exhaustion takes to land in dead-letter,
and the end-to-end cost of a real subprocess detection job whose first
attempt is killed. Rows append to the ``BENCH_perf_hotpaths.json``
trajectory.
"""

import time

from conftest import append_trajectory, print_table

from repro.protocol.net import RetryPolicy
from repro.service.jobs import DEAD, SUCCEEDED, JobError, JobQueue
from repro.service.jobworker import JOB_KIND_DETECTION, detection_handler

POLICY = RetryPolicy(max_restarts=2, backoff_base_s=0.1,
                     backoff_factor=2.0, backoff_max_s=1.0)

DETECTION_PARAMS = {"users": 16, "websites": 10, "visits": 5, "seed": 9,
                    "private": True, "delay_s": 3.0}

#: Generous ceilings — an order of magnitude above warm timings, so the
#: gate catches a queue that stopped scheduling, not a slow runner.
QUEUE_OVERHEAD_LIMIT_S = 1.0
DETECTION_RETRY_LIMIT_S = 120.0


def _timed(queue, kind, params=None, timeout_s=60.0):
    t0 = time.perf_counter()
    record = queue.submit(kind, params, timeout_s=timeout_s)
    done = queue.wait(record.job_id, timeout=timeout_s)
    return done, time.perf_counter() - t0


def test_job_queue_retry_backoff_bench(capsys):
    def flaky(record):
        if record.attempts == 1:
            raise JobError("transient")
        return {}

    def doomed(record):
        raise JobError("always")

    handlers = {
        "noop": lambda record: {},
        "flaky": flaky,
        "doomed": doomed,
        JOB_KIND_DETECTION: detection_handler(
            hook=lambda record, proc: proc.kill()
            if record.attempts == 1 else None),
    }
    with JobQueue(handlers, workers=2, retry_policy=POLICY) as queue:
        noop, noop_s = _timed(queue, "noop")
        flaky_rec, flaky_s = _timed(queue, "flaky")
        dead_rec, dead_s = _timed(queue, "doomed")
        detect, detect_s = _timed(queue, JOB_KIND_DETECTION,
                                  DETECTION_PARAMS,
                                  timeout_s=DETECTION_RETRY_LIMIT_S)

    assert noop.status == SUCCEEDED
    assert noop_s < QUEUE_OVERHEAD_LIMIT_S
    # One retry: the measured latency brackets the policy's backoff.
    assert flaky_rec.status == SUCCEEDED and flaky_rec.attempts == 2
    assert flaky_s >= POLICY.backoff_s(1)
    # Budget exhaustion: 3 attempts, two backoffs, then dead-letter.
    assert dead_rec.status == DEAD and dead_rec.attempts == 3
    assert dead_s >= POLICY.backoff_s(1) + POLICY.backoff_s(2)
    # The acceptance scenario against real workers: first attempt
    # SIGKILLed, the retry completes the detection run.
    assert detect.status == SUCCEEDED and detect.attempts == 2
    assert detect_s < DETECTION_RETRY_LIMIT_S

    rows = [
        ("noop_success", noop_s, 1),
        ("flaky_one_retry", flaky_s, 2),
        ("dead_letter", dead_s, 3),
        ("detection_killed_once", detect_s, 2),
    ]
    with capsys.disabled():
        print_table(
            "Job queue retry/backoff smoke",
            f"{'path':24s} {'seconds':>9s} {'attempts':>9s}",
            [f"{label:24s} {seconds:9.3f} {attempts:9d}"
             for label, seconds, attempts in rows],
        )
    append_trajectory({
        "bench": "job_queue_retry_smoke",
        "backoff_base_s": POLICY.backoff_base_s,
        "max_restarts": POLICY.max_restarts,
        "noop_seconds": round(noop_s, 4),
        "retry_seconds": round(flaky_s, 4),
        "dead_letter_seconds": round(dead_s, 4),
        "detection_retry_seconds": round(detect_s, 4),
        "queue_overhead_seconds": round(
            flaky_s - POLICY.backoff_s(1), 4),
    })
