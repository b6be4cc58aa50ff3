"""The job queue: retries with backoff, dead-letter, subprocess workers.

The acceptance properties: a detection job whose first attempt is
killed still succeeds on a retry (deterministically — same seed, same
answer), and a job that exhausts ``max_restarts + 1`` attempts lands in
a queryable dead-letter state with its full failure history. Fast toy
handlers cover the queue mechanics; one subprocess test exercises the
real detection worker end to end.
"""

import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.protocol.net import RetryPolicy
from repro.service.jobs import (
    DEAD,
    QUEUED,
    SUCCEEDED,
    JobError,
    JobQueue,
    JobRecord,
)
from repro.service.jobworker import (
    JOB_KIND_DETECTION,
    detection_handler,
    run_detection_job,
)

FAST = RetryPolicy(max_restarts=2, backoff_base_s=0.01,
                   backoff_factor=2.0, backoff_max_s=0.05)


def flaky(fail_times):
    """A handler that fails its first ``fail_times`` attempts."""

    def handle(record: JobRecord):
        if record.attempts <= fail_times:
            raise JobError(f"transient failure #{record.attempts}")
        return {"ok": True, "attempts": record.attempts}

    return handle


class TestQueueMechanics:
    def test_submit_poll_result(self):
        with JobQueue({"ok": lambda r: {"ran": r.params["x"]}},
                      retry_policy=FAST) as queue:
            record = queue.submit("ok", {"x": 41})
            assert record.job_id == "job-1"
            done = queue.wait(record.job_id, timeout=10)
            assert done.status == SUCCEEDED
            assert done.result == {"ran": 41}
            assert done.attempts == 1
            assert done.failures == []

    def test_unknown_kind_refused(self):
        with JobQueue({"ok": lambda r: {}}, retry_policy=FAST) as queue:
            with pytest.raises(ConfigurationError, match="unknown job kind"):
                queue.submit("nope")

    def test_bad_timeout_refused(self):
        with JobQueue({"ok": lambda r: {}}, retry_policy=FAST) as queue:
            with pytest.raises(ConfigurationError, match="positive"):
                queue.submit("ok", timeout_s=0)

    def test_zero_workers_refused(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            JobQueue({"ok": lambda r: {}}, workers=0)

    def test_unknown_job_is_a_key_error(self):
        with JobQueue({"ok": lambda r: {}}, retry_policy=FAST) as queue:
            with pytest.raises(KeyError):
                queue.get("job-99")
            with pytest.raises(KeyError):
                queue.wait("job-99", timeout=0.1)

    def test_wait_times_out_on_a_slow_job(self):
        release = threading.Event()
        with JobQueue({"slow": lambda r: release.wait(10) and {}},
                      retry_policy=FAST) as queue:
            record = queue.submit("slow")
            with pytest.raises(TimeoutError):
                queue.wait(record.job_id, timeout=0.05)
            # Let the job finish, so closing the queue does not wait.
            release.set()

    def test_closed_queue_refuses_submission(self):
        queue = JobQueue({"ok": lambda r: {}}, retry_policy=FAST)
        queue.close()
        with pytest.raises(ConfigurationError, match="closed"):
            queue.submit("ok")


class TestRetries:
    def test_flaky_job_succeeds_within_budget(self):
        with JobQueue({"flaky": flaky(2)}, retry_policy=FAST) as queue:
            record = queue.submit("flaky")
            done = queue.wait(record.job_id, timeout=10)
            assert done.status == SUCCEEDED
            assert done.attempts == 3  # max_restarts=2 -> 3 attempts
            assert len(done.failures) == 2
            assert done.failures[0].startswith("attempt 1:")
            assert done.error is None

    def test_retry_waits_out_the_backoff(self):
        """Attempt n+1 starts no earlier than backoff_s(n) after the
        failure — the supervisor's exponential arithmetic."""
        stamps = []

        def handle(record: JobRecord):
            stamps.append(time.monotonic())
            if record.attempts == 1:
                raise JobError("fail once")
            return {}

        policy = RetryPolicy(max_restarts=2, backoff_base_s=0.2,
                             backoff_factor=2.0, backoff_max_s=1.0)
        with JobQueue({"h": handle}, retry_policy=policy) as queue:
            record = queue.submit("h")
            queue.wait(record.job_id, timeout=10)
        assert stamps[1] - stamps[0] >= policy.backoff_s(1)

    def test_backoff_does_not_block_other_jobs(self):
        """A cooling-off job must not head-of-line block the queue."""
        policy = RetryPolicy(max_restarts=1, backoff_base_s=0.5,
                             backoff_factor=1.0, backoff_max_s=0.5)
        with JobQueue({"flaky": flaky(1), "ok": lambda r: {"ok": True}},
                      workers=1, retry_policy=policy) as queue:
            slow = queue.submit("flaky")
            quick = queue.submit("ok")
            start = time.monotonic()
            queue.wait(quick.job_id, timeout=10)
            assert time.monotonic() - start < 0.5
            assert queue.wait(slow.job_id, timeout=10).status == SUCCEEDED


class TestDeadLetter:
    def test_budget_exhaustion_lands_in_dead_letter(self):
        with JobQueue({"doomed": flaky(99)}, retry_policy=FAST) as queue:
            record = queue.submit("doomed")
            done = queue.wait(record.job_id, timeout=10)
            assert done.status == DEAD
            assert done.attempts == 3
            assert len(done.failures) == 3
            assert "dead after 3/3 attempts" in done.error

    def test_dead_letter_is_queryable(self):
        with JobQueue({"doomed": flaky(99), "ok": lambda r: {}},
                      retry_policy=FAST) as queue:
            doomed = queue.submit("doomed")
            fine = queue.submit("ok")
            queue.wait(doomed.job_id, timeout=10)
            queue.wait(fine.job_id, timeout=10)
            dead = queue.list_jobs(status=DEAD)
            assert [r.job_id for r in dead] == [doomed.job_id]
            assert [r.job_id for r in queue.list_jobs(status=SUCCEEDED)] \
                == [fine.job_id]
            assert len(queue.list_jobs()) == 2

    def test_list_refuses_unknown_status(self):
        with JobQueue({"ok": lambda r: {}}, retry_policy=FAST) as queue:
            with pytest.raises(ConfigurationError, match="unknown job"):
                queue.list_jobs(status="zombie")

    def test_unrun_jobs_stay_queued_after_close(self):
        started = threading.Event()
        release = threading.Event()

        def block(record: JobRecord):
            started.set()
            release.wait(5)
            return {}

        queue = JobQueue({"block": block, "ok": lambda r: {}},
                         workers=1, retry_policy=FAST)
        queue.submit("block")
        waiting = queue.submit("ok")
        assert started.wait(5)
        release.set()
        queue.close()
        assert queue.get(waiting.job_id).status in (QUEUED, SUCCEEDED)


class TestDetectionWorker:
    """The real subprocess worker behind ``kind="detection"``."""

    PARAMS = {"users": 12, "websites": 8, "visits": 4, "seed": 5,
              "private": True}

    def test_kill_first_attempt_then_retry_succeeds(self):
        """The acceptance scenario: SIGKILL the first worker process;
        the retry reproduces the same deterministic answer. The hook
        runs before the params are written to the worker's stdin, and
        the worker blocks reading them, so the kill always lands on a
        live process."""
        killed = []

        def kill_first(record, proc):
            if record.attempts == 1:
                proc.kill()
                killed.append(proc.pid)

        handlers = {JOB_KIND_DETECTION: detection_handler(hook=kill_first)}
        with JobQueue(handlers, retry_policy=FAST) as queue:
            record = queue.submit(JOB_KIND_DETECTION, dict(self.PARAMS),
                                  timeout_s=60)
            done = queue.wait(record.job_id, timeout=60)
            assert done.status == SUCCEEDED
            assert done.attempts == 2
            assert killed and f"pid {killed[0]}" in done.failures[0]
            # Deterministic in seed: the retry's answer is the same one
            # the killed attempt would have produced.
            expected = run_detection_job(dict(self.PARAMS))
            assert done.result == expected

    def test_timeout_kills_the_worker_and_fails_the_attempt(self):
        policy = RetryPolicy(max_restarts=0, backoff_base_s=0.01,
                             backoff_factor=1.0, backoff_max_s=0.01)
        handlers = {JOB_KIND_DETECTION: detection_handler()}
        with JobQueue(handlers, retry_policy=policy) as queue:
            record = queue.submit(JOB_KIND_DETECTION,
                                  dict(self.PARAMS, delay_s=30),
                                  timeout_s=0.5)
            done = queue.wait(record.job_id, timeout=30)
            assert done.status == DEAD
            assert "timeout" in done.failures[0]

    def test_fail_knob_reaches_dead_letter_through_real_workers(self):
        handlers = {JOB_KIND_DETECTION: detection_handler()}
        with JobQueue(handlers, retry_policy=FAST) as queue:
            record = queue.submit(JOB_KIND_DETECTION, {"fail": True},
                                  timeout_s=30)
            done = queue.wait(record.job_id, timeout=60)
            assert done.status == DEAD
            assert all("exited 1" in f for f in done.failures)
