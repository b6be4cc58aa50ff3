"""End to end: a real ``repro serve`` process, driven from outside.

The acceptance scenario, verbatim: boot the service via the CLI in a
separate process, enroll clients over HTTP, run a full private round
through the API, read the round summary back from this (second)
process, and assert the aggregate / distribution / threshold are
**bit-identical** to an in-memory-transport run of the same enrollment.
Then shut the service down cleanly over HTTP.
"""

import base64
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from repro.api import SessionConfig, run_private_round
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.service.client import (
    OperatorClient,
    RemoteClient,
    run_remote_round,
)

SEED = 23
CLIQUES = 2
USERS = [f"u{i:02d}" for i in range(6)]
URLS = {uid: [f"http://ads.example/{i % 3}", f"http://ads.example/x{i}"]
        for i, uid in enumerate(USERS)}
CONFIG = RoundConfig(cms_depth=4, cms_width=128, cms_seed=SEED,
                     id_space=4096)


@pytest.fixture(scope="module")
def served():
    """``python -m repro.cli serve`` in a child process; yields
    (operator, host, port, proc)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--seed", str(SEED), "--cliques", str(CLIQUES),
         "--cms-depth", str(CONFIG.cms_depth),
         "--cms-width", str(CONFIG.cms_width),
         "--id-space", str(CONFIG.id_space)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env)
    token = address = None
    try:
        assert proc.stdout is not None
        for _ in range(2):
            line = proc.stdout.readline().strip()
            if line.startswith("operator token: "):
                token = line.removeprefix("operator token: ")
            elif line.startswith("serving on http://"):
                address = line.removeprefix("serving on http://")
        assert token and address, f"unexpected startup lines (token="\
            f"{token!r}, address={address!r})"
        host, port_text = address.rsplit(":", 1)
        operator = OperatorClient(host, int(port_text), token)
        yield operator, host, int(port_text), proc
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(10)


class TestServeEndToEnd:
    """One ordered story against a single served process (the fixture
    is module-scoped; tests run in definition order)."""

    remotes = {}
    summary = None

    def test_healthz_and_empty_status(self, served):
        operator, host, port, _proc = served
        status = operator.status()
        assert status["epoch"] is None
        assert status["roster_size"] == 0
        assert status["transport"] == "wire"

    def test_enroll_over_http_and_advance_epoch(self, served):
        operator, host, port, _proc = served
        for uid in USERS:
            remote = RemoteClient(host, port, uid)
            remote.enroll()
            type(self).remotes[uid] = remote
        epoch = operator.advance_epoch()
        assert epoch["epoch"] == 0
        assert epoch["size"] == len(USERS)
        assert epoch["num_cliques"] == CLIQUES

    def test_sync_rebuilds_clients_and_round_runs(self, served):
        operator, _host, _port, _proc = served
        for uid, remote in self.remotes.items():
            remote.sync()
            for url in URLS[uid]:
                remote.observe(url)
        result = run_remote_round(operator, list(self.remotes.values()))
        type(self).summary = result
        assert result["round_id"] == 0
        assert sorted(result["reported_users"]) == USERS
        assert result["missing_users"] == []
        # Every client heard the broadcast the operator computed.
        for remote in self.remotes.values():
            assert remote.last_threshold == result["users_threshold"]

    def test_synced_clients_blind_alone(self, served):
        """A device's replay hosts the whole panel, yet its client holds
        no pad-stream provider after ``sync`` and ``begin_round``: no
        peer in its process would build the sums it folds."""
        for remote in self.remotes.values():
            assert remote.client is not None
            assert remote.client.blinding.pad_streams is None

    def test_summary_is_bit_identical_to_in_memory_run(self, served):
        """The tentpole acceptance assertion, across two real
        processes."""
        operator, _host, _port, _proc = served
        summary = operator.summary(0)
        assert summary == self.summary
        enrollment = enroll_users(sorted(USERS), CONFIG, seed=SEED,
                                  use_oprf=False, num_cliques=CLIQUES)
        for client in enrollment.clients:
            for url in URLS[client.user_id]:
                client.observe_ad(url)
        reference = run_private_round(
            CONFIG, enrollment.clients, round_id=0,
            settings=SessionConfig(transport="memory"))
        served_cells = np.frombuffer(
            base64.b64decode(summary["cells"]), dtype=">u8")
        assert np.array_equal(
            served_cells.astype(np.uint64),
            reference.aggregate.cells_array)
        assert summary["distribution"] == \
            list(reference.distribution.values)
        assert summary["users_threshold"] == reference.users_threshold
        snapshot = operator.snapshot(0)
        assert snapshot["round_result"] == summary
        assert snapshot["users_threshold"] == reference.users_threshold

    def test_shutdown_is_clean(self, served):
        operator, _host, _port, proc = served
        answer = operator.shutdown()
        assert answer["shutting_down"] is True
        assert proc.wait(30) == 0
