"""A wrong output must show up as a failed operation."""

import dataclasses

import numpy as np
import pytest

import checks
import workloads
from measure import Outcome, measure_rounds
from noise import ReferenceKernel, Timer
from programs import RoundProgram, round_config
from repro.protocol.messages import BlindedReport, CellVector
from repro.protocol.transport import InMemoryTransport
from repro.types import ConfusionCounts


def tiny_inputs() -> workloads.RoundInputs:
    inputs = workloads.generate("army_big_cliques", 5)
    users = inputs.user_ids[:8]
    return dataclasses.replace(
        inputs, user_ids=users, cms_width=64,
        ads_of={uid: inputs.ads_of[uid][:4] for uid in users})


class CorruptingTransport(InMemoryTransport):
    """Adds 1 to one cell of the first report of every round."""

    def __init__(self) -> None:
        super().__init__()
        self._tampered = set()

    def send(self, sender, recipient, message):
        if isinstance(message, BlindedReport) \
                and message.round_id not in self._tampered:
            self._tampered.add(message.round_id)
            cells = np.array(message.cells.array, dtype=np.uint64)
            cells[0] = (cells[0] + 1) % (1 << 32)
            message = dataclasses.replace(message, cells=CellVector(cells))
        return super().send(sender, recipient, message)


def run_one_round(transport=None):
    inputs = tiny_inputs()
    program = RoundProgram(inputs, transport=transport)
    program.setup()
    try:
        pairs = workloads.pairs_of(inputs.ads_of)
        expected = checks.plain_sum(round_config(inputs),
                                    program.ad_mapper(), pairs)
        return checks.check_round(program.op(), inputs.user_ids, expected,
                                  len(pairs))
    finally:
        program.close()


def test_a_correct_round_passes_every_check():
    assert run_one_round() == []


def test_a_corrupted_report_fails_the_round():
    reasons = run_one_round(CorruptingTransport())
    assert any("plain sum" in reason for reason in reasons)
    assert any("cancel" in reason for reason in reasons)


def test_failed_share_rises_above_zero_in_a_measured_run(monkeypatch):
    import measure
    monkeypatch.setattr(measure, "SETUPS", 1)
    corrupt = CorruptingTransport()
    monkeypatch.setattr(
        measure, "RoundProgram",
        lambda inputs: RoundProgram(inputs, transport=corrupt))
    outcome = Outcome()
    timer = Timer(ReferenceKernel())
    measure_rounds(tiny_inputs(), 3, timer, outcome)
    assert outcome.attempted == 1 + measure.WARMUPS + 3
    assert outcome.failed == measure.WARMUPS + 3
    metrics = measure.fold(timer, outcome, peak_rss_mb=1.0)
    assert metrics["passed_share"][0] == pytest.approx(1 / 6)


def test_a_lost_user_fails_the_round():
    inputs = tiny_inputs()
    program = RoundProgram(inputs)
    program.setup()
    try:
        pairs = workloads.pairs_of(inputs.ads_of)
        expected = checks.plain_sum(round_config(inputs),
                                    program.ad_mapper(), pairs)
        program.session.army.drop_users([inputs.user_ids[0]])
        reasons = checks.check_round(program.op(), inputs.user_ids, expected,
                                     len(pairs))
    finally:
        program.close()
    assert any("lost users" in reason for reason in reasons)


def test_quality_floor_and_oracle_agreement():
    counts = ConfusionCounts(tp=1, fp=9, tn=100, fn=9)
    assert len(checks.check_quality(counts, (0.2, 0.4))) == 2
    assert checks.check_quality(ConfusionCounts(tp=9, fp=1, fn=1),
                                (0.2, 0.4)) == []
    assert checks.quality_floor(12) != checks.quality_floor(1234)
    assert checks.check_against_oracle([], {("u", "a"): None}) != []
