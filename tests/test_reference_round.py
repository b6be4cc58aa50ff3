"""The aggregation tree and both client backends against the reference.

``tests/reference_round.py`` computes a round from the paper's formulas
with code that shares nothing with the protocol (``test_layering.py``
pins its imports). Here every message a session delivers — each blinded
report, recovery notice, adjustment, partial aggregate and threshold
broadcast — and the root's summary must equal what the reference says,
for random populations, clique counts, tree fan-ins, dropouts (a whole
clique included), both client backends and the memory and wire
transports.

The oracle is only worth having if it catches real bugs, so five
mutations of the protocol code are each run against a fixed example and
against the property's own example budget, and each must fail:

* one pair slot's ``+=``/``-=`` swapped in the army's scatter — the
  pads still cancel in the sum, so only the reports show it;
* the big-endian read of the pad XOF dropped in the army's squeeze —
  likewise invisible in the sum;
* an army survivor that skips one adjustment;
* a clique release that leaves the adjustments out of its partial;
* a clique aggregator that sends a lone reporter the recovery notice
  (the floor of two reporters dropped on the aggregator's side).
"""

import dataclasses
from collections import Counter
from types import SimpleNamespace
from typing import NamedTuple, Optional, Tuple

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from reference_round import ReferenceRound
from repro.api import ProtocolSession, SessionConfig
from repro.crypto import blinding as blinding_module
from repro.errors import MissingReportError
from repro.protocol import aggregator as aggregator_module
from repro.protocol.aggregator import CliqueAggregator
from repro.protocol.army import ClientArmy
from repro.protocol.client import RoundConfig
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    CellVector,
    MissingClientsNotice,
    PartialAggregate,
    ThresholdBroadcast,
)
from repro.protocol.transport import InMemoryTransport, WireTransport

CONFIG = RoundConfig(cms_depth=3, cms_width=16, cms_seed=5, id_space=150)
URLS = [f"http://ads.example/{i}" for i in range(10)]
TRANSPORTS = {"memory": InMemoryTransport, "wire": WireTransport}

#: The property's example budget (hypothesis's default); every mutation
#: must fail within it.
EXAMPLES = settings().max_examples


class Case(NamedTuple):
    """One round to run: the population, its wiring and its dropouts."""

    num_users: int
    num_cliques: int
    fan_in: Optional[int]
    backend: str
    transport: str
    #: Per user (roster order), the indexes into URLS it saw.
    seen: Tuple[Tuple[int, ...], ...]
    #: Roster positions whose reports never arrive.
    dropped: Tuple[int, ...]
    #: A clique all of whose members drop out, if any.
    dead_clique: Optional[int]
    round_id: int
    seed: int


@st.composite
def cases(draw) -> Case:
    num_users = draw(st.integers(2, 40))
    num_cliques = draw(st.integers(1, num_users // 2))
    seen = draw(st.lists(
        st.sets(st.integers(0, len(URLS) - 1), max_size=4).map(
            lambda s: tuple(sorted(s))),
        min_size=num_users, max_size=num_users))
    return Case(
        num_users=num_users, num_cliques=num_cliques,
        fan_in=draw(st.sampled_from([None, 2, 3])),
        backend=draw(st.sampled_from(["objects", "batched"])),
        transport=draw(st.sampled_from(sorted(TRANSPORTS))),
        seen=tuple(seen),
        dropped=tuple(draw(st.sets(st.integers(0, num_users - 1),
                                   max_size=num_users // 2))),
        dead_clique=draw(st.one_of(
            st.none(), st.integers(0, num_cliques - 1))),
        round_id=draw(st.integers(0, 2**32 - 1)),  # the wire header's range
        seed=draw(st.integers(0, 2**16)))


def run(case: Case):
    """Run the case; returns (session, the round's result, the users
    that dropped out, the delivered-message transcript)."""
    users = [f"user-{i:02d}" for i in range(case.num_users)]
    transport = TRANSPORTS[case.transport](record_transcript=True)
    session = ProtocolSession.create(
        users, CONFIG,
        SessionConfig(transport=transport, client_backend=case.backend,
                      fan_in=case.fan_in),
        seed=case.seed, use_oprf=False, num_cliques=case.num_cliques)
    clique_of = session.membership.epoch.clique_of
    dropped = {users[i] for i in case.dropped}
    dropped |= {u for u in users if clique_of[u] == case.dead_clique}
    reporters = Counter(clique_of[u] for u in users if u not in dropped)
    if max(reporters.values(), default=0) < 2:
        # A round needs one clique that keeps two reporters.
        dropped -= {u for u in users if clique_of[u] == clique_of[users[0]]}
    for user, seen in zip(users, case.seen):
        for i in seen:
            if case.backend == "batched":
                session.army.observe_ad(user, URLS[i])
            else:
                session.membership.client_of(user).observe_ad(URLS[i])
    session.drop_users(sorted(dropped))
    try:
        result = session.run_round(case.round_id)
    finally:
        session.close()
    return session, result, dropped, transport.transcript


def reference_for(session, case: Case, dropped) -> ReferenceRound:
    """The reference round over the session's enrolled key material
    (read white-box from its membership)."""
    membership = session.membership
    keys = SimpleNamespace(group=membership.group,
                           keypairs=membership._keypairs,
                           index_of=membership._index_of,
                           clique_of=membership.epoch.clique_of)
    mapper = membership.ad_mapper
    ad_ids = {f"user-{i:02d}": [mapper.ad_id(URLS[j]) for j in seen]
              for i, seen in enumerate(case.seen)}
    return ReferenceRound(keys, ad_ids, case.round_id, dropped, CONFIG)


def cells(message) -> list:
    return message.cells_as_array().tolist()


def summed(*vectors) -> list:
    """Cell-wise sum mod 2^32 (all zeros for no vectors)."""
    total = [0] * CONFIG.num_cells
    for vector in vectors:
        total = [(a + b) % 2**32 for a, b in zip(total, vector)]
    return total


def check(case: Case) -> None:
    """Every delivered message and the root summary equal the
    reference's."""
    session, result, dropped, transcript = run(case)
    ref = reference_for(session, case, dropped)
    clique_of = session.membership.epoch.clique_of
    index_of = session.membership._index_of
    reports, adjustments = {}, {}
    for _sender, recipient, message in transcript:
        assert message.round_id == case.round_id
        if isinstance(message, BlindedReport):
            assert message.user_id not in reports
            reports[message.user_id] = cells(message)
        elif isinstance(message, BlindingAdjustment):
            assert message.user_id not in adjustments
            adjustments[message.user_id] = cells(message)
        elif isinstance(message, MissingClientsNotice):
            assert recipient in ref.reports
            assert clique_of[recipient] == message.clique_id
            assert list(message.missing_indexes) == sorted(
                index_of[u] for u in ref.missing
                if clique_of[u] == message.clique_id)
        elif isinstance(message, PartialAggregate):
            expected = summed(
                *(ref.reports[u] for u in message.reported),
                *(ref.adjustments[u] for u in message.reported
                  if u in ref.adjustments))
            assert cells(message) == expected
            assert set(message.reported) <= set(ref.reported)
            assert set(message.missing) <= set(ref.missing)
        else:
            assert isinstance(message, ThresholdBroadcast)
            assert message.users_threshold == ref.users_threshold
    assert reports == ref.reports
    assert adjustments == ref.adjustments
    assert result.aggregate.cells == tuple(ref.root_cells)
    assert list(result.distribution.values) == ref.distribution
    assert result.users_threshold == ref.users_threshold
    assert sorted(result.reported_users) == ref.reported
    assert sorted(result.missing_users) == ref.missing
    assert result.recovery_round_used == bool(ref.missing)


@settings(deadline=None)
@given(case=cases())
def test_every_message_matches_the_reference(case):
    check(case)


#: Fixed examples: two cliques of three behind a fan-in-2 tree, one
#: member of each clique dropping out.
FIXED = Case(num_users=6, num_cliques=2, fan_in=2, backend="batched",
             transport="memory", seen=((0, 1), (1,), (2, 3), (), (4,), (0,)),
             dropped=(1,), dead_clique=None, round_id=3, seed=7)


#: A lone survivor: clique 0 is users 0, 2 and 4 at seed 1, and 2 and 4
#: drop out. User 0's report must not be released (its adjustment would
#: have cancelled every pad left in it): it counts missing.
LONE = Case(num_users=6, num_cliques=2, fan_in=None, backend="batched",
            transport="memory", seen=((0, 1, 2), (1,), (3,), (4, 5), (6,),
                                      (0, 7)),
            dropped=(2, 4), dead_clique=None, round_id=5, seed=1)


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
@pytest.mark.parametrize("backend", ["objects", "batched"])
def test_a_fixed_round_matches_the_reference(backend, transport):
    check(FIXED._replace(backend=backend, transport=transport))
    check(FIXED._replace(backend=backend, transport=transport,
                         dropped=(), dead_clique=1))


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
@pytest.mark.parametrize("backend", ["objects", "batched"])
def test_a_lone_survivor_is_counted_missing(backend, transport):
    case = LONE._replace(backend=backend, transport=transport)
    check(case)
    session, result, dropped, transcript = run(case)
    assert result.missing_users == ["user-00", "user-02", "user-04"]
    assert not any(isinstance(m, (MissingClientsNotice, BlindingAdjustment))
                   for _sender, _recipient, m in transcript)
    partial = next(m for _sender, _recipient, m in transcript
                   if isinstance(m, PartialAggregate) and m.clique_id == 0)
    assert partial.reported == ()
    assert not partial.cells_as_array().any()


def test_the_reference_recovers_the_cleartext_sum():
    """The reference is right on its own terms: its root cells are the
    reporters' plain sketches summed, its pads cancel."""
    session, _result, dropped, _transcript = run(FIXED)
    ref = reference_for(session, FIXED, dropped)
    mapper = session.membership.ad_mapper
    total = CONFIG.make_sketch()
    for i, seen in enumerate(FIXED.seen):
        if f"user-{i:02d}" not in dropped:
            total.update_many([mapper.ad_id(URLS[j]) for j in seen])
    assert ref.root_cells == list(total.cells)
    assert all(report != list(total.cells) for report in
               ref.reports.values())


# ---------------------------------------------------------------------------
# Mutations the oracle must catch
# ---------------------------------------------------------------------------

def swap_one_slot(monkeypatch):
    scatter = blinding_module._scatter_slots

    def swapped(cells, slots, plus, minus):
        return scatter(cells, slots, [minus[0], *plus[1:]],
                       [plus[0], *minus[1:]])

    monkeypatch.setattr(blinding_module, "_scatter_slots", swapped)


def drop_the_byteswap(monkeypatch):
    def native_order(secrets, num_pairs, round_id, num_cells):
        num_cliques = len(secrets) // num_pairs if num_pairs else 0
        rows = np.empty((num_cliques, num_cells), dtype=np.uint32)
        round_bytes = blinding_module._round_bytes(round_id)
        for slot in range(num_pairs):
            for k, secret in enumerate(secrets[slot::num_pairs]):
                rows[k] = np.frombuffer(blinding_module._pad_bytes(
                    secret, round_bytes, num_cells), dtype=np.uint32)
            yield rows

    monkeypatch.setattr(blinding_module, "_squeezed_slots", native_order)


def skip_one_adjustment(monkeypatch):
    build = ClientArmy._build_adjustments

    def skipping(self, *args, **kwargs):
        return build(self, *args, **kwargs)[1:]

    monkeypatch.setattr(ClientArmy, "_build_adjustments", skipping)


def notice_a_lone_reporter(monkeypatch):
    monkeypatch.setattr(aggregator_module, "MIN_REPORTERS", 1)


def release_without_adjustments(monkeypatch):
    release = CliqueAggregator._release

    def reports_only(self, round_id, missing):
        partial = release(self, round_id, missing)
        total = np.zeros(CONFIG.num_cells, dtype=np.uint32)
        for report in self._reports.values():
            total += report.cells_as_array()
        return dataclasses.replace(partial, cells=CellVector(total))

    monkeypatch.setattr(CliqueAggregator, "_release", reports_only)


#: Each mutation, and how the comparison notices it: a report or partial
#: that differs from the reference, a notice the reference does not
#: send, or a round the root cannot release (a lone reporter's client
#: refuses the notice, so its clique never completes recovery).
MUTATIONS = {swap_one_slot: AssertionError,
             drop_the_byteswap: AssertionError,
             skip_one_adjustment: MissingReportError,
             release_without_adjustments: AssertionError,
             notice_a_lone_reporter: (AssertionError, MissingReportError)}

#: The fixed example each mutation must fail: FIXED unless the mutation
#: only matters to a lone survivor.
FIXED_FOR = {notice_a_lone_reporter: LONE}


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
def test_each_mutation_fails_the_fixed_example(monkeypatch, mutate):
    mutate(monkeypatch)
    with pytest.raises(MUTATIONS[mutate]):
        check(FIXED_FOR.get(mutate, FIXED))


def examples_until_failure(monkeypatch, mutate=None) -> Optional[int]:
    """How many of the property's examples run until the first one fails
    the comparison under ``mutate`` (None: none did within the budget).
    Derandomized, so the count is reproducible; a failure of any other
    kind is raised."""
    ran, failed_at = [], []

    @settings(max_examples=EXAMPLES, deadline=None, database=None,
              derandomize=True, phases=[Phase.generate])
    @given(case=cases())
    def prop(case):
        ran.append(case)
        try:
            check(case)
        except MUTATIONS.get(mutate, AssertionError):
            failed_at.append(len(ran))
            raise

    if mutate is not None:
        mutate(monkeypatch)
    try:
        prop()
    except MUTATIONS.get(mutate, AssertionError):
        pass
    return failed_at[0] if failed_at else None


def test_the_derandomized_property_passes_unmutated(monkeypatch):
    """The control for the counts below: the same examples, no
    mutation, no failure."""
    assert examples_until_failure(monkeypatch) is None


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
def test_each_mutation_fails_the_property(monkeypatch, mutate):
    count = examples_until_failure(monkeypatch, mutate)
    print(f"{mutate.__name__}: failed at example {count}/{EXAMPLES}")
    assert count is not None
