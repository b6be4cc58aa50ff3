"""A released clique sum never covers fewer than two reporters.

A survivor's recovery adjustment cancels the pads it shares with the
peers a notice names missing. Named all of its peers, it would cancel
every pad left in its report, and its report plus adjustment would be
its cleartext sketch. Two parties keep that from happening:

* the honest clique aggregator sends no notice to a lone reporter: it
  drops the report, counts the reporter missing and releases the
  all-zero partial (``test_reference_round.py`` pins that round against
  the reference, a mutation included);
* the party whose data is at stake, an object client or a client army,
  answers a notice only if its clique keeps two reporters, whatever the
  aggregator asks. The :class:`CuriousAggregator` below asks.
"""

import numpy as np
import pytest

from repro.errors import BlindingError
from repro.protocol import client as client_module
from repro.protocol.aggregator import CliqueAggregator
from repro.protocol.army import ClientArmy
from repro.protocol.client import RoundConfig, keeps_reporters
from repro.protocol.enrollment import enroll_users
from repro.protocol.messages import BlindedReport, BlindingAdjustment, \
    MissingClientsNotice
from repro.protocol.runner import (
    ClientPopulation,
    ProtocolRunner,
    build_aggregation_tree,
)
from repro.protocol.transport import InMemoryTransport

CONFIG = RoundConfig(cms_depth=3, cms_width=16, cms_seed=5, id_space=150)
USERS = [f"user-{i:02d}" for i in range(6)]
#: At seed 1 clique 0 is users 0, 2 and 4.
TARGET = "user-00"
ROUND = 5


class CuriousAggregator(CliqueAggregator):
    """A clique aggregator with the real interface that, once every
    member reported, names all of ``target``'s peers missing: an answer
    would hand it the pads that unblind ``target``'s report. It keeps
    what it is sent in ``harvest`` and then releases as usual."""

    def __init__(self, *args, target, **kwargs):
        super().__init__(*args, **kwargs)
        self.target = target
        self.asked = False
        self.harvest = []

    def on_message(self, sender, message):
        if isinstance(message, BlindingAdjustment):
            self.harvest.append(message)
            return []
        return super().on_message(sender, message)

    def on_idle(self, round_id):
        if not self.asked and len(self._reports) == len(self.index_of):
            self.asked = True
            peers = tuple(sorted(index for user, index in self.index_of.items()
                                 if user != self.target))
            return [(self.target, MissingClientsNotice(
                round_id=round_id, missing_indexes=peers,
                clique_id=self.clique_id))]
        return super().on_idle(round_id)


def curious_round(backend):
    """One round of six users in two cliques at seed 1 whose clique 0
    is served by a curious aggregator; returns (the aggregator, the
    round result, the transcript, the target's ad ids)."""
    urls = {user: [f"http://ads.example/{i}", f"http://ads.example/{i + 1}"]
            for i, user in enumerate(USERS)}
    if backend == "batched":
        population = ClientArmy.enroll(USERS, CONFIG, seed=1, use_oprf=False,
                                       num_cliques=2)
        for user in USERS:
            population.observe_ads(user, urls[user])
        mapper = population.ad_mapper
    else:
        enrollment = enroll_users(USERS, CONFIG, seed=1, use_oprf=False,
                                  num_cliques=2)
        for client in enrollment.clients:
            for url in urls[client.user_id]:
                client.observe_ad(url)
        population = ClientPopulation(enrollment.clients)
        mapper = enrollment.ad_mapper
    members = population.members()
    assert sorted(members[0]) == ["user-00", "user-02", "user-04"]
    tree, root = build_aggregation_tree(CONFIG, members, USERS)
    curious = CuriousAggregator(0, CONFIG, members[0], target=TARGET)
    tree = [curious if isinstance(e, CliqueAggregator) and e.clique_id == 0
            else e for e in tree]
    transport = InMemoryTransport(record_transcript=True)
    runner = ProtocolRunner([*population.endpoints, *tree], root, transport)
    population.register_mailboxes(transport)
    result = runner.run_round(ROUND)
    return curious, result, transport.transcript, \
        [mapper.ad_id(url) for url in urls[TARGET]]


@pytest.mark.parametrize("backend", ["objects", "batched"])
def test_neither_backend_answers_a_notice_naming_all_peers(backend):
    curious, result, transcript, _ = curious_round(backend)
    assert curious.asked
    assert curious.harvest == []
    assert not any(isinstance(m, BlindingAdjustment)
                   for _sender, _recipient, m in transcript)
    # The round itself completes: nobody was really missing.
    assert sorted(result.reported_users) == USERS
    assert result.missing_users == []


def test_without_the_client_floor_the_curious_aggregator_unblinds(
        monkeypatch):
    """The control: with the floor at one, the object client answers,
    and its report plus its adjustment is its cleartext sketch."""
    monkeypatch.setattr(client_module, "MIN_REPORTERS", 1)
    curious, _result, transcript, ad_ids = curious_round("objects")
    (adjustment,) = curious.harvest
    report = next(m for _sender, _recipient, m in transcript
                  if isinstance(m, BlindedReport) and m.user_id == TARGET)
    cleartext = CONFIG.make_sketch()
    cleartext.update_many(ad_ids)
    leaked = report.cells_as_array() + adjustment.cells_as_array()
    assert np.array_equal(leaked, cleartext.cells_array.astype(np.uint32))


def test_without_the_floor_an_army_raises_instead_of_declining(
        monkeypatch):
    """The army also knows who reported, so without the floor it raises
    instead of answering; the floor makes it decline quietly."""
    monkeypatch.setattr(client_module, "MIN_REPORTERS", 1)
    with pytest.raises(BlindingError):
        curious_round("batched")


@pytest.mark.parametrize("members, missing, keeps", [
    ((0, 2, 4), (2, 4), False),
    ((0, 2, 4), (2,), True),
    ((0, 2, 4), (), True),
    ((0, 1), (1,), False),
    ((0, 1), (7,), True),  # a non-member named missing removes no one
    ((0,), (), False),
])
def test_keeps_reporters(members, missing, keeps):
    assert keeps_reporters(members, missing) is keeps
