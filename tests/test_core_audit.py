"""Tests for the real-time audit service."""

import pytest

from repro.api import ProtocolSession
from repro.core.audit import AuditService
from repro.core.detector import DetectorConfig
from repro.errors import RoundStateError
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.protocol.spec import WeeklySnapshot
from repro.types import Ad, Impression, Label

CONFIG = RoundConfig(cms_depth=4, cms_width=128, cms_seed=2, id_space=400)


class Backend:
    """A session plus the snapshot it retains from its last round — what
    ``AuditService`` is handed a view of."""

    def __init__(self, user_ids, seed):
        self.session = ProtocolSession.create(user_ids, CONFIG, seed=seed,
                                              use_oprf=False)
        self.latest = None

    def run_week(self, week):
        result = self.session.run_round(week)
        self.latest = WeeklySnapshot(
            week=week, users_threshold=result.users_threshold,
            distribution=result.distribution, round_result=result)
        self.session.reset_windows()


@pytest.fixture()
def backend():
    """Five users; everyone saw the popular ad, user u0 was stalked."""
    backend = Backend([f"u{i}" for i in range(5)], seed=9)
    clients = backend.session.clients
    for client in clients:
        client.observe_ad("http://popular.example/ad")
    clients[0].observe_ad("http://stalker.example/ad")
    backend.run_week(0)
    return backend


@pytest.fixture()
def world(backend):
    """u0's audit service over that back-end's latest snapshot."""
    mapper = backend.session.clients[0].ad_mapper
    return AuditService("u0", lambda: backend.latest, ad_id_of=mapper.ad_id,
                        config=DetectorConfig(min_ad_serving_domains=2))


def imp(user, url, domain, tick=0):
    return Impression(user_id=user, ad=Ad(url=url), domain=domain, tick=tick)


class TestAuditService:
    def test_needs_a_completed_round(self):
        enrollment = enroll_users(["a", "b"], CONFIG, seed=1, use_oprf=False)
        audit = AuditService("a", lambda: None,
                             ad_id_of=enrollment.clients[0].ad_mapper.ad_id)
        with pytest.raises(RoundStateError):
            audit.audit(Ad(url="http://x.example/ad"))

    def test_stalker_flagged(self, world):
        # Local view: background one-domain ads + the stalker on many.
        for i in range(3):
            world.observe(imp("u0", f"http://bg-{i}.example/a",
                              f"site-{i}.example"))
        for d in range(5):
            world.observe(imp("u0", "http://stalker.example/ad",
                              f"chase-{d}.example"))
        answer = world.audit(Ad(url="http://stalker.example/ad"))
        assert answer.verdict.label is Label.TARGETED
        assert answer.based_on_week == 0
        assert "TARGETED" in answer.explanation

    def test_popular_ad_not_flagged(self, world):
        for i in range(3):
            world.observe(imp("u0", f"http://bg-{i}.example/a",
                              f"site-{i}.example"))
        for d in range(4):
            world.observe(imp("u0", "http://popular.example/ad",
                              f"portal-{d}.example"))
        answer = world.audit(Ad(url="http://popular.example/ad"))
        assert answer.verdict.label is Label.NON_TARGETED
        assert "broad campaign" in answer.explanation

    def test_undecided_without_activity(self, world):
        world.observe(imp("u0", "http://only.example/ad", "one.example"))
        answer = world.audit(Ad(url="http://only.example/ad"))
        assert answer.verdict.label is Label.UNDECIDED
        assert "Not enough browsing data" in answer.explanation

    def test_within_range_explanation(self, world):
        for i in range(4):
            world.observe(imp("u0", f"http://bg-{i}.example/a",
                              f"site-{i}.example"))
        answer = world.audit(Ad(url="http://bg-0.example/a"))
        assert answer.verdict.label is Label.NON_TARGETED
        assert "normal range" in answer.explanation

    def test_new_window_resets_local_state(self, world):
        for i in range(4):
            world.observe(imp("u0", f"http://bg-{i}.example/a",
                              f"site-{i}.example"))
        world.new_window()
        answer = world.audit(Ad(url="http://bg-0.example/a"))
        assert answer.verdict.label is Label.UNDECIDED

    def test_uses_latest_week(self, world, backend):
        # Run a second, empty-ish week and confirm auditing tracks it.
        for client in backend.session.clients:
            client.observe_ad("http://week1.example/ad")
        backend.run_week(1)
        for i in range(4):
            world.observe(imp("u0", f"http://bg-{i}.example/a",
                              f"site-{i}.example"))
        answer = world.audit(Ad(url="http://bg-0.example/a"))
        assert answer.based_on_week == 1
