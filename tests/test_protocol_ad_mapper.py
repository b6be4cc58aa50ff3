"""One URL -> ad-id mapper per membership (paper §6, "CMS computation").

``id = F(k, url) mod |A|`` is a function of the URL alone — the blind-RSA
blinding factor cancels — so a panel maps each *distinct* URL once, for
both client backends, across windows and across epochs. Pinned here as
counts on ``oprf_server.evaluations`` (the evaluation counter of record),
never as timings:

* N users observing overlapping URLs cost ``len(distinct URLs)``
  evaluations; a window reset plus re-observation costs none; a joiner
  and a *returning* user pay only for URLs nobody had mapped;
* the shared mapper computes the OPRF server's function (checked against
  the ``evaluate_direct`` oracle) and both backends agree on every id;
* a private detection pipeline over churned weeks evaluates exactly the
  panel-new URLs of each warm week and still releases the plain sum of
  the per-user sketches;
* a resumed session starts from a cold mapper cache and still runs a
  bit-identical next round;
* a forged server reply is refused through the shared mapper, and
  nothing is cached for it.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ProtocolSession, SessionConfig
from repro.core.pipeline import DetectionPipeline
from repro.errors import OPRFError
from repro.protocol.client import RoundConfig
from repro.protocol.membership import CLIENT_BACKENDS
from repro.store import HistoryStore
from repro.types import TICKS_PER_WEEK, Ad, Impression

CONFIG = RoundConfig(cms_depth=3, cms_width=128, cms_seed=4, id_space=997)
USERS = [f"u{i}" for i in range(6)]
SHARED = [f"http://brand.example/{k}" for k in range(4)]


def make_session(client_backend, users=USERS, **kwargs):
    return ProtocolSession.create(
        users, CONFIG, SessionConfig(client_backend=client_backend),
        seed=21, use_oprf=True, num_cliques=2, **kwargs)


def observer_of(session):
    """user id -> ``observe_ad(url)`` for whichever backend hosts it."""
    if session.army is not None:
        return {uid: functools.partial(session.army.observe_ad, uid)
                for uid in session.army.user_ids}
    return {c.user_id: c.observe_ad for c in session.clients}


def observe(session, ads_of):
    observe_ad = observer_of(session)
    for uid, urls in ads_of.items():
        for url in urls:
            observe_ad[uid](url)


def overlapping_window(users):
    """Everyone sees the shared ads, plus one ad of their own."""
    return {uid: SHARED + [f"http://own.example/{uid}"] for uid in users}


def oracle_id(server, url):
    return int.from_bytes(server.evaluate_direct(url), "big") \
        % CONFIG.id_space


@pytest.mark.parametrize("client_backend", CLIENT_BACKENDS)
class TestEvaluationCounts:
    def test_overlapping_urls_are_evaluated_once_each(self, client_backend):
        session = make_session(client_backend)
        server = session.membership.oprf_server
        window = overlapping_window(USERS)
        observe(session, window)
        distinct = {url for urls in window.values() for url in urls}
        assert server.evaluations == len(distinct) == len(SHARED) + len(USERS)
        mapper = session.membership.ad_mapper
        assert mapper.protocol_rounds == len(distinct)
        assert mapper.bytes_exchanged() \
            == len(distinct) * 2 * server.public_key.modulus_bytes

    def test_window_reset_and_reobservation_cost_nothing(self,
                                                         client_backend):
        session = make_session(client_backend)
        server = session.membership.oprf_server
        observe(session, overlapping_window(USERS))
        first = session.run_next_round()
        spent = server.evaluations
        session.reset_windows()
        observe(session, overlapping_window(USERS))
        second = session.run_next_round()
        assert server.evaluations == spent
        assert second.aggregate.cells == first.aggregate.cells

    def test_joiner_and_returning_user_pay_only_for_unmapped_urls(
            self, client_backend):
        session = make_session(client_backend)
        server = session.membership.oprf_server
        observe(session, overlapping_window(USERS))
        session.run_next_round()
        session.advance_epoch(joins=["joiner"], leaves=["u0"])
        spent = server.evaluations
        # The joiner sees what the panel already mapped — u0's own ad
        # included, though u0 is gone — and one URL that is new.
        observe(session, {"joiner": SHARED + ["http://own.example/u0",
                                              "http://own.example/joiner"]})
        assert server.evaluations == spent + 1
        session.run_next_round()
        session.advance_epoch(joins=["u0"], leaves=["u1"])
        # u0 returns to a rebuilt client: everything it saw before, and
        # what the joiner brought, is already mapped.
        observe(session, {"u0": SHARED + ["http://own.example/u0",
                                          "http://own.example/joiner"]})
        assert server.evaluations == spent + 1
        observe(session, {"u0": ["http://own.example/u0-again"]})
        assert server.evaluations == spent + 2
        result = session.run_next_round()
        assert not result.missing_users

    def test_resumed_panel_maps_from_a_cold_cache_to_the_same_round(
            self, client_backend):
        """The mapper cache is process state, not lineage: a resumed
        session re-evaluates what its window shows it and lands on the
        ids — hence the round — of the session that never crashed."""
        window = overlapping_window(USERS)
        distinct = {url for urls in window.values() for url in urls}

        def two_rounds(session, crash_into=None):
            observe(session, window)
            session.run_next_round()
            if crash_into is not None:
                session = ProtocolSession.resume(crash_into, name="s")
                assert session.membership.client_backend == client_backend
                assert session.membership.oprf_server.evaluations == 0
            session.reset_windows()
            observe(session, window)
            assert session.membership.oprf_server.evaluations \
                == len(distinct)
            return session.run_next_round()

        with HistoryStore() as store:
            resumed = two_rounds(
                make_session(client_backend, store=store, store_name="s"),
                crash_into=store)
        reference = two_rounds(make_session(client_backend))
        assert resumed.round_id == reference.round_id == 1
        assert resumed.aggregate.cells == reference.aggregate.cells
        assert resumed.users_threshold == reference.users_threshold
        assert resumed.distribution.values == reference.distribution.values

    def test_forged_reply_is_refused_and_not_cached(self, client_backend,
                                                    monkeypatch):
        session = make_session(client_backend)
        server = session.membership.oprf_server
        mapper = session.membership.ad_mapper
        honest = server.evaluate_blinded
        monkeypatch.setattr(
            server, "evaluate_blinded",
            lambda blinded: honest(blinded) + 1)
        url = "http://forged.example/ad"
        with pytest.raises(OPRFError, match="verification"):
            observe(session, {"u2": [url]})
        assert mapper.cache_size == 0 and mapper.protocol_rounds == 0
        monkeypatch.setattr(server, "evaluate_blinded", honest)
        observe(session, {"u3": [url]})
        assert mapper.ad_id(url) == oracle_id(server, url)
        assert mapper.cache_size == 1


@functools.lru_cache(maxsize=None)
def memberships():
    """One enrollment per backend for the property below (RSA key
    generation is the expensive part; a mapper's cache only grows)."""
    return {backend: make_session(backend, users=USERS[:4]).membership
            for backend in CLIENT_BACKENDS}


@settings(max_examples=40, deadline=None)
@given(urls=st.lists(st.text(max_size=40), min_size=1, max_size=6))
def test_shared_mapper_computes_the_servers_function(urls):
    """Any URL's id is the OPRF server's ``F(k, url) mod |A|``, whoever
    asks and on whichever backend."""
    objects, batched = (memberships()[b] for b in CLIENT_BACKENDS)
    for url in urls:
        assert objects.ad_mapper.ad_id(url) == batched.ad_mapper.ad_id(url) \
            == oracle_id(objects.oprf_server, url)


# ----------------------------------------------------------------------
# The detection pipeline over churned weeks
# ----------------------------------------------------------------------
#: week -> roster; u0 leaves after week 0 and returns in week 2.
ROSTERS = [
    ["u0", "u1", "u2", "u3", "u4", "u5"],
    ["u1", "u2", "u3", "u4", "u5", "v0"],
    ["u0", "u2", "u3", "u4", "u5", "v0"],
]
#: week -> campaigns that start that week (the joiner's own ad is the
#: only other URL a warm week brings that the panel has not mapped).
FRESH = [[], ["http://fresh.example/w1"],
         ["http://fresh.example/w2-a", "http://fresh.example/w2-b"]]
PIPELINE_CONFIG = RoundConfig(cms_depth=4, cms_width=256, cms_seed=8,
                              id_space=2000)


def churned_weeks():
    """Three weekly logs over ``ROSTERS``: every member sees the shared
    ads and a per-user ad (stable across weeks, so a returning user and
    week-over-week repeats add nothing new); ``u2`` is chased by one ad
    over five domains; each warm week adds ``FRESH[week]``."""
    weeks = []
    for week, roster in enumerate(ROSTERS):
        tick = week * TICKS_PER_WEEK
        log = []
        for n, uid in enumerate(roster):
            urls = SHARED + [f"http://own.example/{uid}"]
            fresh = FRESH[week]
            if fresh and n <= len(fresh):
                # Members 0 and 1 share the week's first fresh URL.
                urls.append(fresh[max(0, n - 1)])
            for k, url in enumerate(urls):
                log.append(Impression(uid, Ad(url=url),
                                      f"site-{k}.example", tick + k))
        for d in range(5):
            log.append(Impression("u2", Ad(url="http://stalker.example/u2"),
                                  f"chase-{d}.example", tick + 10 + d))
        weeks.append(log)
    return weeks


def unique_pairs(log):
    return sorted({(imp.user_id, imp.ad.identity) for imp in log})


def run_pipeline(client_backend, weeks):
    """Per week: released cells, verdicts, OPRF evaluations spent and
    the plain sum of per-user sketches over oracle ids."""
    out = []
    with HistoryStore() as store:
        pipeline = DetectionPipeline(
            private=True, use_oprf=True, num_cliques=2,
            round_config=PIPELINE_CONFIG, enrollment_seed=6, store=store,
            settings=SessionConfig(client_backend=client_backend))
        try:
            spent = 0
            for week, log in enumerate(weeks):
                result = pipeline.run_week(log, week=week)
                server = pipeline.session.membership.oprf_server
                plain = PIPELINE_CONFIG.make_sketch()
                plain.update_many(
                    [int.from_bytes(server.evaluate_direct(url), "big")
                     % PIPELINE_CONFIG.id_space
                     for _, url in unique_pairs(log)])
                out.append({
                    "cells": result.round_result.aggregate.cells_array.copy(),
                    "plain": plain.cells_array.copy(),
                    "verdicts": sorted(
                        (c.user_id, c.ad.identity, c.label.value,
                         c.users_seen, c.domains_threshold)
                        for c in result.classified),
                    "evaluations": server.evaluations - spent,
                    "epoch": pipeline.session.epoch.epoch_id,
                })
                spent = server.evaluations
            # One lineage in the store: churn never re-enrolled.
            assert len(store.round_history(session=pipeline.session_name)) \
                == len(weeks)
        finally:
            pipeline.close()
    return out


class TestPipelineOverChurnedWeeks:
    @pytest.fixture(scope="class")
    def runs(self):
        weeks = churned_weeks()
        return weeks, {backend: run_pipeline(backend, weeks)
                       for backend in CLIENT_BACKENDS}

    @pytest.mark.parametrize("client_backend", CLIENT_BACKENDS)
    def test_a_warm_week_evaluates_only_panel_new_urls(self, runs,
                                                       client_backend):
        weeks, by_backend = runs
        run = by_backend[client_backend]
        # One lineage throughout: churn advanced epochs, never re-enrolled.
        assert [week["epoch"] for week in run] == [0, 1, 2]
        mapped, panel_new = set(), []
        for log in weeks:
            urls = {url for _, url in unique_pairs(log)}
            panel_new.append(len(urls - mapped))
            mapped |= urls
        # Week 0 is cold; week 1 brings one campaign and the joiner's own
        # ad, week 2 two campaigns (returning u0's own ad is known).
        assert panel_new == [11, 2, 2]
        assert [week["evaluations"] for week in run] == panel_new

    @pytest.mark.parametrize("client_backend", CLIENT_BACKENDS)
    def test_released_cells_are_the_plain_sum_over_oracle_ids(
            self, runs, client_backend):
        for week in runs[1][client_backend]:
            assert np.array_equal(week["cells"], week["plain"])

    def test_backends_release_identical_cells_and_verdicts(self, runs):
        objects, batched = (runs[1][backend] for backend in CLIENT_BACKENDS)
        for mine, theirs in zip(objects, batched):
            assert np.array_equal(mine["cells"], theirs["cells"])
            assert mine["verdicts"] == theirs["verdicts"]
        flagged = {(user, url) for week in objects
                   for user, url, label, *_ in week["verdicts"]
                   if label == "targeted"}
        assert flagged == {("u2", "http://stalker.example/u2")}
