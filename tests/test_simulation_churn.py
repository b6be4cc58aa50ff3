"""Churned-population scenarios and their ride through the upper stack:
the schedule generator, the pipeline's persistent epoch session, the
service plane's between-weeks rotation, and the CLI surface.
"""

from contextlib import closing

import pytest

from repro.core.pipeline import DetectionPipeline
from repro.errors import ConfigurationError
from repro.simulation.churn import (
    ChurnPlan,
    apply_churn,
    churn_schedule,
    rosters_over_epochs,
)
from repro.types import Ad, Impression, TICKS_PER_WEEK

ROSTER = [f"user-{i:02d}" for i in range(20)]


class TestChurnSchedule:
    def test_deterministic(self):
        a = churn_schedule(ROSTER, 3, 0.2, seed=7)
        b = churn_schedule(ROSTER, 3, 0.2, seed=7)
        c = churn_schedule(ROSTER, 3, 0.2, seed=8)
        assert a == b
        assert a != c

    def test_population_size_constant(self):
        plans = churn_schedule(ROSTER, 4, 0.25, seed=1)
        for roster in rosters_over_epochs(ROSTER, plans):
            assert len(roster) == len(ROSTER)

    def test_quota_respected(self):
        plans = churn_schedule(ROSTER, 2, 0.2, seed=2)
        for plan in plans:
            assert len(plan.leaves) == 4  # 20% of 20
            assert len(plan.joins) == 4

    def test_joiner_pool_consumed_in_order(self):
        pool = [f"pool-{i}" for i in range(10)]
        plans = churn_schedule(ROSTER, 1, 0.2, seed=3,
                               joiner_pool=pool, rejoin_probability=0.0)
        assert set(plans[0].joins) <= set(pool[:4])

    def test_rejoins_come_from_departed(self):
        plans = churn_schedule(ROSTER, 5, 0.3, seed=4,
                               rejoin_probability=1.0)
        rosters = rosters_over_epochs(ROSTER, plans)
        # From epoch 2 on, every joiner must be a previously departed user.
        departed = set(plans[0].leaves)
        for plan in plans[1:]:
            assert set(plan.joins) <= departed | {
                j for j in plan.joins if j.startswith("churn-")}
            departed |= set(plan.leaves)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            churn_schedule(ROSTER, 2, 1.0)
        with pytest.raises(ConfigurationError):
            churn_schedule(ROSTER, -1, 0.1)
        with pytest.raises(ConfigurationError):
            churn_schedule(["a", "a"], 1, 0.1)
        with pytest.raises(ConfigurationError):
            churn_schedule(ROSTER, 1, 0.1, joiner_pool=[ROSTER[0]])
        with pytest.raises(ConfigurationError):
            apply_churn(ROSTER, ChurnPlan(1, joins=("x",),
                                          leaves=("stranger",)))
        with pytest.raises(ConfigurationError):
            apply_churn(ROSTER, ChurnPlan(1, joins=(ROSTER[0],), leaves=()))


def _impressions(roster, week=0, ads=8):
    out = []
    base = week * TICKS_PER_WEEK
    for u, uid in enumerate(sorted(roster)):
        for j in range(4):
            out.append(Impression(
                user_id=uid, ad=Ad(url=f"http://ad/{(u + j) % ads}"),
                domain=f"site-{j}.example", tick=base + (u * 4 + j) % TICKS_PER_WEEK))
    return out


class TestPipelineEpochPersistence:
    CONFIG_ADS = 8

    def _pipeline(self, **kwargs):
        config = DetectionPipeline.default_round_config(self.CONFIG_ADS)
        return DetectionPipeline(private=True, round_config=config,
                                 num_cliques=2, **kwargs)

    def test_session_persists_and_advances_across_windows(self):
        pipeline = self._pipeline()
        plans = churn_schedule(ROSTER, 1, 0.2, seed=5,
                               rejoin_probability=0.0)
        rosters = rosters_over_epochs(ROSTER, plans)

        out0 = pipeline.run_week(_impressions(rosters[0], week=0), week=0)
        session = pipeline.session
        assert session is not None
        assert session.epoch.epoch_id == 0
        assert pipeline.last_transition is None

        out1 = pipeline.run_week(_impressions(rosters[1], week=1), week=1)
        assert pipeline.session is session  # same session object
        assert session.epoch.epoch_id == 1
        transition = pipeline.last_transition
        assert transition is not None
        assert set(transition.joined) == set(plans[0].joins)
        assert set(transition.left) == set(plans[0].leaves)
        assert out0.round_result is not None
        assert out1.round_result is not None
        # Round ids advanced monotonically across the epoch boundary.
        assert out1.round_result.round_id > out0.round_result.round_id

    def test_accounting_stays_per_window(self):
        """The persistent session's transport accumulates, but each
        window's round_result reports that window's traffic only."""
        pipeline = self._pipeline()
        imps = _impressions(ROSTER, week=0)
        w0 = pipeline.run_week(imps, week=0)
        w1 = pipeline.run_week(_impressions(ROSTER, week=1), week=1)
        assert w1.round_result.total_bytes == w0.round_result.total_bytes
        assert w1.round_result.total_messages == \
            w0.round_result.total_messages

    def test_default_config_pins_and_reuses_session(self):
        """Without an explicit round_config, the first window's derived
        config is pinned so later windows (same or smaller ad volume)
        advance the epoch instead of re-enrolling."""
        pipeline = DetectionPipeline(private=True, num_cliques=2)
        plans = churn_schedule(ROSTER, 1, 0.2, seed=9,
                               rejoin_probability=0.0)
        rosters = rosters_over_epochs(ROSTER, plans)
        pipeline.run_week(_impressions(rosters[0], week=0), week=0)
        first = pipeline.session
        pipeline.run_week(_impressions(rosters[1], week=1), week=1)
        assert pipeline.session is first
        assert pipeline.last_transition is not None
        # A window that outgrows the pinned sizing re-derives (with
        # headroom) and re-enrolls rather than using an undersized CMS.
        pipeline.run_week(_impressions(rosters[1], week=0, ads=40),
                          week=0)
        assert pipeline.session is not first

    def test_stable_window_reuses_epoch_without_transition(self):
        pipeline = self._pipeline()
        pipeline.run_week(_impressions(ROSTER, week=0), week=0)
        epoch = pipeline.session.epoch
        pipeline.run_week(_impressions(ROSTER, week=1), week=1)
        assert pipeline.session.epoch is epoch
        assert pipeline.last_transition is None

    def test_epoch_window_matches_fresh_pipeline(self):
        """The churned window classifies identically to a from-scratch
        pipeline over the same impressions (aggregates are equivalent)."""
        plans = churn_schedule(ROSTER, 1, 0.2, seed=6,
                               rejoin_probability=0.0)
        rosters = rosters_over_epochs(ROSTER, plans)
        imps1 = _impressions(rosters[1], week=1)

        churned = self._pipeline()
        churned.run_week(_impressions(rosters[0], week=0), week=0)
        out_epoch = churned.run_week(imps1, week=1)

        fresh = self._pipeline()
        out_fresh = fresh.run_week(imps1, week=1)

        assert out_epoch.users_threshold == out_fresh.users_threshold
        assert [c.label for c in out_epoch.classified] == \
            [c.label for c in out_fresh.classified]
        assert out_epoch.round_result.aggregate.cells == \
            out_fresh.round_result.aggregate.cells

    def test_independent_weekly_calls_never_replay_round_ids(self):
        """Two independent pipelines share pair secrets (same default
        enrollment seed, same roster) — their windows must use distinct
        round ids or the one-time pads repeat across pipelines."""
        config = DetectionPipeline.default_round_config(self.CONFIG_ADS)

        def one_week(week):
            with closing(DetectionPipeline(private=True, round_config=config,
                                           num_cliques=2)) as pipeline:
                return pipeline.run_week(_impressions(ROSTER, week=week),
                                         week=week)

        w0, w1 = one_week(0), one_week(1)
        assert w0.round_result.round_id != w1.round_result.round_id

    def test_fresh_sessions_never_replay_round_ids(self):
        """Same-seed re-enrollments derive the same pair secrets for
        the users they share, so round ids must stay monotonic across
        windows even when a window gets a fresh session (an unservable
        roster delta re-enrolls) — replaying an id would reuse
        (pair, round) one-time pads. Both windows carry the same week,
        so the week alone does not separate their round ids."""
        pipeline = self._pipeline()
        w0 = pipeline.run_week(_impressions(ROSTER, week=0), week=0)
        first = pipeline.session
        w1 = pipeline.run_week(_impressions(ROSTER[:3], week=0), week=0)
        assert pipeline.session is not first  # re-enrolled from round 0
        assert pipeline.session.epoch.epoch_id == 0
        assert w1.round_result.round_id > w0.round_result.round_id

    def test_clique_clamp_does_not_flap_sessions(self):
        """A population oscillating around a clamp boundary keeps the
        live session's clique layout instead of re-enrolling per
        window."""
        config = DetectionPipeline.default_round_config(self.CONFIG_ADS)
        pipeline = DetectionPipeline(private=True, round_config=config,
                                     num_cliques=4)
        eight, seven = ROSTER[:8], ROSTER[:7]
        pipeline.run_week(_impressions(eight, week=0), week=0)
        first = pipeline.session  # k = 4
        pipeline.run_week(_impressions(seven, week=1), week=1)
        second = pipeline.session  # 7 users cannot hold 4 cliques
        assert second is not first
        # Population returns to 8: the live k=3 layout still fits, so
        # the session advances its epoch instead of flapping back to 4.
        pipeline.run_week(_impressions(eight, week=2), week=2)
        assert pipeline.session is second
        assert pipeline.last_transition is not None

    def test_clique_pin_upgrades_when_population_comfortably_grows(self):
        """The anti-flap pin is not a one-way ratchet: a window whose
        population comfortably supports the configured k (>= 4 members
        per clique) re-enrolls at full sharding."""
        config = DetectionPipeline.default_round_config(self.CONFIG_ADS)
        pipeline = DetectionPipeline(private=True, round_config=config,
                                     num_cliques=4)
        pipeline.run_week(_impressions(ROSTER[:5], week=0), week=0)
        small = pipeline.session  # clamped to k=2
        assert small.membership.num_cliques == 2
        pipeline.run_week(_impressions(ROSTER[:16], week=1), week=1)
        grown = pipeline.session  # 16 users >= 4*4: upgrade to k=4
        assert grown is not small
        assert grown.membership.num_cliques == 4

    def test_unservable_delta_falls_back_to_fresh_enrollment(self):
        pipeline = self._pipeline()
        pipeline.run_week(_impressions(ROSTER, week=0), week=0)
        first = pipeline.session
        # Next window shrinks to 3 users: k=2 needs >= 4, so the epoch
        # delta is unservable and the pipeline re-enrolls (clamped to
        # k=1) instead of failing the window.
        tiny = ROSTER[:3]
        out = pipeline.run_week(_impressions(tiny, week=1), week=1)
        assert out.round_result is not None
        assert pipeline.session is not first


class TestBackendServiceEpochs:
    """Between-weeks membership rotation on the back-end's operators
    (the deleted ``BackendService`` forwarded to the same two calls; the
    class name stays so the test ids do)."""

    def test_advance_epoch_between_weeks(self):
        """Join, leave and rejoin between two weekly rounds of the HTTP
        operator; the post-churn round hears from the whole roster."""
        from test_service_state import drive_round

        from repro.protocol.client import RoundConfig
        from repro.service.state import ServiceState

        config = RoundConfig(cms_depth=4, cms_width=64, cms_seed=3,
                             id_space=200)
        state = ServiceState(config, seed=2, num_cliques=2)
        for i in range(8):
            state.enroll(f"u{i}")
        state.advance_epoch()

        def run_week():
            clients = state.session.membership.clients
            for client in clients:
                client.reset_window()
                client.observe_ad("http://everyone.example/ad")
            return drive_round(state, clients)

        run_week()
        state.enroll("u-new")
        info = state.advance_epoch(leaves=["u3"])
        assert info["epoch"] == 1 and info["left"] == ["u3"]
        assert "u-new" in state.roster and "u3" not in state.roster
        # A departed user may rejoin at a later epoch.
        state.enroll("u3")
        state.advance_epoch(leaves=["u-new"])
        assert "u3" in state.roster
        state.enroll("u-new")
        state.advance_epoch(leaves=["u3"])

        result = run_week()
        assert result.round_id == 1
        assert sorted(result.reported_users) == sorted(state.roster)
        assert len(result.reported_users) == 8
        state.close()

    def test_plain_service_rejects_advance(self):
        """Bare client objects carry no key material to rotate."""
        from repro.api import ProtocolSession
        from repro.protocol.client import RoundConfig
        from repro.protocol.enrollment import enroll_users
        config = RoundConfig(cms_depth=4, cms_width=64, cms_seed=3,
                             id_space=200)
        enrollment = enroll_users(["a", "b"], config, use_oprf=False)
        session = ProtocolSession(config, enrollment.clients)
        with pytest.raises(ConfigurationError, match="membership"):
            session.advance_epoch(joins=["c"])


class TestCliChurn:
    def test_detect_with_churn_prints_transition(self, capsys):
        from repro.cli import main
        code = main(["detect", "--private", "--users", "16",
                     "--websites", "40", "--visits", "20",
                     "--cliques", "2", "--churn", "0.25",
                     "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "epoch 0" in out
        assert "epoch 1" in out
        assert "epoch transition" in out
        assert "pair secrets reused" in out

    def test_churn_requires_private(self, capsys):
        from repro.cli import main
        code = main(["detect", "--churn", "0.2"])
        assert code == 2
        assert "--private" in capsys.readouterr().err

    def test_zero_quota_churn_rejected(self, capsys):
        from repro.cli import main
        code = main(["detect", "--private", "--users", "10",
                     "--churn", "0.04"])
        assert code == 2
        assert "0 users per epoch" in capsys.readouterr().err

    def test_flag_ranges_rejected_at_cli_boundary(self, capsys):
        from repro.cli import main
        assert main(["detect", "--private", "--churn", "1.0"]) == 2
        assert "[0, 1)" in capsys.readouterr().err
