"""Tests for the longitudinal deployment loop."""

import pytest

from repro.api import SessionConfig
from repro.backend.operations import LongitudinalDeployment
from repro.core.thresholds import ThresholdRule
from repro.errors import ConfigurationError
from repro.protocol.enrollment import MAX_CLIQUES
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulator


def small_deployment(settings=None):
    return LongitudinalDeployment(
        config=SimulationConfig(num_users=30, num_websites=60,
                                average_user_visits=40,
                                percentage_targeted=2.0, frequency_cap=8,
                                seed=3),
        churn_rate=0.2, dropout_rate=0.1, seed=3, settings=settings)


@pytest.fixture(scope="module")
def small_deployment_log():
    return small_deployment().run(num_weeks=3)


class TestLongitudinalDeployment:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LongitudinalDeployment(churn_rate=1.0)
        with pytest.raises(ConfigurationError):
            LongitudinalDeployment(dropout_rate=-0.1)
        with pytest.raises(ConfigurationError):
            LongitudinalDeployment().run(0)

    def test_pipeline_arguments_are_refused_before_any_simulation(
            self, monkeypatch):
        """A clique count or threshold rule the deployment's pipeline
        would refuse is refused by the constructor, through the
        pipeline's own checks, before ``run`` simulates anything."""
        def no_simulation(self):
            raise AssertionError("simulated before the arguments were checked")

        monkeypatch.setattr(Simulator, "run", no_simulation)
        with pytest.raises(ConfigurationError, match="threshold_rule"):
            LongitudinalDeployment(settings=SessionConfig(
                threshold_rule=ThresholdRule.MEDIAN.compute))
        for num_cliques in (0, True, MAX_CLIQUES + 1):
            with pytest.raises(ConfigurationError, match="num_cliques"):
                LongitudinalDeployment(num_cliques=num_cliques)

    def test_batched_backend_returns_the_same_weeks(
            self, small_deployment_log):
        """Dropouts go through the session's seam, so the batched
        backend runs the same weeks: the same dropouts and recovery
        rounds, thresholds, verdict counts, bytes and re-keyed users."""
        batched = small_deployment(
            SessionConfig(client_backend="batched")).run(num_weeks=3)
        assert any(w.dropouts for w in batched.weeks)
        assert batched.weeks == small_deployment_log.weeks

    def test_runs_all_weeks(self, small_deployment_log):
        assert len(small_deployment_log.weeks) == 3
        assert [w.week for w in small_deployment_log.weeks] == [0, 1, 2]

    def test_churn_shrinks_panel(self, small_deployment_log):
        for week in small_deployment_log.weeks:
            assert week.active_users < 30  # some churned every week

    def test_thresholds_positive_and_stable(self, small_deployment_log):
        thresholds = small_deployment_log.thresholds
        assert all(t > 0 for t in thresholds)
        # Week-over-week the threshold stays in a sane band (no blow-ups
        # from unrecovered blinding noise).
        assert max(thresholds) < 10 * min(thresholds)

    def test_dropouts_trigger_recovery(self, small_deployment_log):
        weeks_with_dropouts = [w for w in small_deployment_log.weeks
                               if w.dropouts > 0]
        for week in weeks_with_dropouts:
            assert week.recovery_round_used

    def test_protocol_traffic_recorded(self, small_deployment_log):
        assert all(w.protocol_bytes > 0 for w in small_deployment_log.weeks)

    def test_summary_renders(self, small_deployment_log):
        text = small_deployment_log.summary()
        assert "Users_th" in text
        assert len(text.splitlines()) == 4  # header + 3 weeks

    def test_deterministic(self):
        def run():
            return LongitudinalDeployment(
                config=SimulationConfig(num_users=20, num_websites=40,
                                        average_user_visits=30, seed=9),
                churn_rate=0.1, dropout_rate=0.1, seed=9).run(2)

        a, b = run(), run()
        assert a.thresholds == b.thresholds
        assert a.total_flagged == b.total_flagged

    def test_no_dropouts_no_recovery(self):
        log = LongitudinalDeployment(
            config=SimulationConfig(num_users=15, num_websites=40,
                                    average_user_visits=30, seed=4),
            churn_rate=0.0, dropout_rate=0.0, seed=4).run(1)
        assert log.weeks
        assert not log.weeks[0].recovery_round_used
        assert log.weeks[0].dropouts == 0

    def test_churn_is_epoch_deltas_not_weekly_enrollments(self, monkeypatch):
        """One persistent session follows the churning panel: a
        multi-week run pays fewer full enrollments than it has weeks
        (the rest are ``advance_epoch`` deltas re-keying a handful of
        users) and still recovers from every week's dropouts."""
        import repro.api
        enrollments = []
        real = repro.api.enroll_users

        def counting(user_ids, *args, **kwargs):
            enrollments.append(len(user_ids))
            return real(user_ids, *args, **kwargs)

        monkeypatch.setattr(repro.api, "enroll_users", counting)
        log = LongitudinalDeployment(
            config=SimulationConfig(num_users=30, num_websites=60,
                                    average_user_visits=40,
                                    percentage_targeted=2.0, frequency_cap=8,
                                    seed=3),
            churn_rate=0.2, dropout_rate=0.1, seed=3).run(num_weeks=4)
        assert len(log.weeks) == 4
        assert 1 <= len(enrollments) < len(log.weeks)
        deltas = [w.rekeyed_users for w in log.weeks
                  if w.rekeyed_users is not None]
        assert len(deltas) == len(log.weeks) - len(enrollments)
        assert all(n < min(enrollments) for n in deltas)
        assert any(w.dropouts for w in log.weeks)
        for week in log.weeks:
            assert week.recovery_round_used == (week.dropouts > 0)
