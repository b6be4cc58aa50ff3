"""Integration tests for the end-to-end detection pipeline.

The flagship property: the private (blinded-CMS) pipeline must reach the
same verdicts as the cleartext oracle pipeline on the same impressions —
the privacy protocol is supposed to be invisible to detection quality
(paper Figure 2's message).
"""

import math
from contextlib import closing

import pytest

from repro.api import SessionConfig
from repro.core.detector import DetectorConfig
from repro.core.pipeline import DetectionPipeline
from repro.core.thresholds import ThresholdRule
from repro.errors import ConfigurationError
from repro.protocol.client import RoundConfig
from repro.simulation import SimulationConfig, Simulator
from repro.simulation.metrics import evaluate_classifications
from repro.types import Ad, Impression, Label


@pytest.fixture(scope="module")
def sim_result():
    config = SimulationConfig.small(seed=7, frequency_cap=6)
    return Simulator(config).run()


def synthetic_impressions():
    """A hand-built scenario with one obviously-targeted ad.

    Users u0..u5 each see a handful of one-domain background ads; u0 is
    chased by ad "stalker" across 5 domains while nobody else sees it.
    """
    impressions = []
    for u in range(6):
        for i in range(4):
            impressions.append(Impression(
                user_id=f"u{u}", ad=Ad(url=f"http://bg-{u}-{i}.example/p"),
                domain=f"site-{i}.example", tick=0))
        # A popular ad everyone sees, on one domain each.
        impressions.append(Impression(
            user_id=f"u{u}", ad=Ad(url="http://popular.example/brand"),
            domain=f"site-{u}.example", tick=1))
    for d in range(5):
        impressions.append(Impression(
            user_id="u0", ad=Ad(url="http://stalker.example/offer"),
            domain=f"chase-{d}.example", tick=2))
    return impressions


class TestCleartextPipeline:
    def test_detects_synthetic_stalker(self):
        pipeline = DetectionPipeline(DetectorConfig())
        out = pipeline.run_week(synthetic_impressions(), week=0)
        flagged = {(c.user_id, c.ad.identity) for c in out.targeted}
        assert ("u0", "http://stalker.example/offer") in flagged

    def test_popular_ad_not_flagged(self):
        pipeline = DetectionPipeline(DetectorConfig())
        out = pipeline.run_week(synthetic_impressions(), week=0)
        popular = [c for c in out.classified
                   if c.ad.identity == "http://popular.example/brand"]
        assert popular
        assert all(c.label is not Label.TARGETED for c in popular)

    def test_empty_week_rejected(self):
        with pytest.raises(ConfigurationError):
            DetectionPipeline().run_week([], week=0)
        with pytest.raises(ConfigurationError):
            DetectionPipeline().run_week(synthetic_impressions(), week=5)

    def test_classifies_every_user_ad_pair(self):
        out = DetectionPipeline().run_week(synthetic_impressions(), week=0)
        # 6 users x (4 bg + 1 popular) + 1 stalker pair.
        assert len(out.classified) == 6 * 5 + 1

    def test_simulation_quality(self, sim_result):
        out = DetectionPipeline().run_week(sim_result.impressions, week=0)
        counts = evaluate_classifications(out.classified,
                                          sim_result.ground_truth)
        # Shape guards, not exact numbers: FP stays tiny, detection works.
        assert counts.false_positive_rate < 0.05
        assert counts.tp > 0


class TestPipelineSettings:
    @pytest.mark.parametrize("kwargs,message", [
        pytest.param({"num_cliques": 2.5}, "num_cliques must be an int",
                     id="cliques-float"),
        pytest.param({"num_cliques": True}, "num_cliques must be an int",
                     id="cliques-bool"),
        pytest.param({"num_cliques": "2"}, "num_cliques must be an int",
                     id="cliques-str"),
        pytest.param({"settings": SessionConfig(
                         threshold_rule=ThresholdRule.MEDIAN.compute)},
                     "detector_config.users_rule", id="rule-ignored"),
    ])
    def test_invalid_settings_rejected_at_construction(self, kwargs,
                                                       message):
        """Refused by ``__init__``, not by ``range()`` or the clique
        deal in the first private window (after its enrollment)."""
        with pytest.raises(ConfigurationError, match=message):
            DetectionPipeline(private=True, **kwargs)


class TestPrivatePipeline:
    def test_private_matches_cleartext_on_synthetic(self):
        impressions = synthetic_impressions()
        clear = DetectionPipeline().run_week(impressions, week=0)
        private = DetectionPipeline(private=True).run_week(impressions,
                                                           week=0)
        clear_flagged = {(c.user_id, c.ad.identity) for c in clear.targeted}
        private_flagged = {(c.user_id, c.ad.identity)
                           for c in private.targeted}
        assert clear_flagged == private_flagged

    def test_private_threshold_close_to_cleartext(self):
        """Figure 2: the CMS threshold is close to (and >=) the actual."""
        impressions = synthetic_impressions()
        clear = DetectionPipeline().run_week(impressions, week=0)
        private = DetectionPipeline(private=True).run_week(impressions,
                                                           week=0)
        assert private.users_threshold >= clear.users_threshold - 1e-9
        assert private.users_threshold <= clear.users_threshold * 1.5

    def test_private_round_metadata(self):
        out = DetectionPipeline(private=True).run_week(
            synthetic_impressions(), week=0)
        assert out.private
        assert out.round_result is not None
        assert out.round_result.missing_users == []

    def test_private_with_oprf(self):
        """Full deployment fidelity: OPRF mapping + blinding + CMS."""
        out = DetectionPipeline(private=True, use_oprf=True).run_week(
            synthetic_impressions(), week=0)
        flagged = {(c.user_id, c.ad.identity) for c in out.targeted}
        assert ("u0", "http://stalker.example/offer") in flagged

    def test_oprf_and_keyed_prf_agree_on_verdicts(self):
        """The two ad-ID mappings produce identical classification sets.

        They map URLs to different integers, but the counting statistics
        (and hence every verdict) must be the same function of the
        impressions.
        """
        impressions = synthetic_impressions()
        keyed = DetectionPipeline(private=True, use_oprf=False).run_week(
            impressions, week=0)
        oprf = DetectionPipeline(private=True, use_oprf=True).run_week(
            impressions, week=0)
        keyed_flagged = {(c.user_id, c.ad.identity) for c in keyed.targeted}
        oprf_flagged = {(c.user_id, c.ad.identity) for c in oprf.targeted}
        assert keyed_flagged == oprf_flagged
        assert keyed.users_threshold == pytest.approx(
            oprf.users_threshold, rel=0.15)

    def test_private_and_cleartext_on_a_simulated_panel(self):
        sim = Simulator(SimulationConfig(
            num_users=12, num_websites=30, average_user_visits=30,
            percentage_targeted=2.0, frequency_cap=6, num_weeks=1,
            seed=4)).run()
        with closing(DetectionPipeline(private=True,
                                       num_cliques=2)) as pipeline:
            private = pipeline.run_week(sim.impressions, week=0)
        with closing(DetectionPipeline(private=False)) as pipeline:
            clear = pipeline.run_week(sim.impressions, week=0)
        assert private.private and not clear.private
        assert private.round_result is not None
        assert clear.round_result is None
        assert len(private.classified) == len(clear.classified)

    def test_explicit_round_config(self):
        config = RoundConfig(cms_depth=8, cms_width=512, cms_seed=3,
                             id_space=1000)
        out = DetectionPipeline(private=True, round_config=config).run_week(
            synthetic_impressions(), week=0)
        assert out.round_result.aggregate.depth == 8


class TestDefaultRoundConfig:
    """``default_round_config`` sizes a window from its ad volume: the
    ID space overestimates |A| tenfold, and the sketch meets the paper's
    epsilon = delta = 0.001 bounds (§7.1)."""

    def test_id_space_overestimates_tenfold(self):
        assert DetectionPipeline.default_round_config(1000).id_space == 10000

    def test_id_space_floor(self):
        assert DetectionPipeline.default_round_config(1).id_space == 64
        assert DetectionPipeline.default_round_config(6).id_space == 64
        assert DetectionPipeline.default_round_config(7).id_space == 70

    def test_sketch_meets_paper_error_bounds(self):
        config = DetectionPipeline.default_round_config(1000)
        assert config.cms_width == math.ceil(math.e / 0.001)
        assert config.cms_depth == math.ceil(math.log(1000 / 0.001))
        # Small windows are sized as if they held 16 ads.
        small = DetectionPipeline.default_round_config(3)
        assert small.cms_depth == math.ceil(math.log(16 / 0.001))
        assert config.cms_seed == small.cms_seed


class TestThresholdRuleSweep:
    @pytest.mark.parametrize("rule", list(ThresholdRule))
    def test_all_rules_run(self, rule):
        config = DetectorConfig(domains_rule=rule, users_rule=rule)
        out = DetectionPipeline(config).run_week(synthetic_impressions(),
                                                 week=0)
        assert out.classified

    def test_mean_plus_median_flags_subset_of_mean(self, sim_result):
        """Stricter domain rule can only reduce flagged pairs."""
        mean_out = DetectionPipeline(DetectorConfig()).run_week(
            sim_result.impressions, week=0)
        mm_config = DetectorConfig(
            domains_rule=ThresholdRule.MEAN_PLUS_MEDIAN,
            users_rule=ThresholdRule.MEAN)
        mm_out = DetectionPipeline(mm_config).run_week(
            sim_result.impressions, week=0)
        mean_flagged = {(c.user_id, c.ad.identity) for c in mean_out.targeted}
        mm_flagged = {(c.user_id, c.ad.identity) for c in mm_out.targeted}
        assert mm_flagged <= mean_flagged


def _verdict_stream(private, tmp_path):
    """sha256 of a seeded 3-week panel's verdicts: every ``ClassifiedAd``
    field in order (floats by ``repr``), then the store's
    ``detection_records()``."""
    import hashlib
    from dataclasses import astuple

    from repro.simulation.churn import churn_schedule, rosters_over_epochs
    from repro.store.history import HistoryStore

    result = Simulator(SimulationConfig.small(seed=23, num_weeks=3)).run()
    everyone = [user.user_id for user in result.population]
    roster0 = everyone[:40]
    plans = churn_schedule(roster0, 2, 0.1, seed=5,
                           joiner_pool=everyone[40:])
    store = HistoryStore(str(tmp_path / "verdicts.sqlite"))
    pipeline = DetectionPipeline(
        private=private, use_oprf=private, num_cliques=2,
        enrollment_seed=3, store=store)
    sha = hashlib.sha256()
    try:
        for week, roster in enumerate(rosters_over_epochs(roster0, plans)):
            members = set(roster)
            log = [imp for imp in result.impressions
                   if imp.week == week and imp.user_id in members]
            for call in pipeline.run_week(log, week=week).classified:
                sha.update(repr(astuple(call)).encode() + b"\n")
        for record in store.detection_records():
            sha.update(repr(record).encode() + b"\n")
    finally:
        pipeline.close()
        store.close()
    return sha.hexdigest()


class TestVerdictStream:
    """The verdict stream of two seeded 3-week panels, pinned at the
    digest the per-object detector produced: a rewrite of the window's
    grouping, counting or labelling must not move a single verdict,
    float or stored row."""

    def test_cleartext_panel(self, tmp_path):
        assert _verdict_stream(False, tmp_path) == (
            "e51ed951794d6ec043745540b69180934f4fd86785d5307ec9feb34982e06283")

    def test_private_panel_with_oprf_churn_and_store(self, tmp_path):
        assert _verdict_stream(True, tmp_path) == (
            "f05c8d0bea336da5dbf4a6755010c85b7cbb64e7cd39939ecea6469be8f2c9dd")
