"""The paper's quantitative claims, one test per figure, table or section.

Each test id names the claim it reproduces (``test_fig3_...``,
``test_s722_...``, ``test_table2_...``) and asserts the claim's *shape*
on the synthetic ecosystem — an ordering, a bound, a sign — not the
paper's absolute numbers, which came from a real panel. Every workload is
seeded, so each assertion is deterministic; the seeds are named where
the workload is built.

Nothing here reads a clock. The paper's two latency budgets — ~30 s of
client blinding for 1k users and a 5k-cell sketch, and < 500 ms for an
OPRF URL -> ID mapping (§7.1) — are timings, and timings belong to the
``bench/`` workloads (``army_big_cliques`` and ``detect_weeks``), which
measure them on alternated runs.

The panels are the smallest that still show each shape: Fig. 3 and
§4.2 need 150 users x 300 sites x 100 visits (at 120 users the Mean
rule's cap-6 false negatives exceed 0.5 on seeds 42 and 45, and the
7-day window's false negatives are 0.57, against 0.24 at 150). Fig. 3's
simulations are shared across its tests and with §7.3.4's unconstrained
point, so each (cap, seed) is simulated once.
"""

import dataclasses
import functools
import itertools
from collections import Counter

import pytest

from repro.analysis.anova import likelihood_ratio_test
from repro.analysis.biasstudy import (
    PAPER_TABLE2_ODDS_RATIOS,
    fit_bias_study,
    generate_bias_study,
    table2_model,
)
from repro.analysis.effects import predicted_effects
from repro.analysis.exposure import (
    apply_demographic_bias,
    observations_from_impressions,
)
from repro.analysis.logistic import CategoricalSpec, LogisticModel
from repro.core.detector import DetectorConfig
from repro.core.pipeline import DetectionPipeline
from repro.core.thresholds import ThresholdRule
from repro.crypto.group import DHGroup
from repro.crypto.prf import KeyedPRF
from repro.protocol.messages import CleartextReport, PublicKeyAnnouncement
from repro.simulation import SimulationConfig, Simulator
from repro.simulation.metrics import evaluate_classifications
from repro.simulation.population import (
    AGE_BRACKETS,
    EMPLOYMENT,
    GENDERS,
    INCOME_BRACKETS,
)
from repro.sketch.countmin import CountMinSketch
from repro.statsutil.sampling import make_rng
from repro.types import TICKS_PER_DAY, ConfusionCounts
from repro.validation.study import LiveValidationStudy
from repro.validation.tree import TreeOutcome

MEAN = ThresholdRule.MEAN
MEAN_PLUS_MEDIAN = ThresholdRule.MEAN_PLUS_MEDIAN


def detect(result, rule=MEAN, week=0):
    """Confusion counts of one cleartext week classified under ``rule``."""
    out = DetectionPipeline(
        DetectorConfig(domains_rule=rule, users_rule=rule)).run_week(
        result.impressions, week=week)
    return evaluate_classifications(out.classified, result.ground_truth)


def pool(runs):
    """One :class:`ConfusionCounts` summed over several runs."""
    runs = list(runs)
    return ConfusionCounts(**{f: sum(getattr(c, f) for c in runs)
                              for f in ("tp", "fp", "tn", "fn", "undecided")})


# ---------------------------------------------------------------------------
# §7.1 — report sizes and the weekly per-client budget
# ---------------------------------------------------------------------------

#: §7.1's CMS sizes in decimal KB (delta = epsilon = 0.001, 4-byte cells).
PAPER_CMS_KB = {10_000: 185, 50_000: 196, 100_000: 207}


def _cleartext_report(num_ads):
    """A cleartext report of ``num_ads`` 100-character ad URLs."""
    return CleartextReport("u", 1, urls=tuple(
        f"http://ad-network.example/creative/{i:04d}".ljust(100, "x")
        for i in range(num_ads)))


def test_s71_cms_size_is_near_constant_while_cleartext_grows():
    for items, paper_kb in PAPER_CMS_KB.items():
        cms = CountMinSketch.from_error_bounds(0.001, 0.001, items)
        assert round(cms.size_bytes(4) / 1000) == paper_kb
    # Cleartext is linear in the ads seen: ~3.5 KB for the average
    # user's 35 unique ads, hundreds of KB for heavy users.
    assert 3.0 < _cleartext_report(35).size_bytes() / 1000 < 4.0
    assert _cleartext_report(250).size_bytes() / 1000 > 20.0


def test_s71_weekly_client_budget_is_a_few_megabytes():
    """"A few (i.e. 2 or 3) MB of data to be exchanged, assuming 50k
    users", once per week per client: the key-exchange download (one
    public key per peer, linear in the panel; paper 0.38 / 1.9 MB at
    10k / 50k users) plus the blinded CMS upload, the OPRF traffic (two
    1024-bit elements per unique ad) and the threshold broadcast."""
    group = DHGroup.standard(256)
    key = PublicKeyAnnouncement("u", 2, element_bytes=group.element_bytes)
    key_exchange = {n: (n - 1) * key.size_bytes() / 1e6
                    for n in (10_000, 50_000)}
    assert key_exchange[50_000] / key_exchange[10_000] == \
        pytest.approx(5.0, rel=0.01)
    assert 0.2 < key_exchange[10_000] < 1.0
    assert 1.0 < key_exchange[50_000] < 5.0

    cms = CountMinSketch.from_error_bounds(0.001, 0.001, 50_000)
    report = cms.size_bytes(4) + 16
    oprf = 35 * 2 * 128
    broadcast = 24
    total = {n: kx + (report + oprf + broadcast) / 1e6
             for n, kx in key_exchange.items()}
    assert 1.5 < total[50_000] < 4.0
    assert total[10_000] < total[50_000]


# ---------------------------------------------------------------------------
# §6 — overestimating the ad-ID space
# ---------------------------------------------------------------------------

def test_s6_larger_id_space_means_fewer_prf_collisions():
    """PRF collisions inflate #Users estimates; the paper advises an ID
    space well above the number of ads. 2,000 ad URLs, five factors."""
    urls = [f"http://ads.example/{i}" for i in range(2000)]

    def collided_share(factor):
        prf = KeyedPRF(b"paper-claims", id_space=int(len(urls) * factor))
        ids = Counter(prf.ad_id(url) for url in urls)
        return sum(n for n in ids.values() if n > 1) / len(urls)

    shares = [collided_share(f) for f in (1.0, 2.0, 5.0, 10.0, 50.0)]
    assert shares == sorted(shares, reverse=True)
    assert shares[3] < 0.15  # the 10x overestimate


# ---------------------------------------------------------------------------
# Fig. 2 — the CMS #Users distribution against the actual one
# ---------------------------------------------------------------------------

def test_fig2_cms_threshold_is_slightly_above_the_actual_one():
    """The paper's weeks: Act_Th 2.25 / 3.26 / 2.54 against CMS_Th 2.30 /
    3.33 / 2.62. Hash collisions only add counts, so the CMS threshold
    is never lower, and only slightly higher; the two distributions
    nearly coincide. Seed 77, one week, four blinding cliques (the
    aggregate is bit-identical to one clique's)."""
    result = Simulator(SimulationConfig(
        num_users=60, num_websites=150, average_user_visits=60,
        ads_per_website=10, frequency_cap=6, seed=77)).run()
    clear = DetectionPipeline(DetectorConfig()).run_week(result.impressions)
    private = DetectionPipeline(
        DetectorConfig(), private=True, num_cliques=4).run_week(
        result.impressions)
    assert clear.users_threshold <= private.users_threshold \
        <= clear.users_threshold * 1.25
    assert clear.users_distribution.total_variation_distance(
        private.users_distribution) < 0.2


# ---------------------------------------------------------------------------
# Fig. 3 — false negatives against the frequency cap
# ---------------------------------------------------------------------------

FIG3_SEEDS = (42, 43, 44)


@functools.lru_cache(maxsize=None)
def fig3_simulation(cap, seed):
    """The Fig. 3 panel at one frequency cap. ``percentage_targeted`` is
    1 % (Table 1 has 0.1 %) so each run carries ~60 targeted campaigns,
    enough (user, ad) pairs for a stable false-negative rate."""
    return Simulator(SimulationConfig(
        num_users=150, num_websites=300, average_user_visits=100,
        ads_per_website=20, percentage_targeted=1.0, frequency_cap=cap,
        seed=seed)).run()


@pytest.fixture(scope="module")
def fig3():
    """{(rule, cap): counts pooled over FIG3_SEEDS}, each simulation
    scored under both rules."""
    runs = {}
    for cap, seed in itertools.product((2, 6), FIG3_SEEDS):
        result = fig3_simulation(cap, seed)
        for rule in (MEAN, MEAN_PLUS_MEDIAN):
            runs.setdefault((rule, cap), []).append(detect(result, rule))
    return {key: pool(counts) for key, counts in runs.items()}


def test_fig3_once_shown_ad_is_never_detected():
    """Cap 1: an ad shown once cannot follow anyone, for either rule. A
    small panel is enough — the answer holds by construction."""
    result = Simulator(SimulationConfig(
        num_users=40, num_websites=80, average_user_visits=40,
        ads_per_website=10, percentage_targeted=5.0, frequency_cap=1,
        seed=42)).run()
    for rule in (MEAN, MEAN_PLUS_MEDIAN):
        counts = detect(result, rule)
        assert counts.fn > 0
        assert counts.false_negative_rate == 1.0


def test_fig3_mean_rule_detects_by_six_repetitions(fig3):
    """Paper: the Mean rule is under 30 % FN at 6-7 repetitions.

    The recall spread across seeds comes from where campaign audiences
    sit against the Mean ``Users_th``. Audiences are 1-10 users and the
    Mean ``Users_th`` is ~8. Nearly every Mean-rule miss here follows
    its user (#Domains above ``Domains_th``) but was seen by too many
    users: 86 of 88 at cap 6 on seed 42, 190 of 191 at cap 12 on seed
    44. So
    a seed whose 8-10-user campaigns carry many (user, ad) pairs loses
    all of them at once. Measured on seeds 42-46 of this panel, the
    Mean rule's FN is 0.11-0.24 at cap 6. It is *not* monotone in the
    cap: at cap 12 it is 0.56 and 0.70 on seeds 44 and 45, where
    ``Users_th`` dips (8.09 -> 7.88 on seed 44) just under those
    campaigns' reach. Mean+Median's higher ``Users_th`` clears them
    (FN <= 0.01 at caps 6 and 12), so only its curve is asserted to
    floor."""
    assert fig3[(MEAN, 6)].false_negative_rate < 0.5


def test_fig3_mean_rule_starts_detecting_before_mean_plus_median(fig3):
    """The onset ordering: at cap 2 the Mean rule already detects
    (FN 0.13-0.26 on seeds 42-46) while Mean+Median detects nothing."""
    mean_2, mm_2 = fig3[(MEAN, 2)], fig3[(MEAN_PLUS_MEDIAN, 2)]
    assert mean_2.false_negative_rate < mm_2.false_negative_rate
    assert mm_2.false_negative_rate == 1.0


def test_fig3_mean_plus_median_reaches_a_low_floor(fig3):
    """Paper: Mean+Median starts later but floors near 10 % FN."""
    assert fig3[(MEAN_PLUS_MEDIAN, 6)].false_negative_rate < 0.15


def test_fig3_false_positives_stay_near_zero(fig3):
    assert pool(fig3.values()).false_positive_rate < 0.02


# ---------------------------------------------------------------------------
# §4.2 — why the window is one week
# ---------------------------------------------------------------------------

def test_s42_week_window_trades_little_accuracy_for_latency():
    """Two weeks of targeted campaigns that launch through week 1 and
    fade with a 4-day half-life ("aggressively follow the user for a few
    days and gradually fade-out"), classified over 1-, 7- and 14-day
    windows. A day starves the activity gate and the repetition signal;
    a week already has low FN; two weeks buy the rest at double the
    reporting latency. FPs stay nil throughout. Seed 42."""
    simulator = Simulator(SimulationConfig(
        num_users=150, num_websites=300, average_user_visits=100,
        percentage_targeted=1.0, frequency_cap=8, num_weeks=2, seed=42))
    simulator.replace_campaigns([
        dataclasses.replace(
            campaign, launch_tick=(i * 31) % (7 * TICKS_PER_DAY),
            fade_halflife_ticks=4 * TICKS_PER_DAY)
        if campaign.is_targeted else campaign
        for i, campaign in enumerate(simulator.campaigns)])
    result = simulator.run()

    pipeline = DetectionPipeline(DetectorConfig())

    def window(days):
        return pool(evaluate_classifications(
            pipeline.run_window(result.impressions, index=index,
                                window_ticks=days * TICKS_PER_DAY).classified,
            result.ground_truth) for index in range(14 // days))

    day, week, fortnight = window(1), window(7), window(14)
    assert day.undecided / (day.total + day.undecided) >= \
        week.undecided / (week.total + week.undecided)
    assert day.false_negative_rate > 0.6
    assert day.false_negative_rate >= week.false_negative_rate >= \
        fortnight.false_negative_rate
    assert week.false_negative_rate < 0.35
    assert week.false_positive_rate < 0.02


# ---------------------------------------------------------------------------
# §7.2.2 — brand-awareness campaigns do not raise false positives
# ---------------------------------------------------------------------------

def test_s722_false_positives_stay_under_two_percent():
    """Large static campaigns on many sites, visited by users with
    concentrated interests, can make a non-targeted ad look like it
    follows them. The paper's 30+ configurations stayed under 2 %
    misclassification. This keeps the grid's extreme corner — the most
    brand sites (120) at the highest interest affinity (0.8) — for both
    slot counts on the grid's smallest panel (60 users) and for the
    fuller pages on its largest (140), each its own seed."""
    total_fp = total_tn = 0
    worst = 0.0
    corners = ((60, 3), (60, 6), (140, 6))
    for seed, (users, slots) in enumerate(corners, start=1000):
        result = Simulator(SimulationConfig(
            num_users=users, num_websites=200, average_user_visits=70,
            ads_per_website=12, brand_campaign_sites=120,
            interest_affinity=0.8, slots_per_page=slots, frequency_cap=6,
            seed=seed)).run()
        counts = detect(result)
        total_fp += counts.fp
        total_tn += counts.tn
        worst = max(worst, counts.false_positive_rate)
    assert total_fp / (total_fp + total_tn) < 0.02
    assert worst <= 0.05


# ---------------------------------------------------------------------------
# §7.3.4 — evading detection means giving up targeting
# ---------------------------------------------------------------------------

def test_s734_evasion_costs_the_campaign_its_reach():
    """Targeted campaigns constrained to at most L distinct domains per
    user. Unconstrained targeting is detected; one domain per user
    evades the detector but delivers under 55 % of the impressions; and
    reach falls as the limit tightens. Fig. 3's cap-6 panel, seed 42
    (its unconstrained point is Fig. 3's own simulation)."""
    def run(limit):
        if limit == 0:
            return fig3_simulation(6, 42)
        simulator = Simulator(fig3_simulation(6, 42).config)
        simulator.replace_campaigns([
            dataclasses.replace(c, evasion_domain_limit=limit)
            if c.is_targeted else c for c in simulator.campaigns])
        return simulator.run()

    def reach(result):
        return sum(1 for imp in result.impressions
                   if result.is_targeted_truth(imp.ad.identity))

    unconstrained, limit_3, limit_1 = run(0), run(3), run(1)
    recall_0, recall_1 = detect(unconstrained).recall, detect(limit_1).recall
    reach_0, reach_3, reach_1 = map(reach, (unconstrained, limit_3, limit_1))
    assert recall_0 > 0.5
    assert recall_1 < 0.2
    assert reach_1 < 0.55 * reach_0
    assert reach_0 >= reach_3 >= reach_1


# ---------------------------------------------------------------------------
# Fig. 4 — the live-validation evaluation tree
# ---------------------------------------------------------------------------

def test_fig4_evaluation_tree_confirms_most_calls():
    """The §7.3 methodology over a synthetic panel: classify, referee
    every call with the clean-profile crawler, the content-based
    heuristic and noisy crowd labels, then resolve UNKNOWNs. Paper:
    2.7 % of ads targeted, a 27 % TN(CR) block, 78 % likely-TP and 87 %
    likely-TN. Seed 5."""
    report = LiveValidationStudy(
        config=SimulationConfig(num_users=80, num_websites=250,
                                average_user_visits=90, frequency_cap=8,
                                seed=5),
        cb_min_websites=5, labeling_rate=0.3, labeler_accuracy=0.85,
        crawl_sites=80, seed=5).run()
    assert report.classified_targeted / report.total_ads < 0.10
    assert report.tree.rate_within_branch(TreeOutcome.TN_CR) > 0.10
    assert report.likely_tp_rate > 0.6
    assert report.likely_tn_rate > 0.6


# ---------------------------------------------------------------------------
# Table 1 — the base simulation
# ---------------------------------------------------------------------------

def test_table1_base_configuration_detects_without_false_positives():
    """Table 1's per-user parameters (138 visits, 1,000 sites, 20 ads a
    site, 0.1 % targeted) realize their visit rate, and detection finds
    targeted ads with ~0 FPs. The panel is 50 of the table's 500 users:
    visits are per user, and 500 users cost 5 s to simulate. Seed 42."""
    base = SimulationConfig.table1(seed=42)
    assert (base.num_users, base.num_websites, base.average_user_visits,
            base.ads_per_website, base.percentage_targeted) == \
        (500, 1000, 138, 20, 0.1)
    config = dataclasses.replace(base, num_users=50)
    result = Simulator(config).run()
    visits_per_user = len(result.visits) / config.num_users
    assert 0.8 * base.average_user_visits < visits_per_user \
        < 1.2 * base.average_user_visits
    counts = detect(result)
    assert counts.tp > 0
    assert counts.false_positive_rate < 0.02


# ---------------------------------------------------------------------------
# §8 — Table 2 and Fig. 5, the demographic bias study
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def table2_fit():
    """Table 2's odds ratios as the data-generating truth, refitted with
    this library's IRLS. Seed 11."""
    return fit_bias_study(generate_bias_study(num_users=400,
                                              ads_per_user=60, seed=11))


def test_table2_odds_ratios_are_recovered():
    result = table2_fit().result
    for name, paper_or in PAPER_TABLE2_ODDS_RATIOS.items():
        assert result.stat(name).odds_ratio == \
            pytest.approx(paper_or, rel=0.45), name
    # §8.2's directional findings.
    assert result.stat("gender[female]").odds_ratio > \
        result.stat("gender[male]").odds_ratio
    assert result.stat("gender[female]").p_value < 0.001
    assert result.stat("income[30k-60k]").odds_ratio > 1.0
    assert result.stat("income[90k-...]").odds_ratio < 1.0
    assert result.stat("age[60-70]").odds_ratio > 1.5


def test_table2_employment_is_dropped_by_anova():
    """The paper's model selection: employment adds nothing, so the
    likelihood-ratio test against the reduced model is not significant.
    The employment labels here are uninformative. Seed 13."""
    rng = make_rng(13)
    data = generate_bias_study(num_users=300, ads_per_user=40, seed=13)
    observations = [dict(obs, employment=rng.choice(EMPLOYMENT))
                    for obs in data.observations]
    full = LogisticModel(
        factors=[CategoricalSpec("gender", GENDERS, base=None),
                 CategoricalSpec("income", INCOME_BRACKETS, base="0-30k"),
                 CategoricalSpec("age", AGE_BRACKETS, base="1-20"),
                 CategoricalSpec("employment", EMPLOYMENT,
                                 base=EMPLOYMENT[0])],
        include_intercept=False)
    full.fit(observations, data.outcomes)
    reduced = table2_model()
    reduced.fit(data.observations, data.outcomes)
    assert not likelihood_ratio_test(full.result,
                                     reduced.result).significant()


def test_table2_bias_is_recovered_from_simulated_deliveries():
    """The end-to-end procedure: women- and mid-income-skewed filters
    are injected into the ecosystem's targeted campaigns, every
    delivered impression becomes a regression row, and the fit recovers
    the injected directions. Seed 47."""
    simulator = Simulator(SimulationConfig(
        num_users=150, num_websites=250, average_user_visits=90,
        percentage_targeted=2.0, frequency_cap=10, audience_size_max=25,
        seed=47))
    simulator.replace_campaigns(apply_demographic_bias(
        simulator.campaigns, female_bias=0.8, mid_income_bias=0.7,
        older_bias=0.0, seed=47))
    data = observations_from_impressions(simulator.run())
    model = LogisticModel(
        [CategoricalSpec("gender", GENDERS, base=None),
         CategoricalSpec("income", INCOME_BRACKETS, base="0-30k")],
        include_intercept=False)
    model.fit(data.observations, data.outcomes)
    result = model.result
    female = result.stat("gender[female]")
    assert female.odds_ratio > result.stat("gender[male]").odds_ratio
    assert female.p_value < 0.01
    assert result.stat("income[30k-60k]").odds_ratio > \
        result.stat("income[90k-...]").odds_ratio


def test_fig5_predicted_probabilities_follow_section_8_2():
    """Female above male; income rising to 60-90k then dropping sharply
    for 90k+; age highest at 60-70, with a 50-60 dip."""
    curves = predicted_effects(table2_fit())
    gender, income, age = (
        {e.level: e.probability for e in curves[factor]}
        for factor in ("gender", "income", "age"))
    assert gender["female"] > gender["male"]
    assert income["0-30k"] < income["30k-60k"] <= income["60k-90k"] * 1.05
    assert income["90k-..."] < income["0-30k"]
    assert age["60-70"] == max(age.values())
    assert age["50-60"] < age["40-50"]
