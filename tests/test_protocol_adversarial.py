"""Adversarial clients and the anonymity-aware clique-sizing policy.

Two attack surfaces the honest-but-curious paper model leaves open:

* **Report poisoning** — a protocol-conformant client feeding a
  doctored sketch into the blinded sum. :class:`PoisoningClient`'s pull
  on the aggregate is exact (the pads still cancel) and provably
  bounded by its poison budget ``B = sum(|delta|)``, on every CMS
  estimate and on the mean-rule ``Users_th``.
* **Anonymity collapse** — churn shrinking a clique until a report no
  longer hides. :func:`suggest_num_cliques` sizes enrollments so the
  floor holds under forecast churn, and
  ``advance_epoch(min_clique_floor=...)`` refuses (before any state
  changes) a transition that would silently collapse it.
"""

import pytest

from repro.api import ProtocolSession, run_private_round
from repro.errors import ConfigurationError
from repro.protocol.adversary import PoisoningClient, poisoning_pull_bound
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.protocol.membership import MembershipManager, suggest_num_cliques

CONFIG = RoundConfig(cms_depth=4, cms_width=256, cms_seed=7, id_space=500)
USER_IDS = [f"user-{i:02d}" for i in range(12)]
TARGET = "ad-target"


def enrolled(seed=5, num_cliques=2):
    enrollment = enroll_users(USER_IDS, CONFIG, seed=seed, use_oprf=False,
                              num_cliques=num_cliques)
    for i, client in enumerate(enrollment.clients):
        client.observe_ad(f"ad-{i % 4}")
        if i % 3 == 0:
            client.observe_ad(TARGET)
    return enrollment


def run_with_rogue(poison):
    """One round where client 0 is replaced by a poisoning rogue;
    returns (result, enrollment, rogue)."""
    enrollment = enrolled()
    rogue = PoisoningClient.infiltrate(enrollment.clients[0], poison)
    clients = [rogue] + list(enrollment.clients[1:])
    result = run_private_round(CONFIG, clients, round_id=0)
    return result, enrollment, rogue


# ---------------------------------------------------------------------------
# The poisoning pull is exact, and bounded by B
# ---------------------------------------------------------------------------

def test_positive_poison_shifts_target_estimate_by_exactly_delta():
    reference = run_private_round(CONFIG, enrolled().clients, round_id=0)
    boost = 7
    result, enrollment, rogue = run_with_rogue({TARGET: boost})
    ad_id = enrollment.ad_mapper.ad_id(TARGET)
    assert rogue.pull_bound == boost
    # Blinding cancels identically, so the aggregate moves by exactly
    # the poison delta on the target's cells.
    assert result.aggregate.query(ad_id) \
        == reference.aggregate.query(ad_id) + boost


def test_negative_poison_suppresses_the_rogues_own_sighting():
    reference = run_private_round(CONFIG, enrolled().clients, round_id=0)
    # Client 0 honestly saw the target (0 % 3 == 0); delta -1 erases it.
    result, enrollment, _ = run_with_rogue({TARGET: -1})
    ad_id = enrollment.ad_mapper.ad_id(TARGET)
    assert result.aggregate.query(ad_id) \
        == reference.aggregate.query(ad_id) - 1


def test_threshold_shift_is_bounded_by_the_poison_budget():
    reference = run_private_round(CONFIG, enrolled().clients, round_id=0)
    poison = {TARGET: 9, "ad-1": 3}
    result, _, rogue = run_with_rogue(poison)
    bound = poisoning_pull_bound(poison)
    assert rogue.pull_bound == bound == 12
    # Every sampled estimate moves by at most B, so the mean does too.
    shift = abs(result.users_threshold - reference.users_threshold)
    assert shift <= bound
    assert shift > 0  # the attack did real (but bounded) damage


@pytest.mark.parametrize("boost", [1, 8, 64])
def test_threshold_shift_stays_within_the_bound_at_every_boost(boost):
    reference = run_private_round(CONFIG, enrolled().clients, round_id=0)
    result, _, _ = run_with_rogue({TARGET: boost})
    shift = abs(result.users_threshold - reference.users_threshold)
    assert shift <= poisoning_pull_bound({TARGET: boost}) == boost


def test_poisoned_report_is_byte_indistinguishable_on_the_wire():
    honest = enrolled()
    rogue_enrollment = enrolled()
    rogue = PoisoningClient.infiltrate(rogue_enrollment.clients[0],
                                       {TARGET: 50})
    honest_report = honest.clients[0].build_report(0)
    rogue_report = rogue.build_report(0)
    from repro.protocol import wire
    assert len(wire.encode(rogue_report)) == len(wire.encode(honest_report))
    assert rogue_report.size_bytes() == honest_report.size_bytes()


def test_infiltrate_preserves_the_victims_identity_and_window():
    enrollment = enrolled()
    victim = enrollment.clients[0]
    rogue = PoisoningClient.infiltrate(victim, {TARGET: 2})
    assert rogue.user_id == victim.user_id
    assert rogue.clique_id == victim.clique_id
    assert rogue.uplink == victim.uplink
    assert rogue.seen_urls == victim.seen_urls
    assert rogue.blinding is victim.blinding


def test_zero_delta_poison_is_rejected():
    enrollment = enrolled()
    with pytest.raises(ConfigurationError, match="delta"):
        PoisoningClient.infiltrate(enrollment.clients[0], {TARGET: 0})


# ---------------------------------------------------------------------------
# Anonymity-aware clique sizing
# ---------------------------------------------------------------------------

def test_suggest_num_cliques_guarantees_the_floor_after_churn():
    roster = [f"u{i}" for i in range(100)]
    # 100 users, 20% churn forecast -> 80 survivors; k_min=4 -> 20.
    assert suggest_num_cliques(roster, churn_forecast=0.2, k_min=4) == 20
    # No churn: simple floor division.
    assert suggest_num_cliques(roster, k_min=2) == 50
    # The cap wins when tighter.
    assert suggest_num_cliques(roster, k_min=2, max_cliques=8) == 8
    # Tiny rosters still get one clique when the floor holds.
    assert suggest_num_cliques(["a", "b", "c"], k_min=3) == 1


def test_suggest_num_cliques_refuses_an_unholdable_floor():
    with pytest.raises(ConfigurationError, match="anonymity floor"):
        suggest_num_cliques([f"u{i}" for i in range(5)],
                            churn_forecast=0.5, k_min=4)
    with pytest.raises(ConfigurationError, match="churn_forecast"):
        suggest_num_cliques(["a", "b"], churn_forecast=1.0)
    with pytest.raises(ConfigurationError, match="k_min"):
        suggest_num_cliques(["a", "b"], k_min=1)
    with pytest.raises(ConfigurationError, match="duplicate"):
        suggest_num_cliques(["a", "a"])


def test_advance_epoch_refuses_to_collapse_below_the_floor():
    enrollment = enrolled()  # 12 users, 2 cliques of 6
    manager = MembershipManager(enrollment)
    before_epoch = manager.epoch
    before_cliques = dict(manager.epoch.clique_of)
    # Take two members from each clique, so both drop 6 -> 4: below a
    # floor of 5 the advance is refused, and the manager is untouched
    # (the next legal advance still works).
    by_clique = {}
    for user, clique in sorted(before_cliques.items()):
        by_clique.setdefault(clique, []).append(user)
    leaves = [u for members in by_clique.values() for u in members[:2]]
    with pytest.raises(ConfigurationError, match="anonymity floor"):
        manager.advance_epoch(leaves=leaves, min_clique_floor=5)
    assert manager.epoch is before_epoch
    assert dict(manager.epoch.clique_of) == before_cliques
    transition = manager.advance_epoch(leaves=leaves, min_clique_floor=4)
    assert transition.epoch.min_clique_size >= 4


def test_floor_sized_enrollment_survives_the_forecast_churn():
    # The policy end-to-end: size the enrollment for 25% churn with a
    # floor of 3, apply exactly that churn, and the floor holds.
    roster = [f"w{i:02d}" for i in range(16)]
    k = suggest_num_cliques(roster, churn_forecast=0.25, k_min=3)
    enrollment = enroll_users(roster, CONFIG, seed=9, num_cliques=k)
    manager = MembershipManager(enrollment)
    transition = manager.advance_epoch(leaves=roster[:4],
                                       min_clique_floor=3)
    assert transition.epoch.min_clique_size >= 3


def test_poisoning_is_contained_by_session_detection_flow():
    # A session-level sanity: the rogue participates in a full session
    # round (recovery machinery, threshold broadcast) without tripping
    # any protocol error, and the damage stays within its bound.
    enrollment = enrolled()
    rogue = PoisoningClient.infiltrate(enrollment.clients[0], {TARGET: 4})
    clients = [rogue] + list(enrollment.clients[1:])
    reference = run_private_round(CONFIG, enrolled().clients, round_id=0)
    with ProtocolSession(CONFIG, clients) as session:
        result = session.run_round(0)
    assert abs(result.users_threshold - reference.users_threshold) <= 4
    assert rogue.last_threshold == result.users_threshold
