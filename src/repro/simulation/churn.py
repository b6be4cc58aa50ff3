"""Churned-population scenarios: who joins and leaves between epochs.

The paper's evaluation holds the panel fixed; a deployed measurement
panel does not sit still. This module generates deterministic join/leave
schedules so the epoch lifecycle (:mod:`repro.protocol.membership`) can
be exercised — and benchmarked — under realistic membership churn:

* :class:`ChurnPlan` — one epoch transition's delta (who joins, who
  leaves);
* :func:`churn_schedule` — a multi-epoch schedule over an initial
  roster: each transition retires a deterministic sample of the current
  roster and admits replacements, drawn from ``joiner_pool`` when given
  (e.g. simulated users held out of the first window) or synthesized
  otherwise. Departed users may be resampled back in later epochs —
  returning users are a real (and, for key-material reuse, interesting)
  deployment case;
* :func:`rosters_over_epochs` — the rosters the schedule produces,
  epoch by epoch.

Everything is seeded: the same ``(roster, churn_rate, seed)`` triple
reproduces the same schedule, which is what lets two independently
constructed epoch sessions be compared bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.statsutil.sampling import make_rng


@dataclass(frozen=True)
class ChurnPlan:
    """One epoch transition: ``leaves`` retire, ``joins`` enroll."""

    epoch_id: int
    joins: Tuple[str, ...]
    leaves: Tuple[str, ...]


def apply_churn(roster: Sequence[str], plan: ChurnPlan) -> List[str]:
    """The roster after one plan, validating the delta is applicable."""
    current = set(roster)
    unknown = sorted(set(plan.leaves) - current)
    if unknown:
        raise ConfigurationError(
            f"plan for epoch {plan.epoch_id} retires users not in the "
            f"roster: {unknown[:5]}")
    already = sorted(set(plan.joins) & current)
    if already:
        raise ConfigurationError(
            f"plan for epoch {plan.epoch_id} admits users already in the "
            f"roster: {already[:5]}")
    return sorted((current - set(plan.leaves)) | set(plan.joins))


def churn_schedule(roster: Sequence[str], num_epochs: int,
                   churn_rate: float, seed: int = 0,
                   joiner_pool: Optional[Sequence[str]] = None,
                   rejoin_probability: float = 0.25,
                   ) -> List[ChurnPlan]:
    """A deterministic multi-epoch join/leave schedule.

    Each transition retires ``round(churn_rate * |roster|)`` users
    sampled from the current roster and admits the same number of
    replacements: fresh ids from ``joiner_pool`` (in order) while it
    lasts, otherwise synthesized ``churn-<epoch>-<n>`` ids — except
    that, with ``rejoin_probability``, a previously departed user
    returns instead (exercising key-material reuse on rejoin).

    ``churn_rate`` is a fraction of the roster per epoch, in ``[0, 1)``;
    the schedule keeps the population size constant, which keeps any
    clique layout viable across every epoch.
    """
    if num_epochs < 0:
        raise ConfigurationError(
            f"num_epochs must be >= 0, got {num_epochs}")
    if not 0.0 <= churn_rate < 1.0:
        raise ConfigurationError(
            f"churn_rate is a fraction of the roster per epoch and must "
            f"be in [0, 1), got {churn_rate}")
    if not 0.0 <= rejoin_probability <= 1.0:
        raise ConfigurationError(
            f"rejoin_probability must be in [0, 1], got "
            f"{rejoin_probability}")
    if len(set(roster)) != len(roster):
        raise ConfigurationError("duplicate user ids in roster")
    rng = make_rng(seed * 0xC2B2AE35 + 1)
    current = sorted(roster)
    departed: List[str] = []
    pool = list(joiner_pool or ())
    overlap = sorted(set(pool) & set(current))
    if overlap:
        raise ConfigurationError(
            f"joiner_pool overlaps the initial roster: {overlap[:5]}")
    plans: List[ChurnPlan] = []
    for epoch_id in range(1, num_epochs + 1):
        quota = round(churn_rate * len(current))
        leaves = sorted(rng.sample(current, quota))
        joins: List[str] = []
        for n in range(quota):
            if departed and rng.random() < rejoin_probability:
                joins.append(departed.pop(rng.randrange(len(departed))))
            elif pool:
                joins.append(pool.pop(0))
            else:
                joins.append(f"churn-{epoch_id}-{n:04d}")
        plan = ChurnPlan(epoch_id=epoch_id, joins=tuple(sorted(joins)),
                         leaves=tuple(leaves))
        current = apply_churn(current, plan)
        departed.extend(leaves)
        departed.sort()
        plans.append(plan)
    return plans


def rosters_over_epochs(roster: Sequence[str],
                        plans: Sequence[ChurnPlan]) -> List[List[str]]:
    """Epoch-by-epoch rosters: element 0 is the initial roster, element
    ``i`` the roster after ``plans[i-1]``."""
    rosters = [sorted(roster)]
    for plan in plans:
        rosters.append(apply_churn(rosters[-1], plan))
    return rosters
