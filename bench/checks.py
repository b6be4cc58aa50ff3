"""Output checks, run outside the timed region; each returns the list
of reasons an operation failed (empty = correct).

A round is correct when nobody was lost, the released aggregate equals
the plain sum of the cleartext sketches cell for cell, and the cells
add up to ``depth * sum(|ads_u|)`` — the identity that fails loudly the
moment pairwise pads stop cancelling (an uncancelled pad leaves uniform
32-bit noise in every cell). A detection run additionally has to clear
precision/recall floors against the simulator's ground truth.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.api import RoundConfig, RoundResult
from repro.types import ClassifiedAd, ConfusionCounts, Label
from workloads import DEFAULT_SEED, HELD_OUT_SEED

#: (precision, recall) a detection run must reach against ground truth,
#: pooled over a pipeline's weeks. Pinned for the two documented seeds
#: 0.05 under the measured value (0.800/0.622 and 0.671/0.959); any
#: other seed gets a floor under the worst of 41 surveyed seeds
#: (0.33/0.56) — a detector labelling at random scores ~0.002 precision.
QUALITY_FLOORS: Dict[int, Tuple[float, float]] = {
    DEFAULT_SEED: (0.75, 0.57), HELD_OUT_SEED: (0.62, 0.90)}
GENERAL_QUALITY_FLOOR = (0.20, 0.40)
#: Share of (user, ad) verdicts on which the private pipeline must agree
#: with the cleartext oracle (CMS over-counts flip < 0.2 % of them).
ORACLE_AGREEMENT_FLOOR = 0.99


def quality_floor(seed: int) -> Tuple[float, float]:
    return QUALITY_FLOORS.get(seed, GENERAL_QUALITY_FLOOR)


def plain_sum(config: RoundConfig, ad_mapper,
              pairs: Iterable[Tuple[str, str]]) -> np.ndarray:
    """Reference aggregate: one cleartext sketch holding every
    (user, ad) pair — by linearity the sum of all users' sketches."""
    sketch = config.make_sketch()
    sketch.update_many([ad_mapper.ad_id(url) for _, url in pairs])
    return sketch.cells_array.copy()


def check_round(result: RoundResult, roster: Sequence[str],
                expected_cells: np.ndarray, num_pairs: int) -> List[str]:
    failures: List[str] = []
    if result.missing_users:
        failures.append(f"lost users {result.missing_users[:3]}")
    if sorted(result.reported_users) != sorted(roster):
        failures.append("reported users differ from the roster")
    cells = result.aggregate.cells_array
    if int(cells.sum(dtype=np.uint64)) != result.aggregate.depth * num_pairs:
        failures.append("cell total != depth * sum|ads_u| (pads did not "
                        "cancel)")
    if not np.array_equal(cells, expected_cells):
        failures.append("aggregate != plain sum of cleartext sketches")
    return failures


def confusion(classified: Sequence[ClassifiedAd],
              targeted_truth: Set[str], counts: ConfusionCounts) -> None:
    """Accumulate one week's verdicts against ground truth."""
    for call in classified:
        if call.label is Label.UNDECIDED:
            counts.undecided += 1
        else:
            counts.add(call.is_targeted, call.ad.identity in targeted_truth)


def oracle_labels(classified: Sequence[ClassifiedAd]
                  ) -> Dict[Tuple[str, str], Label]:
    return {(call.user_id, call.ad.identity): call.label
            for call in classified}


def check_against_oracle(classified: Sequence[ClassifiedAd],
                         oracle: Dict[Tuple[str, str], Label]) -> List[str]:
    """The private pipeline must classify the same pairs as the
    cleartext oracle and agree on nearly all of them."""
    verdicts = oracle_labels(classified)
    if verdicts.keys() != oracle.keys():
        return ["classified pairs differ from the cleartext oracle's"]
    agree = sum(oracle[pair] is label for pair, label in verdicts.items())
    if agree < ORACLE_AGREEMENT_FLOOR * len(oracle):
        return [f"only {agree}/{len(oracle)} verdicts agree with the "
                f"cleartext oracle"]
    return []


def check_quality(counts: ConfusionCounts, seed_floor: Tuple[float, float]
                  ) -> List[str]:
    precision_floor, recall_floor = seed_floor
    failures: List[str] = []
    if counts.precision < precision_floor:
        failures.append(f"precision {counts.precision:.3f} below the floor "
                        f"{precision_floor}")
    if counts.recall < recall_floor:
        failures.append(f"recall {counts.recall:.3f} below the floor "
                        f"{recall_floor}")
    return failures
