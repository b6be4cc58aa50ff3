"""Scoring classifier output against simulator ground truth."""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.types import AdKind, ClassifiedAd, ConfusionCounts, Label


def evaluate_classifications(classified: Iterable[ClassifiedAd],
                             ground_truth: Mapping[str, AdKind]
                             ) -> ConfusionCounts:
    """Confusion counts over (user, ad) classifications.

    UNDECIDED outputs (activity gate not met) are tallied separately and
    excluded from the rates, matching the paper: the algorithm "refrains
    from making a guess" rather than guessing wrong.

    Ads missing from the ground-truth map are skipped — in live validation
    organic ads have no label; in simulation every ad is labelled.
    """
    counts = ConfusionCounts()
    for item in classified:
        kind = ground_truth.get(item.ad.identity)
        if kind is None:
            continue
        if item.label is Label.UNDECIDED:
            counts.undecided += 1
            continue
        counts.add(predicted_targeted=(item.label is Label.TARGETED),
                   actually_targeted=kind.is_targeted)
    return counts
