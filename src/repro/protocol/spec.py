"""JSON codecs for round configs, summaries, results and weekly snapshots.

The HTTP plane serves and the history store persists the protocol's
values as small JSON **specs**: the shared
:class:`~repro.protocol.client.RoundConfig`, a finalized
:class:`~repro.protocol.endpoint.RoundSummary` or
:class:`~repro.protocol.runner.RoundResult` (aggregate cells exact), and
the operator's :class:`WeeklySnapshot`.

Threshold rules are persisted and served by *name* (the
:class:`~repro.core.thresholds.ThresholdRule` values, with the default
:func:`~repro.protocol.endpoint.mean_threshold` mapping to ``"mean"``).
A session's rule is one of those names by construction:
:class:`~repro.api.SessionConfig` refuses a rule :func:`rule_spec` cannot
name.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:
    from repro.protocol.runner import RoundResult

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.protocol.client import RoundConfig
from repro.protocol.endpoint import RoundSummary, ThresholdRuleFn, mean_threshold
from repro.sketch.countmin import CountMinSketch
from repro.statsutil.distributions import EmpiricalDistribution

# ---------------------------------------------------------------------------
# Round config
# ---------------------------------------------------------------------------


def config_to_spec(config: RoundConfig) -> Dict[str, int]:
    return {
        "cms_depth": config.cms_depth,
        "cms_width": config.cms_width,
        "cms_seed": config.cms_seed,
        "id_space": config.id_space,
    }


def config_from_spec(spec: Dict[str, Any]) -> RoundConfig:
    try:
        return RoundConfig(
            cms_depth=int(spec["cms_depth"]),
            cms_width=int(spec["cms_width"]),
            cms_seed=int(spec["cms_seed"]),
            id_space=int(spec["id_space"]),
        )
    except KeyError as exc:
        raise ProtocolError(f"round-config spec missing field {exc}") from None


# ---------------------------------------------------------------------------
# Threshold rules
# ---------------------------------------------------------------------------


def rule_spec(rule: ThresholdRuleFn) -> str:
    """The wire name of a threshold rule, or a refusal for bespoke ones."""
    from repro.core.thresholds import ThresholdRule

    if rule is mean_threshold:
        return "mean"
    owner = getattr(rule, "__self__", None)
    if isinstance(owner, ThresholdRule):
        return owner.value
    raise ConfigurationError(
        "a session's threshold rule is one of the named rules "
        "(repro.core.thresholds.ThresholdRule / the default "
        "mean_threshold), as rules are persisted and served by name; "
        f"got {rule!r}"
    )


def resolve_rule(spec: str) -> ThresholdRuleFn:
    """The callable for a named threshold rule."""
    from repro.core.thresholds import ThresholdRule

    try:
        return ThresholdRule(spec).compute
    except ValueError:
        raise ProtocolError(f"unknown threshold rule {spec!r}") from None


# ---------------------------------------------------------------------------
# Round summaries
# ---------------------------------------------------------------------------


def summary_to_spec(summary: RoundSummary) -> Dict[str, Any]:
    """JSON-serializable form of a finalized round summary.

    Aggregate cells travel as base64 of big-endian ``uint64`` words —
    exact, so the reconstruction is bit-identical. Floats
    survive JSON round-trips exactly (shortest-repr encoding).
    """
    cells = summary.aggregate.cells_array.astype(">u8").tobytes()
    return {
        "round_id": summary.round_id,
        "cells": base64.b64encode(cells).decode("ascii"),
        "distribution": list(summary.distribution.values),
        "users_threshold": summary.users_threshold,
        "reported_users": list(summary.reported_users),
        "missing_users": list(summary.missing_users),
        "recovery_round_used": bool(summary.recovery_round_used),
    }


def summary_from_spec(
    spec: Dict[str, Any], config: Optional[RoundConfig] = None
) -> RoundSummary:
    """Rebuild a :class:`RoundSummary`; needs the shared round config to
    re-wrap the aggregate cells as a :class:`CountMinSketch`."""
    if config is None:
        raise ProtocolError(
            "reconstructing a round summary needs the shared RoundConfig"
        )
    try:
        raw = base64.b64decode(spec["cells"])
        cells = np.frombuffer(raw, dtype=">u8").astype(np.uint64)
        if cells.size != config.num_cells:
            raise ProtocolError(
                f"aggregate spec carries {cells.size} cells, config "
                f"expects {config.num_cells}")
        aggregate = CountMinSketch(
            config.cms_depth, config.cms_width, config.cms_seed, cells=cells
        )
        return RoundSummary(
            round_id=int(spec["round_id"]),
            aggregate=aggregate,
            distribution=EmpiricalDistribution(spec["distribution"]),
            users_threshold=float(spec["users_threshold"]),
            reported_users=list(spec["reported_users"]),
            missing_users=list(spec["missing_users"]),
            recovery_round_used=bool(spec["recovery_round_used"]),
        )
    except (KeyError, ValueError) as exc:
        raise ProtocolError(f"malformed round-summary spec: {exc}") from None


# ---------------------------------------------------------------------------
# Round results and weekly snapshots (the HTTP plane's query payloads)
# ---------------------------------------------------------------------------


def result_to_spec(result: "RoundResult") -> Dict[str, Any]:
    """JSON form of a :class:`~repro.protocol.runner.RoundResult`: the
    round-summary fields (a result is a summary) plus the transport's
    §7.1 byte accounting."""
    spec = summary_to_spec(result)
    spec["total_bytes"] = int(result.total_bytes)
    spec["total_messages"] = int(result.total_messages)
    return spec


def result_from_spec(
    spec: Dict[str, Any], config: Optional[RoundConfig] = None
) -> "RoundResult":
    """Rebuild a :class:`~repro.protocol.runner.RoundResult` exactly —
    the aggregate cells are bit-identical to what was serialized."""
    from repro.protocol.runner import RoundResult

    summary = summary_from_spec(spec, config)
    try:
        return RoundResult(**vars(summary),
                           total_bytes=int(spec["total_bytes"]),
                           total_messages=int(spec["total_messages"]))
    except (KeyError, ValueError) as exc:
        raise ProtocolError(f"malformed round-result spec: {exc}") from None


@dataclass
class WeeklySnapshot:
    """What an operator retains from one weekly round: what the
    extension asks the back-end for (``Users_th``, per-ad estimates from
    the round's aggregate) when it classifies locally."""

    week: int
    users_threshold: float
    distribution: EmpiricalDistribution
    round_result: "RoundResult"


def snapshot_to_spec(snapshot: WeeklySnapshot) -> Dict[str, Any]:
    """JSON form of a :class:`WeeklySnapshot`."""
    return {
        "week": int(snapshot.week),
        "users_threshold": snapshot.users_threshold,
        "distribution": list(snapshot.distribution.values),
        "round_result": result_to_spec(snapshot.round_result),
    }


def snapshot_from_spec(
    spec: Dict[str, Any], config: Optional[RoundConfig] = None
) -> WeeklySnapshot:
    """Rebuild a :class:`WeeklySnapshot`."""
    if config is None:
        raise ProtocolError(
            "reconstructing a weekly snapshot needs the shared RoundConfig"
        )
    try:
        return WeeklySnapshot(
            week=int(spec["week"]),
            users_threshold=float(spec["users_threshold"]),
            distribution=EmpiricalDistribution(spec["distribution"]),
            round_result=result_from_spec(spec["round_result"], config),
        )
    except (KeyError, ValueError) as exc:
        raise ProtocolError(
            f"malformed weekly-snapshot spec: {exc}") from None
