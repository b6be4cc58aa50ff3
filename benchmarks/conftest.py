"""Shared benchmark plumbing.

Every bench prints the table/figure series it regenerates (visible with
``pytest benchmarks/ --benchmark-only -s`` and in the tee'd bench log).
Heavy benches run their workload once via ``benchmark.pedantic``; the
timing numbers measure the reproduction cost, not the paper's metrics.

Perf-trajectory records append to ``BENCH_perf_hotpaths.json`` at the
repo root through :func:`append_trajectory`, which writes a temp file
and renames it over the original — a bench run killed mid-write can
never leave a truncated JSON behind.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

import pytest

#: The repo-root perf-trajectory file every bench appends to.
TRAJECTORY_FILE = Path(__file__).resolve().parent.parent / \
    "BENCH_perf_hotpaths.json"


def append_trajectory(record: dict, path: Path = TRAJECTORY_FILE) -> None:
    """Append one run record to the trajectory file, atomically.

    The read tolerates a missing or corrupt file (the trajectory is
    telemetry, not a gate); the write goes to a sibling temp file that
    is renamed over the target, so concurrent readers and crashed
    writers always see a complete JSON document.
    """
    path = Path(path)
    runs = []
    if path.exists():
        try:
            runs = json.loads(path.read_text()).get("runs", [])
        except (ValueError, OSError, AttributeError):
            runs = []
    runs.append(record)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
    os.replace(tmp, path)


def peak_rss_mb() -> float:
    """This process's lifetime peak resident set size, in MiB.

    ``resource.getrusage`` only — no extra dependency — so this is a
    *high-watermark*, not a point-in-time reading: it never decreases.
    Benches that chart memory against a growing parameter (the scale
    sweep) must therefore run their scales in ascending order, where a
    new high-watermark is attributable to the scale that set it.
    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024 * 1024)
    return peak / 1024


def pytest_collection_modifyitems(config, items):
    """Every bench is ``slow``: tier-1 (`pytest -x -q`) never collects
    this directory (see ``testpaths`` in pytest.ini) and ``-m slow``
    selects the full suite. Per-commit timing lives in ``bench/``."""
    for item in items:
        item.add_marker(pytest.mark.slow)


def print_table(title: str, header: str, rows) -> None:
    """Uniform table printer for the reproduced results."""
    print()
    print(f"== {title} ==")
    print(header)
    for row in rows:
        print(row)
