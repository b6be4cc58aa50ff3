"""Smoke tests: every example script runs green as a subprocess.

Examples are the adoption surface; a release where `python
examples/quickstart.py` crashes is broken regardless of test coverage.
The slowest studies are exercised by their benches, so the two heaviest
examples are capped with generous timeouts.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: (script, timeout seconds). The Figure-3 sweep and validation study are
#: exercised at full size by their benches; smoke timeouts stay generous.
EXAMPLES = [
    ("quickstart.py", 240),
    ("privacy_protocol_demo.py", 120),
    ("socket_round.py", 180),
    ("realtime_audit.py", 120),
    ("longitudinal_deployment.py", 420),
]


@pytest.mark.parametrize("script,timeout", EXAMPLES,
                         ids=[s for s, _ in EXAMPLES])
def test_example_runs(script, timeout):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    result = subprocess.run([sys.executable, str(path)],
                            capture_output=True, text=True,
                            timeout=timeout)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_all_examples_enumerated():
    """Every example file is either smoke-tested here or bench-covered."""
    bench_covered = {"simulation_study.py", "live_validation.py",
                     "bias_audit.py"}
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    tested = {s for s, _ in EXAMPLES} | bench_covered
    assert on_disk == tested
