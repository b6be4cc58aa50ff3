"""Make ``bench/`` and ``src/`` importable for the benchmark's own tests
(run with ``python -m pytest bench/tests -q``; tier-1 never collects
this directory — ``pytest.ini`` pins ``testpaths = tests``)."""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
