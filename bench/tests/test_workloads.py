"""Inputs are a pure function of (workload, seed) — in any process."""

import os
import subprocess
import sys

import pytest

import workloads

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_digest_different_seed_different_digest(name):
    first = workloads.digest(workloads.generate(name, 12))
    assert first == workloads.digest(workloads.generate(name, 12))
    assert first != workloads.digest(workloads.generate(name, 97))


def test_digest_is_stable_across_processes_and_hash_seeds():
    code = ("import workloads; print(' '.join(workloads.digest("
            "workloads.generate(n, 12)) for n in workloads.WORKLOADS))")
    outputs = set()
    for hash_seed in ("0", "1", "random"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=BENCH_DIR)
        outputs.add(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True, timeout=60).stdout)
    assert len(outputs) == 1
    here = " ".join(workloads.digest(workloads.generate(n, 12))
                    for n in workloads.WORKLOADS)
    assert outputs == {here + "\n"}


def test_round_inputs_have_the_documented_shape():
    small = workloads.generate("army_small_cliques", 12)
    assert len(small.user_ids) == 4000 and small.clique_size == 4
    assert small.fan_in == 64 and small.client_backend == "batched"
    big = workloads.generate("army_big_cliques", 12)
    assert len(big.user_ids) == 100 and big.clique_size == 50
    pairs = workloads.generate("socket_pairs", 12)
    assert pairs.clique_size == 2 and pairs.transport == "socket"
    for inputs in (small, big, pairs):
        assert len(set(inputs.user_ids)) == len(inputs.user_ids)
        assert len({len(uid) for uid in inputs.user_ids}) == 1
        assert set(inputs.ads_of) == set(inputs.user_ids)


def test_workloads_module_does_not_import_the_program():
    code = "import sys, workloads; print('repro' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=BENCH_DIR),
                          check=True, capture_output=True, text=True,
                          timeout=60)
    assert done.stdout.strip() == "False"


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.generate("nope", 1)
