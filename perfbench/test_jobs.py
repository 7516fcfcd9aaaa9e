"""The job list is a pure function of (workload, seed).

Run with ``python3 -m pytest perfbench/test_jobs.py``.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from jobs import ROUNDS, WORKLOADS, config_key, dump, job_list, rounds_of

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_bytes(workload):
    assert dump(job_list(workload, 7)) == dump(job_list(workload, 7))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seed_changes_the_list(workload):
    assert dump(job_list(workload, 7)) != dump(job_list(workload, 8))


def _digest_in_fresh_interpreter(hash_seed: str) -> str:
    code = ("import hashlib, sys; sys.path.insert(0, sys.argv[1]); import jobs; "
            "print(hashlib.sha256(b''.join(jobs.dump(jobs.job_list(w, 3)) "
            "for w in sorted(jobs.WORKLOADS))).hexdigest(), 'hodisc' in sys.modules)")
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    out = subprocess.run([sys.executable, "-c", code, str(HERE)], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.strip()


def test_list_is_identical_across_processes_and_never_imports_hodisc():
    here = hashlib.sha256(b"".join(dump(job_list(w, 3)) for w in sorted(WORKLOADS))).hexdigest()
    assert _digest_in_fresh_interpreter("1") == f"{here} False"
    assert _digest_in_fresh_interpreter("2") == f"{here} False"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_round_holds_every_slot_once(workload):
    jobs = job_list(workload, 11)
    kinds = Counter(kind for kind, _, _ in WORKLOADS[workload])
    assert len(jobs) == ROUNDS * len(WORKLOADS[workload])
    assert [j["id"] for j in jobs] == list(range(len(jobs)))
    for r in range(ROUNDS):
        assert Counter(j["kind"] for j in jobs if j["round"] == r) == kinds


def test_scan_sizes_are_not_powers_of_two():
    for workload in ("disc_float", "disc_exact"):
        for job in job_list(workload, 5):
            if "nmax" in job:
                assert job["nmax"] & (job["nmax"] - 1)


def test_config_key_names_the_matrix_configuration():
    assert config_key({"kind": "warnock", "s": 2, "alpha": 3, "m": 11}) == (2, 3, 11)
    assert config_key({"kind": "scan", "s": 1, "alpha": 2, "nmax": 3000}) == (1, 2, 12)
    assert config_key({"kind": "corollary", "s": 4, "count": 22001}) == (4, 3, 15)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_later_rounds_draw_fresh_inputs(workload):
    batches = list(itertools.islice(rounds_of(workload, 7), 40))
    assert [job for batch in batches[:ROUNDS] for job in batch] == job_list(workload, 7)
    ids = [job["id"] for batch in batches for job in batch]
    assert ids == list(range(len(ids)))
    inputs = [json.dumps([{k: v for k, v in job.items() if k not in ("id", "round")}
                          for job in batch], sort_keys=True) for batch in batches]
    assert len(set(inputs)) == len(inputs)
