"""Whole-pipeline byte identity: the benchmark's workloads at their default seeds.

Each digest hashes a workload's reports and result files
(perfbench/workloads.py), so a change anywhere between data generation,
featurization, training and reporting that moves a single output byte
fails here.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

GOLDEN = {
    "pet-headline": "abad2988c953c97afc4d9024d42fcdb05089e8081439e6810489ce71f98e1548",
    "sweep-cli": "aec9ae38b66358f19c3c5c8637c2413124b6f58260040fac72a3a3f37a6a3d90",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_workload_digest_is_pinned(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    state = workload.setup(workload.default_seed, tmp_path)
    try:
        outcome = workload.run(state)
    finally:
        workload.close(state)
    assert outcome.problems == []
    assert outcome.digest == GOLDEN[name]
