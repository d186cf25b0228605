"""Whole-pipeline byte identity: the benchmark's workloads at their default seeds.

Each digest hashes a workload's reports and result files
(perfbench/workloads.py), so a change anywhere between data generation,
featurization, training and reporting that moves a single output byte
fails here.  The pet-headline reports are 1.0 on balanced classes at
every data seed, so its distilled classifier's weights are pinned too,
and each workload's featurizer traffic: every distinct text asked for is
hashed exactly once.
"""

import hashlib
from pathlib import Path

import pytest

import pairshot.pet
from pairshot.backend import features
from pairshot.backend.features import Featurizer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

GOLDEN = {
    "pet-headline": "abad2988c953c97afc4d9024d42fcdb05089e8081439e6810489ce71f98e1548",
    "sweep-cli": "aec9ae38b66358f19c3c5c8637c2413124b6f58260040fac72a3a3f37a6a3d90",
}
# sha256 of the distilled classifier's W bytes in pet-headline's run.
DISTILLED_W = "82cf9cbfdb99f7131c93ee45fa401e698e65bb935f5ebe53d0cd033d94ce70d2"
# Distinct texts each workload featurizes.
DISTINCT_TEXTS = {"pet-headline": 6200, "sweep-cli": 1446}


def run_workload(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    state = workload.setup(workload.default_seed, tmp_path)
    try:
        return workload.run(state)
    finally:
        workload.close(state)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_workload_digest_is_pinned(name, tmp_path, monkeypatch):
    outcome = run_workload(name, tmp_path, monkeypatch)
    assert outcome.problems == []
    assert outcome.digest == GOLDEN[name]


def test_distilled_pet_weights_are_pinned(tmp_path, monkeypatch):
    classifiers = []
    run_pet = pairshot.pet.run_pet

    def spy(*args, **kwargs):
        result = run_pet(*args, **kwargs)
        classifiers.append(result.classifier)
        return result

    monkeypatch.setattr(pairshot.pet, "run_pet", spy)
    assert run_workload("pet-headline", tmp_path, monkeypatch).problems == []
    (classifier,) = classifiers
    assert hashlib.sha256(classifier.W.tobytes()).hexdigest() == DISTILLED_W


@pytest.mark.parametrize("name", sorted(DISTINCT_TEXTS))
def test_each_distinct_text_is_hashed_once(name, tmp_path, monkeypatch):
    monkeypatch.setattr(features, "_tables", {})
    asked, hashed = set(), []
    occurrences, hash_chunk = Featurizer._occurrences, Featurizer._hash_chunk

    def ask(self, texts):
        asked.update(texts)
        return occurrences(self, texts)

    def hash_(self, texts):
        hashed.extend(texts)
        return hash_chunk(self, texts)

    monkeypatch.setattr(Featurizer, "_occurrences", ask)
    monkeypatch.setattr(Featurizer, "_hash_chunk", hash_)
    assert run_workload(name, tmp_path, monkeypatch).problems == []
    assert len(hashed) == len(set(hashed)) == DISTINCT_TEXTS[name]
    assert set(hashed) == asked
