"""Tests of the benchmark itself: names, spans, determinism, failures.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The command-level tests run the real pet-headline workload once per
mode (about half a minute in all); the others use shrunken workloads.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import run as bench  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, PetWorkload, SweepWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL_PET = dict(labeled=12, unlabeled=30, test=20, mlm_steps=20, distill_steps=30, gate=0.0)
SMALL = {
    "pet-headline": PetWorkload(adapter=False, **SMALL_PET),
    "pet-adapter": PetWorkload(adapter=True, **SMALL_PET),
    "sweep-cli": SweepWorkload(sizes=(10, 12), replicates=1, pool=24, test=30, gate=0.0),
}

PET_SPANS = {
    "prompting.render", "backend.features", "backend.toy.score", "backend.toy.train",
    "backend.toy.predict", "backend.toy.create", "pet.run", "pet.train_ensemble",
    "pet.soft_label", "pet.distill", "pet.eval", "metrics.evaluate",
}
EXERCISED = {
    "pet-headline": PET_SPANS,
    "pet-adapter": PET_SPANS | {"backend.adapter.rpc", "backend.serve.handle"},
    "sweep-cli": {
        "data.load", "data.sample", "backend.features", "backend.toy.train",
        "backend.toy.predict", "backend.toy.encode", "backend.toy.fit", "setfit.triplets",
        "setfit.fit", "setfit.predict", "logistic.fit", "finetune.train", "finetune.predict",
        "metrics.evaluate", "harness.sweep", "harness.save",
    },
}


@pytest.fixture(autouse=True)
def package_on_child_path(monkeypatch):
    """Adapter servers started by a test import the package from src."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(paths))


def measure(workload, tmp_path: Path, traced: bool) -> dict:
    spans = tmp_path / "trace.jsonl" if traced else None
    return worker.measure(workload, 7, True, spans, tmp_path, time.perf_counter())


def test_declared_workloads_are_the_defined_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_spans_every_layer_its_workload_exercises(name, tmp_path):
    out = measure(SMALL[name], tmp_path, traced=True)
    assert out["problems"] == []
    assert EXERCISED[name] <= set(out["spans"])
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(out["layers"]) == declared - {"trace.overhead_frac"}
    assert (out["layers"]["backend.adapter.rpc.count"] > 0) == (name == "pet-adapter")
    assert out["layers"]["backend.adapter.rpc.errors"] == 0
    assert (tmp_path / "trace.client.jsonl").stat().st_size > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_reports_are_byte_identical(name, tmp_path):
    plain = measure(SMALL[name], tmp_path, traced=False)
    traced = measure(SMALL[name], tmp_path, traced=True)
    assert plain["problems"] == traced["problems"] == []
    assert plain["digest"] == traced["digest"]


def test_infeasible_sweep_size_counts_as_failed(tmp_path):
    # setfit cannot build positive pairs from a one-example sample.
    workload = SweepWorkload(sizes=(1, 10), replicates=1, pool=20, test=30, gate=0.0)
    out = measure(workload, tmp_path, traced=True)
    assert out["failed"] == 1
    assert out["layers"]["harness.cells_failed"] == 1
    assert bench.metric_series([], [out], [])["ok_rate"] == [1 - 1 / workload.ops]


def test_run_past_its_deadline_is_killed_with_its_server():
    runner = bench.Runner("pet-adapter", 1, time.perf_counter() + 3)
    out = runner.worker("run")
    assert out["crashed"] and "missed its deadline" in out["problems"][0]
    assert out["elapsed_s"] < 10
    with pytest.raises(ProcessLookupError):
        os.killpg(out["pid"], 0)


def test_digest_mismatch_fails_the_run_within_and_across_invocations(tmp_path):
    store = tmp_path / "digests.json"
    first = [{"ops": 1, "failed": 0, "digest": d, "problems": []} for d in ("a", "b")]
    bench.check_digests(store, "key", first)
    assert [r["failed"] for r in first] == [0, 1]
    later = [{"ops": 3, "failed": 0, "digest": "b", "problems": []}]
    bench.check_digests(store, "key", later)
    assert later[0]["failed"] == 3


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_exactly_the_declared_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pet-headline",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=175,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace:
        assert result["metrics"]["backend.adapter.rpc.count"]["value"] == 0
        assert result["metrics"]["backend.features.calls"]["value"] > 0


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pet-headline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
