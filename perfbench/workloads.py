"""The benchmark's workloads: inputs from a seed, one run, output checks.

All three use the ``so_duplicate`` synthetic task and are closed loops
with one caller and one outstanding call.  Each workload object has
``setup`` (inputs, files and, for pet-adapter, the server), ``run``
(the measured library calls plus the output checks) and ``close``.
Only public entry points are called: ``run_pet``,
``connect_subprocess`` and ``pairshot.cli.main``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import pairshot.cli
import pairshot.pet
from pairshot.backend.adapter import connect_subprocess
from pairshot.backend.toy import ToyBackend
from pairshot.data import save_dataset, split_no_leakage
from pairshot.prompting import builtin_pvps
from pairshot.synthetic import synthetic_pool, synthetic_unlabeled

TASK = "so_duplicate"
SERVER_COMMAND = (sys.executable, "-m", "pairshot.backend.serve")


@dataclass
class Outcome:
    """What one run did: operations failed, quality, result digest."""

    failed: int
    accuracy: float | None
    macro_f1: float | None
    digest: str
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class PetWorkload:
    """The acceptance headline PET run, in-process or over the adapter.

    Data seeds are seed, seed + 1 and seed + 2 for the labeled,
    unlabeled and test pools (101/102/103 by default, the acceptance
    seeds); run_pet's own seed stays at the acceptance value 11.
    """

    adapter: bool
    labeled: int = 50
    unlabeled: int = 1000
    test: int = 500
    mlm_steps: int = 300
    distill_steps: int = 600
    batch: int = 8
    run_seed: int = 11
    gate: float = 0.90
    default_seed: int = 101

    @property
    def ops(self) -> int:
        """Operations in one run: the PET run itself."""
        return 1

    def setup(self, seed: int, workdir: Path, server_command=SERVER_COMMAND) -> dict:
        state = {
            "train": synthetic_pool(TASK, self.labeled, seed=seed),
            "unlabeled": synthetic_unlabeled(TASK, self.unlabeled, seed=seed + 1),
            "test": synthetic_pool(
                TASK, self.test, seed=seed + 2, kind="test", serial_prefix="t"
            ),
            "spawn_s": 0.0,
        }
        if self.adapter:
            started = time.perf_counter()
            state["backend"] = connect_subprocess(list(server_command))
            state["spawn_s"] = time.perf_counter() - started
        else:
            state["backend"] = ToyBackend()
        return state

    def run(self, state: dict) -> Outcome:
        config = pairshot.pet.PetConfig(
            pvps=tuple(builtin_pvps(TASK)),
            mlm_steps=self.mlm_steps,
            distill_steps=self.distill_steps,
            batch=self.batch,
        )
        result = pairshot.pet.run_pet(
            config,
            state["train"],
            state["unlabeled"],
            state["test"],
            state["backend"],
            seed=self.run_seed,
            evaluate_ensemble=True,
        )
        problems = []
        if result.soft_labeled != self.unlabeled:
            problems.append(f"soft-labeled {result.soft_labeled} of {self.unlabeled}")
        ensemble = result.ensemble_report
        for name, report in (("distilled", result.report), ("ensemble", ensemble)):
            if report is None or report.accuracy < self.gate:
                accuracy = None if report is None else report.accuracy
                problems.append(f"{name} accuracy {accuracy} below {self.gate}")
        digest = hashlib.sha256()
        for text in (
            result.report.to_json(),
            "" if ensemble is None else ensemble.to_json(),
            json.dumps(result.member_weights, sort_keys=True),
            json.dumps(result.metadata, sort_keys=True),
        ):
            digest.update(text.encode("utf-8") + b"\n")
        return Outcome(
            failed=1 if problems else 0,
            accuracy=result.report.accuracy,
            macro_f1=result.report.macro_f1,
            digest=digest.hexdigest(),
            problems=problems,
        )

    @staticmethod
    def close(state: dict) -> None:
        close = getattr(state.get("backend"), "close", None)
        if close is not None:
            close()


@dataclass(frozen=True)
class SweepWorkload:
    """Two ``pairshot sweep`` calls, finetune then setfit, on one split.

    Set-up draws a pool + test source from seed (31 by default) and cuts
    it with split_no_leakage under seed + 1 (32), then writes both sides
    as JSONL with their manifests and one config file per method.
    """

    sizes: tuple[int, ...] = (25, 100, 400)
    replicates: int = 2
    pool: int = 450
    test: int = 1000
    methods: tuple[str, ...] = ("finetune", "setfit")
    gate: float = 0.85
    default_seed: int = 31

    @property
    def ops(self) -> int:
        """Operations in one run: every sweep cell of every method."""
        return len(self.sizes) * self.replicates * len(self.methods)

    def setup(self, seed: int, workdir: Path, server_command=SERVER_COMMAND) -> dict:
        source = synthetic_pool(TASK, self.pool + self.test, seed=seed)
        pool, test = split_no_leakage(source, self.pool, self.test, seed=seed + 1)
        save_dataset(pool, workdir / "pool.jsonl", source="perfbench")
        save_dataset(test, workdir / "test.jsonl", source="perfbench")
        for method in self.methods:
            config = {
                "task_id": TASK,
                "method": method,
                "sizes": list(self.sizes),
                "replicates": self.replicates,
                "test_size": self.test,
            }
            (workdir / f"{method}.config.json").write_text(json.dumps(config), encoding="utf-8")
        return {"workdir": workdir, "spawn_s": 0.0}

    def run(self, state: dict) -> Outcome:
        workdir: Path = state["workdir"]
        planned = len(self.sizes) * self.replicates
        failed = 0
        problems: list[str] = []
        accuracies: list[float] = []
        macro_f1s: list[float] = []
        digest = hashlib.sha256()
        for method in self.methods:
            pairshot.cli.main(
                [
                    "sweep",
                    "--config", str(workdir / f"{method}.config.json"),
                    "--pool", str(workdir / "pool.jsonl"),
                    "--test", str(workdir / "test.jsonl"),
                    "--name", method,
                    "--out", str(workdir / "out"),
                ]
            )
            result_path = workdir / "out" / f"{method}.result.json"
            if not result_path.exists():
                failed += planned
                problems.append(f"{method}: no result file")
                continue
            raw = result_path.read_bytes()
            digest.update(raw)
            ok = [c for c in json.loads(raw)["cells"] if c["status"] == "ok"]
            if len(ok) < planned:
                problems.append(f"{method}: {planned - len(ok)} of {planned} cells failed")
            accuracies += [c["report"]["accuracy"] for c in ok]
            macro_f1s += [c["report"]["macro_f1"] for c in ok]
            top = [c["report"]["accuracy"] for c in ok if c["size"] == max(self.sizes)]
            if top and statistics.fmean(top) >= self.gate:
                failed += planned - len(ok)
            else:
                failed += planned
                problems.append(f"{method}: mean accuracy at size {max(self.sizes)} "
                                f"is {statistics.fmean(top) if top else None}, gate {self.gate}")
        return Outcome(
            failed=failed,
            accuracy=statistics.fmean(accuracies) if accuracies else None,
            macro_f1=statistics.fmean(macro_f1s) if macro_f1s else None,
            digest=digest.hexdigest(),
            problems=problems,
        )

    @staticmethod
    def close(state: dict) -> None:
        pass


WORKLOADS = {
    "pet-headline": PetWorkload(adapter=False),
    "pet-adapter": PetWorkload(adapter=True),
    "sweep-cli": SweepWorkload(),
}
