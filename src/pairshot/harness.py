"""Few-shot sweep harness: sizes x replicates, summaries, result files.

A sweep trains one method at several training-set sizes with several
replicates per size, evaluating every cell on one fixed test set.  A
failed cell is recorded and the sweep continues.  Result files are
canonical JSON without timing, so reruns with the same config are
byte-identical; timing lands in a separate sidecar.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
import warnings
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .backend.contracts import Backend, check_ints
from .backend.toy import ToyBackend, backend_config_with
from .data import Dataset, read_json, sample_training_set, shared_sentences
from .errors import DatasetSizeError, InfeasibleSplitError, brief, check
from .finetune import FinetuneConfig, run_finetune
from .metrics import METRIC_NAMES, EvalReport, ReplicateSummary, aggregate_replicates, format_mean_std
from .pet import PetConfig, run_pet
from .setfit import SetFitConfig, run_setfit


class Method(NamedTuple):
    """A method is its engine config class and its engine's run function;
    a new method is one METHOD_TABLE entry.

    The config's fields with a default are the engine options; a config
    with a for_task constructor takes the rest from the task's built-ins.
    run(engine, train, test=, backend=, seed=) returns a result with a
    report; one that uses_unlabeled also takes unlabeled= and artifacts_dir=.
    """

    config: type
    run: Callable[..., object]
    uses_unlabeled: bool = False

    def report(self, engine, train, unlabeled, test, backend, seed, artifacts_dir=None) -> EvalReport:
        """The test report of one run; only a method that uses_unlabeled
        reads the unlabeled pool or writes artifacts."""
        extra = {"unlabeled": unlabeled, "artifacts_dir": artifacts_dir} if self.uses_unlabeled else {}
        return self.run(engine, train, test=test, backend=backend, seed=seed, **extra).report


METHOD_TABLE: dict[str, Method] = {
    "finetune": Method(FinetuneConfig, run_finetune),
    "setfit": Method(SetFitConfig, run_setfit),
    "pet": Method(PetConfig, run_pet, uses_unlabeled=True),
}
METHODS = tuple(METHOD_TABLE)
DEFAULT_SIZES = (25, 50, 100, 200, 400)


# The JSON form of an ExperimentConfig: every field with its type, the
# fields with a default optional.
_CONFIG = {
    "task_id": str, "method": str, "sizes?": [int], "replicates?": int, "test_size?": int,
    "unlabeled_size?": int, "seed_base?": int, "backend_kind?": str,
    "backend_options?": dict, "engine_options?": dict,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs, serializable and hashable.

    engine_options feed the method's config constructor (for the
    prompt-ensemble method, patterns come from the task's built-ins and
    are not an option here).

    test_size is recorded in the result (and its config hash) but
    nothing reads it: a sweep evaluates every pair of the test file it
    is given.  The field stays because existing config files carry it.
    """

    task_id: str
    method: str
    sizes: tuple[int, ...] = DEFAULT_SIZES
    replicates: int = 3
    test_size: int = 2000
    unlabeled_size: int = 5000
    seed_base: int = 1
    backend_kind: str = "toy"
    backend_options: dict = field(default_factory=dict)
    engine_options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check(vars(self), {"task_id": str, "method": str, "backend_kind": str, "sizes": list},
              TypeError, "config")
        object.__setattr__(self, "sizes", tuple(self.sizes))
        check_ints(self, sizes=1, replicates=1, test_size=1, unlabeled_size=0, seed_base=None)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {brief(self.method)}")
        if not self.sizes:
            raise ValueError("sizes must hold at least one size")
        check(vars(self), {"backend_options": dict, "engine_options": dict}, ValueError, "config")

    def to_payload(self) -> dict:
        payload = asdict(self)
        payload["sizes"] = list(self.sizes)
        return payload

    @staticmethod
    def from_payload(payload: Mapping[str, object]) -> "ExperimentConfig":
        """The config a sweep config file holds; ValueError naming the first
        field that is missing, unknown or of the wrong JSON type."""
        check(payload, _CONFIG, ValueError, "config", closed=True)
        return ExperimentConfig(**payload)  # type: ignore[arg-type]

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_payload(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def replicate_seed(seed_base: int, replicate_index: int) -> int:
    """Seed for one replicate: base * 1000 + zero-based index."""
    return seed_base * 1000 + replicate_index


# The backend options of each adapter kind: deployment settings only.
_ADAPTER_OPTIONS = {
    "adapter-subprocess": {"command": [str]},
    "adapter-tcp": {"port": int, "host?": str},
}


def build_backend(kind: str, options: Mapping[str, object]) -> Backend:
    """Construct the backend of this kind from its backend options.

    The adapter kinds take deployment settings only: adapter-subprocess a
    command (a list of strings), adapter-tcp a port and an optional host.
    """
    if kind == "toy":
        return ToyBackend(backend_config_with(options))
    if kind not in _ADAPTER_OPTIONS:
        raise ValueError(f"unknown backend kind {brief(kind)}")
    check(options, _ADAPTER_OPTIONS[kind], ValueError, f"the {kind} backend", closed=True)
    from .backend.adapter import connect_subprocess, connect_tcp

    if kind == "adapter-subprocess":
        if not options["command"]:
            raise ValueError("backend option command must not be empty")
        return connect_subprocess(options["command"])
    if not 0 < options["port"] < 1 << 16:
        raise ValueError(f"backend option port must be in 1-65535, got {brief(options['port'])}")
    return connect_tcp(options.get("host", "127.0.0.1"), options["port"])


@dataclass
class CellResult:
    """One (size, replicate) training run."""

    size: int
    replicate: int
    seed: int
    status: str  # "ok" or "failed"
    report: EvalReport | None
    error: str | None
    seconds: float


@dataclass
class SweepResult:
    config: ExperimentConfig
    cells: list[CellResult]
    summaries: dict[int, ReplicateSummary]
    wall_seconds: float

    @property
    def failed(self) -> int:
        """The number of failed cells."""
        return sum(cell.status != "ok" for cell in self.cells)

    @property
    def cell_seconds(self) -> float:
        return sum(cell.seconds for cell in self.cells)

    def to_payload(self) -> dict:
        cells = []
        for cell in self.cells:
            entry: dict = {
                "size": cell.size,
                "replicate": cell.replicate,
                "seed": cell.seed,
                "status": cell.status,
            }
            if cell.report is not None:
                entry["report"] = json.loads(cell.report.to_json())
            if cell.error is not None:
                entry["error"] = cell.error
            cells.append(entry)
        return {
            "format": "pairshot-sweep",
            "version": 1,
            "config": self.config.to_payload(),
            "config_hash": self.config.config_hash(),
            "cells": cells,
            "summaries": {
                str(size): {
                    "count": summary.count,
                    "means": summary.means,
                    "stds": summary.stds,
                }
                for size, summary in sorted(self.summaries.items())
            },
        }

    def to_json(self) -> str:
        """Canonical JSON; deterministic for a deterministic backend."""
        return json.dumps(self.to_payload(), sort_keys=True)


def check_task(task_id: str, dataset: Dataset | None, what: str) -> None:
    """DatasetSizeError naming both tasks unless dataset (what) is None or holds task_id's data."""
    if dataset is not None and dataset.label_set.task_id != task_id:
        raise DatasetSizeError(
            f"{what} holds {brief(dataset.label_set.task_id)} data, not {brief(task_id)}"
        )


def check_data(task_id: str, train: Dataset, test: Dataset, unlabeled: Dataset | None) -> None:
    """Refuse data no run of task_id can train on and evaluate: a set of
    another task or a test set with other labels (DatasetSizeError), an
    empty test set, or training and test sets that share a sentence
    (InfeasibleSplitError)."""
    check_task(task_id, train, "the pool")
    check_task(task_id, unlabeled, "the unlabeled pool")
    if train.label_set.labels != test.label_set.labels:
        raise DatasetSizeError("pool and test label sets differ")
    check_task(task_id, test, "the test set")
    if len(test) < 1:
        raise DatasetSizeError("test set is empty")
    clashes = shared_sentences(train, test)
    if clashes:
        raise InfeasibleSplitError(
            f"training pool and test set share {len(clashes)} sentence(s),"
            f" e.g. {brief(sorted(clashes)[:3])}",
            max_test_size=0,
        )


def engine_config(method: str, task_id: str, options: Mapping[str, object], what: str) -> object:
    """The engine config of method for task_id built from options; a
    ValueError naming what and the first key that is no option of the
    method, or the options when the config refuses their values."""
    config = METHOD_TABLE[method].config
    names = {f"{f.name}?": object for f in fields(config) if f.default is not MISSING}
    check(options, names, ValueError, what, closed=True)
    try:
        build = getattr(config, "for_task", None)
        return build(task_id, **options) if build else config(**options)
    except (TypeError, ValueError) as exc:
        given = " ".join(f"{key}={brief(value)}" for key, value in options.items())
        raise ValueError(f"{what} {given} refused by {method}: {exc}") from exc


def _run_cell(
    config: ExperimentConfig,
    engine: object,
    pool: Dataset,
    test: Dataset,
    unlabeled: Dataset | None,
    take: int,
    backend: Backend,
    size: int,
    replicate: int,
) -> CellResult:
    """Train and evaluate one (size, replicate) cell on a labeled sample
    of pool, and on an unlabeled sample of take examples when take > 0; a
    failure is recorded in the cell, not raised."""
    seed = replicate_seed(config.seed_base, replicate)
    started = time.perf_counter()
    try:
        sample = sample_training_set(pool, size, seed)
        drawn = sample_training_set(unlabeled, take, seed, kind="unlabeled") if take else None
        report = METHOD_TABLE[config.method].report(engine, sample, drawn, test, backend, seed)
    except Exception as exc:  # keep sweeping; the cell is marked failed
        return CellResult(size, replicate, seed, "failed", None, f"{type(exc).__name__}: {exc}",
                          time.perf_counter() - started)
    return CellResult(size, replicate, seed, "ok", report, None, time.perf_counter() - started)


def run_sweep(
    config: ExperimentConfig,
    pool: Dataset,
    test: Dataset,
    unlabeled: Dataset | None = None,
    backend: Backend | None = None,
) -> SweepResult:
    """Run every (size, replicate) cell; failures are recorded, not fatal.

    The data's task, the feasibility (pool size, sentence disjointness),
    the engine options and the unlabeled pool's size (one warning when it
    holds fewer examples than unlabeled_size asks for) are settled before
    any training starts.
    """
    check_data(config.task_id, pool, test, unlabeled)
    if max(config.sizes) > len(pool):
        raise DatasetSizeError(
            f"largest size {max(config.sizes)} exceeds pool of {len(pool)} examples"
        )
    engine = engine_config(config.method, config.task_id, config.engine_options, "engine_options")
    take = 0
    if METHOD_TABLE[config.method].uses_unlabeled and unlabeled is not None:
        take = min(config.unlabeled_size, len(unlabeled))
        if 0 < take < config.unlabeled_size:
            warnings.warn(
                f"unlabeled pool has {len(unlabeled)} examples; "
                f"requested {config.unlabeled_size}, using all of them"
            )
    built = backend is None
    if built:
        backend = build_backend(config.backend_kind, config.backend_options)

    started = time.perf_counter()
    try:
        cells = [
            _run_cell(config, engine, pool, test, unlabeled, take, backend, size, replicate)
            for size in config.sizes
            for replicate in range(config.replicates)
        ]
    finally:
        if built:
            backend.close()
    summaries: dict[int, ReplicateSummary] = {}
    for size in config.sizes:
        reports = [c.report for c in cells if c.size == size and c.report is not None]
        if reports:
            summaries[size] = aggregate_replicates(reports)
    return SweepResult(config, cells, summaries, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# Persistence


def save_sweep(result: SweepResult, out_dir: str | Path, name: str = "sweep") -> Path:
    """Write result, timing sidecar, and manifest; returns the result path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / f"{name}.result.json"
    result_path.write_text(result.to_json() + "\n", encoding="utf-8")
    timing = {
        "wall_seconds": result.wall_seconds,
        "cell_seconds": result.cell_seconds,
        "cells": [
            {"size": c.size, "replicate": c.replicate, "seconds": c.seconds} for c in result.cells
        ],
    }
    (out / f"{name}.timing.json").write_text(
        json.dumps(timing, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    import numpy

    from . import __version__

    manifest = {
        "config": result.config.to_payload(),
        "config_hash": result.config.config_hash(),
        "seeds": [replicate_seed(result.config.seed_base, r) for r in range(result.config.replicates)],
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": numpy.__version__,
    }
    (out / f"{name}.manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return result_path


# The fields of a sweep result file that reports read.
_SUMMARY = {part: {name: float for name in METRIC_NAMES} for part in ("means", "stds")}
_RESULT = {
    "config": {"task_id": str, "method": str, "backend_kind": str, "sizes": [int]},
    "cells": [{"size": object, "status": object}],
    "summaries": {str: _SUMMARY},
}


def load_sweep_payload(path: str | Path) -> dict:
    """The sweep result file at path; ValueError naming the file and the
    field when a field that reports read is missing or mistyped."""
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != "pairshot-sweep":
        raise ValueError(f"{path} is not a sweep result file")
    check(payload, _RESULT, ValueError, f"sweep result {path}")
    if not all(size.isdecimal() for size in payload["summaries"]):
        raise ValueError(f"sweep result {path}: summaries are not keyed by size")
    return payload


# ---------------------------------------------------------------------------
# Tables


def emit_table(payload: dict, metric: str = "accuracy", fmt: str = "text") -> str:
    """Render the per-size summaries of a sweep result payload as text, JSON, or CSV."""
    config = payload["config"]
    rows = []
    for size in config["sizes"]:
        statuses = [c["status"] for c in payload["cells"] if c["size"] == size]
        row = {"size": size, "mean": None, "std": None, "count": 0, "of": len(statuses)}
        summary = payload["summaries"].get(str(size))
        if summary is not None:
            row.update(mean=summary["means"][metric], std=summary["stds"][metric])
            row["count"] = statuses.count("ok")
        rows.append(row)
    if fmt == "json":
        table = {
            "task_id": config["task_id"],
            "method": config["method"],
            "backend": config["backend_kind"],
            "metric": metric,
            "rows": rows,
        }
        return json.dumps(table, sort_keys=True, indent=2)
    if fmt == "csv":
        lines = [f"size,{metric}_mean,{metric}_std,replicates"]
        for row in rows:
            mean = "" if row["mean"] is None else repr(row["mean"])
            std = "" if row["std"] is None else repr(row["std"])
            lines.append(f"{row['size']},{mean},{std},{row['count']}")
        return "\n".join(lines)
    if fmt == "text":
        header = (
            f"task={config['task_id']} method={config['method']} "
            f"backend={config['backend_kind']} metric={metric}"
        )
        lines = [header]
        for row in rows:
            if row["mean"] is None:
                lines.append(f"{row['size']:>6}  failed ({row['of']} cell(s))")
            else:
                cell = format_mean_std(row["mean"], row["std"])
                suffix = "" if row["count"] == row["of"] else f"  [{row['of'] - row['count']} failed]"
                lines.append(f"{row['size']:>6}  {cell}{suffix}")
        return "\n".join(lines)
    raise ValueError(f"unknown table format {fmt!r}")


def render_comparison(payloads: Sequence[dict], metric: str = "accuracy") -> str:
    """Side-by-side text table for several sweep result payloads.

    Within a row (a training size), the best mean among columns of the
    same task is starred and the best among columns sharing a backend
    is underscored, mimicking bold and underline in print.
    """
    if not payloads:
        raise ValueError("no sweep results to compare")
    columns = []
    for payload in payloads:
        cfg = payload["config"]
        columns.append(
            {
                "label": f"{cfg['task_id']}/{cfg['method']}@{cfg['backend_kind']}",
                "task": cfg["task_id"],
                "backend": cfg["backend_kind"],
                "summaries": payload["summaries"],
            }
        )
    sizes = sorted({int(s) for col in columns for s in col["summaries"]})
    width = max(len(col["label"]) for col in columns) + 2
    lines = ["size".rjust(6) + "".join(col["label"].rjust(width) for col in columns)]
    for size in sizes:
        values: list[float | None] = []
        for col in columns:
            summary = col["summaries"].get(str(size))
            values.append(None if summary is None else summary["means"][metric])
        best_task: dict[str, float] = {}
        best_backend: dict[str, float] = {}
        for col, value in zip(columns, values):
            if value is None:
                continue
            if col["task"] not in best_task or value > best_task[col["task"]]:
                best_task[col["task"]] = value
            if col["backend"] not in best_backend or value > best_backend[col["backend"]]:
                best_backend[col["backend"]] = value
        row = [str(size).rjust(6)]
        for col, value in zip(columns, values):
            if value is None:
                row.append("-".rjust(width))
                continue
            summary = col["summaries"][str(size)]
            cell = format_mean_std(value, summary["stds"][metric])
            if len(payloads) > 1 and value == best_task[col["task"]]:
                cell = f"*{cell}"
            if len(payloads) > 1 and value == best_backend[col["backend"]]:
                cell = f"_{cell}"
            row.append(cell.rjust(width))
        lines.append("".join(row))
    return "\n".join(lines)
