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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .backend.contracts import Backend, check_ints
from .backend.toy import ToyBackend, backend_config_with
from .data import Dataset, read_json, sample_training_set, shared_sentences
from .errors import DatasetSizeError, InfeasibleSplitError, brief
from .finetune import FinetuneConfig, run_finetune
from .metrics import METRIC_NAMES, EvalReport, ReplicateSummary, aggregate_replicates, format_mean_std
from .pet import PetConfig, run_pet
from .setfit import SetFitConfig, run_setfit


class Method(NamedTuple):
    """How to build a method's engine config and run it once.

    make_config(task_id, **engine_options) builds the engine config;
    run(engine, train, unlabeled, test, backend, seed, artifacts_dir)
    returns the test report.  Only methods with uses_unlabeled read the
    unlabeled pool or write artifacts.
    """

    make_config: Callable[..., object]
    run: Callable[..., EvalReport]
    uses_unlabeled: bool = False


def _run_finetune(engine, train, unlabeled, test, backend, seed, artifacts_dir):
    return run_finetune(engine, train, test, backend, seed)[1]


def _run_setfit(engine, train, unlabeled, test, backend, seed, artifacts_dir):
    return run_setfit(engine, train, test, backend, seed)[1]


def _run_pet(engine, train, unlabeled, test, backend, seed, artifacts_dir):
    return run_pet(engine, train, unlabeled, test, backend, seed, artifacts_dir=artifacts_dir).report


METHOD_TABLE: dict[str, Method] = {
    "finetune": Method(lambda task_id, **options: FinetuneConfig(**options), _run_finetune),
    "setfit": Method(lambda task_id, **options: SetFitConfig(**options), _run_setfit),
    "pet": Method(PetConfig.for_task, _run_pet, uses_unlabeled=True),
}
METHODS = tuple(METHOD_TABLE)
DEFAULT_SIZES = (25, 50, 100, 200, 400)


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
        if isinstance(self.sizes, list):
            object.__setattr__(self, "sizes", tuple(self.sizes))
        if not isinstance(self.sizes, tuple):
            raise TypeError(f"sizes must be a list of integers, got {self.sizes!r}")
        check_ints(self, "sizes", "replicates", "test_size", "unlabeled_size", "seed_base")
        for name in ("task_id", "method", "backend_kind"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not self.sizes or any(s <= 0 for s in self.sizes):
            raise ValueError("sizes must be a non-empty tuple of positive ints")
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.test_size < 1:
            raise ValueError("test_size must be at least 1")
        if self.unlabeled_size < 0:
            raise ValueError("unlabeled_size must be non-negative")
        if not isinstance(self.backend_options, dict) or not isinstance(self.engine_options, dict):
            raise ValueError("config backend_options and engine_options must be JSON objects")

    def to_payload(self) -> dict:
        payload = asdict(self)
        payload["sizes"] = list(self.sizes)
        return payload

    @staticmethod
    def from_payload(payload: Mapping[str, object]) -> "ExperimentConfig":
        if not isinstance(payload, Mapping):
            raise ValueError(f"a sweep config must be a JSON object, got {type(payload).__name__}")
        unknown = set(payload) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        try:
            return ExperimentConfig(**payload)  # type: ignore[arg-type]
        except TypeError as exc:
            raise ValueError(f"sweep config field has the wrong type: {exc}") from exc

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_payload(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def replicate_seed(seed_base: int, replicate_index: int) -> int:
    """Seed for one replicate: base * 1000 + zero-based index."""
    return seed_base * 1000 + replicate_index


def build_backend(kind: str, options: Mapping[str, object]) -> Backend:
    """Construct the backend of this kind from its backend options.

    The adapter kinds take deployment settings only: adapter-subprocess a
    command (a list of strings), adapter-tcp a port and an optional host.
    """
    if kind == "toy":
        return ToyBackend(backend_config_with(options))
    if kind == "adapter-subprocess":
        from .backend.adapter import connect_subprocess

        _check_options(kind, options, {"command"})
        command = options["command"]
        if not (
            isinstance(command, (list, tuple))
            and command
            and all(isinstance(part, str) for part in command)
        ):
            raise ValueError(f"backend option 'command' must be a list of strings, got {command!r}")
        return connect_subprocess(command)
    if kind == "adapter-tcp":
        from .backend.adapter import connect_tcp

        _check_options(kind, options, {"port"}, {"host"})
        host, port = options.get("host", "127.0.0.1"), options["port"]
        if not isinstance(host, str):
            raise ValueError(f"backend option 'host' must be a string, got {host!r}")
        if not isinstance(port, int) or isinstance(port, bool) or not 0 < port < 1 << 16:
            raise ValueError(f"backend option 'port' must be an integer port, got {port!r}")
        return connect_tcp(host, port)
    raise ValueError(f"unknown backend kind {kind!r}")


def _check_options(
    kind: str, options: Mapping[str, object], required: set[str], optional: frozenset = frozenset()
) -> None:
    """Refuse options that are missing or that the kind does not take."""
    missing = sorted(required - set(options))
    if missing:
        raise ValueError(f"backend {kind!r} needs the backend option {missing[0]!r}")
    unknown = sorted(set(options) - required - optional)
    if unknown:
        raise ValueError(f"backend {kind!r} takes no backend option(s) {unknown}")


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
    def failed(self) -> bool:
        return any(cell.status != "ok" for cell in self.cells)

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
        raise DatasetSizeError(f"{what} holds {dataset.label_set.task_id!r} data, not {task_id!r}")


def _assert_disjoint(pool: Dataset, test: Dataset) -> None:
    clashes = shared_sentences(pool, test)
    if clashes:
        sample = sorted(clashes)[:3]
        raise InfeasibleSplitError(
            f"training pool and test set share {len(clashes)} sentence(s), e.g. {sample}",
            max_test_size=0,
        )


def engine_config(method: str, task_id: str, options: Mapping[str, object], what: str) -> object:
    """The engine config of method for task_id built from options; a
    ValueError naming what and the options when the config refuses them."""
    try:
        return METHOD_TABLE[method].make_config(task_id, **options)
    except (TypeError, ValueError) as exc:
        given = " ".join(f"{key}={brief(value)}" for key, value in options.items())
        raise ValueError(f"{what} {given} refused by {method}: {exc}") from exc


def _train_cell(
    config: ExperimentConfig,
    engine: object,
    sample: Dataset,
    test: Dataset,
    unlabeled: Dataset | None,
    backend: Backend,
    seed: int,
) -> EvalReport:
    method = METHOD_TABLE[config.method]
    pool = None
    if (
        method.uses_unlabeled
        and unlabeled is not None
        and config.unlabeled_size > 0
        and len(unlabeled)
    ):
        take = min(config.unlabeled_size, len(unlabeled))
        if take < config.unlabeled_size:
            warnings.warn(
                f"unlabeled pool has {len(unlabeled)} examples; "
                f"requested {config.unlabeled_size}, using all of them"
            )
        pool = sample_training_set(unlabeled, take, seed, kind="unlabeled")
    return method.run(engine, sample, pool, test, backend, seed, None)


def run_sweep(
    config: ExperimentConfig,
    pool: Dataset,
    test: Dataset,
    unlabeled: Dataset | None = None,
    backend: Backend | None = None,
) -> SweepResult:
    """Run every (size, replicate) cell; failures are recorded, not fatal.

    The data's task, the feasibility (pool size, sentence disjointness)
    and the engine options are validated before any training starts.
    """
    check_task(config.task_id, pool, "the pool")
    check_task(config.task_id, unlabeled, "the unlabeled pool")
    if pool.label_set.labels != test.label_set.labels:
        raise DatasetSizeError("pool and test label sets differ")
    check_task(config.task_id, test, "the test set")
    if max(config.sizes) > len(pool):
        raise DatasetSizeError(
            f"largest size {max(config.sizes)} exceeds pool of {len(pool)} examples"
        )
    if len(test) < 1:
        raise DatasetSizeError("test set is empty")
    _assert_disjoint(pool, test)
    engine = engine_config(config.method, config.task_id, config.engine_options, "engine_options")
    built = backend is None
    if built:
        backend = build_backend(config.backend_kind, config.backend_options)

    started = time.perf_counter()
    cells: list[CellResult] = []
    try:
        for size in config.sizes:
            for replicate in range(config.replicates):
                seed = replicate_seed(config.seed_base, replicate)
                cell_start = time.perf_counter()
                try:
                    sample = sample_training_set(pool, size, seed)
                    report = _train_cell(config, engine, sample, test, unlabeled, backend, seed)
                    cells.append(
                        CellResult(size, replicate, seed, "ok", report, None,
                                   time.perf_counter() - cell_start)
                    )
                except Exception as exc:  # keep sweeping; the cell is marked failed
                    cells.append(
                        CellResult(size, replicate, seed, "failed", None,
                                   f"{type(exc).__name__}: {exc}",
                                   time.perf_counter() - cell_start)
                    )
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


def _is_summary(summary: object) -> bool:
    """Whether summary has means and stds that give a number for every metric."""
    return isinstance(summary, dict) and all(
        isinstance(summary.get(part), dict)
        and all(type(summary[part].get(name)) in (int, float) for name in METRIC_NAMES)
        for part in ("means", "stds")
    )


def load_sweep_payload(path: str | Path) -> dict:
    """The sweep result file at path; ValueError naming the file and the
    field when a field that reports read is missing or mistyped."""
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != "pairshot-sweep":
        raise ValueError(f"{path} is not a sweep result file")
    missing = [key for key in ("config", "cells", "summaries") if key not in payload]
    if missing:
        raise ValueError(f"sweep result {path} lacks {missing}")
    config, cells, summaries = payload["config"], payload["cells"], payload["summaries"]
    if not (
        isinstance(config, dict)
        and all(isinstance(config.get(key), str) for key in ("task_id", "method", "backend_kind"))
        and isinstance(config.get("sizes"), list)
        and all(type(size) is int for size in config["sizes"])
    ):
        raise ValueError(
            f"sweep result {path}: 'config' needs string task_id, method and backend_kind"
            " and a list of integer sizes"
        )
    if not isinstance(cells, list) or not all(
        isinstance(cell, dict) and "size" in cell and "status" in cell for cell in cells
    ):
        raise ValueError(f"sweep result {path}: 'cells' is not a list of objects with size and status")
    if not isinstance(summaries, dict) or not all(
        size.isdecimal() and _is_summary(summary) for size, summary in summaries.items()
    ):
        raise ValueError(
            f"sweep result {path}: 'summaries' is not an object of summaries by size whose"
            f" means and stds give a number for each of {list(METRIC_NAMES)}"
        )
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
