"""In-memory span tracer and the shims that feed it.

Spans carry a name, a start, an end and the index of the span that was
open when they began.  They stay in memory while the workload runs and
are written out once it has finished.  A layer's ``_s`` figure is its
self time: its spans' durations minus the time covered by their child
spans.

The shims wrap public functions and methods of the ``pairshot``
package from the outside.  Nothing in the package knows about them,
and untraced runs never install them.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# Modules imported before the shims go in, so that every module-level
# reference to a wrapped function can be found and replaced.
PACKAGE_MODULES = (
    "pairshot",
    "pairshot.data",
    "pairshot.prompting",
    "pairshot.metrics",
    "pairshot.logistic",
    "pairshot.pet",
    "pairshot.setfit",
    "pairshot.finetune",
    "pairshot.harness",
    "pairshot.cli",
    "pairshot.backend",
    "pairshot.backend.features",
    "pairshot.backend.toy",
    "pairshot.backend.adapter",
    "pairshot.backend.serve",
)

FEATURES = "backend.features"
PET_RUN = "pet.run"
RPC = "backend.adapter.rpc"
HANDLE = "backend.serve.handle"


class Tracer:
    """Spans and counters of one process, kept in parallel lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.texts: set[str] = set()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    def annotate(self, **attrs) -> None:
        """Attach attributes to the innermost open span."""
        if self._stack:
            self.attrs.setdefault(self._stack[-1], {}).update(attrs)

    def wrap(self, fn, name: str, after=None, when=None):
        """fn wrapped in a span named name.

        after(result, args, kwargs) runs when a traced call returns; a
        call that raises adds one to the ``<name>.errors`` counter.  With
        when given, calls for which when() is false pass straight
        through without a span.
        """

        def traced(*args, **kwargs):
            if when is not None and not when():
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[name + ".errors"] += 1
                raise
            finally:
                self.end(index)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per-name call counts, inclusive and self seconds, plus counters."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += duration
            self_s[name] += duration - child[i]
        rpc = [
            (self.ends[i] - self.starts[i]) * 1e3 for i, n in enumerate(self.names) if n == RPC
        ]
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_s),
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "distinct_texts": len(self.texts),
            "rpc_ms": rpc,
        }

    def write_spans(self, path: Path, process: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                record = {
                    "process": process,
                    "span": i,
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                }
                record.update(self.attrs.get(i, {}))
                fh.write(json.dumps(record) + "\n")
        tmp.replace(path)


class Shims:
    """Installs wrappers on package functions and methods; undoes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []
        for module in PACKAGE_MODULES:
            importlib.import_module(module)

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, name: str, after=None) -> None:
        """Replace every package-level reference to module.attr."""
        original = getattr(sys.modules[module], attr)
        traced = self.tracer.wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "pairshot" and mod.__dict__.get(attr) is original:
                self.replace(mod, attr, traced)

    def method(self, cls, attr: str, name: str, after=None, when=None) -> None:
        self.replace(cls, attr, self.tracer.wrap(cls.__dict__[attr], name, after, when))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class _CountingJson:
    """Stands in for the ``json`` module inside the adapter to count bytes.

    The adapter writes one ``dumps`` output plus a newline per request
    and parses one line per response; both are ASCII, so characters are
    bytes.  Request ids land on the open RPC span so client spans can be
    matched with the server's.
    """

    JSONDecodeError = json.JSONDecodeError

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def dumps(self, obj, *args, **kwargs) -> str:
        text = json.dumps(obj, *args, **kwargs)
        self._tracer.counters["rpc.bytes_out"] += len(text) + 1
        if isinstance(obj, dict) and "verb" in obj:
            self._tracer.annotate(request=obj.get("id"), verb=obj.get("verb"))
        return text

    def loads(self, text, *args, **kwargs):
        self._tracer.counters["rpc.bytes_in"] += len(text)
        return json.loads(text, *args, **kwargs)


def install_backend_shims(shims: Shims) -> None:
    """Shims on the toy backend and its featurizer.

    These run wherever the toy models live: the benchmark's process for
    in-process workloads, the adapter server for pet-adapter.
    """
    from pairshot.backend.features import Featurizer
    from pairshot.backend.toy import ToyBackend, ToyEncoder, ToyMaskedScorer, ToyTextClassifier

    tracer = shims.tracer

    def count_text(result, args, kwargs):
        tracer.texts.add(args[1])

    # sparse_counts calls bucket_ids: one featurization, one span.
    for attr in ("sparse_counts", "bucket_ids"):
        shims.method(Featurizer, attr, FEATURES, count_text, lambda: tracer.current() != FEATURES)

    def count_steps(result, args, kwargs):
        tracer.counters["toy.train.steps"] += args[2] if len(args) > 2 else kwargs["steps"]

    def count_weights(model, args, kwargs):
        tracer.counters["toy.weights_bytes"] += model.W.nbytes

    shims.method(ToyMaskedScorer, "score", "backend.toy.score")
    shims.method(ToyMaskedScorer, "train", "backend.toy.train", count_steps)
    shims.method(ToyTextClassifier, "train", "backend.toy.train", count_steps)
    shims.method(ToyTextClassifier, "predict", "backend.toy.predict")
    shims.method(ToyEncoder, "encode", "backend.toy.encode")
    shims.method(ToyEncoder, "fit", "backend.toy.fit")
    shims.method(ToyBackend, "create_scorer", "backend.toy.create", count_weights)
    shims.method(ToyBackend, "create_classifier", "backend.toy.create", count_weights)


def install_client_shims(shims: Shims) -> None:
    """Shims on the engines, harness, data layer and adapter client."""
    import pairshot.backend.adapter as adapter
    from pairshot.backend.toy import ToyTextClassifier
    from pairshot.logistic import LogisticHead

    tracer = shims.tracer
    install_backend_shims(shims)

    shims.function("pairshot.data", "load_dataset", "data.load")
    shims.function("pairshot.data", "sample_training_set", "data.sample")
    shims.function("pairshot.prompting", "render", "prompting.render")
    shims.function("pairshot.metrics", "evaluate_predictions", "metrics.evaluate")

    shims.function("pairshot.pet", "run_pet", PET_RUN)
    shims.function("pairshot.pet", "train_ensemble", "pet.train_ensemble")
    shims.function("pairshot.pet", "soft_label", "pet.soft_label")
    shims.function("pairshot.pet", "classifier_predict_label", "pet.eval")
    shims.function("pairshot.pet", "ensemble_predict", "pet.eval")

    # run_pet trains its distilled classifier inline; a classifier train
    # call made directly under run_pet is the distill phase.
    for cls in (ToyTextClassifier, adapter.RemoteClassifier):
        shims.method(cls, "train", "pet.distill", when=lambda: tracer.current() == PET_RUN)

    def count_triplets(result, args, kwargs):
        tracer.counters["setfit.triplets"] += len(result)

    def count_iters(head, args, kwargs):
        tracer.counters["logistic.fit.iters"] += len(head.objective_trace)

    shims.function("pairshot.setfit", "generate_contrastive", "setfit.triplets", count_triplets)
    shims.function("pairshot.setfit", "setfit_fit", "setfit.fit")
    shims.function("pairshot.setfit", "setfit_predict", "setfit.predict")
    shims.method(LogisticHead, "fit", "logistic.fit", count_iters)
    shims.function("pairshot.finetune", "finetune", "finetune.train")
    shims.function("pairshot.finetune", "finetune_predict", "finetune.predict")

    def count_cells(result, args, kwargs):
        tracer.counters["harness.cells"] += len(result.cells)
        tracer.counters["harness.cells_failed"] += sum(c.status != "ok" for c in result.cells)
        tracer.samples["harness.cell_s"].extend(c.seconds for c in result.cells)

    shims.function("pairshot.harness", "run_sweep", "harness.sweep", count_cells)
    shims.function("pairshot.harness", "save_sweep", "harness.save")

    shims.method(adapter.RemoteBackend, "call", RPC)
    shims.replace(adapter, "json", _CountingJson(tracer))


def merge(client: dict, server: dict | None) -> dict:
    """Sum two summaries; the adapter server's spans join the client's."""
    if server is None:
        return client
    out = {"rpc_ms": client["rpc_ms"], "samples": client["samples"]}
    for key in ("calls", "total_s", "self_s", "counters"):
        merged = defaultdict(float, client[key])
        for name, value in server[key].items():
            merged[name] += value
        out[key] = dict(merged)
    out["distinct_texts"] = client["distinct_texts"] + server["distinct_texts"]
    return out


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one summary.

    Every metric is present on every workload; layers a workload does
    not exercise read 0.  ``rpc.wait_s`` and ``serve.handle_s`` are
    inclusive times (client wait and server busy time), so their
    difference is the transport and JSON cost.
    """
    calls = summary["calls"]
    self_s = summary["self_s"]
    total_s = summary["total_s"]
    counters = summary["counters"]

    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def n(table: dict, name: str) -> int:
        return int(table.get(name, 0))

    features = n(calls, FEATURES)
    rpc_ms = summary["rpc_ms"]
    cells = summary["samples"].get("harness.cell_s", [])
    wait = total_s.get(RPC, 0.0)
    handle = total_s.get(HANDLE, 0.0)
    return {
        "data.load_s": s("data.load"),
        "data.sample_s": s("data.sample"),
        "prompting.render.calls": n(calls, "prompting.render"),
        "prompting.render_s": s("prompting.render"),
        "backend.features.calls": features,
        "backend.features.distinct_ratio": summary["distinct_texts"] / features if features else 0.0,
        "backend.features_s": s(FEATURES),
        "backend.toy.score.calls": n(calls, "backend.toy.score"),
        "backend.toy.score_s": s("backend.toy.score"),
        "backend.toy.train.steps": n(counters, "toy.train.steps"),
        "backend.toy.train_s": s("backend.toy.train"),
        "backend.toy.predict_s": s("backend.toy.predict"),
        "backend.toy.encode.calls": n(calls, "backend.toy.encode"),
        "backend.toy.encode_s": s("backend.toy.encode"),
        "backend.toy.fit_s": s("backend.toy.fit"),
        "backend.toy.weights_mb": counters.get("toy.weights_bytes", 0) / 1e6,
        "backend.adapter.rpc.count": n(calls, RPC),
        "backend.adapter.rpc.bytes_out": n(counters, "rpc.bytes_out"),
        "backend.adapter.rpc.bytes_in": n(counters, "rpc.bytes_in"),
        "backend.adapter.rpc.wait_s": wait,
        "backend.adapter.rpc.latency_p50_ms": statistics.median(rpc_ms) if rpc_ms else 0.0,
        "backend.adapter.rpc.latency_p99_ms": _percentile(rpc_ms, 0.99),
        "backend.adapter.rpc.errors": n(counters, RPC + ".errors"),
        "backend.serve.handle_s": handle,
        "backend.adapter.overhead_s": wait - handle if n(calls, RPC) else 0.0,
        "pet.train_ensemble_s": s("pet.train_ensemble"),
        "pet.soft_label_s": s("pet.soft_label"),
        "pet.distill_s": s("pet.distill"),
        "pet.eval_s": s("pet.eval"),
        "setfit.triplets": n(counters, "setfit.triplets"),
        "setfit.fit_s": s("setfit.fit"),
        "setfit.predict_s": s("setfit.predict"),
        "logistic.fit_s": s("logistic.fit"),
        "logistic.fit.iters": n(counters, "logistic.fit.iters"),
        "finetune.train_s": s("finetune.train"),
        "finetune.predict_s": s("finetune.predict"),
        "metrics.evaluate_s": s("metrics.evaluate"),
        "harness.cells": n(counters, "harness.cells"),
        "harness.cells_failed": n(counters, "harness.cells_failed"),
        "harness.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "harness.save_s": s("harness.save"),
    }
