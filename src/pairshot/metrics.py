"""Confusion-matrix evaluation: accuracy, per-class F1, macro and weighted F1.

Conventions: confusion rows are gold labels, columns are predictions,
both in label-set order.  Any 0/0 ratio (precision, recall, or F1 of an
empty class) is defined as 0.  Replicate aggregation uses the sample
standard deviation (ddof 1), reported as 0 for a single replicate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EvalError

METRIC_NAMES = ("accuracy", "macro_f1", "weighted_f1")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Gold x predicted counts in label order."""

    labels: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.labels)
        rows = tuple(tuple(int(x) for x in row) for row in self.matrix)
        if len(rows) != k or any(len(row) != k for row in rows):
            raise EvalError(f"confusion matrix must be {k}x{k}")
        if any(x < 0 for row in rows for x in row):
            raise EvalError("confusion matrix counts must be non-negative")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "matrix", rows)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.as_array().sum())


@dataclass(frozen=True)
class PerClassMetrics:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    """Headline metrics plus per-class detail for one evaluation."""

    labels: tuple[str, ...]
    n: int
    accuracy: float
    macro_f1: float
    weighted_f1: float
    per_class: tuple[PerClassMetrics, ...]
    confusion: ConfusionMatrix

    def metric(self, name: str) -> float:
        if name not in METRIC_NAMES:
            raise EvalError(f"unknown metric {name!r}; known: {METRIC_NAMES}")
        return getattr(self, name)

    def to_json(self) -> str:
        """Canonical JSON; identical inputs give identical bytes."""
        payload = {
            "labels": list(self.labels),
            "n": self.n,
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "weighted_f1": self.weighted_f1,
            "per_class": [
                {
                    "label": pc.label,
                    "precision": pc.precision,
                    "recall": pc.recall,
                    "f1": pc.f1,
                    "support": pc.support,
                }
                for pc in self.per_class
            ],
            "confusion": [list(row) for row in self.confusion.matrix],
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "EvalReport":
        payload = json.loads(text)
        labels = tuple(payload["labels"])
        return EvalReport(
            labels=labels,
            n=payload["n"],
            accuracy=payload["accuracy"],
            macro_f1=payload["macro_f1"],
            weighted_f1=payload["weighted_f1"],
            per_class=tuple(
                PerClassMetrics(pc["label"], pc["precision"], pc["recall"], pc["f1"], pc["support"])
                for pc in payload["per_class"]
            ),
            confusion=ConfusionMatrix(labels, tuple(tuple(row) for row in payload["confusion"])),
        )


def confusion(golds: Sequence[str], preds: Sequence[str], labels: Sequence[str]) -> ConfusionMatrix:
    """Count gold/prediction pairs into a matrix in label order."""
    if len(golds) != len(preds):
        raise EvalError(f"{len(golds)} golds vs {len(preds)} predictions")
    if not golds:
        raise EvalError("cannot evaluate zero examples")
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for gold, pred in zip(golds, preds):
        if gold not in index:
            raise EvalError(f"gold label {gold!r} not in label set")
        if pred not in index:
            raise EvalError(f"predicted label {pred!r} not in label set")
        counts[index[gold], index[pred]] += 1
    return ConfusionMatrix(labels, tuple(tuple(int(x) for x in row) for row in counts))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def report(conf: ConfusionMatrix) -> EvalReport:
    """Compute every metric from a confusion matrix."""
    arr = conf.as_array()
    n = int(arr.sum())
    if n == 0:
        raise EvalError("cannot evaluate an empty confusion matrix")
    accuracy = float(np.trace(arr)) / n
    per_class: list[PerClassMetrics] = []
    for i, label in enumerate(conf.labels):
        tp = float(arr[i, i])
        support = int(arr[i, :].sum())
        precision = _ratio(tp, float(arr[:, i].sum()))
        recall = _ratio(tp, float(support))
        f1 = _ratio(2.0 * precision * recall, precision + recall)
        per_class.append(PerClassMetrics(label, precision, recall, f1, support))
    macro = float(np.mean([pc.f1 for pc in per_class]))
    weighted = float(sum(pc.f1 * pc.support for pc in per_class) / n)
    return EvalReport(
        labels=conf.labels,
        n=n,
        accuracy=accuracy,
        macro_f1=macro,
        weighted_f1=weighted,
        per_class=tuple(per_class),
        confusion=conf,
    )


def evaluate_predictions(golds: Sequence[str], preds: Sequence[str], labels: Sequence[str]) -> EvalReport:
    """Convenience composition of confusion and report."""
    return report(confusion(golds, preds, labels))


class RunResult(NamedTuple):
    """A trained model and its report on the test set."""

    model: object
    report: EvalReport


@dataclass(frozen=True)
class ReplicateSummary:
    """Mean and sample standard deviation of metrics across replicates."""

    count: int
    means: dict[str, float]
    stds: dict[str, float]


def aggregate_replicates(reports: Sequence[EvalReport]) -> ReplicateSummary:
    """Summarize repeated evaluations of the same task."""
    if not reports:
        raise EvalError("no replicate reports to aggregate")
    labels = reports[0].labels
    if any(r.labels != labels for r in reports):
        raise EvalError("replicate reports disagree on the label set")
    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    for name in METRIC_NAMES:
        values = np.asarray([r.metric(name) for r in reports], dtype=np.float64)
        means[name] = float(values.mean())
        stds[name] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return ReplicateSummary(len(reports), means, stds)


def format_mean_std(mean: float, std: float) -> str:
    """Render a proportion as percent text, e.g. 0.9066/0.0138 -> '90.7±1.4'."""
    return f"{mean * 100:.1f}±{std * 100:.1f}"
