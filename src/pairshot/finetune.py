"""Plain supervised fine-tuning of a pair classifier.

Pairs are joined into one text with the backend separator and trained
against one-hot targets through the same soft-target contract the
distillation path uses, so the two coincide exactly when distillation
has no unlabeled data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backend.contracts import Backend, TextClassifier
from .data import Dataset, SentencePair, join_pair
from .errors import NoDataError
from .metrics import EvalReport, evaluate_predictions
from .numerics import argmax_lowest


@dataclass(frozen=True)
class FinetuneConfig:
    """Training length and shape; lr None means the backend default."""

    steps: int = 1000
    batch: int = 16
    lr: float | None = None

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.batch <= 0:
            raise ValueError("batch must be positive")


def onehot_rows(train: Dataset, separator: str) -> list[tuple[str, Sequence[float]]]:
    """(joined pair, one-hot target in label order) for each labeled example."""
    rows: list[tuple[str, Sequence[float]]] = []
    for ex in train:
        target = [0.0] * len(train.label_set)
        target[train.label_set.index(ex.label)] = 1.0
        rows.append((join_pair(ex.pair, separator), target))
    return rows


def finetune(
    config: FinetuneConfig,
    train: Dataset,
    backend: Backend,
    seed: int = 0,
    classifier: TextClassifier | None = None,
) -> TextClassifier:
    """Train (or continue training) a classifier on one-hot targets.

    Passing an already trained classifier continues its schedule when
    the seed matches, so steps can be split across calls.
    """
    if not len(train):
        raise NoDataError("cannot fine-tune on an empty dataset")
    if classifier is None:
        classifier = backend.create_classifier(train.label_set.labels, seed)
    rows = onehot_rows(train, backend.separator_token)
    lr = backend.default_lr if config.lr is None else config.lr
    classifier.train(rows, config.steps, config.batch, lr, seed)
    return classifier


def finetune_predict(
    classifier: TextClassifier, pairs: Sequence[SentencePair], separator: str
) -> tuple[list[str], np.ndarray]:
    """Predicted label per pair plus the (n, k) raw scores."""
    scores = classifier.predict([join_pair(pair, separator) for pair in pairs])
    return [classifier.labels[argmax_lowest(row)] for row in scores], scores


def run_finetune(
    config: FinetuneConfig,
    train: Dataset,
    test: Dataset,
    backend: Backend,
    seed: int = 0,
) -> tuple[TextClassifier, EvalReport]:
    """Train on train, evaluate on test."""
    classifier = finetune(config, train, backend, seed)
    golds = [ex.label for ex in test]
    preds = finetune_predict(classifier, [ex.pair for ex in test], backend.separator_token)[0]
    return classifier, evaluate_predictions(golds, preds, train.label_set.labels)
