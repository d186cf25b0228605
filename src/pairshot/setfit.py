"""Contrastive few-shot training: tuned encoder plus a logistic head.

For every class the generator emits R positive triplets (two examples
of that class, similarity 1) and R negative triplets (one example of
the class, one from any other class, similarity 0), for 2 * R * |labels|
in total.  The sentence encoder is tuned so cosine similarity matches
those targets, then a multinomial logistic regression head is fit on
the encoded training examples.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .backend.contracts import Backend, SentenceEncoder, check_ints, check_lr, resolve_lr
from .data import Dataset, SentencePair, join_pair, read_json
from .errors import DataFormatError, InfeasibleTripletsError, NoDataError, ShapeError
from .logistic import LogisticHead
from .metrics import EvalReport, evaluate_predictions
from .numerics import argmax_lowest
from .rng import Rng

# join_pair is part of this engine's public surface as well.
__all__ = [
    "ContrastiveTriplet",
    "SetFitConfig",
    "SetFitModel",
    "generate_contrastive",
    "join_pair",
    "load_setfit",
    "run_setfit",
    "save_setfit",
    "setfit_fit",
    "setfit_predict",
]


@dataclass(frozen=True)
class ContrastiveTriplet:
    """Two joined pair texts and a binary similarity target.

    label_a and label_b record the source classes so the invariant
    (similarity 1 exactly when the classes match) can be audited.
    """

    text_a: str
    text_b: str
    similarity: float
    label_a: str | None = None
    label_b: str | None = None

    def __post_init__(self) -> None:
        if self.similarity not in (0.0, 1.0):
            raise ShapeError("triplet similarity must be 0 or 1")


@dataclass(frozen=True)
class SetFitConfig:
    """Knobs for contrastive tuning; lr None means the backend default."""

    R: int = 10
    epochs: int = 1
    batch: int = 16
    lr: float | None = None

    def __post_init__(self) -> None:
        check_lr(self.lr)
        check_ints(self, "R", "epochs", "batch")
        if self.R < 0:
            raise ValueError("R must be non-negative")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch <= 0:
            raise ValueError("batch must be positive")


def generate_contrastive(
    train: Dataset,
    R: int,
    seed: int,
    separator: str = "||",
) -> list[ContrastiveTriplet]:
    """Exactly 2 * R * |labels| triplets, deterministic in seed.

    Per class, distinct unordered pairs are preferred; when a class
    cannot supply R distinct pairs the remainder is drawn with
    replacement and a warning is emitted.  A class with fewer than two
    examples cannot produce positives at all, which raises
    InfeasibleTripletsError naming the class.
    """
    if not len(train):
        raise NoDataError("cannot generate triplets from an empty dataset")
    labels = train.label_set.labels
    texts = [join_pair(ex.pair, separator) for ex in train.examples]
    by_class: dict[str, list[int]] = {lab: [] for lab in labels}
    for i, ex in enumerate(train.examples):
        by_class[ex.label].append(i)  # type: ignore[index]

    rng = Rng(seed).derive("contrastive")
    out: list[ContrastiveTriplet] = []
    for lab in labels:
        bucket = by_class[lab]
        others = [i for other, idxs in by_class.items() if other != lab for i in idxs]
        if R > 0 and len(bucket) < 2:
            raise InfeasibleTripletsError(
                f"class {lab!r} has {len(bucket)} example(s); cannot build positive pairs", lab
            )
        if R > 0 and not others:
            raise InfeasibleTripletsError(
                f"class {lab!r} has no cross-class partners for negative pairs", lab
            )

        n_pos = len(bucket) * (len(bucket) - 1) // 2
        pos_rng = rng.derive("pos", lab)
        chosen_pos = [
            (bucket[a], bucket[b]) for a, b in pos_rng.sample_pairs(len(bucket), min(R, n_pos))
        ]
        if len(chosen_pos) < R:
            warnings.warn(
                f"class {lab!r}: only {n_pos} distinct positive pairs for R={R}; "
                "sampling the remainder with replacement"
            )
            while len(chosen_pos) < R:
                a = bucket[pos_rng.randbelow(len(bucket))]
                b = bucket[pos_rng.randbelow(len(bucket))]
                if a != b:
                    chosen_pos.append((a, b))
        # Negatives are the pairs (bucket[a], others[b]), ranked a * len(others) + b.
        n_neg = len(bucket) * len(others)
        neg_rng = rng.derive("neg", lab)
        chosen_neg = []
        for t in neg_rng.sample(range(n_neg), min(R, n_neg)):
            a, b = divmod(t, len(others))
            chosen_neg.append((bucket[a], others[b]))
        if len(chosen_neg) < R:
            warnings.warn(
                f"class {lab!r}: only {n_neg} distinct negative pairs for R={R}; "
                "sampling the remainder with replacement"
            )
            while len(chosen_neg) < R:
                chosen_neg.append(
                    (bucket[neg_rng.randbelow(len(bucket))], others[neg_rng.randbelow(len(others))])
                )

        for a, b in chosen_pos:
            out.append(ContrastiveTriplet(texts[a], texts[b], 1.0, lab, lab))
        for a, b in chosen_neg:
            out.append(
                ContrastiveTriplet(texts[a], texts[b], 0.0, lab, train.examples[b].label)
            )
    return out


@dataclass
class SetFitModel:
    """Tuned encoder, fitted head, and the label order they serve."""

    encoder: SentenceEncoder
    head: LogisticHead
    labels: tuple[str, ...]
    separator: str


def setfit_fit(
    config: SetFitConfig,
    train: Dataset,
    backend: Backend,
    seed: int = 0,
) -> SetFitModel:
    """Contrastive-tune an encoder, then fit the classification head.

    Pairs are joined into one text with the backend's separator token.
    """
    if not len(train):
        raise NoDataError("cannot fit on an empty dataset")
    separator = backend.separator_token
    encoder = backend.create_encoder(Rng(seed).derive("encoder").next_u64())
    triplets = generate_contrastive(train, config.R, seed, separator)
    if triplets and config.epochs > 0:
        encoder.fit(
            [(t.text_a, t.text_b, t.similarity) for t in triplets],
            config.epochs,
            config.batch,
            resolve_lr(config.lr, backend),
            Rng(seed).derive("encoder-fit").next_u64(),
        )
    X = encoder.encode([join_pair(ex.pair, separator) for ex in train.examples])
    y = np.asarray([train.label_set.index(ex.label) for ex in train.examples], dtype=np.int64)
    head = LogisticHead(len(train.label_set), encoder.dim).fit(X, y)
    return SetFitModel(encoder, head, train.label_set.labels, separator)


def setfit_predict(
    model: SetFitModel, pairs: Sequence[SentencePair]
) -> tuple[list[str], np.ndarray]:
    """Predicted label per pair and the (n, k) class probabilities."""
    embeddings = model.encoder.encode([join_pair(pair, model.separator) for pair in pairs])
    if embeddings.shape != (len(pairs), model.head.dim):
        raise ShapeError(
            f"encoder produced shape {embeddings.shape}, head expects dim {model.head.dim}"
        )
    probs = model.head.predict_proba(embeddings)
    return [model.labels[argmax_lowest(row)] for row in probs], probs


def run_setfit(
    config: SetFitConfig,
    train: Dataset,
    test: Dataset,
    backend: Backend,
    seed: int = 0,
) -> tuple[SetFitModel, EvalReport]:
    """Fit on train, evaluate on test."""
    model = setfit_fit(config, train, backend, seed)
    golds = [ex.label for ex in test]
    preds = setfit_predict(model, [ex.pair for ex in test])[0]
    return model, evaluate_predictions(golds, preds, train.label_set.labels)


# ---------------------------------------------------------------------------
# Artifact bundle: encoder state + head coefficients + label order


def save_setfit(model: SetFitModel, path: str | Path) -> None:
    from .backend.state import array_to_b64, model_to_payload

    payload = {
        "format": "pairshot-setfit",
        "version": 1,
        "labels": list(model.labels),
        "separator": model.separator,
        "encoder": model_to_payload(model.encoder),
        "head": {
            "n_classes": model.head.n_classes,
            "dim": model.head.dim,
            "l2": model.head.l2,
            "W": array_to_b64(model.head.W),
            "b": array_to_b64(model.head.b),
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_setfit(path: str | Path) -> SetFitModel:
    from .backend.state import array_from_b64, model_from_payload, payload_fields

    path = Path(path)
    try:
        payload = read_json(path)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc
    if not isinstance(payload, dict) or payload.get("format") != "pairshot-setfit":
        raise DataFormatError(f"{path} is not a setfit bundle")
    encoder_data, head_data, labels, separator = payload_fields(
        payload, ["encoder", "head", "labels", "separator"], f"{path}: setfit bundle"
    )
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels + [separator]):
        raise DataFormatError(f"{path}: setfit bundle labels and separator must be strings")
    encoder = model_from_payload(encoder_data)
    n_classes, dim, l2, W, b = payload_fields(
        head_data, ["n_classes", "dim", "l2", "W", "b"], f"{path}: setfit head"
    )
    if type(n_classes) is not int or type(dim) is not int or type(l2) not in (int, float):
        raise DataFormatError(
            f"{path}: setfit head needs integer n_classes and dim and a numeric l2,"
            f" got {n_classes!r}, {dim!r} and {l2!r}"
        )
    head = LogisticHead(n_classes, dim, l2)
    head.W = array_from_b64(W, (n_classes, dim), "W")
    head.b = array_from_b64(b, (n_classes,), "b")
    return SetFitModel(encoder, head, tuple(labels), separator)
