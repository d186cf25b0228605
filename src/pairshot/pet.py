"""Prompt-ensemble training with distillation into a plain classifier.

The flow: render every labeled example through several pattern
verbalizer pairs, train one masked scorer per (pattern, seed)
combination, weight each scorer by its accuracy on the labeled data
measured before training, soft-label the unlabeled pool with the
weighted ensemble, then distill everything into a single classifier
trained on soft targets.

Ensemble scores combine as a weighted average,
    s(label | x) = sum_m w_m * s_m(label | x) / sum_m w_m,
and become probabilities through a temperature softmax, where the raw
scores are divided by the temperature before exponentiation.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from .backend.contracts import (
    Backend, MaskedScorer, TextClassifier, check_ints, check_lr, check_positive, resolve_lr,
)
from .data import Dataset, LabelSet, SentencePair, SoftLabeledExample, join_pair
from .errors import EmptyEnsembleError, NoDataError, ShapeError
from .finetune import onehot_rows
from .metrics import EvalReport, evaluate_predictions
from .numerics import argmax_lowest, stable_softmax
from .prompting import PVP, ClozeInput, builtin_pvps, render, verbalizer_tokens
from .rng import Rng


@dataclass(frozen=True)
class PetConfig:
    """Knobs for the ensemble-and-distill pipeline.

    lr None means "use the backend default" (0.1 for the toy backend;
    transformer-scale backends would put 1e-5 here).
    """

    pvps: tuple[PVP, ...]
    seeds: tuple[int, ...] = (1, 2, 3)
    mlm_steps: int = 1000
    distill_steps: int = 5000
    batch: int = 16
    lr: float | None = None
    temperature: float = 2.0
    max_len: int = 256

    def __post_init__(self) -> None:
        object.__setattr__(self, "pvps", tuple(self.pvps))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        check_lr(self.lr)
        check_ints(self, mlm_steps=0, distill_steps=0, batch=1, max_len=1, seeds=None)
        if not self.pvps:
            raise ValueError("PetConfig needs at least one pattern verbalizer pair")
        if not self.seeds:
            raise ValueError("PetConfig needs at least one seed")
        check_positive("temperature", self.temperature)

    @staticmethod
    def for_task(task_id: str, **overrides) -> "PetConfig":
        """Config preloaded with the built-in patterns of a task."""
        return PetConfig(pvps=tuple(builtin_pvps(task_id)), **overrides)


@dataclass
class EnsembleMember:
    """One trained scorer: its pattern, its seed, and its fixed weight."""

    pvp: PVP
    seed: int
    model: MaskedScorer
    weight: float


def soften(scores: Sequence[float], temperature: float) -> np.ndarray:
    """Temperature softmax: softmax(scores / temperature), row by row.

    Stable under additive shifts of the scores and order-preserving for
    any positive temperature.
    """
    check_positive("temperature", temperature)
    return stable_softmax(np.asarray(scores, dtype=np.float64) / temperature)


def aggregate_scores(weights: Sequence[float], score_rows: Sequence) -> np.ndarray:
    """Weight-averaged label scores across ensemble members.

    score_rows holds one entry per member: a label-score row, or an
    (n, k) matrix for n items, which gives the (n, k) average.  All-zero
    weights fall back to a uniform average with a warning; zero-weight
    members never influence the result.
    """
    if len(weights) == 0:
        raise EmptyEnsembleError("cannot aggregate zero ensemble members")
    if len(weights) != len(score_rows):
        raise ShapeError(f"{len(weights)} weights vs {len(score_rows)} score rows")
    rows = np.asarray(score_rows, dtype=np.float64)
    if rows.ndim not in (2, 3):
        raise ShapeError("score rows must share one label dimension")
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("member weights must be non-negative")
    total = w.sum()
    if total == 0:
        warnings.warn("all ensemble weights are zero; falling back to uniform weighting")
        w = np.ones_like(w)
        total = w.sum()
    w = w.reshape((-1,) + (1,) * (rows.ndim - 1))
    return (w * rows).sum(axis=0) / total


def render_pairs(
    pvp: PVP, pairs: Sequence[SentencePair], config: PetConfig, backend: Backend
) -> list[ClozeInput]:
    """Every pair rendered through one pattern, in order."""
    return [
        render(pvp, pair, config.max_len, backend.mask_token, backend.separator_token)
        for pair in pairs
    ]


def untrained_accuracy(scores: np.ndarray, train: Dataset) -> float:
    """Accuracy of a scorer on the labeled data, used as its ensemble weight.

    scores are its (n, k) scores of the labeled pairs, rendered in order,
    with one column per verbalizer token in label order.  Taken before
    training; argmax ties resolve to the lowest label index, so an
    all-zero scorer predicts the first label everywhere.
    """
    if not len(train):
        raise NoDataError("cannot weight a member against an empty training set")
    labels = train.label_set.labels
    hits = sum(labels[argmax_lowest(row)] == ex.label for row, ex in zip(scores, train))
    return hits / len(train)


def train_ensemble(
    config: PetConfig,
    train: Dataset,
    backend: Backend,
    seed: int = 0,
) -> list[EnsembleMember]:
    """Train one scorer per (pattern, config seed); weight before training.

    The member's effective training seed mixes the run seed with the
    configured seed so replicate runs decorrelate while the 3x3
    structure stays intact.  Each pattern renders the labeled data once
    and weighs all of its seeds' members with one backend call; once
    every member is weighed, one backend call trains them all.
    """
    if not len(train):
        raise NoDataError("cannot train an ensemble on an empty dataset")
    members: list[EnsembleMember] = []
    jobs = []
    for pvp in config.pvps:
        tokens = verbalizer_tokens(pvp, train.label_set)
        clozes = render_pairs(pvp, [ex.pair for ex in train], config, backend)
        rendered = [(cloze, pvp.verbalizer[ex.label]) for cloze, ex in zip(clozes, train)]
        member_seeds = [Rng(seed).derive("member", pvp.id, s).next_u64() for s in config.seeds]
        models = [backend.create_scorer(member_seed) for member_seed in member_seeds]
        scores = backend.score_scorers(models, clozes, tokens)
        for config_seed, member_seed, model, own in zip(config.seeds, member_seeds, models, scores):
            members.append(EnsembleMember(pvp, config_seed, model, untrained_accuracy(own, train)))
            jobs.append((model, rendered, member_seed, tokens))
    backend.train_scorers(jobs, config.mlm_steps, config.batch, resolve_lr(config.lr, backend))
    return members


def ensemble_scores(
    members: Sequence[EnsembleMember],
    pairs: Sequence[SentencePair],
    label_set: LabelSet,
    config: PetConfig,
    backend: Backend,
) -> np.ndarray:
    """(n, k) aggregated label scores of the whole ensemble.

    Consecutive members of one pattern (all its seeds, as train_ensemble
    orders them) score one rendering of the pairs in one backend call;
    patterns render one at a time.
    """
    if not members:
        raise EmptyEnsembleError("cannot score with zero ensemble members")
    rows = []
    for pvp, group in groupby(members, key=lambda m: m.pvp):
        clozes = render_pairs(pvp, pairs, config, backend)
        tokens = verbalizer_tokens(pvp, label_set)
        rows.extend(backend.score_scorers([m.model for m in group], clozes, tokens))
    return aggregate_scores([m.weight for m in members], rows)


def ensemble_predict(
    members: Sequence[EnsembleMember],
    pairs: Sequence[SentencePair],
    label_set: LabelSet,
    config: PetConfig,
    backend: Backend,
) -> list[str]:
    """Ensemble argmax label per pair (ties to the lowest index)."""
    scores = ensemble_scores(members, pairs, label_set, config, backend)
    return [label_set.labels[argmax_lowest(row)] for row in scores]


def soft_label(
    members: Sequence[EnsembleMember],
    unlabeled: Dataset,
    label_set: LabelSet,
    config: PetConfig,
    backend: Backend,
) -> list[SoftLabeledExample]:
    """Temperature-softened ensemble distributions for an unlabeled pool."""
    pairs = [ex.pair for ex in unlabeled]
    dists = soften(ensemble_scores(members, pairs, label_set, config, backend), config.temperature)
    return [
        SoftLabeledExample(pair, tuple(float(p) for p in dist)) for pair, dist in zip(pairs, dists)
    ]


def distill(
    train: Dataset,
    softened: Sequence[SoftLabeledExample],
    config: PetConfig,
    classifier: TextClassifier,
    backend: Backend,
    seed: int = 0,
) -> TextClassifier:
    """Train a classifier on labeled one-hots plus the soft-labeled pool.

    Labeled rows keep exact one-hot targets (no temperature); softened
    holds the pool's ensemble distributions, as soft_label returns them.
    The union is mixed uniformly by the trainer's per-pass shuffle, so
    with nothing softened this reduces exactly to fine-tuning on the
    labeled data under the same seed and step count.
    """
    if not len(train):
        raise NoDataError("distillation needs labeled examples")
    rows = onehot_rows(train, backend.separator_token)
    rows.extend((join_pair(s.pair, backend.separator_token), s.distribution) for s in softened)
    classifier.train(rows, config.distill_steps, config.batch, resolve_lr(config.lr, backend), seed)
    return classifier


@dataclass
class PetRunResult:
    """Everything a PET run produces: the model, reports, diagnostics."""

    classifier: TextClassifier
    report: EvalReport
    ensemble_report: EvalReport | None
    member_weights: list[dict]
    soft_labeled: int
    metadata: dict


def classifier_predict_label(
    classifier: TextClassifier, pairs: Sequence[SentencePair], separator: str
) -> list[str]:
    """The classifier's argmax label per pair (ties to the lowest index)."""
    scores = classifier.predict([join_pair(pair, separator) for pair in pairs])
    return [classifier.labels[argmax_lowest(row)] for row in scores]


def run_pet(
    config: PetConfig,
    train: Dataset,
    unlabeled: Dataset | None,
    test: Dataset,
    backend: Backend,
    seed: int = 0,
    evaluate_ensemble: bool = False,
    artifacts_dir: str | Path | None = None,
) -> PetRunResult:
    """Full pipeline: ensemble, soft-label, distill, evaluate.

    With artifacts_dir set, writes member weights, the soft-labeled
    pool, the distilled classifier state, and run metadata there.
    """
    members = train_ensemble(config, train, backend, seed)
    label_set = train.label_set
    classifier = backend.create_classifier(label_set.labels, Rng(seed).derive("distill").next_u64())
    softened = soft_label(members, unlabeled, label_set, config, backend) if unlabeled else []
    distill_seed = Rng(seed).derive("distill-order").next_u64()
    distill(train, softened, config, classifier, backend, distill_seed)

    golds = [ex.label for ex in test]
    pairs = [ex.pair for ex in test]
    preds = classifier_predict_label(classifier, pairs, backend.separator_token)
    report_distilled = evaluate_predictions(golds, preds, label_set.labels)

    ensemble_report = None
    if evaluate_ensemble:
        ens_preds = ensemble_predict(members, pairs, label_set, config, backend)
        ensemble_report = evaluate_predictions(golds, ens_preds, label_set.labels)

    member_weights = [
        {"pvp": m.pvp.id, "seed": m.seed, "weight": m.weight} for m in members
    ]
    metadata = {
        "temperature": config.temperature,
        "temperature_interpretation": "scores divided by temperature before softmax",
        "mlm_steps": config.mlm_steps,
        "distill_steps": config.distill_steps,
        "batch": config.batch,
        "lr": resolve_lr(config.lr, backend),
        "max_len": config.max_len,
        "seed": seed,
        "members": len(members),
        "labeled": len(train),
        "unlabeled": len(softened),
    }
    result = PetRunResult(
        classifier=classifier,
        report=report_distilled,
        ensemble_report=ensemble_report,
        member_weights=member_weights,
        soft_labeled=len(softened),
        metadata=metadata,
    )
    if artifacts_dir is not None:
        _write_artifacts(result, softened, label_set, Path(artifacts_dir))
    return result


def _write_artifacts(
    result: PetRunResult,
    softened: list[SoftLabeledExample],
    label_set: LabelSet,
    out: Path,
) -> None:
    from .backend.state import model_to_payload

    out.mkdir(parents=True, exist_ok=True)
    by_pattern: dict[str, list[float]] = {}
    for member in result.member_weights:
        by_pattern.setdefault(member["pvp"], []).append(member["weight"])
    (out / "member_weights.json").write_text(
        json.dumps(
            {"member_weights": result.member_weights, "pvp_untrained_accuracy": by_pattern},
            indent=2,
            sort_keys=True,
        ),
        encoding="utf-8",
    )
    with (out / "soft_labeled.jsonl").open("w", encoding="utf-8") as fh:
        for soft in softened:
            fh.write(
                json.dumps(
                    {
                        "u": soft.pair.u,
                        "v": soft.pair.v,
                        "distribution": {
                            lab: p for lab, p in zip(label_set.labels, soft.distribution)
                        },
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    try:
        payload = model_to_payload(result.classifier)
    except TypeError:
        payload = {"note": "classifier backend does not support state export"}
    (out / "classifier.json").write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    (out / "metadata.json").write_text(
        json.dumps(result.metadata, indent=2, sort_keys=True), encoding="utf-8"
    )
