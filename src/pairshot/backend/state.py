"""Versioned JSON save/load for toy backend models.

Weight arrays are stored as base64-encoded little-endian float64, so a
round trip is bit-exact and the files stay self-describing: the backend
config travels inside the blob.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from ..data import read_json
from ..errors import DataFormatError, PairshotError
from .toy import ToyEncoder, ToyMaskedScorer, ToyTextClassifier, backend_config_with

FORMAT = "pairshot-model"
VERSION = 1


def array_to_b64(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def array_from_b64(data: str, shape: Sequence[int], name: str) -> np.ndarray:
    """The float64 array of this shape stored in data, the payload field
    name; DataFormatError if data and shape do not make one, or if it
    holds a NaN or an infinity (no trained model does, and the encoder's
    row sums are exact only for finite rows)."""
    try:
        if any(type(n) is not int or n < 0 for n in shape):
            raise ValueError("the shape is not a list of non-negative integers")
        flat = np.frombuffer(base64.b64decode(data), dtype="<f8")
        array = flat.reshape(tuple(shape)).astype(np.float64)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{name!r} is not an array of shape {shape!r}: {exc}") from exc
    if not np.isfinite(array).all():
        raise DataFormatError(f"{name!r} holds a NaN or an infinity")
    return array


def payload_fields(payload: object, names: Sequence[str], what: str) -> list:
    """payload[name] for every name; DataFormatError naming what is missing."""
    if not isinstance(payload, dict):
        raise DataFormatError(f"{what} is not a JSON object")
    missing = [name for name in names if name not in payload]
    if missing:
        raise DataFormatError(f"{what} lacks {missing}")
    return [payload[name] for name in names]


def model_to_payload(model) -> dict:
    """Self-describing JSON payload for a scorer, classifier, or encoder."""
    if isinstance(model, (ToyMaskedScorer, ToyTextClassifier)):
        classifier = isinstance(model, ToyTextClassifier)
        body = {"kind": "text-classifier" if classifier else "masked-scorer", "seed": model.seed}
        if classifier:
            body["labels"] = list(model.labels)
        body.update(
            weights=array_to_b64(model.W), shape=list(model.W.shape), schedule=dict(model._sched)
        )
    elif isinstance(model, ToyEncoder):
        body = {
            "kind": "sentence-encoder",
            "seed": model.seed,
            "rows": {str(bucket): array_to_b64(row) for bucket, row in model.bucket_rows().items()},
        }
    else:
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    body["format"] = FORMAT
    body["version"] = VERSION
    body["config"] = asdict(model.config)
    return body


def model_from_payload(payload: dict):
    """Rebuild a model from model_to_payload output."""
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise DataFormatError("not a model payload")
    if payload.get("version") != VERSION:
        raise DataFormatError(f"unsupported model payload version {payload.get('version')!r}")
    (overrides,) = payload_fields(payload, ["config"], "model payload")
    try:
        config = backend_config_with(overrides)
    except (PairshotError, ValueError) as exc:
        raise DataFormatError(f"model payload 'config' is refused: {exc}") from exc
    seed = payload.get("seed", 0)
    if type(seed) is not int:
        raise DataFormatError(f"model payload 'seed' is not an integer: {seed!r}")
    kind = payload.get("kind")
    if kind in ("masked-scorer", "text-classifier"):
        weights, shape = payload_fields(payload, ["weights", "shape"], "model payload")
        if kind == "masked-scorer":
            model = ToyMaskedScorer(config, seed)
        else:
            (labels,) = payload_fields(payload, ["labels"], "model payload")
            if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
                raise DataFormatError("model payload 'labels' is not a list of strings")
            model = ToyTextClassifier(config, tuple(labels), seed)
        schedule = payload.get("schedule", {})
        if schedule != {} and not (
            isinstance(schedule, dict)
            and sorted(schedule) == ["n", "seed", "step"]
            and all(type(value) is int for value in schedule.values())
        ):
            raise DataFormatError(
                f"model payload 'schedule' is not empty or integer seed, n and step: {schedule!r}"
            )
        model.W = array_from_b64(weights, shape, "weights")
        model._sched = dict(schedule)
        return model
    if kind == "sentence-encoder":
        model = ToyEncoder(config, seed)
        stored = payload.get("rows", {})
        if not isinstance(stored, dict) or not all(key.isdecimal() for key in stored):
            raise DataFormatError("model payload 'rows' is not an object keyed by bucket")
        rows = {
            int(bucket): array_from_b64(row, (config.embedding_dim,), "rows")
            for bucket, row in stored.items()
        }
        if any(not 0 <= bucket < config.buckets for bucket in rows):
            raise DataFormatError(f"encoder row bucket outside [0, {config.buckets})")
        model.load_bucket_rows(rows)
        return model
    raise DataFormatError(f"unknown model kind {kind!r}")


def save_model(model, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(model_to_payload(model), sort_keys=True), encoding="utf-8")


def load_model(path: str | Path):
    path = Path(path)
    try:
        payload = read_json(path)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc
    return model_from_payload(payload)
