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

import numpy as np

from ..errors import DataFormatError
from .toy import ToyEncoder, ToyMaskedScorer, ToyTextClassifier, backend_config_with

FORMAT = "pairshot-model"
VERSION = 1


def array_to_b64(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def array_from_b64(data: str, shape: tuple[int, ...]) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(data), dtype="<f8")
    return flat.reshape(shape).astype(np.float64)


def model_to_payload(model) -> dict:
    """Self-describing JSON payload for a scorer, classifier, or encoder."""
    if isinstance(model, ToyMaskedScorer):
        body = {
            "kind": "masked-scorer",
            "seed": model.seed,
            "weights": array_to_b64(model.W),
            "shape": list(model.W.shape),
            "schedule": dict(model._sched),
        }
    elif isinstance(model, ToyTextClassifier):
        body = {
            "kind": "text-classifier",
            "seed": model.seed,
            "labels": list(model.labels),
            "weights": array_to_b64(model.W),
            "shape": list(model.W.shape),
            "schedule": dict(model._sched),
        }
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
    config = backend_config_with(payload["config"])
    kind = payload.get("kind")
    if kind == "masked-scorer":
        model = ToyMaskedScorer(config, payload.get("seed", 0))
        model.W = array_from_b64(payload["weights"], tuple(payload["shape"]))
        model._sched = dict(payload.get("schedule", {}))
        return model
    if kind == "text-classifier":
        model = ToyTextClassifier(config, tuple(payload["labels"]), payload.get("seed", 0))
        model.W = array_from_b64(payload["weights"], tuple(payload["shape"]))
        model._sched = dict(payload.get("schedule", {}))
        return model
    if kind == "sentence-encoder":
        model = ToyEncoder(config, payload.get("seed", 0))
        rows = {
            int(bucket): array_from_b64(row, (config.embedding_dim,))
            for bucket, row in payload.get("rows", {}).items()
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
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    return model_from_payload(payload)
