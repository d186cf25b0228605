"""Versioned JSON save/load for toy backend models.

Weight arrays are stored as base64-encoded little-endian float64, so a
round trip is bit-exact and the files stay self-describing: the backend
config travels inside the blob.  Format 2 stores a scorer's or a
classifier's weights as it holds them: its trained rows and bucket ids,
ascending JSON integers, and their (rows, ids) block.  Format 1, which
held the dense (rows, buckets) W, is refused.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from ..data import read_json
from ..errors import DataFormatError, PairshotError, brief, check
from .toy import ToyEncoder, ToyMaskedScorer, ToyTextClassifier, backend_config_with

FORMAT = "pairshot-model"
VERSION = 2


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
        raise DataFormatError(f"{name!r} is not an array of shape {brief(shape)}: {exc}") from exc
    if not np.isfinite(array).all():
        raise DataFormatError(f"{name!r} holds a NaN or an infinity")
    return array


def model_to_payload(model) -> dict:
    """Self-describing JSON payload for a scorer, classifier, or encoder."""
    if isinstance(model, (ToyMaskedScorer, ToyTextClassifier)):
        classifier = isinstance(model, ToyTextClassifier)
        body = {"kind": "text-classifier" if classifier else "masked-scorer", "seed": model.seed}
        if classifier:
            body["labels"] = list(model.labels)
        body.update(
            rows=model._rows.tolist(),
            ids=model._ids.tolist(),
            block=array_to_b64(model._block),
            schedule=dict(model._sched),
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


# The fields each kind of model payload needs besides its config; a
# block, and an encoder's rows, are array_from_b64's to check.
_FIELDS = {
    "masked-scorer": {"rows": [int], "ids": [int], "block": object},
    "text-classifier": {"rows": [int], "ids": [int], "block": object, "labels": [str]},
    "sentence-encoder": {"rows?": dict},
}
# A schedule that is not empty holds exactly these.
_SCHEDULE = {"n": int, "seed": int, "step": int}


def model_from_payload(payload: dict):
    """Rebuild a model from model_to_payload output."""
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise DataFormatError("not a model payload")
    if payload.get("version") != VERSION:
        raise DataFormatError(f"unsupported model payload version {brief(payload.get('version'))}")
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise DataFormatError(f"unknown model kind {brief(kind)}")
    check(payload, {"config": object, "seed?": int, **_FIELDS[kind]}, DataFormatError,
          "model payload")
    try:
        config = backend_config_with(payload["config"])
    except (PairshotError, ValueError) as exc:
        raise DataFormatError(f"model payload 'config' is refused: {exc}") from exc
    seed = payload.get("seed", 0)
    if kind == "sentence-encoder":
        model = ToyEncoder(config, seed)
        stored = payload.get("rows", {})
        if any(not key.isdecimal() or not 0 <= int(key) < config.buckets for key in stored):
            raise DataFormatError(
                f"model payload rows hold a key that is no bucket of {config.buckets}"
            )
        model.load_bucket_rows({
            int(bucket): array_from_b64(row, (config.embedding_dim,), "rows")
            for bucket, row in stored.items()
        })
        return model
    schedule = payload.get("schedule", {})
    if schedule != {}:
        check(schedule, _SCHEDULE, DataFormatError, "model payload schedule", closed=True)
    if kind == "masked-scorer":
        model = ToyMaskedScorer(config, seed)
    else:
        model = ToyTextClassifier(config, tuple(payload["labels"]), seed)
    rows, buckets = model._shape
    model._rows = _ascending(payload["rows"], rows, "rows")
    model._ids = _ascending(payload["ids"], buckets, "ids")
    model._block = array_from_b64(payload["block"], (len(model._rows), len(model._ids)), "block")
    model._sched = dict(schedule)
    return model


def _ascending(values: list[int], bound: int, name: str) -> np.ndarray:
    """values, the payload field name, as an int array; DataFormatError
    unless they ascend strictly within [0, bound)."""
    if any(not 0 <= v < bound for v in values) or any(a >= b for a, b in zip(values, values[1:])):
        raise DataFormatError(f"model payload {name!r} must be ascending integers in [0, {bound})")
    return np.array(values, dtype=np.intp)


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
