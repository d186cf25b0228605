"""Protocols every model backend must satisfy.

Engines only talk to these interfaces.  The bundled toy backend and the
line-delimited JSON adapter both implement them; a transformer-scale
backend would plug in the same way.

Inference is batch-first: predict and encode take a whole sequence and
return one row per item, so an engine makes one call per model per
dataset.  Scorers are handles: Backend.score_scorers scores one dataset
with several of them in one call, and Backend.train_scorers trains
several in one call.  Each row must equal what the item would get
alone, and each scorer must end as if trained alone.
"""

from __future__ import annotations

import sys
from dataclasses import fields
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..errors import ShapeError, brief
from ..prompting import ClozeInput

# The version of the JSON-lines protocol (pairshot.backend.adapter) that
# the client and the server both speak; a hello of any other is refused.
PROTOCOL_VERSION = 4


@runtime_checkable
class MaskedScorer(Protocol):
    """A handle on a cloze scorer of one backend: Backend.score_scorers
    scores candidate tokens for the mask slot with it, and
    Backend.train_scorers trains it.  It declares no methods of its own."""


@runtime_checkable
class TextClassifier(Protocol):
    """Maps raw text to a score vector over a fixed label order."""

    labels: tuple[str, ...]

    def predict(self, texts: Sequence[str]) -> np.ndarray:
        """(n, k): one row per text, columns in label order."""
        ...

    def train(
        self,
        rows: Sequence[tuple[str, Sequence[float]]],
        steps: int,
        batch: int,
        lr: float,
        seed: int,
    ) -> None:
        ...


@runtime_checkable
class SentenceEncoder(Protocol):
    """Maps text to a fixed-dimension embedding."""

    dim: int

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        """(n, dim): one embedding per text."""
        ...

    def fit(
        self,
        triplets: Sequence[tuple[str, str, float]],
        epochs: int,
        batch: int,
        lr: float,
        seed: int,
    ) -> None:
        ...


@runtime_checkable
class Backend(Protocol):
    """Factory plus the token conventions engines must respect.

    Lengths are whitespace-token counts on every backend: prompt
    rendering counts them itself, and the adapter refuses a remote
    backend that declares any other length model.
    """

    @property
    def mask_token(self) -> str:
        ...

    @property
    def separator_token(self) -> str:
        ...

    @property
    def default_lr(self) -> float:
        ...

    def create_scorer(self, seed: int = 0) -> MaskedScorer:
        ...

    def create_classifier(self, labels: Sequence[str], seed: int = 0) -> TextClassifier:
        ...

    def create_encoder(self, seed: int = 0) -> SentenceEncoder:
        ...

    def score_scorers(
        self,
        scorers: Sequence[MaskedScorer],
        clozes: Sequence[ClozeInput],
        candidates: Sequence[str],
    ) -> np.ndarray:
        """(m, n, k): for every scorer in order, one row per cloze and one
        column per candidate, from one call; scorers are scorers of this
        backend."""
        ...

    def train_scorers(self, jobs: Sequence[tuple], steps: int, batch: int, lr: float) -> None:
        """Train every job (scorer, rendered, seed, candidates) in one call:
        steps minibatch updates of cross-entropy on the candidate tokens
        (by default the distinct targets of rendered), each scorer ending as
        if trained alone; jobs name distinct scorers of this backend."""
        ...

    def close(self) -> None:
        """Release what the backend holds, such as a remote server."""
        ...


def check_lr(lr: object) -> None:
    """check_positive("lr", lr) unless lr is None (the backend default)."""
    if lr is not None:
        check_positive("lr", lr)


def check_positive(name: str, value: object) -> None:
    """TypeError naming name unless value is an int or a float (a bool is
    no number), then ValueError naming it unless that number is positive
    and finite (an int past float range is not, nor is NaN)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {brief(value)}")
    if not 0 < value <= sys.float_info.max:
        try:
            shown = repr(value)
        except ValueError:  # an int past the interpreter's digit limit has no repr
            shown = f"an int of {value.bit_length()} bits"
        raise ValueError(f"{name} must be positive and finite, got {shown}")


def check_ints(config: object, **least: int | None) -> None:
    """TypeError naming the first named field of the dataclass config that
    is not an int, or, where the field is annotated as a tuple, a tuple of
    ints (a bool is no int); then ValueError naming the first whose int, or
    any item of whose tuple, is below the field's least value (None: no bound)."""
    tuples = {f.name for f in fields(config) if str(f.type).startswith("tuple")}
    items = {}
    for name in least:
        value = getattr(config, name)
        items[name] = value if name in tuples and isinstance(value, tuple) else (value,)
        for item in items[name]:
            if isinstance(item, bool) or not isinstance(item, int):
                raise TypeError(f"{name} takes integers only, got {brief(item)}")
    for name, bound in least.items():
        if bound is not None and any(item < bound for item in items[name]):
            raise ValueError(f"{name} must be at least {bound}")


def real_numbers(values: object, what: str) -> np.ndarray:
    """values as a float64 vector; ShapeError naming what unless values is a
    sequence of integers and floats (a string is none, and a bool is no number)."""
    try:
        array = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise ShapeError(f"{what} must be a sequence of real numbers: {exc}") from exc
    if array.ndim != 1 or array.dtype.kind not in "iuf":
        raise ShapeError(f"{what} must be a sequence of real numbers, got {brief(values)}")
    return array.astype(np.float64)


def resolve_lr(lr: float | None, backend: Backend) -> float:
    """The learning rate a config asks for; None means the backend default."""
    return backend.default_lr if lr is None else lr
