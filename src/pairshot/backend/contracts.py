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
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..errors import ShapeError
from ..prompting import ClozeInput


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
    """TypeError unless lr is a number or None (the backend default), and
    ValueError naming lr unless that number is a positive finite float (an
    int past float range is not)."""
    if lr is None:
        return
    if isinstance(lr, bool) or not isinstance(lr, (int, float)):
        raise TypeError(f"lr must be a number or None, got {lr!r}")
    if not 0 < lr <= sys.float_info.max:
        raise ValueError(f"lr must be positive and finite, got {lr!r}")


def check_ints(config: object, *names: str) -> None:
    """TypeError naming the first field that is not an int or a tuple of ints (a bool is not)."""
    for name in names:
        value = getattr(config, name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, bool) or not isinstance(item, int):
                raise TypeError(f"{name} takes integers only, got {item!r}")


def real_numbers(values: object, what: str) -> np.ndarray:
    """values as a float64 vector; ShapeError naming what unless values is a
    sequence of integers and floats (a string is none, and a bool is no number)."""
    try:
        array = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise ShapeError(f"{what} must be a sequence of real numbers: {exc}") from exc
    if array.ndim != 1 or array.dtype.kind not in "iuf":
        raise ShapeError(f"{what} must be a sequence of real numbers, got {values!r}")
    return array.astype(np.float64)


def resolve_lr(lr: float | None, backend: Backend) -> float:
    """The learning rate a config asks for; None means the backend default."""
    return backend.default_lr if lr is None else lr
