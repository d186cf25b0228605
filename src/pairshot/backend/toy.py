"""A deterministic, trainable toy backend.

This is intentionally not a transformer.  The masked scorer and the
text classifier are linear models over hashed n-gram features trained
with softmax cross-entropy; the sentence encoder averages per-bucket
embedding rows and is trained with a cosine-similarity MSE loss.  The
point is to exercise every engine contract cheaply and reproducibly:
same seed, same machine, same results, with gradients simple enough to
verify against finite differences.

Step accounting: one step is one optimizer update on one minibatch.
Epoch-based callers convert via ceil(len(data) / batch) * epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import chain
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..errors import NoDataError, NumericError, ShapeError, VocabularyError
from ..numerics import safe_norm, stable_softmax
from ..prompting import ClozeInput
from ..rng import Rng
from .features import Featurizer

_COSINE_EPS = 1e-12
# Texts per vectorized encode block: bounds the (texts, distinct buckets)
# work arrays.  Encoding 1000 pairs in 256-text blocks doubled the traced
# peak of 64-text blocks (11.5 vs 5.7 MB) for no measurable speed.
_ENCODE_CHUNK = 64
# Encoder rows per storage page.  Pages are allocated once and never
# regrown, so row views stay valid and a growing table leaves no
# copies behind in the allocator's heap.
_PAGE_ROWS = 1024


@dataclass(frozen=True)
class BackendConfig:
    """Shape and hashing parameters for toy models.

    vocabulary must contain the mask and separator tokens; engines ask
    for verbalizer tokens, which must be present as well.  word_order
    controls the word n-gram span (character n-grams are fixed at
    orders 3 and 4).
    """

    vocabulary: tuple[str, ...]
    mask_token: str = "<mask>"
    separator_token: str = "||"
    embedding_dim: int = 32
    word_order: int = 2
    buckets: int = 32768
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "vocabulary", tuple(self.vocabulary))
        if len(set(self.vocabulary)) != len(self.vocabulary):
            raise ValueError("vocabulary tokens must be distinct")
        for required in (self.mask_token, self.separator_token):
            if required not in self.vocabulary:
                raise VocabularyError(f"vocabulary must contain {required!r}")
        if self.embedding_dim <= 0 or self.buckets <= 0 or self.word_order <= 0:
            raise ValueError("embedding_dim, buckets, and word_order must be positive")


def default_backend_config(extra_tokens: Iterable[str] = (), **overrides) -> BackendConfig:
    """A config whose vocabulary covers every built-in task verbalizer."""
    from ..prompting import builtin_label_set, builtin_pvps, builtin_task_ids, verbalizer_tokens

    tokens: list[str] = ["<mask>", "||"]
    for task_id in builtin_task_ids():
        labels = builtin_label_set(task_id)
        for pvp in builtin_pvps(task_id):
            for tok in verbalizer_tokens(pvp, labels):
                if tok not in tokens:
                    tokens.append(tok)
    for tok in extra_tokens:
        if tok not in tokens:
            tokens.append(tok)
    return BackendConfig(vocabulary=tuple(tokens), **overrides)


def backend_config_with(overrides: Mapping[str, object]) -> BackendConfig:
    """default_backend_config() with the fields named in overrides replaced."""
    unknown = sorted(set(overrides) - {f.name for f in fields(BackendConfig)})
    if unknown:
        raise ValueError(f"unknown backend option(s): {unknown}")
    return replace(default_backend_config(), **overrides)


# ---------------------------------------------------------------------------
# Shared minibatch machinery


class _Schedule:
    """Deterministic resumable batch schedule.

    Pass p visits the data in Fisher-Yates order seeded by (seed, p);
    step s takes batch slot s mod ceil(n / batch) of pass s div that.
    """

    def __init__(self, n: int, batch: int, seed: int) -> None:
        if batch <= 0:
            raise ValueError("batch size must be positive")
        self.n = n
        self.batch = batch
        self.seed = seed
        self.per_pass = max(1, math.ceil(n / batch))
        self._pass = -1
        self._order: list[int] = []

    def batch_indices(self, step: int) -> list[int]:
        p, slot = divmod(step, self.per_pass)
        if p != self._pass:
            self._order = Rng(self.seed).derive("pass", p).shuffled(range(self.n))
            self._pass = p
        return self._order[slot * self.batch : (slot + 1) * self.batch]


def _train_softmax_ce(
    W: np.ndarray,
    examples: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    steps: int,
    batch: int,
    lr: float,
    seed: int,
    sched_state: dict,
) -> None:
    """SGD on cross-entropy of a softmax over selected rows of W.

    Each example is (feature idx, feature values, candidate row ids as a
    (k, 1) column, target distribution over those candidates); the column
    broadcasts against idx to gather and update the (k, len(idx)) block.
    Training resumes the step counter when called again with the same
    seed and data size, so two consecutive calls of s1 and s2 steps
    match one call of s1 + s2.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    n = len(examples)
    if sched_state.get("seed") == seed and sched_state.get("n") == n:
        start = sched_state["step"]
    else:
        start = 0
    schedule = _Schedule(n, batch, seed)
    for step in range(start, start + steps):
        rows = schedule.batch_indices(step)
        scale = lr / len(rows)
        for i in rows:
            idx, val, cands, target = examples[i]
            picked = W[cands, idx]
            scores = picked @ val
            if not np.all(np.isfinite(scores)):
                raise NumericError("non-finite scores during training; lower the learning rate")
            probs = stable_softmax(scores)
            W[cands, idx] = picked - np.outer((probs - target) * scale, val)
    sched_state.update(seed=seed, n=n, step=start + steps)


# ---------------------------------------------------------------------------
# Models


class ToyMaskedScorer:
    """Linear cloze scorer: score(token | text) = W[token] . features(text)."""

    def __init__(self, config: BackendConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self._featurizer = Featurizer(config.buckets, config.word_order)
        self._row: dict[str, int] = {tok: i for i, tok in enumerate(config.vocabulary)}
        # Zero init: an untrained scorer gives every candidate score 0.
        self.W = np.zeros((len(config.vocabulary), config.buckets), dtype=np.float64)
        self._sched: dict = {}

    def _rows_for(self, tokens: Sequence[str]) -> np.ndarray:
        missing = [t for t in tokens if t not in self._row]
        if missing:
            raise VocabularyError(f"tokens not in backend vocabulary: {missing}")
        return np.asarray([self._row[t] for t in tokens], dtype=np.int64)

    def score(self, clozes: Sequence[ClozeInput], candidates: Sequence[str]) -> np.ndarray:
        """(n, k) scores in candidate order; only candidate rows are read."""
        if not candidates:
            raise VocabularyError("candidate token list is empty")
        rows = self._rows_for(candidates)[:, None]
        out = np.zeros((len(clozes), len(rows)), dtype=np.float64)
        for i, (idx, val) in enumerate(self._featurizer.counts_batch([c.text for c in clozes])):
            if len(idx):
                out[i] = self.W[rows, idx] @ val
        return out

    def train(
        self,
        rendered: Sequence[tuple[ClozeInput, str]],
        steps: int,
        batch: int,
        lr: float,
        seed: int,
        candidates: Sequence[str] | None = None,
    ) -> None:
        """Cross-entropy training restricted to the candidate token rows.

        candidates defaults to the distinct target tokens present in
        rendered, in vocabulary order.
        """
        if not rendered:
            raise NoDataError("train called with no rendered examples")
        targets = [target for _, target in rendered]
        if candidates is None:
            candidates = sorted(set(targets), key=lambda t: self._row.get(t, -1))
        cand_rows = self._rows_for(candidates)[:, None]
        position = {tok: k for k, tok in enumerate(candidates)}
        examples = []
        features = self._featurizer.counts_batch([cloze.text for cloze, _ in rendered])
        for (idx, val), target in zip(features, targets):
            if target not in position:
                raise VocabularyError(f"target token {target!r} outside candidate set")
            onehot = np.zeros(len(candidates), dtype=np.float64)
            onehot[position[target]] = 1.0
            examples.append((idx, val, cand_rows, onehot))
        _train_softmax_ce(self.W, examples, steps, batch, lr, seed, self._sched)


class ToyTextClassifier:
    """Linear text classifier trained on soft target distributions."""

    def __init__(self, config: BackendConfig, labels: Sequence[str], seed: int = 0) -> None:
        if len(labels) < 2:
            raise ShapeError("a classifier needs at least two labels")
        self.config = config
        self.labels = tuple(labels)
        self.seed = seed
        self._featurizer = Featurizer(config.buckets, config.word_order)
        self.W = np.zeros((len(self.labels), config.buckets), dtype=np.float64)
        self._sched: dict = {}

    def predict(self, texts: Sequence[str]) -> np.ndarray:
        """(n, k) raw scores, one row per text, columns in label order."""
        out = np.zeros((len(texts), len(self.labels)), dtype=np.float64)
        for i, (idx, val) in enumerate(self._featurizer.counts_batch(texts, keep=False)):
            if len(idx):
                out[i] = self.W[:, idx] @ val
        return out

    def train(
        self,
        rows: Sequence[tuple[str, Sequence[float]]],
        steps: int,
        batch: int,
        lr: float,
        seed: int,
    ) -> None:
        if not rows:
            raise NoDataError("train called with no rows")
        all_rows = np.arange(len(self.labels), dtype=np.int64)[:, None]
        examples = []
        features = self._featurizer.counts_batch([text for text, _ in rows])
        for (idx, val), (_, dist) in zip(features, rows):
            target = np.asarray(list(dist), dtype=np.float64)
            if target.shape != (len(self.labels),):
                raise ShapeError(
                    f"target distribution has {target.shape[0] if target.ndim else 0} entries, "
                    f"expected {len(self.labels)}"
                )
            if (target < 0).any() or abs(float(target.sum()) - 1.0) > 1e-9:
                raise ShapeError("target distribution entries must be >= 0 and sum to 1")
            examples.append((idx, val, all_rows, target))
        _train_softmax_ce(self.W, examples, steps, batch, lr, seed, self._sched)


class ToyEncoder:
    """Mean-of-bucket-embeddings encoder trained with cosine MSE.

    Bucket rows are created lazily and deterministically from the
    creation seed, so the untrained embedding of a text never depends
    on what was encoded before it.  Each batch draws every row it is
    missing in one vectorized pass (Rng.derive_uniform_rows, equal to
    drawing the row float by float).  Only touched buckets get a row:
    rows fill fixed-size float64 pages in first-touch order, found
    through a bucket -> slot map.
    """

    def __init__(self, config: BackendConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self.dim = config.embedding_dim
        self._featurizer = Featurizer(config.buckets, config.word_order)
        self._rng = Rng(config.seed).derive("encoder", seed, "bucket")
        self._slot = np.full(config.buckets, -1, dtype=np.int64)
        self._pages: list[np.ndarray] = []
        self._count = 0

    def _append(self, buckets: np.ndarray, rows_of: Callable[[np.ndarray], np.ndarray]) -> None:
        """Give buckets the next free slots, filled page by page with rows_of(those buckets)."""
        done = 0
        while done < len(buckets):
            page, offset = divmod(self._count, _PAGE_ROWS)
            if page == len(self._pages):
                self._pages.append(np.empty((_PAGE_ROWS, self.dim), dtype=np.float64))
            part = buckets[done : done + _PAGE_ROWS - offset]
            self._pages[page][offset : offset + len(part)] = rows_of(part)
            self._slot[part] = np.arange(self._count, self._count + len(part))
            self._count += len(part)
            done += len(part)

    def _slots(self, buckets: np.ndarray) -> np.ndarray:
        """Slot of each bucket, drawing all missing rows in bulk."""
        missing = np.unique(buckets[self._slot[buckets] < 0])
        self._append(missing, lambda part: self._rng.derive_uniform_rows(part, self.dim, -0.5, 0.5))
        return self._slot[buckets]

    def _gather(self, slots: np.ndarray) -> np.ndarray:
        """(len(slots), dim) copy of the rows at slots."""
        page, offset = np.divmod(slots, _PAGE_ROWS)
        out = np.empty((len(slots), self.dim), dtype=np.float64)
        for p in np.unique(page):
            picked = page == p
            out[picked] = self._pages[p][offset[picked]]
        return out

    def _bucket_row(self, bucket: int) -> np.ndarray:
        """The row of bucket, drawn on first use: a view, as pages never move."""
        slot = self._slot[bucket]
        if slot < 0:
            slot = self._slots(np.array([bucket]))[0]
        return self._pages[slot // _PAGE_ROWS][slot % _PAGE_ROWS]

    def bucket_rows(self) -> dict[int, np.ndarray]:
        """Every drawn row by bucket, in ascending bucket order (views)."""
        return {int(b): self._bucket_row(b) for b in np.flatnonzero(self._slot >= 0)}

    def load_bucket_rows(self, rows: Mapping[int, np.ndarray]) -> None:
        """Replace every row with rows (bucket in [0, buckets) -> dim floats)."""
        self._slot[:] = -1
        self._pages, self._count = [], 0
        buckets = np.fromiter(rows, dtype=np.int64, count=len(rows))
        self._append(buckets, lambda part: np.array([rows[b] for b in part.tolist()]))

    def _occurrences(self, text: str) -> dict[int, float]:
        counts: dict[int, float] = {}
        for b in self._featurizer.bucket_ids(text):
            counts[b] = counts.get(b, 0.0) + 1.0
        return counts

    def _mean_row(self, counts: dict[int, float]) -> np.ndarray:
        """Mean of bucket rows over n-gram occurrences; zeros when there are none."""
        out = np.zeros(self.dim, dtype=np.float64)
        total = sum(counts.values())
        if total:
            for bucket, mult in counts.items():
                out += self._bucket_row(bucket) * mult
            out /= total
        return out

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        """(n, dim): the mean bucket row of each text; empty text -> zeros."""
        texts = list(texts)
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for start in range(0, len(texts), _ENCODE_CHUNK):
            chunk = texts[start : start + _ENCODE_CHUNK]
            out[start : start + len(chunk)] = self._mean_rows(
                [self._featurizer.bucket_ids(text) for text in chunk]
            )
        return out

    def _mean_rows(self, id_lists: list[list[int]]) -> np.ndarray:
        """_mean_row of each text's bucket ids, with the same additions in the same order.

        Row t adds bucket rows times multiplicity in the order of each
        bucket's first occurrence in id_lists[t], then divides by the
        occurrence count, exactly as _mean_row does.
        """
        n = len(id_lists)
        lengths = np.fromiter(map(len, id_lists), dtype=np.int64, count=n)
        out = np.zeros((n, self.dim), dtype=np.float64)
        if not lengths.any():
            return out
        ids = np.fromiter(chain.from_iterable(id_lists), dtype=np.int64, count=int(lengths.sum()))
        owner = np.repeat(np.arange(n), lengths)
        # Distinct (text, bucket) pairs, put back in first-occurrence order.
        keys, first, mult = np.unique(
            owner * self.config.buckets + ids, return_index=True, return_counts=True
        )
        order = np.argsort(first)
        text, bucket = np.divmod(keys[order], self.config.buckets)
        distinct = np.bincount(text, minlength=n)
        column = np.arange(len(text)) - (np.cumsum(distinct) - distinct)[text]
        width = int(distinct.max())
        slots, local = np.unique(self._slots(bucket), return_inverse=True)
        rows = self._gather(slots)
        row = np.zeros((n, width), dtype=np.int64)
        weight = np.zeros((n, width), dtype=np.float64)
        live = np.zeros((n, width), dtype=bool)
        row[text, column] = local
        weight[text, column] = mult[order]
        live[text, column] = True
        for k in range(width):
            added = rows[row[:, k]] * weight[:, k, None]
            np.add(out, added, out=out, where=live[:, k, None])
        out /= np.maximum(lengths, 1)[:, None]
        return out

    def fit(
        self,
        triplets: Sequence[tuple[str, str, float]],
        epochs: int,
        batch: int,
        lr: float,
        seed: int,
    ) -> None:
        """Minimize mean (cos(e_a, e_b) - target)^2 by SGD on bucket rows."""
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not triplets:
            raise NoDataError("fit called with no triplets")
        occurrences = []
        for text_a, text_b, target in triplets:
            if not math.isfinite(target):
                raise ShapeError("similarity targets must be finite")
            occurrences.append((self._occurrences(text_a), self._occurrences(text_b), float(target)))
        steps = math.ceil(len(triplets) / batch) * epochs
        if steps:
            # Every triplet is visited, so draw every row the loop reads up front.
            touched = [bucket for pair in occurrences for counts in pair[:2] for bucket in counts]
            self._slots(np.array(touched, dtype=np.int64))
        schedule = _Schedule(len(triplets), batch, seed)
        for step in range(steps):
            members = schedule.batch_indices(step)
            scale = lr / len(members)
            updates: dict[int, np.ndarray] = {}
            for i in members:
                counts_a, counts_b, target = occurrences[i]
                self._pair_gradient(counts_a, counts_b, target, updates)
            for bucket, grad in updates.items():
                self._bucket_row(bucket)[:] -= scale * grad

    def _pair_gradient(
        self,
        counts_a: dict[int, float],
        counts_b: dict[int, float],
        target: float,
        updates: dict[int, np.ndarray],
    ) -> None:
        total_a = sum(counts_a.values())
        total_b = sum(counts_b.values())
        vec_a = self._mean_row(counts_a)
        vec_b = self._mean_row(counts_b)
        norm_a = safe_norm(vec_a, _COSINE_EPS)
        norm_b = safe_norm(vec_b, _COSINE_EPS)
        dot = float(vec_a @ vec_b)
        cos = dot / (norm_a * norm_b)
        if not math.isfinite(cos):
            raise NumericError("non-finite cosine during encoder training")
        dldc = 2.0 * (cos - target)
        grad_a = dldc * (vec_b / (norm_a * norm_b) - dot * vec_a / (norm_a**3 * norm_b))
        grad_b = dldc * (vec_a / (norm_a * norm_b) - dot * vec_b / (norm_b**3 * norm_a))
        if total_a:
            for bucket, mult in counts_a.items():
                contribution = grad_a * (mult / total_a)
                updates[bucket] = updates.get(bucket, 0) + contribution
        if total_b:
            for bucket, mult in counts_b.items():
                contribution = grad_b * (mult / total_b)
                updates[bucket] = updates.get(bucket, 0) + contribution

    def pair_loss(self, text_a: str, text_b: str, target: float) -> float:
        """(cos - target)^2 for one pair; used by gradient checks."""
        from ..numerics import cosine_similarity

        vec_a, vec_b = self.encode([text_a, text_b])
        cos = cosine_similarity(vec_a, vec_b, _COSINE_EPS)
        return (cos - target) ** 2


class ToyBackend:
    """Factory satisfying the Backend protocol for the toy models."""

    def __init__(self, config: BackendConfig | None = None) -> None:
        self.config = config if config is not None else default_backend_config()

    @property
    def mask_token(self) -> str:
        return self.config.mask_token

    @property
    def separator_token(self) -> str:
        return self.config.separator_token

    @property
    def default_lr(self) -> float:
        # Appropriate for the linear toy models; transformer-scale
        # backends will want their own, far smaller default.
        return 0.1

    @property
    def length_fn(self) -> Callable[[str], int]:
        return _whitespace_length

    def create_scorer(self, seed: int = 0) -> ToyMaskedScorer:
        return ToyMaskedScorer(self.config, seed)

    def create_classifier(self, labels: Sequence[str], seed: int = 0) -> ToyTextClassifier:
        return ToyTextClassifier(self.config, labels, seed)

    def create_encoder(self, seed: int = 0) -> ToyEncoder:
        return ToyEncoder(self.config, seed)


def _whitespace_length(text: str) -> int:
    return len(text.split())
