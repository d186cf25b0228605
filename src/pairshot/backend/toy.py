"""A deterministic, trainable toy backend.

This is intentionally not a transformer.  The masked scorer and the
text classifier are linear models over hashed n-gram features trained
with softmax cross-entropy; the sentence encoder averages per-bucket
embedding rows and is trained with a cosine-similarity MSE loss.  The
point is to exercise every engine contract cheaply and reproducibly:
same seed, same machine, same results, with gradients simple enough to
verify against finite differences.

Step accounting: one step is one optimizer update on one minibatch, the
mean gradient at the weights the step starts from, written once; a step
with non-finite scores, cosines or update raises NumericError and writes
nothing.  Every loop draws its minibatches from _batches, the one batch
schedule.  Epoch-based callers convert via ceil(len(data) / batch) * epochs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import NoDataError, NumericError, ShapeError, VocabularyError
from ..numerics import safe_norm, stable_softmax
from ..prompting import ClozeInput
from ..rng import Rng
from .contracts import real_numbers
from .features import Featurizer, SparseRows, _unpaged

_COSINE_EPS = 1e-12
# Texts per vectorized encode block: bounds the (texts, distinct buckets)
# work arrays.  Encoding 1000 pairs in 256-text blocks doubled the traced
# peak of 64-text blocks (11.5 vs 5.7 MB) for no measurable speed.
_ENCODE_CHUNK = 64
_SCORE_ROWS = 64  # rows per block of _linear_scores: bounds its terms array
_PLAN_ROWS = 64  # rows per gather of _train_softmax_ce: bounds the planned steps' copy


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
        vocabulary = self.vocabulary
        if (
            isinstance(vocabulary, str)
            or not isinstance(vocabulary, Sequence)
            or not all(isinstance(token, str) for token in vocabulary)
        ):
            raise ValueError("vocabulary must be a sequence of strings")
        object.__setattr__(self, "vocabulary", tuple(vocabulary))
        for name, kind in (
            ("mask_token", str), ("separator_token", str), ("embedding_dim", int),
            ("word_order", int), ("buckets", int), ("seed", int),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
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
    if not isinstance(overrides, Mapping):
        raise ValueError(f"backend options must be a JSON object, got {overrides!r}")
    unknown = sorted(set(overrides) - {f.name for f in fields(BackendConfig)})
    if unknown:
        raise ValueError(f"unknown backend option(s): {unknown}")
    return replace(default_backend_config(), **overrides)


# ---------------------------------------------------------------------------
# Shared minibatch machinery


def _batches(n: int, batch: int, seed: int, start: int, steps: int) -> Iterator[np.ndarray]:
    """Row indices (int64 arrays) of steps start, ..., start + steps - 1 of
    the resumable batch schedule: pass p visits the data in Fisher-Yates
    order seeded by (seed, p), and step s takes batch slot s mod
    ceil(n / batch) of pass s div that.  A pass is drawn when a step first
    needs it, so at most one is held at a time."""
    if batch <= 0:
        raise ValueError("batch size must be positive")
    first, skip = divmod(start, max(1, math.ceil(n / batch)))
    orders = (np.array(Rng(seed).derive("pass", p).shuffled(range(n)), dtype=np.int64)
              for p in itertools.count(first))
    slots = (order[i : i + batch] for order in orders for i in range(0, max(n, 1), batch))
    slots = itertools.islice(slots, skip, None)
    return (slot for _, slot in zip(range(steps), slots))  # zip asks for no slot past the last step


def _linear_scores(W: np.ndarray, x: SparseRows) -> np.ndarray:
    """(len(x), len(W)) scores W . x_i, each summed over its own slice
    alone, so a row scores the same in any batch; an empty row scores 0."""
    out = np.zeros((len(x), len(W)), dtype=np.float64)
    for start in range(0, len(x), _SCORE_ROWS):
        bounds = x.indptr[start : start + _SCORE_ROWS + 1]
        filled = np.flatnonzero(np.diff(bounds))
        if len(filled):
            terms = np.take(W, x.indices[bounds[0] : bounds[-1]], axis=1)
            terms *= x.values[bounds[0] : bounds[-1]]
            out[start + filled] = np.add.reduceat(terms, bounds[filled] - bounds[0], axis=1).T
    return out


def _softmax_ce_gradient(W: np.ndarray, x: SparseRows, targets: np.ndarray) -> np.ndarray:
    """The (k, width) gradient on W of the sum over x_i of
    cross-entropy(targets[i], softmax(W . x_i)): sum_i (p_i - t_i) x_i^T,
    from one bincount over class * width + column, so each column sums in
    row order and a column x does not use is 0.0.  x.indptr need not start
    at 0.  A batch without features gives int64 zeros (bincount's dtype)."""
    scores = _linear_scores(W, x)
    if not np.isfinite(scores).all():
        raise NumericError("non-finite scores during training; lower the learning rate")
    residual = (stable_softmax(scores) - targets).T
    lo, hi = x.indptr[0], x.indptr[-1]
    terms = np.repeat(residual, np.diff(x.indptr), axis=1)
    terms *= x.values[lo:hi]
    k, width = W.shape
    bins = np.arange(k)[:, None] * width + x.indices[lo:hi]
    return np.bincount(bins.ravel(), terms.ravel(), k * width).reshape(k, width)


def _train_softmax_ce(jobs: Sequence[tuple], steps: int, batch: int, lr: float) -> None:
    """Minibatch SGD on the cross-entropy of a softmax over W[rows], for
    every job (W, rows, features, targets, seed, sched_state) in lockstep.

    features holds one row per example, targets the (n, k) distributions.
    A step gathers each job's batch B, scores it at the weights it starts
    from and writes W[rows] -= lr / |B| * sum_B (p - t) x^T once, so the
    order inside a batch does not matter.  A job resumes its step counter
    when called again with the same seed and data size, so two calls of
    s1 and s2 steps match one call of s1 + s2.

    Steps read and write only the columns the data has: each job's used
    columns of W[rows] get their own range of one block.  The batches of
    the next _PLAN_ROWS // (batch * jobs) steps (at least one) are
    planned ahead and gathered in one take; each step scores its own row
    range of that gather in one pass and sums its dense (k, width)
    gradient with one bincount.  A column sums only its own job's rows,
    in order, and a column no row uses gets exactly 0.0, so the step
    subtracts lr * grad / |B| from the whole block and each job ends
    bit-equal to training it alone.  A non-finite step writes nothing for
    any job; every W and schedule keeps the steps completed before it.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if not jobs or len({id(job[0]) for job in jobs}) < len(jobs):
        raise ValueError("training needs jobs that each name one model once")
    if len({len(job[1]) for job in jobs}) > 1:
        raise ShapeError("training jobs must share one candidate count")
    columns, parts, starts = [], [], []
    for W, _, f, _, seed, state in jobs:
        used = np.flatnonzero(np.bincount(f.indices, minlength=W.shape[1]))
        local = np.searchsorted(used, f.indices)
        local += sum(map(len, columns))
        parts.append(SparseRows(f.indptr, local, f.values))
        columns.append(used)
        starts.append(state["step"] if (state.get("seed"), state.get("n")) == (seed, len(f)) else 0)
    features = parts[0] if len(parts) == 1 else SparseRows(
        np.append(0, np.cumsum(np.concatenate([np.diff(part.indptr) for part in parts]))),
        np.concatenate([part.indices for part in parts]),
        np.concatenate([part.values for part in parts]),
    )
    targets = np.concatenate([job[3] for job in jobs])
    first_row = np.cumsum([0] + [len(job[2]) for job in jobs])
    # Per step, every job's batch offset by its first row (map binds the offset now).
    lockstep = zip(*[
        map(np.add, _batches(len(f), batch, seed, start, steps), itertools.repeat(at))
        for (_, _, f, _, seed, _), start, at in zip(jobs, starts, first_row)
    ])
    owner = np.repeat(np.arange(len(jobs)), [len(c) for c in columns])
    block = np.concatenate([W[rows[:, None], c] for (W, rows, *_), c in zip(jobs, columns)], axis=1)
    per_plan = max(1, _PLAN_ROWS // (batch * len(jobs)))
    done = 0
    try:
        while done < steps:
            plan = list(itertools.islice(lockstep, per_plan))
            members = np.concatenate([b for batches in plan for b in batches])
            gathered, gathered_targets = features.take(members), targets[members]
            end = 0
            for batches in plan:
                sizes = [len(b) for b in batches]
                begin, end = end, end + sum(sizes)
                x = SparseRows(gathered.indptr[begin : end + 1], gathered.indices, gathered.values)
                grad = _softmax_ce_gradient(block, x, gathered_targets[begin:end])
                # Out of place, as grad may be int64 zeros.  Batches of one size
                # divide as a scalar: the same quotients, without a per-column gather.
                update = grad / (sizes[0] if min(sizes) == max(sizes) else np.take(sizes, owner))
                update *= lr
                if not np.isfinite(update).all():
                    raise NumericError("non-finite update during training; lower the learning rate")
                block -= update
                done += 1
    finally:
        blocks = np.split(block, np.cumsum([len(c) for c in columns])[:-1], axis=1)
        for (W, rows, f, _, seed, state), c, own, start in zip(jobs, columns, blocks, starts):
            W[rows[:, None], c] = own
            state.update(seed=seed, n=len(f), step=start + done)


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

    def score(self, x: SparseRows, candidates: Sequence[str]) -> np.ndarray:
        """(len(x), k) scores of featurized clozes x in candidate order; only
        candidate rows are read.  ToyBackend.score_scorers calls it once per
        scorer (perfbench's tracer wraps it by name)."""
        if not candidates:
            raise VocabularyError("candidate token list is empty")
        return _linear_scores(self.W[self._rows_for(candidates)], x)

    def _job(
        self,
        rendered: Sequence[tuple[ClozeInput, str]],
        seed: int,
        candidates: Sequence[str] | None,
        featurize=Featurizer.counts_batch,
    ) -> tuple:
        """The trainer's job for rendered: (W, rows, features, targets, seed,
        schedule); featurize(featurizer, texts) gives the features."""
        if not rendered:
            raise NoDataError("train called with no rendered examples")
        targets = [target for _, target in rendered]
        if candidates is None:
            candidates = sorted(set(targets), key=lambda t: self._row.get(t, -1))
        rows = self._rows_for(candidates)
        position = {tok: k for k, tok in enumerate(candidates)}
        outside = [target for target in targets if target not in position]
        if outside:
            raise VocabularyError(f"target token {outside[0]!r} outside candidate set")
        onehot = np.eye(len(candidates))[[position[target] for target in targets]]
        features = featurize(self._featurizer, tuple(cloze.text for cloze, _ in rendered))
        return self.W, rows, features, onehot, seed, self._sched

    def train(
        self,
        rendered: Sequence[tuple[ClozeInput, str]],
        steps: int,
        batch: int,
        lr: float,
        seed: int,
        candidates: Sequence[str] | None = None,
    ) -> None:
        """Cross-entropy training restricted to the candidate token rows, as
        ToyBackend.train_scorers trains a job (perfbench's tracer wraps it
        by name).

        candidates defaults to the distinct target tokens present in
        rendered, in vocabulary order.
        """
        _train_softmax_ce([self._job(rendered, seed, candidates)], steps, batch, lr)


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
        return _linear_scores(self.W, self._featurizer.counts_batch(texts))

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
        k = len(self.labels)
        targets = [real_numbers(dist, "a target distribution") for _, dist in rows]
        for target in targets:
            if len(target) != k:
                raise ShapeError(f"target distribution has {len(target)} entries, expected {k}")
            if not (target >= 0).all() or abs(float(target.sum()) - 1.0) > 1e-9:
                raise ShapeError("target distribution entries must be >= 0 and sum to 1")
        x = self._featurizer.counts_batch([text for text, _ in rows])
        targets = np.array(targets)
        _train_softmax_ce([(self.W, np.arange(k), x, targets, seed, self._sched)], steps, batch, lr)


class ToyEncoder:
    """Mean-of-bucket-embeddings encoder trained with cosine MSE.

    Bucket rows are created lazily and deterministically from the
    creation seed, so the untrained embedding of a text never depends
    on what was encoded before it.  Each batch draws every row it is
    missing in one vectorized pass (Rng.derive_uniform_rows, equal to
    drawing the row float by float).  Only touched buckets get a row:
    rows fill one table, mapped once at full size, in first-touch
    order, found through a bucket -> slot map.  Slots are dense, so
    only the pages that hold drawn rows ever become resident.
    """

    def __init__(self, config: BackendConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self.dim = config.embedding_dim
        self._featurizer = Featurizer(config.buckets, config.word_order)
        self._rng = Rng(config.seed).derive("encoder", seed, "bucket")
        self._slot = np.full(config.buckets, -1, dtype=np.int64)
        self._rows = _unpaged(config.buckets * self.dim, np.float64).reshape(-1, self.dim)
        self._count = 0

    def _append(self, buckets: np.ndarray, rows: np.ndarray) -> None:
        """Give buckets the next free slots, holding rows."""
        start, self._count = self._count, self._count + len(buckets)
        self._rows[start : self._count] = rows
        self._slot[buckets] = np.arange(start, self._count)

    def _slots(self, buckets: np.ndarray) -> np.ndarray:
        """Slot of each bucket, drawing all missing rows in bulk."""
        missing = np.unique(buckets[self._slot[buckets] < 0])
        self._append(missing, self._rng.derive_uniform_rows(missing, self.dim, -0.5, 0.5))
        return self._slot[buckets]

    def _bucket_row(self, bucket: int) -> np.ndarray:
        """The drawn row of bucket: a view, as the table never moves."""
        return self._rows[self._slot[bucket]]

    def bucket_rows(self) -> dict[int, np.ndarray]:
        """Every drawn row by bucket, in ascending bucket order (views)."""
        return {int(b): self._bucket_row(b) for b in np.flatnonzero(self._slot >= 0)}

    def load_bucket_rows(self, rows: Mapping[int, np.ndarray]) -> None:
        """Replace every row with rows (bucket in [0, buckets) -> dim floats)."""
        self._slot[:] = -1
        self._count = 0
        buckets = np.fromiter(rows, dtype=np.int64, count=len(rows))
        self._append(buckets, np.array([rows[b] for b in buckets.tolist()]).reshape(-1, self.dim))

    def _table(self, texts: Sequence[str]) -> SparseRows:
        """Row t: the distinct buckets of texts[t] in first-occurrence order, with multiplicities.

        One stable argsort of the (text, bucket) keys puts the occurrences
        of each distinct pair in one run, first occurrence first.  Each
        run's length, scattered onto its first occurrence, leaves the
        distinct pairs as the nonzero entries of an occurrence-long array,
        which flatnonzero reads back in first-occurrence order.
        """
        indptr, ids = self._featurizer._occurrences(texts)
        owner = np.repeat(np.arange(len(texts)), np.diff(indptr))
        keys = owner * self.config.buckets + ids
        order = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(np.diff(keys[order], prepend=-1))  # keys are >= 0
        mult = np.zeros(len(keys), dtype=np.int64)
        mult[order[starts]] = np.diff(starts, append=len(keys))
        first = np.flatnonzero(mult)
        return SparseRows(np.searchsorted(first, indptr), ids[first], mult[first])

    def _mean_rows(self, table: SparseRows) -> np.ndarray:
        """(len(table), dim) mean bucket rows over each text's n-gram occurrences.

        Row t adds bucket rows times multiplicity in table order, then
        divides by the occurrence count, exactly as a per-text loop does.
        Slots and weights are laid out (width, texts), so the k-th bucket
        of every text is one contiguous gather from the row table.  A text
        with fewer than k + 1 buckets adds the batch's first row times 0.0
        there: +-0.0 for a finite row, which leaves a sum that starts at
        +0.0 bit for bit unchanged.  Loaded rows are finite (model
        payloads refuse others), and fit refuses a non-finite update.
        """
        n = len(table)
        out = np.zeros((n, self.dim), dtype=np.float64)
        distinct = np.diff(table.indptr)
        width = int(distinct.max(initial=0))
        if not width:
            return out
        slots = self._slots(table.indices)
        text = np.repeat(np.arange(n), distinct)
        column = np.arange(len(text)) - table.indptr[text]
        slot = np.full((width, n), slots[0])
        weight = np.zeros((width, n), dtype=np.float64)
        slot[column, text] = slots
        weight[column, text] = table.values
        for k in range(width):
            added = self._rows[slot[k]]
            added *= weight[k, :, None]
            out += added
        out /= np.maximum(np.bincount(text, weights=table.values, minlength=n), 1)[:, None]
        return out

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        """(n, dim): the mean bucket row of each text; empty text -> zeros."""
        texts = list(texts)
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for start in range(0, len(texts), _ENCODE_CHUNK):
            chunk = texts[start : start + _ENCODE_CHUNK]
            out[start : start + len(chunk)] = self._mean_rows(self._table(chunk))
        return out

    def fit(
        self,
        triplets: Sequence[tuple[str, str, float]],
        epochs: int,
        batch: int,
        lr: float,
        seed: int,
    ) -> None:
        """Minimize mean (cos(e_a, e_b) - target)^2 by minibatch SGD on bucket rows.

        A step spreads each text's _pair_gradient over its buckets by
        multiplicity / occurrence count and sums the shares per bucket
        (_descend: one np.bincount per embedding dimension), in the order
        of a per-pair loop.
        """
        if epochs < 0:
            raise ValueError("epochs must be non-negative")
        if batch <= 0:
            raise ValueError("batch size must be positive")
        if not triplets:
            raise NoDataError("fit called with no triplets")
        targets = real_numbers([sim for _, _, sim in triplets], "similarity targets").tolist()
        if not all(map(math.isfinite, targets)):
            raise ShapeError("similarity targets must be finite")
        # Rows 2i and 2i + 1 are the texts of triplet i.
        table = self._table([text for a, b, _ in triplets for text in (a, b)])
        steps = math.ceil(len(triplets) / batch) * epochs
        for members in _batches(len(triplets), batch, seed, 0, steps):
            part = table.take((2 * members[:, None] + (0, 1)).ravel())
            vectors = self._mean_rows(part)
            pairs = zip(vectors.reshape(-1, 2, self.dim), members)
            grads = np.concatenate([self._pair_gradient(a, b, targets[i]) for (a, b), i in pairs])
            self._descend(part, grads, lr / len(members))

    def _descend(self, part: SparseRows, grads: np.ndarray, scale: float) -> None:
        """Subtract scale times the per-bucket sums of each text's gradient row
        grads[t], spread over its buckets by multiplicity / occurrence count.

        One embedding dimension at a time: that dimension's share of every
        table entry, summed by bucket in one np.bincount, each bucket in
        table order from 0.0, as a 2-D np.add.at sums them.  No (entries,
        dim) array is made, so a step's largest temporary holds one
        dimension's entries.
        """
        text = np.repeat(np.arange(len(part)), np.diff(part.indptr))
        totals = np.bincount(text, weights=part.values, minlength=len(part))
        buckets, at = np.unique(part.indices, return_inverse=True)
        weights = part.values / totals[text]
        update = np.empty((self.dim, len(buckets)), dtype=np.float64)
        for d, column in enumerate(grads.T):
            update[d] = np.bincount(at, column[text] * weights, len(buckets))
        update *= scale
        if not np.isfinite(update).all():
            raise NumericError("non-finite encoder update; lower the learning rate")
        self._rows[self._slot[buckets]] -= update.T

    @staticmethod
    def _pair_gradient(vec_a: np.ndarray, vec_b: np.ndarray, target: float) -> tuple:
        """Gradients of (cos(vec_a, vec_b) - target)^2 with respect to vec_a and vec_b."""
        norm_a = safe_norm(vec_a, _COSINE_EPS)
        norm_b = safe_norm(vec_b, _COSINE_EPS)
        dot = float(vec_a @ vec_b)
        cos = dot / (norm_a * norm_b)
        if not math.isfinite(cos):
            raise NumericError("non-finite cosine during encoder training")
        dldc = 2.0 * (cos - target)
        grad_a = dldc * (vec_b / (norm_a * norm_b) - dot * vec_a / (norm_a**3 * norm_b))
        grad_b = dldc * (vec_a / (norm_a * norm_b) - dot * vec_b / (norm_b**3 * norm_a))
        return grad_a, grad_b


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

    def create_scorer(self, seed: int = 0) -> ToyMaskedScorer:
        return ToyMaskedScorer(self.config, seed)

    def create_classifier(self, labels: Sequence[str], seed: int = 0) -> ToyTextClassifier:
        return ToyTextClassifier(self.config, labels, seed)

    def create_encoder(self, seed: int = 0) -> ToyEncoder:
        return ToyEncoder(self.config, seed)

    def score_scorers(
        self,
        scorers: Sequence[ToyMaskedScorer],
        clozes: Sequence[ClozeInput],
        candidates: Sequence[str],
    ) -> np.ndarray:
        """Every scorer's scores of clozes, stacked to (m, n, k); the clozes
        are featurized once per distinct featurizer."""
        featurize = functools.cache(Featurizer.counts_batch)
        texts = tuple(cloze.text for cloze in clozes)
        scores = np.array(
            [s.score(featurize(s._featurizer, texts), candidates) for s in scorers], dtype=np.float64
        )
        return scores.reshape(len(scorers), len(clozes), len(candidates))

    def train_scorers(self, jobs: Sequence[tuple], steps: int, batch: int, lr: float) -> None:
        """Each job (scorer, rendered, seed, candidates) trained as if alone,
        all in lockstep; each distinct (featurizer, texts) is featurized once."""
        featurize = functools.cache(Featurizer.counts_batch)
        jobs = [scorer._job(rendered, seed, c, featurize) for scorer, rendered, seed, c in jobs]
        _train_softmax_ce(jobs, steps, batch, lr)

    def close(self) -> None:
        """Nothing to release: the toy models live in this process."""
