"""Hashed character-and-word n-gram features for the toy backend.

Hashing uses crc32 with a per-family tag so a word unigram and a char
trigram with the same bytes land in different buckets.  crc32 is stable
across platforms and Python versions, which keeps feature extraction
deterministic everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence
from zlib import crc32

import numpy as np

_CHAR_ORDERS = (3, 4)


def _tag_seed(tag: str) -> int:
    # crc32(gram, crc32(prefix)) == crc32(prefix + gram): hashing the
    # "tag:" prefix once per family gives crc32(f"{tag}:{gram}").
    return crc32(f"{tag}:".encode("utf-8"))


_CHAR_SEEDS = tuple((order, _tag_seed(f"c{order}")) for order in _CHAR_ORDERS)


@dataclass(frozen=True, eq=False)
class SparseRows:
    """Sparse rows in CSR form: row i is indices, values[indptr[i] : indptr[i + 1]]."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def take(self, members: Sequence[int]) -> SparseRows:
        """The rows at members, in that order."""
        members = np.asarray(members, dtype=np.int64)
        starts = self.indptr[members]
        lengths = self.indptr[members + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        positions = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        return SparseRows(indptr, self.indices[positions], self.values[positions])


@dataclass(frozen=True)
class Featurizer:
    """Extracts sparse hashed n-gram counts from text.

    Word n-grams run from order 1 up to word_order; character n-grams
    use fixed orders 3 and 4 over the raw text.

    sparse_counts returns read-only arrays.  counts_batch stacks a whole
    batch into read-only SparseRows, one row per text, and remembers only
    the batch featurized last, keyed by featurizer config and texts, so
    models with equal configs that read the same texts one after another
    (the seeds of one pattern, or a scorer's weighting pass and its
    training) featurize each text once.
    A batch read for the last time (a classifier's test set) is passed
    with keep=False and is not held after the call.
    """

    buckets: int
    word_order: int = 2

    def bucket_ids(self, text: str) -> list[int]:
        """Bucket of every n-gram occurrence, in occurrence order."""
        buckets = self.buckets
        out: list[int] = []
        words = text.split()
        for order in range(1, self.word_order + 1):
            seed = _tag_seed(f"w{order}")
            out += [
                crc32(" ".join(words[i : i + order]).encode("utf-8"), seed) % buckets
                for i in range(len(words) - order + 1)
            ]
        for order, seed in _CHAR_SEEDS:
            out += [
                crc32(text[i : i + order].encode("utf-8"), seed) % buckets
                for i in range(len(text) - order + 1)
            ]
        return out

    def sparse_counts(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Sorted bucket indices and their L2-normalized counts (read-only)."""
        ids = np.asarray(self.bucket_ids(text), dtype=np.int64)
        idx, counts = np.unique(ids, return_counts=True)
        val = counts.astype(np.float64)
        if len(val):
            val /= np.linalg.norm(val)
        idx.flags.writeable = False
        val.flags.writeable = False
        return idx, val

    def _stack(self, texts: Sequence[str]) -> SparseRows:
        """sparse_counts of every text as one read-only CSR, written straight into
        buffers sized by n-gram counts, so their unwritten tails are never paged in."""
        bound = sum(self.word_order * len(t.split()) + len(_CHAR_ORDERS) * len(t) for t in texts)
        indptr = np.zeros(len(texts) + 1, dtype=np.int64)
        indices, values = np.empty(bound, dtype=np.int64), np.empty(bound)
        first: dict[str, slice] = {}
        for i, text in enumerate(texts):
            row = first.get(text)
            idx, val = self.sparse_counts(text) if row is None else (indices[row], values[row])
            end = indptr[i] + len(idx)
            indices[indptr[i] : end], values[indptr[i] : end] = idx, val
            first.setdefault(text, slice(indptr[i], end))
            indptr[i + 1] = end
        rows = SparseRows(indptr, indices[: indptr[-1]], values[: indptr[-1]])
        for array in (rows.indptr, rows.indices, rows.values):
            array.flags.writeable = False
        return rows

    def counts_batch(self, texts: Sequence[str], keep: bool = True) -> SparseRows:
        """sparse_counts of every text stacked, each distinct text featurized once.

        keep=False marks the batch's last use, such as a test set that is
        predicted once: the memo is left empty rather than holding it.
        """
        global _last_batch
        key = (self, tuple(texts))
        last = _last_batch
        if last is None or last[0] != key:
            last = _last_batch = None  # hold one batch at a time, never two
            last = _last_batch = (key, self._stack(key[1]))
        if not keep:
            _last_batch = None
        return last[1]


# (key, rows) of the last batch.  One entry: engines hand the same batch
# to several models in a row, and a single batch bounds the memory held
# by the largest dataset rather than by every dataset seen.
_last_batch: tuple | None = None
