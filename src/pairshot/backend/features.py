"""Hashed character-and-word n-gram features for the toy backend.

Hashing uses crc32 with a per-family tag so a word unigram and a char
trigram with the same bytes land in different buckets.  crc32 is stable
across platforms and Python versions, which keeps feature extraction
deterministic everywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from zlib import crc32

import numpy as np

_CHAR_ORDERS = (3, 4)


def _tag_seed(tag: str) -> int:
    # crc32(gram, crc32(prefix)) == crc32(prefix + gram): hashing the
    # "tag:" prefix once per family gives crc32(f"{tag}:{gram}").
    return crc32(f"{tag}:".encode("utf-8"))


_CHAR_SEEDS = tuple((order, _tag_seed(f"c{order}")) for order in _CHAR_ORDERS)


@dataclass(frozen=True)
class Featurizer:
    """Extracts sparse hashed n-gram counts from text.

    Word n-grams run from order 1 up to word_order; character n-grams
    use fixed orders 3 and 4 over the raw text.

    sparse_counts results are cached per (buckets, word_order, text) in
    a bounded LRU cache shared by all equal featurizers, so the arrays
    it returns are read-only.
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
        return _sparse_counts(self, text)


# Callers reuse a text within a few dozen featurizations (the seeds of
# one pattern, or one training set read twice), so a small cache catches
# that reuse while keeping memory flat.
@functools.lru_cache(maxsize=64)
def _sparse_counts(featurizer: Featurizer, text: str) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(featurizer.bucket_ids(text), dtype=np.int64)
    idx, counts = np.unique(ids, return_counts=True)
    val = counts.astype(np.float64)
    if len(val):
        val /= np.linalg.norm(val)
    idx.flags.writeable = False
    val.flags.writeable = False
    return idx, val
