"""Hashed character-and-word n-gram features for the toy backend.

Hashing uses crc32 with a per-family tag so a word unigram and a char
trigram with the same bytes land in different buckets: an n-gram's
bucket is crc32(f"{tag}:{gram}".encode("utf-8")) % buckets.  crc32 is
stable across platforms and Python versions, which keeps feature
extraction deterministic everywhere.

Featurizer._occurrences hashes a whole batch at once.  It lays the
texts and their space-joined words out in one UTF-8 buffer, describes
every n-gram as a (byte start, byte length, tag seed) window, and runs
the reflected table-driven crc32 over all windows together in numpy,
longest first, so byte step j touches only the windows still running.
The result equals zlib.crc32 bit for bit.  Texts are hashed in chunks
of at most _CHUNK_CHARS characters, which bounds the window arrays;
byte offsets are held in 32 bits, and only the index arrays that numpy
reads fastest as intp are 64-bit.
Featurizer.counts_batch counts the ids of a batch, chunk by chunk, into
one CSR whose ids keep the table's dtype: uint16, 2 bytes an id, when
buckets <= 65,536, else uint32.  Its values are float64.

A sweep featurizes the same texts cell after cell, so _occurrences
hashes only the distinct texts that its config has not hashed lately.
Each featurizer config (buckets, word_order) gets its own table on first
use, mapped once: 1 MiB of ids, 524,288 uint16 ids (262,144 uint32 when
buckets > 65,536), and an index that maps a text to one int packing its
first id and id count and names at most 8,192 texts.  The table fills
front to back; when a write would pass its end or its text cap, it
empties first and the texts hashed before are hashed again if asked for.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence
from zlib import crc32

import numpy as np

_CHAR_ORDERS = (3, 4)
# Characters per hashing chunk (a longer text is one chunk alone).  A
# chunk's work arrays peak at about 140 bytes per character (1.1 MB for
# 8,192 characters of PET clozes): 32-bit byte offsets, intp indices.
_CHUNK_CHARS = 8192
# Bytes of each config's table of hashed bucket ids: 524,288 uint16 ids
# (262,144 uint32).  The sweep-cli benchmark's 1,446 texts fill 62% of
# it; pet-headline's 6,200 texts empty it three times, as a write that
# would pass its end empties it first.
_TABLE_BYTES = 1 << 20
# Texts a table's index may name, so that short texts cannot fill it with
# hundreds of thousands of keys; a write past it empties the table first.
_TABLE_TEXTS = 8192


def _id_dtype(buckets: int) -> np.dtype:
    """The narrowest unsigned dtype of 16 or 32 bits that holds every bucket id."""
    return np.dtype(np.uint16 if buckets <= 1 << 16 else np.uint32)


def _tag_seed(tag: str) -> int:
    # crc32(gram, crc32(prefix)) == crc32(prefix + gram): hashing the
    # "tag:" prefix once per family gives crc32(f"{tag}:{gram}").
    return crc32(f"{tag}:".encode("utf-8"))


_CHAR_SEEDS = tuple((order, _tag_seed(f"c{order}")) for order in _CHAR_ORDERS)


def _crc_table() -> np.ndarray:
    """The 256-entry table of the reflected crc32 polynomial 0xEDB88320."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        shifted = table >> np.uint32(1)
        table = np.where(table & np.uint32(1), shifted ^ np.uint32(0xEDB88320), shifted)
    return table


_CRC_TABLE = _crc_table()
_ALL_ONES = np.uint32(0xFFFFFFFF)


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[i], ..., starts[i] + lengths[i] - 1 for every i, concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)


def _crc32(
    buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, seeds: np.ndarray
) -> np.ndarray:
    """zlib.crc32(buf[starts[i] : starts[i] + lengths[i]], seeds[i]) for every i."""
    order = np.argsort(-lengths)
    # Offsets may come as int32; numpy indexes fastest with intp.
    pos = starts[order].astype(np.intp)
    crc = seeds[order] ^ _ALL_ONES
    # Windows still running at byte step j: a prefix, as the longest come first.
    active = len(lengths) - np.cumsum(np.bincount(lengths))[:-1]
    for a in active.tolist():
        low = crc[:a].astype(np.uint8)
        low ^= buf[pos[:a]]
        crc[:a] >>= np.uint32(8)
        crc[:a] ^= _CRC_TABLE[low]
        pos[:a] += 1
    out = np.empty_like(crc)
    out[order] = crc ^ _ALL_ONES
    return out


def _unpaged(n: int, dtype) -> np.ndarray:
    """An uninitialized array of n items whose unwritten pages are never
    resident: from 128 KiB up it is an anonymous mapping of its own, never
    heap memory that the allocator has handed out and touched before.  So
    an array sized by an upper bound, such as a batch's n-gram buffers or
    ToyEncoder's one row table with room for every bucket, costs memory
    only where it is written, and never has to move or grow.  Smaller
    arrays come from the heap, as a mapping each would use up the
    process's limit on mappings."""
    size = n * np.dtype(dtype).itemsize
    if size < 1 << 17:
        return np.empty(n, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, size), dtype=dtype)


def _take(indptr: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indptr of a CSR's rows at members, in that order, and the
    positions of their items in the CSR."""
    starts = indptr[members]
    lengths = indptr[members + 1] - starts
    return np.concatenate(([0], np.cumsum(lengths))), _spans(starts, lengths)


class _IdTable:
    """The bucket ids of the texts one featurizer config hashed since its
    table last emptied, end to end from ids[0]: 1 MiB of uint16 ids, or of
    uint32 ids when buckets > 65,536.  The index maps a text to one int,
    its first id << shift | its id count.  A write that would pass the end
    of ids, or leave the index naming more than _TABLE_TEXTS texts, empties
    the table first; a batch too large for an empty table is not kept.
    """

    def __init__(self, buckets: int) -> None:
        dtype = _id_dtype(buckets)
        self.ids = _unpaged(_TABLE_BYTES // dtype.itemsize, dtype)
        # A kept entry has at most len(ids) ids, so its count fits below shift.
        self.shift = len(self.ids).bit_length()
        self.index: dict[str, int] = {}
        self.end = 0

    def read(self, entries: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The id count of every entry and their ids, laid end to end."""
        packed = np.array(entries, dtype=np.int64)
        starts, counts = packed >> self.shift, packed & ((1 << self.shift) - 1)
        return counts, self.ids[_spans(starts, counts)]

    def write(self, texts: Sequence[str], offsets: Sequence[int], data: np.ndarray) -> None:
        """Append data, the ids of texts (none of them indexed) laid end to
        end: texts[i] has data[offsets[i] : offsets[i + 1]]."""
        if self.end + len(data) > len(self.ids) or len(self.index) + len(texts) > _TABLE_TEXTS:
            self.index.clear()
            self.end = 0
            if len(data) > len(self.ids) or len(texts) > _TABLE_TEXTS:
                return
        end, shift = self.end, self.shift
        self.ids[end : end + len(data)] = data
        self.index.update(
            (text, (end + a) << shift | (b - a)) for text, a, b in zip(texts, offsets, offsets[1:])
        )
        self.end += len(data)


def _chunks(texts: Sequence[str]) -> Iterator[tuple[int, int]]:
    """(lo, hi) ranges covering texts in order, each of at most _CHUNK_CHARS
    characters unless it holds a single text."""
    lo = size = 0
    for hi, text in enumerate(texts):
        if size + len(text) > _CHUNK_CHARS and hi > lo:
            yield lo, hi
            lo, size = hi, 0
        size += len(text)
    if lo < len(texts):
        yield lo, len(texts)


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
        indptr, positions = _take(self.indptr, np.asarray(members, dtype=np.int64))
        return SparseRows(indptr, self.indices[positions], self.values[positions])


@dataclass(frozen=True)
class Featurizer:
    """Extracts sparse hashed n-gram counts from text.

    Word n-grams run from order 1 up to word_order; character n-grams
    use fixed orders 3 and 4 over the raw text.

    sparse_counts returns read-only arrays, and counts_batch stacks a
    whole batch into read-only SparseRows, one row per text.  Neither
    holds a batch after the call: a caller that hands one batch to
    several models featurizes it once and passes the rows on.  Frozen,
    a featurizer can key such a caller's dict.

    Each config keeps its own table of bucket ids (1 MiB, the ids of the
    texts it hashed since the table last emptied), so a text read again,
    such as a sweep's test set in every cell, is not hashed again.  The
    table fills front to back and empties when a write would pass its end
    or its 8,192-text cap.
    """

    buckets: int
    word_order: int = 2

    def bucket_ids(self, text: str) -> list[int]:
        """Bucket of every n-gram occurrence, in occurrence order."""
        return self._occurrences([text])[1].tolist()

    def sparse_counts(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """Sorted bucket indices and their L2-normalized counts (read-only)."""
        rows = self.counts_batch([text])
        return rows.indices, rows.values

    def _occurrences(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Every n-gram bucket of every text as CSR (indptr, ids): row t lists
        bucket_ids(texts[t]), word n-grams by order, then char 3- and 4-grams.

        Each distinct text is read back from the config's table if it
        holds the text; the rest are hashed, chunk by chunk, and written to
        the table.  A repeated text gets its row again.
        """
        config = (self.buckets, self.word_order)
        table = _tables.get(config) or _tables.setdefault(config, _IdTable(self.buckets))
        held: dict[str, int] = {}
        fresh: dict[str, None] = {}
        for text in texts:
            entry = table.index.get(text)
            if entry is None:
                fresh[text] = None
            else:
                held[text] = entry
        # Rows: the held texts, then the fresh ones.  Read the held ones
        # before the fresh ones' write can empty the table.
        indptr, ids = [np.zeros(1, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        if held:
            counts, held_ids = table.read(list(held.values()))
            indptr.append(np.cumsum(counts))
            ids.append(held_ids.astype(np.int64))
        hashed = list(fresh)
        for lo, hi in _chunks(hashed):
            chunk_indptr, chunk_ids = self._hash_chunk(hashed[lo:hi])
            indptr.append(chunk_indptr[1:] + indptr[-1][-1])
            ids.append(chunk_ids)
        indptr, ids = np.concatenate(indptr), np.concatenate(ids)
        if fresh:
            first = indptr[len(held)]
            table.write(hashed, (indptr[len(held) :] - first).tolist(), ids[first:])
        rows = [*held, *fresh]
        if rows == list(texts):
            return indptr, ids
        row = {text: i for i, text in enumerate(rows)}
        indptr, positions = _take(indptr, np.array([row[text] for text in texts], dtype=np.int64))
        return indptr, ids[positions]

    def _hash_chunk(self, texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """What _occurrences returns for texts, hashed in one pass over one buffer."""
        n = len(texts)
        splits = [text.split() for text in texts]
        raw = "".join(texts).encode("utf-8")
        # Every word followed by one space: the buffer's spaces after raw
        # are exactly the word ends, as split() leaves no whitespace in words.
        words = " ".join(chain.from_iterable(splits))
        buf = np.frombuffer(raw + (words + " " if words else "").encode("utf-8"), dtype=np.uint8)
        # Byte offsets take 32 bits unless the buffer is longer (one huge text).
        offset = np.int32 if len(buf) < 1 << 31 else np.int64
        # Byte offset of every raw character (its UTF-8 lead byte), and the end.
        char_at = np.append(np.flatnonzero((buf[: len(raw)] & 0xC0) != 0x80), len(raw))
        char_at = char_at.astype(offset)
        word_end = (np.flatnonzero(buf[len(raw) :] == 0x20) + len(raw)).astype(offset)
        word_start = np.concatenate(([len(raw)], word_end[:-1] + 1)).astype(offset)
        chars = np.fromiter(map(len, texts), dtype=np.int64, count=n)
        nwords = np.fromiter(map(len, splits), dtype=np.int64, count=n)
        # Per family: units per text, each unit's first byte and end byte.
        families = [
            (nwords, word_start, word_end, order, _tag_seed(f"w{order}"))
            for order in range(1, self.word_order + 1)
        ] + [(chars, char_at[:-1], char_at[1:], order, seed) for order, seed in _CHAR_SEEDS]
        windows = [np.maximum(units - order + 1, 0) for units, _, _, order, _ in families]
        indptr = np.concatenate(([0], np.cumsum(sum(windows))))
        # Each text's windows, family by family, in bucket_ids order: text
        # t's windows of the next family go to base[t] onward.
        start, end = np.empty(indptr[-1], dtype=offset), np.empty(indptr[-1], dtype=offset)
        seeds = np.empty(indptr[-1], dtype=np.uint32)
        base = indptr[:-1].copy()
        for (units, unit_start, unit_end, order, seed), count in zip(families, windows):
            first = _spans(np.cumsum(units) - units, count)
            slots = _spans(base, count)
            start[slots] = unit_start[first]
            end[slots] = unit_end[first + (order - 1)]
            seeds[slots] = seed
            base += count
        hashes = _crc32(buf, start, end - start, seeds)
        return indptr, hashes.astype(np.int64) % self.buckets

    def counts_batch(self, texts: Sequence[str]) -> SparseRows:
        """sparse_counts of every text as one read-only CSR: int64 indptr,
        bucket ids in the id table's dtype (uint16 when buckets <= 65,536,
        else uint32) and float64 values.

        Each chunk's bucket ids come from _occurrences, which hashes a
        distinct text once, and are counted straight into buffers sized by
        the batch's n-gram bound, so their unwritten tails are never paged in.
        """
        bound = sum(self.word_order * len(t.split()) + len(_CHAR_ORDERS) * len(t) for t in texts)
        indptr = np.zeros(len(texts) + 1, dtype=np.int64)
        indices, values = _unpaged(bound, _id_dtype(self.buckets)), _unpaged(bound, np.float64)
        for lo, hi in _chunks(texts):
            occ_indptr, ids = self._occurrences(texts[lo:hi])
            owner = np.repeat(np.arange(hi - lo), np.diff(occ_indptr))
            keys, counts = np.unique(owner * self.buckets + ids, return_counts=True)
            row, idx = np.divmod(keys, self.buckets)
            indptr[lo + 1 : hi + 1] = indptr[lo] + np.cumsum(np.bincount(row, minlength=hi - lo))
            # The sum of squared integer counts is exact: this equals np.linalg.norm.
            norms = np.sqrt(np.bincount(row, counts * counts, minlength=hi - lo))
            written = slice(indptr[lo], indptr[hi])
            indices[written], values[written] = idx, counts / norms[row]
        rows = SparseRows(indptr, indices[: indptr[-1]], values[: indptr[-1]])
        for array in (rows.indptr, rows.indices, rows.values):
            array.flags.writeable = False
        return rows


# Each featurizer config's table of the bucket ids it hashed, made on first use.
_tables: dict[tuple[int, int], _IdTable] = {}
