"""Hashed character-and-word n-gram features for the toy backend.

Hashing uses crc32 with a per-family tag so a word unigram and a char
trigram with the same bytes land in different buckets: an n-gram's
bucket is crc32(f"{tag}:{gram}".encode("utf-8")) % buckets.  crc32 is
stable across platforms and Python versions, which keeps feature
extraction deterministic everywhere.

Featurizer._occurrences hashes a whole batch at once, in chunks of at
most _CHUNK_CHARS characters, which bound the work arrays.  A chunk's
texts and their space-joined words lie in one UTF-8 buffer.  crc32 is
linear over GF(2): from register r, bytes g_0 .. g_{L-1} leave the
register Z^L(r) ^ T_{L-1}[g_0] ^ ... ^ T_0[g_{L-1}], where Z advances a
register by one zero byte and T_m is the crc table advanced by m zero
bytes (_TABLES holds T_0 .. T_3, 4 KiB).  So four table lookups per byte
give the register of every run of 1-4 bytes that ends there
(_partials).  In a chunk whose chars all take one byte, each char 3- and
4-gram is such a run: its crc is one entry of those rows XOR its tag's
constant, and no n-gram needs a window array.  Word n-grams, and the char
n-grams of a chunk with a multi-byte char, are windows of the buffer,
hashed in blocks of 4 bytes, longest first, so block step k touches only
the windows still running (_crc32).  Every family hashes its n-grams
over the whole chunk into one slice of a pool, and one gather lays each
text's ids out in bucket_ids order.  The result equals zlib.crc32 bit
for bit.  Byte offsets take 32 bits.
Featurizer.counts_batch counts the ids of a batch, chunk by chunk, by
sorting 32-bit (text, bucket) keys, into one CSR whose ids keep the
table's dtype: uint16, 2 bytes an id, when buckets <= 65,536, else
uint32.  Its values are float64.

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
import sys
from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import Iterator, Sequence
from zlib import crc32

import numpy as np

_CHAR_ORDERS = (3, 4)
# Characters per hashing chunk (a longer text is one chunk alone).  A
# chunk's work arrays peak at about 140 bytes per one-byte character (1.1
# MB for 8,192 characters of PET clozes); multi-byte characters, hashed as
# windows, take up to about 270.
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


def _crc_tables() -> np.ndarray:
    """(4, 256) uint32: row m maps a byte to crc32's register after that
    byte and m zero bytes, from register 0.  Row 0 is the table of the
    reflected polynomial 0xEDB88320, and a zero byte advances a register r
    to (r >> 8) ^ row0[r & 0xFF]."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        shifted = table >> np.uint32(1)
        table = np.where(table & np.uint32(1), shifted ^ np.uint32(0xEDB88320), shifted)
    rows = [table]
    for _ in range(3):
        rows.append(rows[-1] >> np.uint32(8) ^ table[rows[-1] & np.uint32(0xFF)])
    return np.stack(rows)


_TABLES = _crc_tables()
# The rows that advance a register by four zero bytes, by the order its
# bytes lie in memory: byte k of the value (k = 0 the lowest) takes row 3 - k.
_MEMORY_ROWS = _TABLES[::-1] if sys.byteorder == "little" else _TABLES


@cache
def _heads(tag: str) -> np.ndarray:
    """The register of crc32(f"{tag}:") advanced by 1, 2, 3 and 4 zero
    bytes: the seed's share of the register after a first block of 1-4
    bytes of a gram tagged tag."""
    # crc32(gram, crc32(prefix)) == crc32(prefix + gram), and crc32 starts
    # from and ends with the register's complement.
    register, heads = crc32(f"{tag}:".encode("utf-8")) ^ 0xFFFFFFFF, []
    for _ in range(4):
        register = register >> 8 ^ int(_TABLES[0, register & 0xFF])
        heads.append(register)
    heads = np.array(heads, dtype=np.uint32)
    heads.flags.writeable = False  # one array, cached, for every caller
    return heads


def _partials(buf: np.ndarray) -> np.ndarray:
    """(4, len(buf)) uint32: row r - 1 at p is the register after the r
    bytes buf[p - r + 1 : p + 1] from register 0 (unset where p < r - 1)."""
    at = buf.astype(np.intp)
    parts = np.empty((4, len(buf)), dtype=np.uint32)
    np.take(_TABLES[0], at, out=parts[0])
    for m in (1, 2, 3):
        np.take(_TABLES[m], at[:-m], out=parts[m, m:])
        parts[m, m:] ^= parts[m - 1, m:]
    return parts


def _advance4(registers: np.ndarray) -> np.ndarray:
    """Every register advanced by four zero bytes: one table row per byte."""
    columns = registers.view(np.uint8).reshape(-1, 4)
    rows = _MEMORY_ROWS
    return (
        rows[0].take(columns[:, 0])
        ^ rows[1].take(columns[:, 1])
        ^ rows[2].take(columns[:, 2])
        ^ rows[3].take(columns[:, 3])
    )


def _crc32(
    parts: np.ndarray, starts: np.ndarray, lengths: np.ndarray, heads: np.ndarray
) -> np.ndarray:
    """zlib.crc32(buf[starts[i] : starts[i] + lengths[i]], seed) for every
    window i, where parts = _partials(buf), lengths >= 1 and heads[i] is
    _heads(tag)[(lengths[i] - 1) % 4] for the seed's tag.

    A window is hashed in blocks of 4 bytes, the first of 1-4 bytes: its
    register after a block is the one before, advanced by four zero bytes,
    XOR the block's own register from parts.  Windows run longest first,
    so block step k touches only the windows still running.
    """
    blocks = (lengths + 3) >> 2
    # Longest first: a stable sort of small unsigned keys is a radix sort.
    key = blocks.max(initial=0) - blocks
    order = np.argsort(key.astype(np.min_scalar_type(key.max(initial=0))), kind="stable")
    first = ((lengths - 1) & 3).take(order)  # the first block's length - 1
    end = starts.take(order) + first  # the last byte of the block just hashed
    h = heads.take(order) ^ parts.take(first * parts.shape[1] + end)
    last = parts[3]
    for a in (len(blocks) - np.cumsum(np.bincount(blocks))[1:-1]).tolist():
        end[:a] += 4
        h[:a] = _advance4(h[:a]) ^ last.take(end[:a])
    out = np.empty_like(h)
    out[order] = ~h
    return out


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[i], ..., starts[i] + lengths[i] - 1 for every i, concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)


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
        """Every n-gram bucket of every text as CSR (indptr, ids), ids in the
        id table's dtype: row t lists bucket_ids(texts[t]), word n-grams by
        order, then char 3- and 4-grams.

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
        indptr, ids = [np.zeros(1, dtype=np.int64)], [table.ids[:0]]
        if held:
            counts, held_ids = table.read(list(held.values()))
            indptr.append(np.cumsum(counts))
            ids.append(held_ids)
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
        joined = "".join(texts)
        splits = [text.split() for text in texts]
        raw = joined.encode("utf-8")
        # Every word followed by one space: the buffer's spaces after raw
        # are exactly the word ends, as split() leaves no whitespace in words.
        words = " ".join(chain.from_iterable(splits))
        buf = np.frombuffer(raw + (words + " " if words else "").encode("utf-8"), dtype=np.uint8)
        parts = _partials(buf)
        # Byte offsets, and flat indices into parts, take 32 bits unless the
        # buffer is longer (one huge text).
        offset = np.int32 if len(buf) < 1 << 29 else np.int64
        word_end = (np.flatnonzero(buf[len(raw) :] == 0x20) + len(raw)).astype(offset)
        # Each unit's first byte and end byte, by family kind; the chars of
        # a chunk of one-byte chars need none.
        bounds = {"w": (np.append(len(raw), word_end[:-1] + 1).astype(offset), word_end)}
        if len(raw) > len(joined):
            char_at = np.flatnonzero((buf[: len(raw)] & 0xC0) != 0x80)
            char_at = np.append(char_at, len(raw)).astype(offset)
            bounds["c"] = (char_at[:-1], char_at[1:])
        units = {
            "w": np.fromiter(map(len, splits), dtype=np.int64, count=len(texts)),
            "c": np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)),
        }
        families = [("w", order) for order in range(1, self.word_order + 1)]
        families += [("c", order) for order in _CHAR_ORDERS]
        # A family hashes every run of order units end to end, runs from one
        # text into the next included: one slice of pool per family, in
        # family order, and a text's runs are one slice of its family's.
        # Families with bounds, words first, are hashed as windows.
        windows = [(np.zeros(0, offset), np.zeros(0, offset), np.zeros(0, np.uint32))]
        direct, first, count = [], [], []
        base = 0
        for kind, order in families:
            per_text = units[kind]
            runs = max(int(per_text.sum()) - order + 1, 0)
            first.append(np.cumsum(per_text) - per_text + base)
            count.append(np.maximum(per_text - (order - 1), 0))
            base += runs
            seed = _heads(f"{kind}{order}")
            if kind in bounds:
                start, end = bounds[kind]
                length = end[order - 1 :] - start[:runs]
                windows.append((start[:runs], length, seed.take((length - 1) & 3)))
            else:  # one block of order one-byte chars, ending at byte p + order - 1
                direct.append(parts[order - 1, order - 1 : len(raw)] ^ ~seed[order - 1])
        starts, lengths, heads = (np.concatenate(column) for column in zip(*windows))
        pool = np.concatenate([_crc32(parts, starts, lengths, heads), *direct])
        if self.buckets <= 0xFFFFFFFF:  # else every crc32 is its own bucket
            # Floor division by a scalar is several times faster than %.
            quotient = pool // np.uint32(self.buckets)
            quotient *= np.uint32(self.buckets)
            pool -= quotient
        count = np.stack(count, axis=1)
        indptr = np.concatenate(([0], np.cumsum(count.sum(axis=1))))
        ids = pool.take(_spans(np.stack(first, axis=1).ravel(), count.ravel()))
        return indptr, ids.astype(_id_dtype(self.buckets), copy=False)

    def counts_batch(self, texts: Sequence[str]) -> SparseRows:
        """sparse_counts of every text as one read-only CSR: int64 indptr,
        bucket ids in the id table's dtype (uint16 when buckets <= 65,536,
        else uint32) and float64 values.

        Each chunk's bucket ids come from _occurrences, which hashes a
        distinct text once, and are counted straight into buffers sized by
        the batch's n-gram bound, so their unwritten tails are never paged in.
        """
        chars = sum(map(len, texts))
        # A text of c chars has at most (c + 1) // 2 words.
        bound = self.word_order * (chars + len(texts)) // 2 + len(_CHAR_ORDERS) * chars
        indptr = np.zeros(len(texts) + 1, dtype=np.int64)
        indices, values = _unpaged(bound, _id_dtype(self.buckets)), _unpaged(bound, np.float64)
        for lo, hi in _chunks(texts):
            occ_indptr, ids = self._occurrences(texts[lo:hi])
            # Sorted (text, bucket) keys, 32-bit where they fit: each text's
            # keys stay in its own slice, a run per distinct bucket.
            key = np.uint32 if (hi - lo) * self.buckets < 1 << 32 else np.uint64
            base = np.repeat(np.arange(hi - lo, dtype=key) * key(self.buckets), np.diff(occ_indptr))
            keys = base + ids
            keys.sort()
            new = np.empty(len(keys), dtype=bool)
            new[:1] = True
            np.not_equal(keys[1:], keys[:-1], out=new[1:])
            starts = np.flatnonzero(new)
            counts = np.diff(np.append(starts, len(keys)))
            distinct = np.searchsorted(starts, occ_indptr)  # each text's first run
            indptr[lo + 1 : hi + 1] = indptr[lo] + distinct[1:]
            # Integer sums of squared counts, exact: this equals np.linalg.norm.
            # reduceat's value for a text without n-grams goes unused.
            norms = np.sqrt(np.add.reduceat(np.append(counts * counts, 0), distinct[:-1]))
            written = slice(indptr[lo], indptr[hi])
            np.subtract(keys.take(starts), base.take(starts), out=indices[written])
            np.divide(counts, np.repeat(norms, np.diff(distinct)), out=values[written])
        rows = SparseRows(indptr, indices[: indptr[-1]], values[: indptr[-1]])
        for array in (rows.indptr, rows.indices, rows.values):
            array.flags.writeable = False
        return rows


# Each featurizer config's table of the bucket ids it hashed, made on first use.
_tables: dict[tuple[int, int], _IdTable] = {}
