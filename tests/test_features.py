"""Hashed n-gram featurizer: golden equality with a per-gram reference,
the safety of the table of bucket ids behind _occurrences, and how often
the toy backend featurizes a batch.
"""

import sys
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairshot.backend import features
from pairshot.backend.features import Featurizer

TEXTS = [
    "duplicate bug report: app crashes on startup",
    "open  file\tdialog  freezes\n",
    "é",
    "café crème brûlée",
    "应用程序在启动时崩溃",
    "build fails 🚀 after upgrade",
    "",
    "   \t\n ",
    "a",
    "ab",
    "abc",
]
# 1 << 20 buckets need a table of uint32 ids.
SETTINGS = [(buckets, order) for buckets in (7, 32768, 1 << 20) for order in (1, 2, 3)]


@pytest.fixture(autouse=True)
def empty_tables(monkeypatch):
    """Every test starts with no tables, so hash counts do not depend on test order."""
    monkeypatch.setattr(features, "_tables", {})


def spy_on_hashing(monkeypatch):
    """The texts that reach _hash_chunk from here on, in order."""
    hashed = []
    hash_chunk = Featurizer._hash_chunk

    def spy(self, texts):
        hashed.extend(texts)
        return hash_chunk(self, texts)

    monkeypatch.setattr(Featurizer, "_hash_chunk", spy)
    return hashed


def reference_bucket_ids(text, buckets, word_order):
    """The featurizer's definition, one crc32 of "tag:gram" per occurrence."""
    out = []
    words = text.split()
    for order in range(1, word_order + 1):
        for i in range(len(words) - order + 1):
            gram = " ".join(words[i : i + order])
            out.append(zlib.crc32(f"w{order}:{gram}".encode("utf-8")) % buckets)
    for order in (3, 4):
        for i in range(len(text) - order + 1):
            out.append(zlib.crc32(f"c{order}:{text[i : i + order]}".encode("utf-8")) % buckets)
    return out


def reference_sparse_counts(text, buckets, word_order):
    counts = {}
    for b in reference_bucket_ids(text, buckets, word_order):
        counts[b] = counts.get(b, 0.0) + 1.0
    if not counts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    idx = np.fromiter(sorted(counts), dtype=np.int64, count=len(counts))
    val = np.asarray([counts[int(i)] for i in idx], dtype=np.float64)
    return idx, val / np.linalg.norm(val)


class TestGoldenFeatures:
    @pytest.mark.parametrize("buckets,word_order", SETTINGS)
    @pytest.mark.parametrize("text", TEXTS)
    def test_bucket_ids_match_reference(self, text, buckets, word_order):
        got = Featurizer(buckets, word_order).bucket_ids(text)
        assert got == reference_bucket_ids(text, buckets, word_order)

    @pytest.mark.parametrize("buckets,word_order", SETTINGS)
    @pytest.mark.parametrize("text", TEXTS)
    def test_sparse_counts_byte_equal_to_reference(self, text, buckets, word_order):
        idx, val = Featurizer(buckets, word_order).sparse_counts(text)
        ref_idx, ref_val = reference_sparse_counts(text, buckets, word_order)
        assert idx.dtype == np.int64 and val.dtype == np.float64
        assert idx.tobytes() == ref_idx.tobytes()
        assert val.tobytes() == ref_val.tobytes()

    def test_hashing_scheme_is_pinned(self):
        assert Featurizer(32768, 2).bucket_ids("open file") == [
            6476, 11512, 23229, 26360, 15657, 27118, 33, 22009,
            19659, 18199, 12322, 9004, 27982, 16279, 2475, 1430,
        ]
        assert Featurizer(7, 2).bucket_ids("open file") == [
            2, 4, 1, 0, 5, 3, 4, 3, 5, 6, 2, 4, 6, 0, 5, 5,
        ]


class TestFeatureCache:
    def test_returned_arrays_are_read_only(self):
        idx, val = Featurizer(32768, 2).sparse_counts("read only arrays")
        with pytest.raises(ValueError):
            idx[0] = 1
        with pytest.raises(ValueError):
            val[0] = 0.0
        empty_idx, empty_val = Featurizer(32768, 2).sparse_counts("")
        assert not empty_idx.flags.writeable and not empty_val.flags.writeable

    def test_configs_never_share_entries(self):
        configs = [Featurizer(1024, 2), Featurizer(32768, 2), Featurizer(32768, 3)]
        text = "same text under three configs"
        expected = [reference_sparse_counts(text, f.buckets, f.word_order) for f in configs]
        for _ in range(3):
            for featurizer, (ref_idx, ref_val) in zip(configs, expected):
                idx, val = featurizer.sparse_counts(text)
                assert idx.tobytes() == ref_idx.tobytes()
                assert val.tobytes() == ref_val.tobytes()

    def test_batch_rows_equal_sparse_counts_for_every_config(self):
        configs = [Featurizer(1024, 2), Featurizer(32768, 2), Featurizer(32768, 3)]
        texts = ["same text under three configs", "", "same text under three configs"]
        for _ in range(2):
            for featurizer in configs:
                rows = featurizer.counts_batch(texts)
                assert len(rows) == len(texts)
                for array in (rows.indptr, rows.indices, rows.values):
                    assert not array.flags.writeable
                for i, text in enumerate(texts):
                    idx = rows.indices[rows.indptr[i] : rows.indptr[i + 1]]
                    val = rows.values[rows.indptr[i] : rows.indptr[i + 1]]
                    ref_idx, ref_val = reference_sparse_counts(
                        text, featurizer.buckets, featurizer.word_order
                    )
                    assert idx.tobytes() == ref_idx.tobytes()
                    assert val.tobytes() == ref_val.tobytes()


class TestSparseRows:
    ROWS = features.SparseRows(
        np.array([0, 2, 2, 3]), np.array([3, 5, 1]), np.array([0.5, 1.5, 2.0])
    )

    def test_take_returns_the_rows_asked_for(self):
        assert len(self.ROWS) == 3
        picked = self.ROWS.take([2, 1, 0, 2])
        assert picked.indptr.tolist() == [0, 1, 1, 3, 4]
        assert picked.indices.tolist() == [1, 3, 5, 1]
        assert picked.values.tolist() == [2.0, 0.5, 1.5, 2.0]
        assert len(self.ROWS.take([])) == 0


class TestFeaturizedOnce:
    def test_three_scorers_featurize_each_distinct_text_once(self, monkeypatch):
        """The seeds of one pattern score one cloze list: each distinct text is hashed once."""
        from pairshot.backend.toy import ToyBackend
        from pairshot.prompting import ClozeInput

        hashed = spy_on_hashing(monkeypatch)
        texts = [f"probe {i} for the featurized-once check <mask>" for i in range(5)]
        clozes = [ClozeInput(text, len(text) - 6) for text in texts + texts[:2]]
        backend = ToyBackend()
        scorers = [backend.create_scorer(seed) for seed in (1, 2, 3)]
        assert backend.score_scorers(scorers, clozes, ["Yes", "No"]).shape == (3, 7, 2)
        assert sorted(hashed) == sorted(texts)

    def test_an_ensemble_hashes_each_rendered_text_once(self, monkeypatch, dup_pool):
        """Weighing every member comes before training; the table still holds
        each pattern's clozes when they are trained on."""
        from pairshot.backend.toy import ToyBackend
        from pairshot.data import sample_training_set
        from pairshot.pet import PetConfig, train_ensemble

        train = sample_training_set(dup_pool, 50, seed=1000)
        config = PetConfig.for_task("so_duplicate", mlm_steps=2, batch=4)
        hashed = spy_on_hashing(monkeypatch)
        members = train_ensemble(config, train, ToyBackend(), seed=11)
        assert len(config.pvps) == 3 and len(members) == 9
        assert len(hashed) == len(set(hashed)) == 150

    def test_an_ensemble_featurizes_each_patterns_clozes_twice(self, monkeypatch, dup_pool):
        """Each pattern's clozes are featurized once to weigh its three seeds
        and once to train them: 6 counts_batch calls, where featurizing per
        trained job would make 12."""
        from pairshot.backend.toy import ToyBackend
        from pairshot.data import sample_training_set
        from pairshot.pet import PetConfig, train_ensemble

        train = sample_training_set(dup_pool, 50, seed=1000)
        config = PetConfig.for_task("so_duplicate", mlm_steps=2, batch=4)
        batches = []
        counts_batch = Featurizer.counts_batch

        def spy(self, texts):
            batches.append(len(texts))
            return counts_batch(self, texts)

        monkeypatch.setattr(Featurizer, "counts_batch", spy)
        members = train_ensemble(config, train, ToyBackend(), seed=11)
        assert len(config.pvps) == 3 and len(members) == 9
        assert batches == [50] * 6

    def test_a_sweep_hashes_each_distinct_text_once(self, monkeypatch, dup_pool, dup_test):
        """Every cell scores the one test set: it is hashed in the first cell only."""
        from pairshot.harness import ExperimentConfig, run_sweep

        config = ExperimentConfig(
            task_id="so_duplicate",
            method="finetune",
            sizes=(10, 20),
            replicates=2,
            test_size=60,
            engine_options={"steps": 30, "batch": 4},
        )
        featurized = []
        counts_batch = Featurizer.counts_batch

        def spy(self, texts):
            featurized.extend(texts)
            return counts_batch(self, texts)

        monkeypatch.setattr(Featurizer, "counts_batch", spy)
        hashed = spy_on_hashing(monkeypatch)
        result = run_sweep(config, dup_pool, dup_test)
        assert len(result.cells) == 4 and not result.failed
        assert len(featurized) > 4 * len(dup_test)
        assert sorted(hashed) == sorted(set(featurized))


def assert_batch_equals_reference(featurizer, texts):
    indptr, ids = featurizer._occurrences(texts)
    rows = featurizer.counts_batch(texts)
    assert len(indptr) == len(rows.indptr) == len(texts) + 1
    for i, text in enumerate(texts):
        expected = reference_bucket_ids(text, featurizer.buckets, featurizer.word_order)
        assert ids[indptr[i] : indptr[i + 1]].tolist() == expected
        ref_idx, ref_val = reference_sparse_counts(text, featurizer.buckets, featurizer.word_order)
        assert rows.indices[rows.indptr[i] : rows.indptr[i + 1]].tobytes() == ref_idx.tobytes()
        assert rows.values[rows.indptr[i] : rows.indptr[i + 1]].tobytes() == ref_val.tobytes()


class TestBatchHashing:
    """_occurrences hashes a whole batch with a numpy crc32; it must equal
    the per-gram zlib reference byte for byte, chunk boundaries included."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        texts=st.lists(
            st.text() | st.sampled_from(["", " ", "\t\n ", "ab", "é 应", "a b c"]), max_size=12
        ),
        chunk=st.sampled_from([1, 5, 40, features._CHUNK_CHARS]),
        table_bytes=st.sampled_from([4, 12, 120, features._TABLE_BYTES]),
        table_texts=st.sampled_from([1, 3, features._TABLE_TEXTS]),
        setting=st.sampled_from(SETTINGS),
        other=st.sampled_from(SETTINGS),
    )
    def test_batches_equal_the_zlib_reference(
        self, texts, chunk, table_bytes, table_texts, setting, other
    ):
        # Repeats make duplicates that straddle chunks once the chunks are
        # small; a small table (one uint32 id at 4 bytes) or text cap empties
        # between a batch's reads and its write, or cannot keep the batch at
        # all, and a second config reads the same texts.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(features, "_CHUNK_CHARS", chunk)
            patch.setattr(features, "_TABLE_BYTES", table_bytes)
            patch.setattr(features, "_TABLE_TEXTS", table_texts)
            patch.setattr(features, "_tables", {})
            for featurizer in (Featurizer(*setting), Featurizer(*other), Featurizer(*setting)):
                assert_batch_equals_reference(featurizer, texts + texts[::2])

    @pytest.mark.parametrize("buckets,word_order", SETTINGS)
    def test_no_window_crosses_a_text_boundary(self, buckets, word_order, monkeypatch):
        featurizer = Featurizer(buckets, word_order)
        for chunk in (1, features._CHUNK_CHARS):
            monkeypatch.setattr(features, "_CHUNK_CHARS", chunk)
            for texts in (["ab", "cd"], ["x y", "z"], ["", "abc", "", "d e"], ["  ", "é", "ab"]):
                assert_batch_equals_reference(featurizer, texts)
        # "abc" and the word bigram "y z" would only appear across a boundary.
        _, ids = Featurizer(32768, 2)._occurrences(["ab", "cd", "x y", "z"])
        across = [zlib.crc32(b"c3:abc") % 32768, zlib.crc32(b"w2:y z") % 32768]
        assert not set(across) & set(ids.tolist())

    def test_empty_batch(self):
        indptr, ids = Featurizer(7, 2)._occurrences([])
        assert indptr.tolist() == [0] and ids.tolist() == []
        assert len(Featurizer(7, 2).counts_batch([])) == 0

    def test_batch_with_repeats_equals_the_reference(self, monkeypatch):
        """counts_batch counts a repeated text again, within a chunk and
        across chunks; each distinct text is still hashed once per config."""
        texts = ["a repeated text", "", "other", "a repeated text", "other", "a repeated text"]
        hashed = spy_on_hashing(monkeypatch)
        for chunk in (1, features._CHUNK_CHARS):
            monkeypatch.setattr(features, "_CHUNK_CHARS", chunk)
            for setting in SETTINGS:
                assert_batch_equals_reference(Featurizer(*setting), texts)
        assert len(hashed) == 3 * len(SETTINGS)

    def test_a_full_table_empties_before_the_write_that_would_pass_its_end(self, monkeypatch):
        """The held texts of a batch are read before its fresh ones' write
        empties the table; the table then holds only the texts written
        since, in the same array, and a batch that would not fit even an
        empty table is not kept."""
        monkeypatch.setattr(features, "_TABLE_BYTES", 128)  # 64 uint16 ids
        featurizer = Featurizer(32768, 1)
        texts = [f"text number {i}" for i in range(6)]  # 24 ids each
        featurizer._occurrences(texts[:2])
        (config, table), = features._tables.items()
        ids = table.ids
        assert (table.end, list(table.index)) == (48, texts[:2])
        indptr, out = featurizer._occurrences(texts[:3])
        for i, text in enumerate(texts[:3]):
            assert out[indptr[i] : indptr[i + 1]].tolist() == reference_bucket_ids(text, *config)
        assert (table.end, list(table.index)) == (24, texts[2:3])
        assert table.ids is ids and len(ids) == 64 and ids.dtype == np.uint16
        featurizer._occurrences(texts[3:6])
        assert (table.end, table.index) == (0, {})

    def test_every_entry_reads_back_its_reference_ids(self, monkeypatch):
        monkeypatch.setattr(features, "_TABLE_BYTES", 4096)
        featurizer = Featurizer(32768, 2)
        texts = [f"text {i} of the emptying check " * (1 + i % 4) for i in range(300)]
        featurizer._occurrences(texts[:10])
        (config, table), = features._tables.items()
        ids, ends = table.ids, [table.end]
        for lo in range(10, len(texts), 10):
            featurizer._occurrences(texts[lo : lo + 10])
            assert table.ids is ids and 0 < table.end <= len(ids)
            for text, entry in table.index.items():
                assert table.read([entry])[1].tolist() == reference_bucket_ids(text, *config)
            ends.append(table.end)
        assert sum(b < a for a, b in zip(ends, ends[1:])) > 3  # it emptied several times

    def test_a_write_past_the_text_cap_empties_the_table_first(self, monkeypatch):
        """A batch whose fresh texts would pass the cap comes after an
        emptying, and one with more fresh texts than the cap is not kept."""
        monkeypatch.setattr(features, "_TABLE_TEXTS", 4)
        hashed = spy_on_hashing(monkeypatch)
        featurizer = Featurizer(7, 2)
        featurizer._occurrences(["t0", "t1", "t2"])
        table = features._tables[7, 2]
        featurizer._occurrences(["t0", "t3"])
        assert list(table.index) == ["t0", "t1", "t2", "t3"]
        featurizer._occurrences(["t3", "t4"])
        assert list(table.index) == ["t4"]
        assert table.end == len(reference_bucket_ids("t4", 7, 2))
        featurizer._occurrences([f"u{i}" for i in range(5)])
        assert (table.end, table.index) == (0, {})
        assert hashed == ["t0", "t1", "t2", "t3", "t4"] + [f"u{i}" for i in range(5)]

    def test_one_config_emptying_leaves_another_as_it_was(self, monkeypatch):
        """Tables empty per config: reading another config's texts again
        hashes nothing."""
        monkeypatch.setattr(features, "_TABLE_TEXTS", 3)
        hashed = spy_on_hashing(monkeypatch)
        Featurizer(7, 1)._occurrences(["b0", "b1"])
        other = features._tables[7, 1]
        index, ids = dict(other.index), other.ids[: other.end].copy()
        Featurizer(7, 2)._occurrences([f"a{i}" for i in range(3)])
        Featurizer(7, 2)._occurrences(["a3"])
        assert list(features._tables[7, 2].index) == ["a3"]
        assert other.index == index and other.ids[: other.end].tobytes() == ids.tobytes()
        hashed.clear()
        assert_batch_equals_reference(Featurizer(7, 1), ["b0", "b1"])
        assert hashed == []

    def test_wide_ids_get_a_uint32_table_of_the_same_bytes(self):
        for buckets in (1 << 20, 1 << 16, 32768):
            Featurizer(buckets, 2)._occurrences(["wide ids"])
        wide, edge, narrow = (features._tables[b, 2].ids for b in (1 << 20, 1 << 16, 32768))
        assert (wide.dtype, edge.dtype, narrow.dtype) == (np.uint32, np.uint16, np.uint16)
        assert wide.nbytes == narrow.nbytes == features._TABLE_BYTES == 1 << 20
        assert (len(wide), len(narrow)) == (262_144, 524_288)

    def test_index_bytes_per_held_text(self):
        """One int per held text in one flat dict per config: about 58 bytes
        per text, where (buckets, word_order, text) keys and (start, count)
        values took about 213."""
        texts = [f"held text number {i}" for i in range(2000)]
        Featurizer(32768, 2)._occurrences(texts)
        index = features._tables[32768, 2].index
        size = sys.getsizeof(index) + sum(map(sys.getsizeof, index.values()))
        assert len(index) == len(texts)
        assert size / len(index) < 80

    def test_one_full_chunk_of_work_arrays_stays_small(self):
        """A _CHUNK_CHARS chunk peaks at about 140 traced bytes per character
        (about 254 with int64 work arrays)."""
        texts = [f"is question {i} of the tracker a duplicate of question {i + 1}? <mask>"
                 for i in range(400)]
        lo, hi = next(features._chunks(texts))
        chunk = texts[lo:hi]
        assert sum(map(len, chunk)) > features._CHUNK_CHARS - 100
        featurizer = Featurizer(32768, 2)
        tracemalloc.start()
        try:
            featurizer._hash_chunk(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_lone_surrogate_still_raises(self):
        for texts in (["\ud800"], ["fine", "bad \udfff text"]):
            with pytest.raises(UnicodeEncodeError):
                Featurizer(32768, 2)._occurrences(texts)
            with pytest.raises(UnicodeEncodeError):
                Featurizer(32768, 2).counts_batch(texts)
