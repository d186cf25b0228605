"""Toy sentence encoder: bulk-drawn bucket rows in one table, chunked encode.

LoopEncoder keeps the encoder as it was written before rows were drawn
in bulk and training was vectorized: a dict of rows drawn one float at
a time from Rng, per-text occurrence dicts, a per-text encode loop, and
a fit that takes each pair's gradient bucket by bucket into a dict and
draws rows as the gradient loop reaches them.  The vectorized encoder
must match it byte for byte.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairshot.backend import features, toy
from pairshot.backend.state import model_from_payload, model_to_payload
from pairshot.backend.toy import (
    _ENCODE_CHUNK,
    ToyBackend,
    ToyEncoder,
    _batches,
    default_backend_config,
)
from pairshot.errors import DataFormatError
from pairshot.numerics import safe_norm
from pairshot.rng import Rng
from pairshot.setfit import SetFitConfig, join_pair, setfit_fit
from pairshot.synthetic import synthetic_pool


class LoopEncoder(ToyEncoder):
    """Reference: scalar row draws into a dict, one text at a time."""

    def __init__(self, config, seed=0):
        super().__init__(config, seed)
        self._rows = {}

    def _bucket_row(self, bucket):
        row = self._rows.get(bucket)
        if row is None:
            rng = Rng(self.config.seed).derive("encoder", self.seed, "bucket", bucket)
            row = np.asarray([rng.uniform(-0.5, 0.5) for _ in range(self.dim)])
            self._rows[bucket] = row
        return row

    def bucket_rows(self):
        return dict(sorted(self._rows.items()))

    def _occurrences(self, text):
        counts = {}
        for b in self._featurizer.bucket_ids(text):
            counts[b] = counts.get(b, 0.0) + 1.0
        return counts

    def _mean_row(self, counts):
        """Mean of bucket rows over n-gram occurrences; zeros when there are none."""
        out = np.zeros(self.dim, dtype=np.float64)
        total = sum(counts.values())
        if total:
            for bucket, mult in counts.items():
                out += self._bucket_row(bucket) * mult
            out /= total
        return out

    def _accumulate_pair(self, counts_a, counts_b, target, updates):
        """Add one pair's per-bucket gradient to updates, in occurrence order."""
        total_a = sum(counts_a.values())
        total_b = sum(counts_b.values())
        vec_a = self._mean_row(counts_a)
        vec_b = self._mean_row(counts_b)
        norm_a = safe_norm(vec_a, toy._COSINE_EPS)
        norm_b = safe_norm(vec_b, toy._COSINE_EPS)
        dot = float(vec_a @ vec_b)
        cos = dot / (norm_a * norm_b)
        dldc = 2.0 * (cos - target)
        grad_a = dldc * (vec_b / (norm_a * norm_b) - dot * vec_a / (norm_a**3 * norm_b))
        grad_b = dldc * (vec_a / (norm_a * norm_b) - dot * vec_b / (norm_b**3 * norm_a))
        if total_a:
            for bucket, mult in counts_a.items():
                updates[bucket] = updates.get(bucket, 0) + grad_a * (mult / total_a)
        if total_b:
            for bucket, mult in counts_b.items():
                updates[bucket] = updates.get(bucket, 0) + grad_b * (mult / total_b)

    def encode(self, texts):
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for i, text in enumerate(texts):
            out[i] = self._mean_row(self._occurrences(text))
        return out

    def fit(self, triplets, epochs, batch, lr, seed):
        occurrences = [
            (self._occurrences(a), self._occurrences(b), float(t)) for a, b, t in triplets
        ]
        steps = math.ceil(len(triplets) / batch) * epochs
        for members in _batches(len(triplets), batch, seed, 0, steps):
            scale = lr / len(members)
            updates = {}
            for i in members:
                counts_a, counts_b, target = occurrences[i]
                self._accumulate_pair(counts_a, counts_b, target, updates)
            for bucket, grad in updates.items():
                self._rows[bucket] = self._bucket_row(bucket) - scale * grad


WORDS = "open file crash fix slow query || panic alpha beta é 数据".split()


def make_texts(n, seed=3):
    rng = Rng(seed)
    texts = [" ".join(rng.choice(WORDS) for _ in range(rng.randbelow(12))) for _ in range(n)]
    return texts + ["", "x", "é", " ", "open file || open file open file"]


def payload_bytes(encoder):
    return json.dumps(model_to_payload(encoder), sort_keys=True).encode("utf-8")


def pair(config=None, seed=7):
    config = config or default_backend_config()
    return ToyEncoder(config, seed), LoopEncoder(config, seed)


def assert_same_model(encoder, reference):
    assert sorted(encoder.bucket_rows()) == sorted(reference.bucket_rows())
    assert payload_bytes(encoder) == payload_bytes(reference)


class TestBulkRows:
    @pytest.mark.parametrize("config_seed", [0, 5, 2**63])
    @pytest.mark.parametrize("encoder_seed", [0, 17, 2**64 - 1])
    @pytest.mark.parametrize("dim", [1, 32])
    def test_rows_equal_scalar_draws(self, config_seed, encoder_seed, dim):
        config = default_backend_config(seed=config_seed, embedding_dim=dim)
        encoder = ToyEncoder(config, encoder_seed)
        buckets = [0, 255, 256, config.buckets - 1]
        encoder._slots(np.array(buckets, dtype=np.int64))
        assert sorted(encoder.bucket_rows()) == buckets
        for bucket in buckets:
            rng = Rng(config_seed).derive("encoder", encoder_seed, "bucket", bucket)
            expected = np.asarray([rng.uniform(-0.5, 0.5) for _ in range(dim)])
            assert encoder._bucket_row(bucket).tobytes() == expected.tobytes()

    def test_negative_tags_rejected(self):
        with pytest.raises(ValueError):
            Rng(0).derive_uniform_rows(np.array([3, -1]), 4, -0.5, 0.5)


class TestBatchedEncode:
    TEXTS = make_texts(40)

    @pytest.mark.parametrize(
        "batch",
        [
            TEXTS,
            TEXTS[::-1],
            TEXTS[7:] + TEXTS[:7],
            TEXTS + TEXTS,
            [],
            ["", "", "y"],
        ],
        ids=["plain", "reversed", "rotated", "duplicated", "empty", "short"],
    )
    def test_encode_equals_per_text_loop(self, batch):
        encoder, reference = pair()
        assert encoder.encode(batch).tobytes() == reference.encode(batch).tobytes()
        assert_same_model(encoder, reference)

    def test_batches_straddling_chunk_boundaries(self):
        """A repeated text and the empty text land on both sides of a chunk boundary."""
        texts = make_texts(2 * _ENCODE_CHUNK + 3, seed=11)
        texts[_ENCODE_CHUNK - 1] = texts[_ENCODE_CHUNK] = texts[0]
        texts[2 * _ENCODE_CHUNK] = ""
        encoder, reference = pair(default_backend_config(buckets=997, embedding_dim=3), seed=2)
        assert encoder.encode(texts).tobytes() == reference.encode(texts).tobytes()
        assert_same_model(encoder, reference)
        # Rows drawn by the first batch are reused, not redrawn, by a second.
        again = texts[_ENCODE_CHUNK - 5 :] + ["a new text only now"]
        assert encoder.encode(again).tobytes() == reference.encode(again).tobytes()
        assert_same_model(encoder, reference)


class TestFit:
    TRIPLETS = [
        (a, b, float(i % 2)) for i, (a, b) in enumerate(zip(make_texts(30), make_texts(30, 4)))
    ]

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_fit_equals_reference(self, epochs):
        encoder, reference = pair(seed=2**64 - 1)
        for model in (encoder, reference):
            model.fit(self.TRIPLETS, epochs=epochs, batch=4, lr=0.3, seed=5)
        assert_same_model(encoder, reference)
        probe = make_texts(20, seed=9)
        assert encoder.encode(probe).tobytes() == reference.encode(probe).tobytes()
        assert_same_model(encoder, reference)

    def test_fit_after_encode_and_round_trip(self):
        encoder, reference = pair()
        for model in (encoder, reference):
            model.encode(make_texts(15, seed=8))
            model.fit(self.TRIPLETS, epochs=2, batch=3, lr=0.2, seed=1)
        assert_same_model(encoder, reference)
        loaded = model_from_payload(model_to_payload(encoder))
        assert payload_bytes(loaded) == payload_bytes(encoder)
        probe = make_texts(10, seed=12)
        assert loaded.encode(probe).tobytes() == reference.encode(probe).tobytes()

    @pytest.mark.parametrize("batch", [0, -1])
    def test_a_batch_below_one_is_a_value_error_naming_it(self, batch):
        """As in every other SGD loop, before any step count is computed."""
        encoder = ToyEncoder(default_backend_config(), 3)
        with pytest.raises(ValueError, match="batch"):
            encoder.fit(self.TRIPLETS[:1], 1, batch, 0.1, 0)

    def test_row_view_outlives_later_encode_and_fit(self):
        """A row view stays in the table while later batches draw and train rows."""
        encoder = ToyEncoder(default_backend_config(), 3)
        encoder.encode(["open file"])
        bucket = min(encoder.bucket_rows())
        view = encoder._bucket_row(bucket)
        drawn = view.copy()
        encoder.encode(make_texts(200, seed=5))
        triplets = self.TRIPLETS + [("open file", "slow query", 0.0)]
        encoder.fit(triplets, epochs=2, batch=4, lr=0.3, seed=1)
        assert np.shares_memory(view, encoder._rows)
        assert view.tobytes() == encoder._bucket_row(bucket).tobytes()
        assert view.tobytes() != drawn.tobytes()


def test_payload_row_outside_the_table_rejected():
    encoder = ToyEncoder(default_backend_config(buckets=64), 0)
    encoder.encode(["some text"])
    payload = model_to_payload(encoder)
    payload["rows"]["64"] = next(iter(payload["rows"].values()))
    with pytest.raises(DataFormatError):
        model_from_payload(payload)


def unique_table(encoder, texts):
    """_table as np.unique wrote it: the distinct (text, bucket) keys with
    their first index and count, put back in first-occurrence order."""
    buckets = encoder.config.buckets
    indptr, ids = encoder._featurizer._occurrences(texts)
    owner = np.repeat(np.arange(len(texts)), np.diff(indptr))
    keys, first, mult = np.unique(owner * buckets + ids, return_index=True, return_counts=True)
    order = np.argsort(first)
    text, bucket = np.divmod(keys[order], buckets)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(text, minlength=len(texts)))))
    return indptr, bucket, mult[order]


class AddAtEncoder(ToyEncoder):
    """fit's step as one 2-D np.add.at wrote it, in the order of a per-pair loop."""

    def _descend(self, part, grads, scale):
        text = np.repeat(np.arange(len(part)), np.diff(part.indptr))
        totals = np.bincount(text, weights=part.values, minlength=len(part))
        buckets, at = np.unique(part.indices, return_inverse=True)
        update = np.zeros((len(buckets), self.dim), dtype=np.float64)
        np.add.at(update, at, grads[text] * (part.values / totals[text])[:, None])
        update *= scale
        self._rows[self._slot[buckets]] -= update


class TestKernels:
    """The one-sort table, the unmasked row sums and the per-dimension fit
    sums equal the formulations they replaced, byte for byte."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        words=st.lists(st.sampled_from(WORDS) | st.text(max_size=5), min_size=1, max_size=6),
        rows=st.lists(st.lists(st.integers(0, 5), max_size=12), max_size=2 * _ENCODE_CHUNK + 9),
        buckets=st.sampled_from([5, 997, 32768]),
    )
    def test_table_and_encode_equal_the_references(self, words, rows, buckets):
        """Repeated words repeat n-grams, five buckets make most of them
        collide, and a batch of up to 137 texts crosses the encode chunk."""
        texts = [" ".join(words[i % len(words)] for i in row) for row in rows]
        config = default_backend_config(buckets=buckets, embedding_dim=3)
        encoder, reference = pair(config, seed=4)
        starts = range(0, len(texts), _ENCODE_CHUNK)
        for batch in [texts] + [texts[i : i + _ENCODE_CHUNK] for i in starts]:
            table = encoder._table(batch)
            expected = unique_table(encoder, batch)
            for got, want in zip((table.indptr, table.indices, table.values), expected):
                assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
        assert encoder.encode(texts).tobytes() == reference.encode(texts).tobytes()
        assert_same_model(encoder, reference)

    @pytest.mark.parametrize("epochs", [1, 2, 5])
    @pytest.mark.parametrize("buckets", [61, 32768])
    def test_fit_rows_equal_the_add_at_reference(self, epochs, buckets):
        config = default_backend_config(buckets=buckets)
        encoder, reference = ToyEncoder(config, 9), AddAtEncoder(config, 9)
        triplets = TestFit.TRIPLETS + [(b, a, 1.0 - t) for a, b, t in TestFit.TRIPLETS[::3]]
        for model in (encoder, reference):
            model.encode(make_texts(12, seed=6))
            model.fit(triplets, epochs=epochs, batch=7, lr=0.4, seed=epochs)
        assert_same_model(encoder, reference)


def traced_peak(run) -> int:
    """Peak bytes that numpy and Python allocate while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peak traced allocations of one 1,000-text encode and one SetFit-cell
    fit (400 pairs, default config).  Measured with numpy 2.4 on CPython
    3.11: 1.50 MB and 3.87 MB with the np.unique table and a 2-D
    np.add.at, 1.26 MB and 1.43 MB with the one-sort table and the
    per-dimension bincounts.  The bounds are the former peaks: a fit
    whose step summed one flattened (bucket, dimension) bincount, or
    kept one step's (dimension, entries) shares alive into the next,
    exceeds them.  Each test starts a fresh featurizer table, so the text index's
    growth does not depend on the tests before it."""

    @pytest.fixture(autouse=True)
    def fresh_tables(self, monkeypatch):
        monkeypatch.setattr(features, "_tables", {})

    def test_encoding_a_thousand_texts(self):
        pool = synthetic_pool("so_duplicate", 1400, seed=31)
        texts = [join_pair(example.pair, "||") for example in pool.examples]
        encoder = ToyEncoder(default_backend_config(), 0)
        encoder.encode(texts[1000:])
        assert traced_peak(lambda: encoder.encode(texts[:1000])) < 1_500_000

    def test_one_setfit_cell_fit(self):
        backend = ToyBackend()
        setfit_fit(SetFitConfig(), synthetic_pool("so_duplicate", 25, seed=6), backend, seed=0)
        train = synthetic_pool("so_duplicate", 400, seed=5)
        assert traced_peak(lambda: setfit_fit(SetFitConfig(), train, backend, seed=1)) < 3_870_000
