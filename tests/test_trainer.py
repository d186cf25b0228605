"""Lockstep softmax cross-entropy training equals training each job alone.

LoopTrainer keeps the trainer as it was written before the members of
an ensemble trained side by side: one job per call on a dense W, its
used columns in a block of their own, and per step one gather, one
scoring pass and a mean gradient over that job's batch.
_train_softmax_ce trains any number of models, which store only some
columns of W, in lockstep and must leave every model's dense W and
schedule byte for byte where LoopTrainer leaves the dense reference,
also when a step of one job fails and when a job's data widens the
columns its model stores.  Runs of up to 40 steps cross both the
trainer's planned gathers and the schedule's passes, from any resume
point.
_batches, the schedule both trainers read, is checked on its own
against its rule written out slice by slice.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pairshot.backend.features import Featurizer, SparseRows
from pairshot.backend.state import array_to_b64, model_from_payload, model_to_payload
from pairshot.backend.toy import (
    ToyBackend,
    _batches,
    _train_softmax_ce,
    default_backend_config,
)
from pairshot.data import join_pair
from pairshot.errors import DataFormatError, NumericError, ShapeError
from pairshot.numerics import stable_softmax
from pairshot.prompting import ClozeInput
from pairshot.rng import Rng
from pairshot.synthetic import synthetic_pool

WORDS = ["alpha", "beta", "gamma", "delta", "omega", "query", "panic", "crash", "fine"]
BUCKETS = 64  # few buckets, so the texts of a job share columns
FEATURIZER = Featurizer(BUCKETS, 2)
SETTINGS = settings(
    max_examples=60, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)


def resume_point(sched_state, seed, n):
    """The step a job resumes from: its recorded step if seed and n match."""
    matches = (sched_state.get("seed"), sched_state.get("n")) == (seed, n)
    return sched_state["step"] if matches else 0


class LoopTrainer:
    """Reference: train one job, step by step, as the per-member loop did."""

    @staticmethod
    def scores(W, x):
        """(len(x), len(W)) scores W . x_i in 64-row blocks of fancy-indexed terms."""
        out = np.zeros((len(x), len(W)))
        for start in range(0, len(x), 64):
            bounds = x.indptr[start : start + 65]
            filled = np.flatnonzero(np.diff(bounds))
            if len(filled):
                terms = W[np.arange(len(W))[:, None], x.indices[bounds[0] : bounds[-1]]]
                terms *= x.values[bounds[0] : bounds[-1]]
                out[start + filled] = np.add.reduceat(terms, bounds[filled] - bounds[0], axis=1).T
        return out

    @classmethod
    def gradient(cls, W, x, targets):
        """The buckets x uses and, there, mean_i (p_i - t_i) x_i^T."""
        scores = cls.scores(W, x)
        if not np.isfinite(scores).all():
            raise NumericError("non-finite scores during training")
        residual = stable_softmax(scores) - targets
        terms = np.repeat(residual, np.diff(x.indptr), axis=0).T * x.values
        width = W.shape[1]
        buckets = np.flatnonzero(np.bincount(x.indices, minlength=width))
        grad = np.array([np.bincount(x.indices, w, minlength=width)[buckets] for w in terms])
        return buckets, grad / len(x)

    @classmethod
    def train(cls, job, steps, batch, lr):
        """Train job (W, rows, features, targets, seed, sched_state); return the
        steps it completed, and raise NumericError after the last of them."""
        W, rows, features, targets, seed, sched_state = job
        n = len(features)
        start = resume_point(sched_state, seed, n)
        columns = np.flatnonzero(np.bincount(features.indices, minlength=W.shape[1]))
        local = SparseRows(
            features.indptr, np.searchsorted(columns, features.indices), features.values
        )
        block = W[rows[:, None], columns]
        done = 0
        try:
            for members in _batches(n, batch, seed, start, steps):
                touched, grad = cls.gradient(block, local.take(members), targets[members])
                update = lr * grad
                if not np.isfinite(update).all():
                    raise NumericError("non-finite update during training")
                block[:, touched] -= update
                done += 1
        finally:
            W[rows[:, None], columns] = block
            sched_state.update(seed=seed, n=n, step=start + done)
        return done


def model_job(job):
    """The dense job as the trainer's job: a model holding a copy of W."""
    W, rows, features, targets, seed, sched_state = job
    model = ToyBackend(default_backend_config(buckets=BUCKETS)).create_classifier("ABCD")
    model.W = W
    model._sched = dict(sched_state)
    return model, rows, features, targets, seed


def job_bytes(job):
    W, *_, sched_state = job
    return W.tobytes(), sorted(sched_state.items())


def model_bytes(job):
    model = job[0]
    return model.W.tobytes(), sorted(model._sched.items())


@st.composite
def jobs(draw):
    """1-9 jobs of different sizes over one candidate count, with random
    starting weights, soft or one-hot targets, seeds and resume points;
    some jobs have only empty texts, and some weights hold columns of
    +0.0, which the data may widen a model's stored columns into, and
    of -0.0, which a model must keep."""
    k = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(draw(st.integers(1, 9))):
        n = draw(st.integers(1, 12))
        most = draw(st.sampled_from([0, 4, 4, 4]))  # words per text
        texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(0, most + 1)))) for _ in range(n)]
        W = rng.normal(scale=0.3, size=(4, BUCKETS))
        W[:, rng.random(BUCKETS) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
        W[rng.random(W.shape) < draw(st.sampled_from([0.0, 0.05]))] = -0.0
        rows = rng.permutation(4)[:k]
        if draw(st.booleans()):
            targets = rng.dirichlet(np.ones(k), size=n)
        else:
            targets = np.eye(k)[rng.integers(0, k, size=n)]
        seed = draw(st.integers(0, 2**64 - 1))
        start = draw(st.integers(0, 20))
        sched_state = draw(st.sampled_from([{}, {"seed": seed, "n": n, "step": start}]))
        out.append((W, rows, FEATURIZER.counts_batch(texts), targets, seed, sched_state))
    return out


def first_visit(job, text, steps, batch):
    """The first of steps steps (counted from the job's resume point) whose
    batch holds text; None if none does."""
    _, _, features, _, seed, sched_state = job
    start = resume_point(sched_state, seed, len(features))
    batches = _batches(len(features), batch, seed, start, steps)
    return next((i for i, members in enumerate(batches) if text in members), None)


@SETTINGS
@given(jobs(), st.integers(0, 40), st.integers(1, 16))
def test_lockstep_training_equals_the_loop_byte_for_byte(jobs, steps, batch):
    lockstep = [model_job(job) for job in jobs]
    for job in jobs:
        LoopTrainer.train(job, steps, batch, 0.5)
    _train_softmax_ce(lockstep, steps, batch, 0.5)
    assert [model_bytes(job) for job in lockstep] == [job_bytes(job) for job in jobs]


@SETTINGS
@given(jobs(), st.integers(0, 40), st.integers(1, 16), st.data())
def test_a_failing_step_leaves_every_job_at_its_last_completed_step(jobs, steps, batch, data):
    """Poison a bucket only one text of one job uses: the lockstep step that
    first batches that text raises, and every job keeps the steps before it."""
    j = data.draw(st.integers(0, len(jobs) - 1))
    W, rows, features, *_ = jobs[j]
    t = data.draw(st.integers(0, len(features) - 1))
    owners = np.repeat(np.arange(len(features)), np.diff(features.indptr))
    alone = [b for b in features.indices[owners == t] if set(owners[features.indices == b]) == {t}]
    if alone:
        W[rows[0], alone[0]] = np.inf
    fails_at = first_visit(jobs[j], t, steps, batch) if alone else None
    done = steps if fails_at is None else fails_at
    lockstep = [model_job(job) for job in jobs]
    for job in jobs:
        assert LoopTrainer.train(job, done, batch, 0.5) == done
    if fails_at is None:
        _train_softmax_ce(lockstep, steps, batch, 0.5)
    else:
        with pytest.raises(NumericError):
            _train_softmax_ce(lockstep, steps, batch, 0.5)
    assert [model_bytes(job) for job in lockstep] == [job_bytes(job) for job in jobs]


def test_a_finetune_shaped_call_stays_within_its_memory_bound():
    """400 joined pairs, 1000 steps of 16 over 32,768 buckets, as a
    finetune cell at size 400 trains: the trainer's own allocations peak
    below 1.5 MB (about 1.3 MB with 64-row planned gathers)."""
    pool = synthetic_pool("so_duplicate", 400, seed=31)
    x = Featurizer(32768, 2).counts_batch([join_pair(ex.pair, "||") for ex in pool])
    targets = np.eye(2)[[pool.label_set.index(ex.label) for ex in pool]]
    classifier = ToyBackend().create_classifier(["Neutral", "Duplicate"])
    tracemalloc.start()
    try:
        _train_softmax_ce([(classifier, np.arange(2), x, targets, 7)], 1000, 16, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert classifier._sched["step"] == 1000
    assert peak < 1.5e6


def reference_batches(n, batch, seed, start, steps):
    """The schedule's rule, one step at a time: step s is slot s mod
    ceil(n / batch) of pass s div that, pass p being the data in the
    order Rng(seed).derive("pass", p).shuffled gives it."""
    per_pass = max(1, -(-n // batch))
    out = []
    for step in range(start, start + steps):
        p, slot = divmod(step, per_pass)
        out.append(Rng(seed).derive("pass", p).shuffled(range(n))[slot * batch : (slot + 1) * batch])
    return out


@pytest.mark.parametrize(
    "n, batch, start, steps",
    [
        (10, 3, 5, 9),  # resumed inside a pass; every pass ends in a short batch of one
        (10, 3, 8, 6),  # resumed on a pass boundary
        (12, 4, 0, 7),  # batches of one size
        (2, 5, 3, 4),  # n < batch: each step is a whole pass
        (1, 1, 0, 3),
        (10, 3, 5, 0),  # no steps
        (0, 3, 2, 2),  # no rows: every step is an empty batch
    ],
)
def test_batches_follow_the_schedule_rule(n, batch, start, steps):
    for seed in (0, 7, 2**64 - 1):
        got = list(_batches(n, batch, seed, start, steps))
        assert [b.dtype for b in got] == [np.dtype(np.int64)] * steps
        assert [b.tolist() for b in got] == reference_batches(n, batch, seed, start, steps)


def test_batches_draw_a_pass_only_when_a_step_reaches_it(monkeypatch):
    drawn = []
    shuffled = Rng.shuffled
    monkeypatch.setattr(Rng, "shuffled", lambda rng, items: drawn.append(1) or shuffled(rng, items))
    batches = _batches(10, 3, 7, 4, 10**18)  # 4 steps a pass, so it starts on pass 1
    assert drawn == []
    for _ in range(4):
        next(batches)
    assert len(drawn) == 1
    next(batches)
    assert len(drawn) == 2
    assert list(_batches(10, 3, 7, 5, 0)) == [] and len(drawn) == 2


@pytest.mark.parametrize("batch", [0, -1])
def test_batches_refuse_a_batch_size_below_one_on_the_call(batch):
    with pytest.raises(ValueError, match="batch size must be positive"):
        _batches(10, batch, 0, 0, 5)


def clozes(words):
    return [
        (ClozeInput(f"{word} shared <mask>", 2, None), "Yes" if i % 2 else "No")
        for i, word in enumerate(words)
    ]


class TestTrainScorers:
    """ToyBackend.train_scorers is each scorer's train, all in one call."""

    @pytest.fixture
    def backend(self):
        return ToyBackend(default_backend_config(["Maybe"], buckets=512))

    def test_equals_training_each_scorer_alone(self, backend):
        data = [clozes(WORDS[:n]) for n in (3, 5, 9)]
        alone = [backend.create_scorer(seed) for seed in range(3)]
        together = [backend.create_scorer(seed) for seed in range(3)]
        for seed, (scorer, rendered) in enumerate(zip(alone, data)):
            scorer.train(rendered, 17, 4, 0.3, seed, ["Yes", "No"])
        jobs = [(s, r, seed, ["Yes", "No"]) for seed, (s, r) in enumerate(zip(together, data))]
        backend.train_scorers(jobs, 17, 4, 0.3)
        for a, b in zip(alone, together):
            assert model_to_payload(a) == model_to_payload(b)

    def test_one_model_named_twice_is_refused(self, backend):
        scorer = backend.create_scorer()
        job = (scorer, clozes(WORDS[:4]), 1, ["Yes", "No"])
        with pytest.raises(ValueError, match="one model"):
            backend.train_scorers([job, job], 5, 2, 0.1)
        assert not scorer.W.any()

    def test_different_candidate_counts_are_refused(self, backend):
        jobs = [
            (backend.create_scorer(), clozes(WORDS[:4]), 1, ["Yes", "No"]),
            (backend.create_scorer(), clozes(WORDS[:4]), 1, ["Yes", "No", "Maybe"]),
        ]
        with pytest.raises(ShapeError, match="candidate"):
            backend.train_scorers(jobs, 5, 2, 0.1)


class DenseScorer:
    """Reference: a scorer as it was before models stored only the bucket
    columns they trained, a dense W and a schedule, trained job by job by
    LoopTrainer and scored by LoopTrainer.scores."""

    def __init__(self, config):
        self.config = config
        self.featurizer = Featurizer(config.buckets, config.word_order)
        self.W = np.zeros((len(config.vocabulary), config.buckets))
        self.sched = {}

    def rows(self, candidates):
        return np.array([self.config.vocabulary.index(token) for token in candidates])

    def train(self, rendered, steps, batch, lr, seed, candidates=("Yes", "No")):
        x = self.featurizer.counts_batch([cloze.text for cloze, _ in rendered])
        targets = np.eye(len(candidates))[[candidates.index(t) for _, t in rendered]]
        job = (self.W, self.rows(candidates), x, targets, seed, self.sched)
        return LoopTrainer.train(job, steps, batch, lr)

    def scores(self, texts, candidates=("Yes", "No")):
        x = self.featurizer.counts_batch(texts)
        return LoopTrainer.scores(self.W[self.rows(candidates)], x)


PROBES = ["alpha shared <mask>", "unseen words only <mask>", "", "crash fine panic <mask>"]


class TestStoredColumns:
    """A scorer stores the columns of W it trained and nothing else; its
    dense W, schedule, scores and payload match a dense model's byte for
    byte through every way the stored columns can change."""

    config = default_backend_config(buckets=4096)  # sparse enough to widen

    def pair(self, seed=0):
        return ToyBackend(self.config).create_scorer(seed), DenseScorer(self.config)

    def assert_matches(self, scorer, dense):
        assert scorer.W.tobytes() == dense.W.tobytes()
        assert scorer._sched == dense.sched
        probes = [ClozeInput(text, 0, None) for text in PROBES]
        scores = ToyBackend(self.config).score_scorers([scorer], probes, ["Yes", "No"])[0]
        assert scores.tobytes() == dense.scores(PROBES).tobytes()

    def test_train_calls_that_widen_the_columns(self):
        scorer, dense = self.pair()
        widths = []
        for words, seed in ((WORDS[:3], 1), (WORDS[3:6], 2), (WORDS, 3)):
            scorer.train(clozes(words), 9, 2, 0.3, seed, ["Yes", "No"])
            dense.train(clozes(words), 9, 2, 0.3, seed)
            widths.append(len(scorer._ids))
            self.assert_matches(scorer, dense)
        assert widths[0] < widths[1] < widths[2] < self.config.buckets

    def test_nine_jobs_in_lockstep(self):
        """Three patterns' data × three seeds, as a PET ensemble trains."""
        data = [clozes(WORDS[:n]) for n in (4, 6, 9)]
        pairs = [self.pair(seed) for seed in range(9)]
        jobs = [(s, data[i // 3], i, ["Yes", "No"]) for i, (s, _) in enumerate(pairs)]
        ToyBackend(self.config).train_scorers(jobs, 23, 3, 0.3)
        for i, (scorer, dense) in enumerate(pairs):
            dense.train(data[i // 3], 23, 3, 0.3, i)
            self.assert_matches(scorer, dense)

    def test_resuming_with_the_same_seed(self):
        scorer, dense = self.pair()
        data = clozes(WORDS)
        scorer.train(data, 7, 2, 0.3, 5, ["Yes", "No"])
        scorer.train(data, 11, 2, 0.3, 5, ["Yes", "No"])
        dense.train(data, 18, 2, 0.3, 5)
        self.assert_matches(scorer, dense)

    def test_a_numeric_error_mid_run(self):
        """An infinite weight on a bucket only the last text uses fails the
        step that first batches it; the stored columns are the ones the
        model held plus every bucket of the data, and W and the schedule
        keep the steps before the failing one, as on the dense model."""
        scorer, dense = self.pair()
        data = clozes(WORDS)
        scorer.train(data[:4], 5, 2, 0.3, 1, ["Yes", "No"])
        dense.train(data[:4], 5, 2, 0.3, 1)
        featurizer = dense.featurizer
        others = {b for cloze, _ in data[:-1] for b in featurizer.bucket_ids(cloze.text)}
        only_last = min(set(featurizer.bucket_ids(data[-1][0].text)) - others)
        dense.W[dense.rows(["Yes"])[0], only_last] = np.inf
        scorer.W = dense.W
        held = np.flatnonzero(dense.W.any(axis=0))
        with pytest.raises(NumericError):
            scorer.train(data, 40, 2, 0.3, 2, ["Yes", "No"])
        with pytest.raises(NumericError):
            dense.train(data, 40, 2, 0.3, 2)
        assert 0 < dense.sched["step"] < 40
        used = featurizer.counts_batch([cloze.text for cloze, _ in data]).indices
        assert scorer._ids.tolist() == sorted(set(held) | set(used))
        assert scorer.W.tobytes() == dense.W.tobytes()
        assert scorer._sched == dense.sched

    def test_a_payload_round_trip(self):
        scorer, dense = self.pair()
        scorer.train(clozes(WORDS), 13, 3, 0.3, 4, ["Yes", "No"])
        dense.train(clozes(WORDS), 13, 3, 0.3, 4)
        again = model_from_payload(model_to_payload(scorer))
        self.assert_matches(again, dense)
        from_dense = ToyBackend(self.config).create_scorer()
        from_dense.W, from_dense._sched = dense.W, dict(dense.sched)
        assert model_to_payload(again) == model_to_payload(from_dense)

    def test_a_loaded_w_that_holds_negative_zero(self):
        """A column whose only nonzero bits are a -0.0 stays stored: the
        dense W, training on from it and the payload keep the sign."""
        scorer, dense = self.pair()
        dense.W[dense.rows(["No"])[0], [5, 17]] = -0.0
        dense.W[dense.rows(["Yes"])[0], 17] = 0.25
        scorer.W = dense.W
        assert scorer._ids.tolist() == [5, 17]
        self.assert_matches(scorer, dense)
        scorer.train(clozes(WORDS), 6, 2, 0.3, 8, ["Yes", "No"])
        dense.train(clozes(WORDS), 6, 2, 0.3, 8)
        self.assert_matches(scorer, dense)
        again = model_from_payload(model_to_payload(scorer))
        self.assert_matches(again, dense)

    def test_the_dense_w_is_read_only_and_its_shape_is_checked(self):
        scorer, _ = self.pair()
        with pytest.raises(ValueError, match="read-only"):
            scorer.W[0, 0] = 1.0
        with pytest.raises(ShapeError, match="weights of shape"):
            scorer.W = np.zeros((2, self.config.buckets))
        payload = model_to_payload(scorer)
        rows = len(self.config.vocabulary)
        payload.update(weights=array_to_b64(np.zeros((rows, 64))), shape=[rows, 64])
        with pytest.raises(DataFormatError, match="'weights' do not fit its config"):
            model_from_payload(payload)
