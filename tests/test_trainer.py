"""Lockstep softmax cross-entropy training equals training each job alone.

LoopTrainer keeps the trainer as it was written before the members of
an ensemble trained side by side: one job per call, its used columns in
a block of their own, and per step one gather, one scoring pass and a
mean gradient over that job's batch.  _train_softmax_ce trains any
number of jobs in lockstep and must leave every job's weights and
schedule byte for byte where LoopTrainer leaves them, also when a step
of one job fails.  Runs of up to 40 steps cross both the trainer's
planned gathers and the schedule's passes, from any resume point.
_batches, the schedule both trainers read, is checked on its own
against its rule written out slice by slice.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pairshot.backend.features import Featurizer, SparseRows
from pairshot.backend.state import model_to_payload
from pairshot.backend.toy import (
    ToyBackend,
    _batches,
    _train_softmax_ce,
    default_backend_config,
)
from pairshot.data import join_pair
from pairshot.errors import NumericError, ShapeError
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


def copy_job(job):
    W, rows, features, targets, seed, sched_state = job
    return W.copy(), rows, features, targets, seed, dict(sched_state)


def job_bytes(job):
    W, *_, sched_state = job
    return W.tobytes(), sorted(sched_state.items())


@st.composite
def jobs(draw):
    """1-9 jobs of different sizes over one candidate count, with random
    starting weights, soft or one-hot targets, seeds and resume points;
    some jobs have only empty texts."""
    k = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(draw(st.integers(1, 9))):
        n = draw(st.integers(1, 12))
        most = draw(st.sampled_from([0, 4, 4, 4]))  # words per text
        texts = [" ".join(rng.choice(WORDS, size=int(rng.integers(0, most + 1)))) for _ in range(n)]
        W = rng.normal(scale=0.3, size=(4, BUCKETS))
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
    lockstep = [copy_job(job) for job in jobs]
    for job in jobs:
        LoopTrainer.train(job, steps, batch, 0.5)
    _train_softmax_ce(lockstep, steps, batch, 0.5)
    assert [job_bytes(job) for job in lockstep] == [job_bytes(job) for job in jobs]


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
    lockstep = [copy_job(job) for job in jobs]
    for job in jobs:
        assert LoopTrainer.train(job, done, batch, 0.5) == done
    if fails_at is None:
        _train_softmax_ce(lockstep, steps, batch, 0.5)
    else:
        with pytest.raises(NumericError):
            _train_softmax_ce(lockstep, steps, batch, 0.5)
    assert [job_bytes(job) for job in lockstep] == [job_bytes(job) for job in jobs]


def test_a_finetune_shaped_call_stays_within_its_memory_bound():
    """400 joined pairs, 1000 steps of 16 over 32,768 buckets, as a
    finetune cell at size 400 trains: the trainer's own allocations peak
    below 1.5 MB (about 1.3 MB with 64-row planned gathers)."""
    pool = synthetic_pool("so_duplicate", 400, seed=31)
    x = Featurizer(32768, 2).counts_batch([join_pair(ex.pair, "||") for ex in pool])
    targets = np.eye(2)[[pool.label_set.index(ex.label) for ex in pool]]
    job = (np.zeros((2, 32768)), np.arange(2), x, targets, 7, {})
    tracemalloc.start()
    try:
        _train_softmax_ce([job], 1000, 16, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert job[5]["step"] == 1000
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
