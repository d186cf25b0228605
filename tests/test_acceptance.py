"""Acceptance suite: the package's headline guarantees, end to end.

Each class checks one user-facing promise — pipeline quality on the
bundled synthetic task, exact numeric contracts of the core math,
ingestion fixtures, and the sweep harness defaults — at the tolerances
the package documents.
"""

import math
import time

import numpy as np
import pytest

from pairshot.backend.toy import _COSINE_EPS, ToyBackend
from pairshot.data import Dataset, LabeledExample, LabelSet, SentencePair, split_no_leakage
from pairshot.errors import PairshotError
from pairshot.finetune import FinetuneConfig, finetune, finetune_predict, run_finetune
from pairshot.harness import ExperimentConfig, emit_table, run_sweep
from pairshot.ingestion.bugzilla import (
    IngestionWindow,
    build_dependency_pairs,
    build_duplicate_pairs,
    bugzilla_task_dataset,
    fetch_bugs,
)
from pairshot.ingestion.mock_server import MockBugzillaServer, make_fixture_bugs
from pairshot.ingestion.stackoverflow import ingest_stackoverflow_exports
from pairshot.logistic import gradients, objective
from pairshot.metrics import evaluate_predictions, format_mean_std
from pairshot.numerics import cosine_similarity
from pairshot.pet import (
    PetConfig,
    aggregate_scores,
    distill,
    run_pet,
    soften,
)
from pairshot.prompting import builtin_pvps
from pairshot.rng import Rng
from pairshot.setfit import SetFitConfig, generate_contrastive, run_setfit
from pairshot.synthetic import synthetic_pool, synthetic_unlabeled

TASK = "so_duplicate"


@pytest.fixture(scope="module")
def train50():
    return synthetic_pool(TASK, 50, seed=101)


@pytest.fixture(scope="module")
def unlabeled1000():
    return synthetic_unlabeled(TASK, 1000, seed=102)


@pytest.fixture(scope="module")
def test500():
    return synthetic_pool(TASK, 500, seed=103, kind="test", serial_prefix="t")


def pet_config(**overrides):
    base = dict(
        pvps=tuple(builtin_pvps(TASK)),
        mlm_steps=300,
        distill_steps=600,
        batch=8,
    )
    base.update(overrides)
    return PetConfig(**base)


class TestPromptEnsemblePipeline:
    def test_quality_and_runtime_on_separable_task(self, train50, unlabeled1000, test500):
        """With 50 labeled, 1000 unlabeled, and 500 test pairs, both the
        aggregated ensemble and the distilled classifier reach at least
        0.90 accuracy, well inside a minute of wall time."""
        started = time.perf_counter()
        result = run_pet(
            pet_config(),
            train50,
            unlabeled1000,
            test500,
            ToyBackend(),
            seed=11,
            evaluate_ensemble=True,
        )
        elapsed = time.perf_counter() - started
        assert result.soft_labeled == 1000
        assert result.ensemble_report is not None
        assert result.ensemble_report.accuracy >= 0.90
        assert result.report.accuracy >= 0.90
        assert elapsed < 60.0


class TestSoftening:
    def test_hand_case_at_temperature_two(self):
        """soften((2, 0), T=2) equals (e/(1+e), 1/(1+e)) to 1e-9."""
        out = soften(np.array([2.0, 0.0]), temperature=2.0)
        expected = (math.e / (1 + math.e), 1 / (1 + math.e))
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9)

    def test_argmax_preserved_and_shift_invariant_on_random_vectors(self):
        """Across 1,000 random score vectors, softening never moves the
        argmax and ignores a constant shift of all scores."""
        rng = np.random.default_rng(42)
        for _ in range(1000):
            dim = int(rng.integers(2, 8))
            scores = rng.normal(scale=3.0, size=dim)
            temperature = float(rng.uniform(0.5, 4.0))
            dist = soften(scores, temperature)
            assert np.argmax(dist) == np.argmax(scores)
            shift = float(rng.normal(scale=50.0))
            shifted = soften(scores + shift, temperature)
            np.testing.assert_allclose(shifted, dist, rtol=0, atol=1e-12)


class TestScoreAggregation:
    def test_hand_case_is_exact(self):
        """Weights (1, 3) over scores (0,1) and (1,0) give exactly (0.75, 0.25)."""
        out = aggregate_scores([1.0, 3.0], [np.array([0.0, 1.0]), np.array([1.0, 0.0])])
        assert list(out) == [0.75, 0.25]

    def test_uniform_weight_rescaling_is_invariant(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            members = int(rng.integers(1, 6))
            dim = int(rng.integers(2, 6))
            weights = rng.uniform(0.1, 2.0, size=members)
            scores = [rng.normal(size=dim) for _ in range(members)]
            base = aggregate_scores(weights, scores)
            for scale in (0.25, 3.0, 17.5):
                np.testing.assert_allclose(
                    aggregate_scores(weights * scale, scores), base, rtol=0, atol=1e-12
                )

    def test_zero_weight_members_are_inert(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            members = int(rng.integers(1, 6))
            dim = int(rng.integers(2, 6))
            weights = list(rng.uniform(0.1, 2.0, size=members))
            scores = [rng.normal(size=dim) for _ in range(members)]
            base = aggregate_scores(weights, scores)
            position = int(rng.integers(0, members + 1))
            padded_w = weights[:position] + [0.0] + weights[position:]
            padded_s = scores[:position] + [rng.normal(size=dim)] + scores[position:]
            np.testing.assert_allclose(
                aggregate_scores(padded_w, padded_s), base, rtol=0, atol=1e-12
            )


def brute_force_metrics(golds, preds, labels):
    """Definitional confusion-matrix recomputation, independent of the library."""
    index = {label: k for k, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for g, p in zip(golds, preds):
        counts[index[g], index[p]] += 1
    accuracy = np.trace(counts) / len(golds)
    f1s, supports = [], []
    for k in range(len(labels)):
        tp = counts[k, k]
        fp = counts[:, k].sum() - tp
        fn = counts[k, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        f1s.append(f1)
        supports.append(counts[k, :].sum())
    macro = float(np.mean(f1s))
    weighted = float(np.dot(f1s, supports) / len(golds))
    return float(accuracy), macro, weighted


class TestMetricsOracle:
    def test_two_hundred_random_fixtures_match_brute_force(self):
        """Accuracy, macro-F1, and weighted-F1 agree with a from-scratch
        confusion-matrix recomputation to 1e-12 on 200 random fixtures."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_labels = int(rng.integers(2, 6))
            labels = [chr(ord("A") + k) for k in range(n_labels)]
            n = int(rng.integers(1, 60))
            golds = [labels[int(i)] for i in rng.integers(0, n_labels, size=n)]
            preds = [labels[int(i)] for i in rng.integers(0, n_labels, size=n)]
            got = evaluate_predictions(golds, preds, labels)
            accuracy, macro, weighted = brute_force_metrics(golds, preds, labels)
            np.testing.assert_allclose(got.accuracy, accuracy, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.macro_f1, macro, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.weighted_f1, weighted, rtol=0, atol=1e-12)

    def test_hand_case(self):
        """golds AAAB vs preds AABB: accuracy 0.75, macro 11/15, weighted 23/30."""
        got = evaluate_predictions(["A", "A", "A", "B"], ["A", "A", "B", "B"], ["A", "B"])
        assert got.accuracy == 0.75
        np.testing.assert_allclose(got.macro_f1, 11 / 15, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.weighted_f1, 23 / 30, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.macro_f1, 0.7333, rtol=0, atol=5e-5)
        np.testing.assert_allclose(got.weighted_f1, 0.7667, rtol=0, atol=5e-5)


def class_grid_dataset(n_classes, per_class):
    labels = tuple(f"C{k}" for k in range(n_classes))
    label_set = LabelSet(labels, "grid")
    examples = []
    for label in labels:
        for i in range(per_class):
            examples.append(
                LabeledExample(
                    SentencePair(f"left {label} item {i}", f"right {label} item {i}"),
                    label,
                )
            )
    return Dataset(tuple(examples), label_set, "train")


class TestContrastiveCounts:
    def test_count_identity_and_provenance_over_grid(self):
        """For every R in 1..8 and class count in 2..5 the generator emits
        exactly 2*R*|labels| triplets; similarity 1 pairs share a class and
        similarity 0 pairs cross classes, verified from recorded provenance."""
        for n_classes in range(2, 6):
            dataset = class_grid_dataset(n_classes, per_class=5)
            for R in range(1, 9):
                triplets = generate_contrastive(dataset, R, seed=17)
                assert len(triplets) == 2 * R * n_classes
                positives = [t for t in triplets if t.similarity == 1.0]
                negatives = [t for t in triplets if t.similarity == 0.0]
                assert len(positives) == R * n_classes
                assert len(negatives) == R * n_classes
                assert all(t.label_a == t.label_b for t in positives)
                assert all(t.label_a != t.label_b for t in negatives)


def random_pair_universe(seed):
    """A randomized pair dataset where sentences chain across pairs."""
    rng = Rng(seed).derive("universe")
    label_set = LabelSet(("Neutral", "Duplicate"), TASK)
    fresh = iter(f"u{seed} sentence {i}" for i in range(200))
    recent = []
    examples = []
    for j in range(40):
        if recent and rng.randbelow(10) < 3:
            u = recent[rng.randbelow(len(recent))]
        else:
            u = next(fresh)
        v = next(fresh)
        examples.append(
            LabeledExample(SentencePair(u, v), label_set.labels[rng.randbelow(2)])
        )
        recent = [u, v]
    return Dataset(tuple(examples), label_set, "train")


class TestLeakageFreeSplits:
    def test_hundred_seeded_splits_share_no_sentences(self):
        """Over 100 randomized pair universes, the split never places one
        sentence string on both sides of the train-pool/test divide."""
        completed = 0
        entangled_universes = 0
        for seed in range(100):
            dataset = random_pair_universe(seed)
            seen: set[str] = set()
            shared = False
            for ex in dataset:
                shared = shared or ex.pair.u in seen or ex.pair.v in seen
                seen.update((ex.pair.u, ex.pair.v))
            entangled_universes += shared
            pool, test = split_no_leakage(dataset, 18, 8, seed=seed)
            assert len(pool) == 18
            assert len(test) == 8
            pool_sentences = {s for ex in pool for s in (ex.pair.u, ex.pair.v)}
            test_sentences = {s for ex in test for s in (ex.pair.u, ex.pair.v)}
            assert pool_sentences.isdisjoint(test_sentences)
            completed += 1
        assert completed == 100
        assert entangled_universes >= 90  # the property is exercised, not vacuous


def pair_loss(encoder, text_a, text_b, target):
    """(cos(e_a, e_b) - target)^2 at the encoder's current rows."""
    return (cosine_similarity(*encoder.encode([text_a, text_b]), _COSINE_EPS) - target) ** 2


class TestGradientChecks:
    def test_encoder_pair_loss_gradient_matches_finite_differences(self):
        """50 random probes of the squared-cosine-error gradient agree with
        central finite differences to 1e-4 relative."""
        words = ["alpha", "beta", "gamma", "delta", "omega", "query", "panic"]
        rng = Rng(20).derive("probe")
        checked = 0
        trial = 0
        while checked < 50:
            trial += 1
            encoder = ToyBackend().create_encoder(seed=trial)
            text_a = " ".join(
                words[rng.randbelow(len(words))] for _ in range(2 + rng.randbelow(3))
            )
            text_b = " ".join(
                words[rng.randbelow(len(words))] for _ in range(2 + rng.randbelow(3))
            )
            target = float(rng.randbelow(2))
            ids_a = encoder._featurizer.bucket_ids(text_a)
            ids_b = encoder._featurizer.bucket_ids(text_b)
            if not ids_a or not ids_b:
                continue
            grads = encoder._pair_gradient(*encoder.encode([text_a, text_b]), target)
            # Each n-gram occurrence carries 1 / (its text's count) of that text's gradient.
            updates = {}
            for ids, grad in zip((ids_a, ids_b), grads):
                for b in ids:
                    updates[b] = updates.get(b, 0) + grad / len(ids)
            buckets = sorted(updates)
            bucket = buckets[rng.randbelow(len(buckets))]
            dim = rng.randbelow(encoder.dim)
            analytic = updates[bucket][dim]
            h = 1e-5
            row = encoder._bucket_row(bucket)
            original = row[dim]
            row[dim] = original + h
            loss_plus = pair_loss(encoder, text_a, text_b, target)
            row[dim] = original - h
            loss_minus = pair_loss(encoder, text_a, text_b, target)
            row[dim] = original
            numeric = (loss_plus - loss_minus) / (2 * h)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)
            checked += 1
        assert checked == 50

    def test_logistic_head_gradient_matches_finite_differences(self):
        """50 random probes of the cross-entropy objective gradient agree
        with central finite differences to 1e-6 relative."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            d = int(rng.integers(2, 6))
            k = int(rng.integers(2, 4))
            X = rng.normal(size=(n, d))
            Y = np.zeros((n, k))
            Y[np.arange(n), rng.integers(0, k, size=n)] = 1.0
            W = rng.normal(scale=0.5, size=(k, d))
            b = rng.normal(scale=0.5, size=k)
            l2 = float(rng.choice([0.0, 0.01, 0.1]))
            grad_w, grad_b = gradients(W, b, X, Y, l2)
            h = 1e-6

            i, j = int(rng.integers(0, k)), int(rng.integers(0, d))
            W[i, j] += h
            plus = objective(W, b, X, Y, l2)
            W[i, j] -= 2 * h
            minus = objective(W, b, X, Y, l2)
            W[i, j] += h
            np.testing.assert_allclose(
                grad_w[i, j], (plus - minus) / (2 * h), rtol=1e-6, atol=1e-9
            )

            i = int(rng.integers(0, k))
            b[i] += h
            plus = objective(W, b, X, Y, l2)
            b[i] -= 2 * h
            minus = objective(W, b, X, Y, l2)
            b[i] += h
            np.testing.assert_allclose(
                grad_b[i], (plus - minus) / (2 * h), rtol=1e-6, atol=1e-9
            )


class TestDistillationEquivalence:
    def test_distilling_without_unlabeled_data_equals_finetuning(self, train50, test500):
        """With an empty unlabeled pool, distillation under a given seed and
        step count predicts identically to plain fine-tuning."""
        config = pet_config(mlm_steps=50, distill_steps=200)
        backend = ToyBackend()
        distilled = distill(
            train50,
            [],
            config,
            backend.create_classifier(train50.label_set.labels, 77),
            backend,
            seed=77,
        )
        tuned = finetune(
            FinetuneConfig(steps=config.distill_steps, batch=config.batch),
            train50,
            backend,
            seed=77,
        )
        separator = backend.separator_token
        pairs = [ex.pair for ex in test500]
        labels_d, scores_d = finetune_predict(distilled, pairs, separator)
        labels_f, scores_f = finetune_predict(tuned, pairs, separator)
        assert labels_d == labels_f
        np.testing.assert_array_equal(scores_d, scores_f)


class TestEngineQualityAndDeterminism:
    def test_finetune_reaches_085_and_reports_are_byte_identical(self, train50, test500):
        config = FinetuneConfig(steps=300, batch=8)
        _, first = run_finetune(config, train50, test500, ToyBackend(), seed=21)
        _, second = run_finetune(config, train50, test500, ToyBackend(), seed=21)
        assert first.accuracy >= 0.85
        assert first.to_json().encode("utf-8") == second.to_json().encode("utf-8")

    def test_setfit_reaches_085_and_reports_are_byte_identical(self, train50, test500):
        config = SetFitConfig(R=10, epochs=2, batch=8)
        _, first = run_setfit(config, train50, test500, ToyBackend(), seed=22)
        _, second = run_setfit(config, train50, test500, ToyBackend(), seed=22)
        assert first.accuracy >= 0.85
        assert first.to_json().encode("utf-8") == second.to_json().encode("utf-8")


class TestIngestionContract:
    def test_mock_bug_tracker_fixture_counts(self):
        """Fetching the 250-record fixture takes 3 pages; link builders emit
        exactly 2 duplicate pairs and 3 dependency pairs."""
        bugs = make_fixture_bugs(250, duplicate_links=2, dependency_links=3, seed=7)
        with MockBugzillaServer(bugs) as server:
            fetched = fetch_bugs(
                server.endpoint, IngestionWindow("2019-01-01", "2021-12-31"), page_size=100
            )
        assert fetched.requests_made == 3
        assert len(fetched.records) == 250
        assert len(build_duplicate_pairs(fetched.records).pairs) == 2
        assert len(build_dependency_pairs(fetched.records).pairs) == 3
        duplicate_task, _ = bugzilla_task_dataset(fetched.records, "bugzilla_duplicate", seed=1)
        entailment_task, _ = bugzilla_task_dataset(fetched.records, "bugzilla_entailment", seed=1)
        assert sum(1 for e in duplicate_task if e.label == "Duplicate") == 2
        assert sum(1 for e in entailment_task if e.label == "Entailment") == 3

    def test_question_csv_fixture_yields_documented_duplicate_pair(self, data_dir):
        """The bundled CSV export fixture produces the known decode-question
        duplicate pair verbatim."""
        dataset, _ = ingest_stackoverflow_exports(
            data_dir / "so_duplicates.csv", data_dir / "so_neutral.csv", seed=0
        )
        duplicate_pairs = {
            (e.pair.u, e.pair.v) for e in dataset if e.label == "Duplicate"
        }
        assert (
            "IMAP4: How to correctly decode UTF-8 encoded message body?",
            "Python email quoted-printable encoding problem",
        ) in duplicate_pairs


class TestSweepHarnessDefaults:
    def test_default_config_emits_five_by_three_table(self):
        """A default experiment config sweeps five sizes with three
        replicates each and renders one table row per size."""
        config = ExperimentConfig(task_id=TASK, method="finetune")
        assert config.sizes == (25, 50, 100, 200, 400)
        assert config.replicates == 3
        pool = synthetic_pool(TASK, 450, seed=31)
        test = synthetic_pool(TASK, 200, seed=32, kind="test", serial_prefix="t")
        result = run_sweep(config, pool, test, backend=ToyBackend())
        assert len(result.cells) == 15
        assert not result.failed
        assert sorted(result.summaries) == [25, 50, 100, 200, 400]
        lines = emit_table(result.to_payload(), fmt="text").splitlines()
        assert len(lines) == 6
        for line, size in zip(lines[1:], (25, 50, 100, 200, 400)):
            assert line.strip().startswith(str(size))
            assert "±" in line

    def test_mean_std_formatting(self):
        """The text renderer writes mean 0.9066, std 0.0138 as 90.7±1.4."""
        assert format_mean_std(0.9066, 0.0138) == "90.7±1.4"
