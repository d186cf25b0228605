"""Prompt-ensemble pipeline: softening, aggregation, weighting, distillation."""

import math

import numpy as np
import pytest

from pairshot.data import SentencePair
from pairshot.errors import EmptyEnsembleError, ShapeError
from pairshot.pet import (
    PetConfig,
    aggregate_scores,
    distill,
    ensemble_predict,
    render_pairs,
    run_pet,
    soft_label,
    soften,
    train_ensemble,
    untrained_accuracy,
)
from pairshot.prompting import builtin_pvps, verbalizer_tokens
from pairshot.rng import Rng


class TestSoften:
    def test_two_zero_scores_at_temperature_two(self):
        """soften((2, 0), T=2) = (e, 1)/(e + 1)."""
        out = soften((2.0, 0.0), temperature=2.0)
        e = math.e
        np.testing.assert_allclose(out, [e / (1 + e), 1 / (1 + e)], atol=1e-9)

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            scores = rng.normal(scale=3, size=rng.integers(2, 6))
            np.testing.assert_allclose(soften(scores, 2.0).sum(), 1.0, atol=1e-12)

    def test_argmax_preserving_and_shift_invariant(self):
        """1,000 random score vectors: softening never moves the argmax,
        and adding a constant to every score changes nothing."""
        rng = np.random.default_rng(42)
        for _ in range(1000):
            scores = rng.normal(scale=5, size=rng.integers(2, 7))
            temperature = float(rng.uniform(0.2, 10))
            softened = soften(scores, temperature)
            assert int(np.argmax(softened)) == int(np.argmax(scores))
            shifted = soften(scores + rng.normal() * 100, temperature)
            np.testing.assert_allclose(softened, shifted, atol=1e-9)

    def test_high_temperature_flattens(self):
        sharp = soften((4.0, 0.0), 1.0)
        flat = soften((4.0, 0.0), 8.0)
        assert flat[0] < sharp[0]
        assert flat[0] > 0.5

    @pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_a_temperature_that_is_not_positive_and_finite_is_refused(self, temperature):
        """A NaN or infinite temperature would soften every soft label to
        NaN or a uniform row, so soften and the config refuse it as they
        refuse one that is not positive."""
        with pytest.raises(ValueError, match="^temperature must be positive and finite"):
            soften((1.0, 0.0), temperature)
        with pytest.raises(ValueError, match="^temperature must be positive and finite"):
            PetConfig.for_task("so_duplicate", temperature=temperature)

    @pytest.mark.parametrize("temperature", [True, "1", None])
    def test_a_temperature_that_is_no_number_is_refused_by_name(self, temperature):
        """A bool is no number, and a string or None would fail the range
        check with a TypeError that names no field."""
        with pytest.raises(TypeError, match="^temperature must be a number, got "):
            soften((1.0, 0.0), temperature)
        with pytest.raises(TypeError, match="^temperature must be a number, got "):
            PetConfig.for_task("so_duplicate", temperature=temperature)


class TestAggregateScores:
    def test_hand_case(self):
        """weights (1, 3) over rows (0,1) and (1,0) -> (0.75, 0.25)."""
        out = aggregate_scores([1.0, 3.0], [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(out, [0.75, 0.25], atol=0)

    def test_invariant_under_weight_rescaling(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(1, 6))
            weights = rng.uniform(0.01, 1, size=m)
            rows = rng.normal(size=(m, k))
            base = aggregate_scores(weights, rows)
            scaled = aggregate_scores(weights * 7.3, rows)
            np.testing.assert_allclose(base, scaled, atol=1e-12)

    def test_zero_weight_member_is_inert(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(1, 6))
            weights = list(rng.uniform(0.01, 1, size=m))
            rows = rng.normal(size=(m, k))
            base = aggregate_scores(weights, rows)
            padded = aggregate_scores(
                weights + [0.0], np.vstack([rows, rng.normal(size=(1, k))])
            )
            np.testing.assert_allclose(base, padded, atol=1e-12)

    def test_all_zero_weights_fall_back_to_uniform_with_warning(self):
        with pytest.warns(UserWarning):
            out = aggregate_scores([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)

    def test_single_member_aggregation_is_identity(self):
        row = [0.3, -1.2, 0.9]
        np.testing.assert_allclose(aggregate_scores([0.4], [row]), row, atol=1e-12)

    def test_empty_ensemble_raises(self):
        with pytest.raises(EmptyEnsembleError):
            aggregate_scores([], [])

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ShapeError):
            aggregate_scores([1.0], [[1.0, 0.0], [0.0, 1.0]])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            aggregate_scores([-0.1, 1.0], [[1.0, 0.0], [0.0, 1.0]])


class TestEnsembleTraining:
    def test_member_grid_is_pvps_times_seeds(self, dup_train, backend):
        config = PetConfig.for_task("so_duplicate", mlm_steps=5, batch=4)
        members = train_ensemble(config, dup_train, backend, seed=1000)
        assert len(members) == 9
        grid = {(m.pvp.id, m.seed) for m in members}
        assert len(grid) == 9

    def test_single_pvp_single_seed(self, dup_train, backend):
        config = PetConfig(
            pvps=(builtin_pvps("so_duplicate")[0],), seeds=(1,), mlm_steps=5, batch=4
        )
        members = train_ensemble(config, dup_train, backend, seed=1000)
        assert len(members) == 1

    def test_weights_are_untrained_accuracy(self, dup_train, backend):
        """Member weight equals accuracy measured before any training:
        a zero-initialized scorer ties every label and predicts the first,
        so the weight is exactly the fraction of first-label examples."""
        config = PetConfig.for_task("so_duplicate", mlm_steps=5, batch=4)
        members = train_ensemble(config, dup_train, backend, seed=1000)
        first_label = dup_train.label_set.labels[0]
        expected = sum(1 for ex in dup_train if ex.label == first_label) / len(dup_train)
        for member in members:
            assert member.weight == pytest.approx(expected)

    def test_untrained_accuracy_matches_direct_call(self, dup_train, backend):
        config = PetConfig.for_task("so_duplicate", mlm_steps=5, batch=4)
        pvp = config.pvps[0]
        model = backend.create_scorer(seed=123)
        clozes = render_pairs(pvp, [ex.pair for ex in dup_train], config, backend)
        tokens = verbalizer_tokens(pvp, dup_train.label_set)
        acc = untrained_accuracy(backend.score_scorers([model], clozes, tokens)[0], dup_train)
        first_label = dup_train.label_set.labels[0]
        expected = sum(1 for ex in dup_train if ex.label == first_label) / len(dup_train)
        assert acc == pytest.approx(expected)

    def test_trained_ensemble_beats_chance_on_separable_data(
        self, dup_train, dup_test, backend
    ):
        config = PetConfig.for_task("so_duplicate", mlm_steps=150, batch=8)
        members = train_ensemble(config, dup_train, backend, seed=1000)
        preds = ensemble_predict(
            members, [ex.pair for ex in dup_test], dup_test.label_set, config, backend
        )
        hits = sum(1 for pred, ex in zip(preds, dup_test) if pred == ex.label)
        assert hits / len(dup_test) > 0.8


class TestSoftLabeling:
    def test_distributions_are_normalized(self, dup_train, dup_unlabeled, backend):
        config = PetConfig.for_task("so_duplicate", mlm_steps=30, batch=8)
        members = train_ensemble(config, dup_train, backend, seed=1000)
        softened = soft_label(
            members, dup_unlabeled, dup_train.label_set, config, backend
        )
        assert len(softened) == len(dup_unlabeled)
        for ex in softened:
            np.testing.assert_allclose(sum(ex.distribution), 1.0, atol=1e-9)
            assert all(p >= 0 for p in ex.distribution)


class TestRunPet:
    def test_end_to_end_learns_separable_task(
        self, dup_train, dup_unlabeled, dup_test, backend
    ):
        config = PetConfig.for_task(
            "so_duplicate", mlm_steps=200, distill_steps=400, batch=8
        )
        result = run_pet(
            config, dup_train, dup_unlabeled, dup_test, backend, seed=1000,
            evaluate_ensemble=True,
        )
        assert result.report.metric("accuracy") > 0.85
        assert result.ensemble_report.metric("accuracy") > 0.85
        assert len(result.member_weights) == 9
        assert result.soft_labeled == len(dup_unlabeled)

    def test_run_is_deterministic(self, dup_train, dup_unlabeled, dup_test, backend):
        config = PetConfig.for_task(
            "so_duplicate", mlm_steps=40, distill_steps=60, batch=8
        )
        first = run_pet(config, dup_train, dup_unlabeled, dup_test, backend, seed=1000)
        second = run_pet(config, dup_train, dup_unlabeled, dup_test, backend, seed=1000)
        assert first.report.to_json() == second.report.to_json()

    def test_distills_the_soft_labels_of_its_ensemble(
        self, dup_train, dup_unlabeled, dup_test, backend
    ):
        """run_pet is train_ensemble, soft_label, then distill over those soft labels."""
        config = PetConfig.for_task("so_duplicate", mlm_steps=20, distill_steps=40, batch=8)
        result = run_pet(config, dup_train, dup_unlabeled, dup_test, backend, seed=1000)
        members = train_ensemble(config, dup_train, backend, seed=1000)
        softened = soft_label(members, dup_unlabeled, dup_train.label_set, config, backend)
        classifier = backend.create_classifier(
            dup_train.label_set.labels, Rng(1000).derive("distill").next_u64()
        )
        seed = Rng(1000).derive("distill-order").next_u64()
        distill(dup_train, softened, config, classifier, backend, seed)
        np.testing.assert_array_equal(result.classifier.W, classifier.W)
        assert result.soft_labeled == len(softened) == len(dup_unlabeled)

    def test_trained_models_hold_a_tenth_of_their_dense_weights(
        self, dup_train, dup_unlabeled, backend
    ):
        """Members and the distilled classifier store only the rows and
        bucket columns they trained: a member its 2 verbalizer rows, and
        their arrays take under 1/10 of the bytes of a dense (rows, buckets)
        W, which is 2.88 MB for a scorer."""
        config = PetConfig.for_task("so_duplicate", mlm_steps=30, distill_steps=60, batch=4)
        members = train_ensemble(config, dup_train, backend, seed=1000)
        softened = soft_label(members, dup_unlabeled, dup_train.label_set, config, backend)
        classifier = backend.create_classifier(dup_train.label_set.labels)
        distill(dup_train, softened, config, classifier, backend, seed=7)
        rows = len(backend.config.vocabulary)
        models = [(m.model, rows) for m in members] + [(classifier, 2)]
        for model, rows in models:
            assert model._sched["step"] > 0
            assert len(model._rows) == len(model._block) == 2
            held = sum(v.nbytes for v in vars(model).values() if isinstance(v, np.ndarray))
            assert held < rows * backend.config.buckets * 8 / 10

    def test_artifacts_written(self, tmp_path, dup_train, dup_test, backend):
        config = PetConfig.for_task("so_duplicate", mlm_steps=5, distill_steps=10, batch=8)
        run_pet(
            config, dup_train, None, dup_test, backend, seed=1000,
            artifacts_dir=tmp_path,
        )
        assert (tmp_path / "member_weights.json").exists()
        assert (tmp_path / "classifier.json").exists()
        assert (tmp_path / "metadata.json").exists()

    def test_member_seed_derivation_is_stable(self):
        """Replicate seeds decorrelate members without breaking the grid."""
        a = Rng(1000).derive("member", "p1", 1).next_u64()
        b = Rng(1000).derive("member", "p1", 2).next_u64()
        c = Rng(2000).derive("member", "p1", 1).next_u64()
        assert len({a, b, c}) == 3
        assert a == Rng(1000).derive("member", "p1", 1).next_u64()
