"""Toy backend: linear scorer/classifier, bucket-embedding encoder.

Covers zero-init behavior, candidate-row isolation, deterministic
resumable training, true minibatch steps, non-finite steps that write
nothing, state round-trips, and finite-difference checks of the
softmax cross-entropy and cosine-MSE encoder gradients.
"""

import numpy as np
import pytest

from pairshot.backend.contracts import resolve_lr
from pairshot.backend.features import Featurizer
from pairshot.backend.state import load_model, model_from_payload, model_to_payload, save_model
from pairshot.backend.toy import (
    BackendConfig,
    ToyBackend,
    _COSINE_EPS,
    ToyMaskedScorer,
    _batches,
    _softmax_ce_gradient,
    backend_config_with,
    default_backend_config,
)
from pairshot.data import SentencePair
from pairshot.errors import (
    DataFormatError,
    NoDataError,
    NumericError,
    ShapeError,
    VocabularyError,
)
from pairshot.numerics import cosine_similarity, stable_softmax
from pairshot.prompting import builtin_pvps, render
from pairshot.rng import Rng


def cloze(text: str):
    """Cloze carrier for scorer tests; position points at the token."""
    from pairshot.prompting import ClozeInput

    masked = text + " <mask>"
    return ClozeInput(text=masked, mask_position=len(text) + 1, segment_boundary=None)


def yes_no_rendering(n: int):
    """Separable cloze set: 'good' texts target Yes, 'bad' texts No."""
    out = []
    for i in range(n):
        if i % 2 == 0:
            out.append((cloze(f"service healthy fast stable run{i}"), "Yes"))
        else:
            out.append((cloze(f"crash broken slow failure run{i}"), "No"))
    return out


class TestScorerBasics:
    def test_untrained_scores_are_all_zero(self, backend):
        scorer = backend.create_scorer(seed=1)
        scores = backend.score_scorers([scorer], [cloze("anything at all")], ["Yes", "No"])[0]
        np.testing.assert_array_equal(scores, [[0.0, 0.0]])

    def test_unknown_candidate_token_raises(self, backend):
        scorer = backend.create_scorer()
        with pytest.raises(VocabularyError):
            backend.score_scorers([scorer], [cloze("text")], ["NotInVocabulary"])

    def test_empty_candidates_raise(self, backend):
        scorer = backend.create_scorer()
        with pytest.raises(VocabularyError):
            backend.score_scorers([scorer], [cloze("text")], [])

    def test_train_requires_data(self, backend):
        scorer = backend.create_scorer()
        with pytest.raises(NoDataError):
            scorer.train([], steps=10, batch=4, lr=0.1, seed=0)

    def test_target_outside_candidates_raises(self, backend):
        scorer = backend.create_scorer()
        with pytest.raises(VocabularyError):
            scorer.train(
                [(cloze("t"), "Maybe")], steps=1, batch=1, lr=0.1, seed=0,
                candidates=["Yes", "No"],
            )


class TestScorerTraining:
    def test_learns_a_separable_cloze_task(self, backend):
        scorer = backend.create_scorer(seed=3)
        scorer.train(yes_no_rendering(24), steps=200, batch=8, lr=0.1, seed=5)
        good, bad = backend.score_scorers(
            [scorer],
            [cloze("service healthy fast stable run90"), cloze("crash broken slow failure run91")],
            ["Yes", "No"],
        )[0]
        assert good[0] > good[1]
        assert bad[1] > bad[0]

    def test_only_candidate_rows_are_touched(self, backend):
        """Training with an explicit candidate set must leave every other
        vocabulary row untouched (the subspace-restriction contract)."""
        scorer = backend.create_scorer()
        vocab = scorer.config.vocabulary
        scorer.train(
            yes_no_rendering(8), steps=50, batch=4, lr=0.1, seed=2,
            candidates=["Yes", "No"],
        )
        touched = {vocab.index("Yes"), vocab.index("No")}
        for row in range(len(vocab)):
            if row not in touched:
                assert not scorer.W[row].any(), f"row {row} ({vocab[row]}) was written"

    def test_row_access_log_sees_only_candidates(self, backend, monkeypatch):
        accessed = []
        rows_for = ToyMaskedScorer._rows_for

        def spy(self, tokens):
            rows = rows_for(self, tokens)
            accessed.extend(int(r) for r in rows)
            return rows

        monkeypatch.setattr(ToyMaskedScorer, "_rows_for", spy)
        scorer = backend.create_scorer()
        scorer.train(
            yes_no_rendering(6), steps=10, batch=4, lr=0.1, seed=2,
            candidates=["Yes", "No"],
        )
        vocab = scorer.config.vocabulary
        allowed = {vocab.index("Yes"), vocab.index("No")}
        assert accessed
        assert set(accessed) <= allowed

    def test_training_is_deterministic(self, backend):
        a = backend.create_scorer(seed=3)
        b = backend.create_scorer(seed=3)
        a.train(yes_no_rendering(12), steps=60, batch=4, lr=0.1, seed=7)
        b.train(yes_no_rendering(12), steps=60, batch=4, lr=0.1, seed=7)
        np.testing.assert_array_equal(a.W, b.W)

    def test_two_calls_resume_like_one_long_call(self, backend):
        data = yes_no_rendering(12)
        one = backend.create_scorer(seed=3)
        one.train(data, steps=40, batch=4, lr=0.1, seed=7)
        two = backend.create_scorer(seed=3)
        two.train(data, steps=25, batch=4, lr=0.1, seed=7)
        two.train(data, steps=15, batch=4, lr=0.1, seed=7)
        np.testing.assert_array_equal(one.W, two.W)

    def test_non_finite_learning_rate_raises_numeric_error(self, backend):
        """A runaway learning rate (e.g. from an upstream division bug)
        must surface as NumericError, not as silent NaN weights."""
        data = [
            (cloze("shared alpha"), "Yes"),
            (cloze("shared beta"), "No"),
        ]
        scorer = backend.create_scorer()
        with pytest.raises(NumericError):
            scorer.train(data, steps=10, batch=2, lr=float("inf"), seed=0)
        assert np.isfinite(scorer.W).all()  # the failing step wrote nothing


def dense_features(config, texts):
    """(n, buckets) dense rows of the toy models' sparse features."""
    featurizer = Featurizer(config.buckets, config.word_order)
    X = np.zeros((len(texts), config.buckets))
    for i, text in enumerate(texts):
        idx, val = featurizer.sparse_counts(text)
        X[i, idx] = val
    return X


def mean_ce_loss(W, X, T):
    """Mean over the rows of X of cross-entropy(T, softmax(W . x)), dense."""
    scores = X @ W.T
    log_probs = scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))
    return float(-(T * log_probs).sum(axis=1).mean())


def mean_ce_gradient(W, rows, X, T):
    """Mean over the rows of X of d cross-entropy / d W[rows], dense."""
    probs = stable_softmax(X @ W[rows].T)
    return (probs - T).T @ X / len(X)


class TestMinibatchStep:
    """One step is one update by the mean gradient at the step's starting W."""

    TEXTS = [
        "shared alpha signal one",
        "shared alpha signal two",
        "shared beta noise one",
        "shared beta noise two",
        "shared gamma marker",
        "alpha beta gamma shared",
    ]

    @staticmethod
    def start_weights(model, rows):
        W = model.W.copy()
        W[rows] = np.random.default_rng(4).normal(scale=0.3, size=(len(rows), model.config.buckets))
        model.W = W
        return W

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5], [5, 3, 1, 0, 2, 4], [2, 0, 5, 4, 1, 3]])
    def test_classifier_step_is_the_mean_gradient(self, backend, order):
        targets = np.eye(3)[[0, 0, 1, 1, 2, 2]] * 0.8 + 0.2 / 3
        clf = backend.create_classifier(["A", "B", "C"])
        rows = np.arange(3)
        W0 = self.start_weights(clf, rows)
        data = [(self.TEXTS[i], tuple(targets[i])) for i in order]
        clf.train(data, steps=1, batch=len(data), lr=0.5, seed=3)
        X = dense_features(clf.config, self.TEXTS)
        expected = W0 - 0.5 * mean_ce_gradient(W0, rows, X, targets)
        np.testing.assert_allclose(clf.W, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5], [4, 2, 0, 5, 3, 1]])
    def test_scorer_step_is_the_mean_gradient(self, backend, order):
        tokens = ["Yes", "No", "Yes", "No", "Yes", "No"]
        scorer = backend.create_scorer()
        vocab = scorer.config.vocabulary
        rows = np.array([vocab.index("Yes"), vocab.index("No")])
        W0 = self.start_weights(scorer, rows)
        data = [(cloze(self.TEXTS[i]), tokens[i]) for i in order]
        scorer.train(data, steps=1, batch=len(data), lr=0.5, seed=3, candidates=["Yes", "No"])
        X = dense_features(scorer.config, [cloze(text).text for text in self.TEXTS])
        T = np.array([[1.0, 0.0] if token == "Yes" else [0.0, 1.0] for token in tokens])
        expected = W0.copy()
        expected[rows] -= 0.5 * mean_ce_gradient(W0, rows, X, T)
        np.testing.assert_allclose(scorer.W, expected, rtol=1e-12, atol=1e-14)


class TestNonFiniteSteps:
    """A step with non-finite scores, cosines or updates raises before it writes
    (the scorer's case is test_non_finite_learning_rate_raises_numeric_error)."""

    def test_classifier_weights_and_predictions_stay_finite(self, backend):
        clf = backend.create_classifier(["A", "B"])
        data = [("shared alpha", (1.0, 0.0)), ("shared beta", (0.0, 1.0))]
        with pytest.raises(NumericError):
            clf.train(data, steps=10, batch=2, lr=float("inf"), seed=0)
        assert np.isfinite(clf.W).all()
        assert np.isfinite(clf.predict(["shared alpha", "shared beta"])).all()

    def test_failed_scorer_training_records_the_steps_it_wrote(self, backend):
        """Poison a bucket only text 7 of 8 uses: the step that first batches
        it raises, and the saved schedule counts the steps already in W, so
        a resumed run does not replay them."""
        data = yes_no_rendering(8)
        scorer = backend.create_scorer()
        features = Featurizer(backend.config.buckets, backend.config.word_order)
        others = {b for cloze_input, _ in data[:7] for b in features.bucket_ids(cloze_input.text)}
        only_7 = min(set(features.bucket_ids(data[7][0].text)) - others)
        poisoned = scorer.W.copy()
        poisoned[scorer._row["Yes"], only_7] = np.inf
        scorer.W = poisoned
        failing = next(step for step, members in enumerate(_batches(8, 2, 5, 0, 50)) if 7 in members)
        assert failing > 0
        with pytest.raises(NumericError):
            scorer.train(data, steps=50, batch=2, lr=0.1, seed=5)
        assert model_to_payload(scorer)["schedule"] == {"seed": 5, "n": 8, "step": failing}
        reference = backend.create_scorer()
        reference.W = poisoned
        reference.train(data, steps=failing, batch=2, lr=0.1, seed=5)
        assert model_to_payload(scorer) == model_to_payload(reference)

    def test_encoder_rows_stay_finite(self, backend):
        enc = backend.create_encoder(seed=3)
        triplets = [("shared alpha", "shared beta", 1.0), ("shared alpha", "other text", 0.0)]
        with pytest.raises(NumericError):
            enc.fit(triplets, epochs=3, batch=2, lr=float("inf"), seed=0)
        assert all(np.isfinite(row).all() for row in enc.bucket_rows().values())
        assert np.isfinite(enc.encode(["shared alpha", "other text"])).all()


class TestClassifier:
    def test_untrained_prediction_is_all_zeros(self, backend):
        clf = backend.create_classifier(["Neutral", "Duplicate"])
        np.testing.assert_array_equal(clf.predict(["any text"]), [[0.0, 0.0]])

    def test_needs_two_labels(self, backend):
        with pytest.raises(ShapeError):
            backend.create_classifier(["OnlyOne"])

    def test_rejects_bad_distributions(self, backend):
        clf = backend.create_classifier(["A", "B"])
        with pytest.raises(ShapeError):
            clf.train([("t", (0.5, 0.6))], steps=1, batch=1, lr=0.1, seed=0)
        with pytest.raises(ShapeError):
            clf.train([("t", (1.0,))], steps=1, batch=1, lr=0.1, seed=0)
        with pytest.raises(ShapeError):
            clf.train([("t", (-0.1, 1.1))], steps=1, batch=1, lr=0.1, seed=0)
        with pytest.raises(ShapeError):
            clf.train([("t", (float("nan"), float("nan")))], steps=1, batch=1, lr=0.1, seed=0)

    @pytest.mark.parametrize("dist", ["10", ["1", "0"], b"\x01\x00", 1.0, [True, False], None])
    def test_targets_must_be_real_numbers(self, backend, dist):
        """"10" is not the distribution (1.0, 0.0), nor true the number 1."""
        clf = backend.create_classifier(["A", "B"])
        with pytest.raises(ShapeError):
            clf.train([("t", dist)], steps=1, batch=1, lr=0.1, seed=0)
        assert not clf.W.any()

    def test_learns_soft_targets(self, backend):
        clf = backend.create_classifier(["A", "B"])
        rows = []
        for i in range(16):
            if i % 2 == 0:
                rows.append((f"alpha signal marker{i}", (0.9, 0.1)))
            else:
                rows.append((f"beta noise marker{i}", (0.1, 0.9)))
        clf.train(rows, steps=200, batch=8, lr=0.1, seed=1)
        a_scores, b_scores = clf.predict(["alpha signal marker98", "beta noise marker99"])
        assert a_scores[0] > a_scores[1]
        assert b_scores[1] > b_scores[0]

    def test_resumable_schedule(self, backend):
        rows = [(f"text number {i}", (1.0, 0.0) if i % 2 else (0.0, 1.0)) for i in range(10)]
        one = backend.create_classifier(["A", "B"])
        one.train(rows, steps=30, batch=4, lr=0.1, seed=9)
        two = backend.create_classifier(["A", "B"])
        two.train(rows, steps=10, batch=4, lr=0.1, seed=9)
        two.train(rows, steps=20, batch=4, lr=0.1, seed=9)
        np.testing.assert_array_equal(one.W, two.W)


class TestEncoder:
    def test_empty_text_is_the_zero_vector(self, backend):
        enc = backend.create_encoder()
        np.testing.assert_array_equal(enc.encode([""]), np.zeros((1, enc.dim)))

    def test_encoding_is_touch_order_independent(self, backend):
        first = backend.create_encoder(seed=4)
        second = backend.create_encoder(seed=4)
        t1, t2 = "how to parse json", "decode bytes in python"
        a1 = first.encode([t1])
        first.encode([t2])
        second.encode([t2])
        a2 = second.encode([t1])
        np.testing.assert_array_equal(a1, a2)

    def test_untrained_encoding_depends_only_on_seeds(self):
        enc_a = ToyBackend().create_encoder(seed=4)
        enc_b = ToyBackend().create_encoder(seed=4)
        text = "identical everywhere"
        np.testing.assert_array_equal(enc_a.encode([text]), enc_b.encode([text]))

    def test_fit_pulls_same_class_pairs_together(self, backend):
        enc = backend.create_encoder(seed=1)
        from pairshot.numerics import cosine_similarity

        pos = ("install package with pip", "pip package installation")
        neg = ("install package with pip", "draw a chart with colors")
        triplets = [(pos[0], pos[1], 1.0), (neg[0], neg[1], 0.0)] * 4
        before_pos = cosine_similarity(*enc.encode(pos))
        before_neg = cosine_similarity(*enc.encode(neg))
        enc.fit(triplets, epochs=30, batch=4, lr=0.5, seed=2)
        after_pos = cosine_similarity(*enc.encode(pos))
        after_neg = cosine_similarity(*enc.encode(neg))
        # Squared error against the similarity targets (1 and 0) shrinks.
        assert (after_pos - 1.0) ** 2 < (before_pos - 1.0) ** 2
        assert after_neg**2 < before_neg**2

    def test_fit_requires_triplets(self, backend):
        with pytest.raises(NoDataError):
            backend.create_encoder().fit([], epochs=1, batch=4, lr=0.1, seed=0)

    @pytest.mark.parametrize("similarity", ["0.5", b"1", None, True, [0.5]])
    def test_similarity_must_be_a_real_number(self, backend, similarity):
        with pytest.raises(ShapeError):
            backend.create_encoder().fit(
                [("a b", "c d", similarity)], epochs=1, batch=1, lr=0.1, seed=0
            )


def pair_loss(encoder, text_a, text_b, target):
    """(cos(e_a, e_b) - target)^2 at the encoder's current rows."""
    return (cosine_similarity(*encoder.encode([text_a, text_b]), _COSINE_EPS) - target) ** 2


class TestEncoderGradientCheck:
    def test_analytic_gradient_matches_central_differences(self):
        """50 random probes: the per-bucket analytic gradient of the
        squared cosine error agrees with central finite differences to
        1e-4 relative."""
        words = ["alpha", "beta", "gamma", "delta", "omega", "query", "panic"]
        rng = Rng(20).derive("probe")
        checked = 0
        trial = 0
        while checked < 50:
            trial += 1
            enc = ToyBackend().create_encoder(seed=trial)
            text_a = " ".join(rng.choice(words) for _ in range(2 + rng.randbelow(3)))
            text_b = " ".join(rng.choice(words) for _ in range(2 + rng.randbelow(3)))
            target = float(rng.randbelow(2))
            ids_a = enc._featurizer.bucket_ids(text_a)
            ids_b = enc._featurizer.bucket_ids(text_b)
            if not ids_a or not ids_b:
                continue
            grads = enc._pair_gradient(*enc.encode([text_a, text_b]), target)
            # Each n-gram occurrence carries 1 / (its text's count) of that text's gradient.
            updates = {}
            for ids, grad in zip((ids_a, ids_b), grads):
                for b in ids:
                    updates[b] = updates.get(b, 0) + grad / len(ids)
            buckets = sorted(updates)
            bucket = buckets[rng.randbelow(len(buckets))]
            dim = rng.randbelow(enc.dim)
            analytic = updates[bucket][dim]
            h = 1e-5
            row = enc._bucket_row(bucket)
            original = row[dim]
            row[dim] = original + h
            loss_plus = pair_loss(enc, text_a, text_b, target)
            row[dim] = original - h
            loss_minus = pair_loss(enc, text_a, text_b, target)
            row[dim] = original
            numeric = (loss_plus - loss_minus) / (2 * h)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)
            checked += 1


class TestSoftmaxCeGradientCheck:
    def test_mean_minibatch_gradient_matches_central_differences(self):
        """50 random probes: the summed minibatch cross-entropy gradient,
        divided by the batch size as a softmax-CE step divides it, agrees
        with central finite differences to 1e-6 relative."""
        words = ["alpha", "beta", "gamma", "delta", "omega", "query", "panic"]
        rng = np.random.default_rng(11)
        config = default_backend_config(buckets=64)
        featurizer = Featurizer(config.buckets, config.word_order)
        checked = 0
        while checked < 50:
            m, k = int(rng.integers(1, 6)), int(rng.integers(2, 4))
            texts = [" ".join(rng.choice(words, size=int(rng.integers(0, 5)))) for _ in range(m)]
            W = rng.normal(scale=0.5, size=(k, config.buckets))
            T = rng.dirichlet(np.ones(k), size=m)
            x = featurizer.counts_batch(texts)
            grad = _softmax_ce_gradient(W, x, T)
            buckets = np.unique(x.indices)
            if not len(buckets):
                continue
            X = dense_features(config, texts)
            j, c = int(rng.integers(0, k)), int(rng.integers(0, len(buckets)))
            h = 1e-6
            plus, minus = W.copy(), W.copy()
            plus[j, buckets[c]] += h
            minus[j, buckets[c]] -= h
            numeric = (mean_ce_loss(plus, X, T) - mean_ce_loss(minus, X, T)) / (2 * h)
            np.testing.assert_allclose(grad[j, buckets[c]] / m, numeric, rtol=1e-6, atol=1e-9)
            checked += 1


class TestWholeBackend:
    def test_tokens(self, backend):
        assert backend.mask_token == "<mask>"
        assert backend.separator_token == "||"
        assert backend.default_lr == pytest.approx(0.1)

    def test_resolve_lr_defaults_to_the_backend(self, backend):
        assert resolve_lr(None, backend) == backend.default_lr
        assert resolve_lr(0.5, backend) == 0.5

    def test_vocabulary_covers_builtin_verbalizers(self, backend):
        vocab = set(backend.config.vocabulary)
        for token in (
            "Yes", "No", "Maybe", "neither", "true", "false",
            "Neither", "True", "False",
        ):
            assert token in vocab

    def test_config_requires_mask_and_separator(self):
        with pytest.raises(VocabularyError):
            BackendConfig(vocabulary=("a", "b"))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("buckets", "x"),
            ("buckets", True),
            ("embedding_dim", 2.5),
            ("word_order", None),
            ("seed", "0"),
            ("mask_token", 5),
            ("separator_token", None),
            ("vocabulary", "<mask>||"),
            ("vocabulary", ["<mask>", "||", 3]),
            ("vocabulary", 7),
        ],
    )
    def test_config_field_of_the_wrong_type_is_a_value_error_naming_it(self, field, value):
        with pytest.raises(ValueError, match=field):
            backend_config_with({field: value})

    def test_scoring_a_rendered_builtin_pattern(self, backend):
        pvp = builtin_pvps("so_duplicate")[2]
        pair = SentencePair("how to sort a list", "sorting lists in place")
        out = render(pvp, pair, 64, backend.mask_token, backend.separator_token)
        scorer = backend.create_scorer()
        scores = backend.score_scorers([scorer], [out], ["No", "Yes"])[0]
        assert scores.shape == (1, 2)


class TestStateRoundTrip:
    def test_scorer_round_trip(self, backend, tmp_path):
        scorer = backend.create_scorer(seed=2)
        scorer.train(yes_no_rendering(8), steps=30, batch=4, lr=0.1, seed=1)
        path = tmp_path / "scorer.json"
        save_model(scorer, path)
        again = load_model(path)
        probe = cloze("service healthy fast stable run77")
        np.testing.assert_array_equal(
            backend.score_scorers([scorer], [probe], ["Yes", "No"]),
            backend.score_scorers([again], [probe], ["Yes", "No"]),
        )

    def test_scorer_round_trip_preserves_schedule(self, backend, tmp_path):
        data = yes_no_rendering(8)
        straight = backend.create_scorer(seed=2)
        straight.train(data, steps=30, batch=4, lr=0.1, seed=1)

        interrupted = backend.create_scorer(seed=2)
        interrupted.train(data, steps=12, batch=4, lr=0.1, seed=1)
        path = tmp_path / "scorer.json"
        save_model(interrupted, path)
        resumed = load_model(path)
        resumed.train(data, steps=18, batch=4, lr=0.1, seed=1)
        np.testing.assert_array_equal(straight.W, resumed.W)

    def test_classifier_round_trip(self, backend, tmp_path):
        clf = backend.create_classifier(["Neutral", "Duplicate"], seed=5)
        clf.train([("some text here", (0.3, 0.7))], steps=5, batch=1, lr=0.1, seed=0)
        path = tmp_path / "clf.json"
        save_model(clf, path)
        again = load_model(path)
        assert again.labels == ("Neutral", "Duplicate")
        np.testing.assert_array_equal(clf.predict(["probe text"]), again.predict(["probe text"]))

    def test_encoder_round_trip(self, backend, tmp_path):
        enc = backend.create_encoder(seed=9)
        enc.fit([("a b", "a c", 1.0), ("a b", "x y", 0.0)], epochs=3, batch=2, lr=0.3, seed=4)
        path = tmp_path / "enc.json"
        save_model(enc, path)
        again = load_model(path)
        texts = ["a b", "x y", "completely new text"]
        np.testing.assert_array_equal(enc.encode(texts), again.encode(texts))

    @pytest.mark.parametrize(
        "content", [b"{not json", b'{"kind": "\xff"}', b"[" * 100_000], ids=["json", "utf8", "deep"]
    )
    def test_a_file_that_is_not_utf8_json_is_a_data_format_error_naming_it(self, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(DataFormatError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path} is not UTF-8 JSON: ")

    def test_payload_that_is_not_an_object_is_a_data_format_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1]", encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_model(path)

    @pytest.mark.parametrize(
        "field, damage",
        [
            ("config", None),
            ("weights", None),
            ("shape", None),
            ("labels", None),
            ("weights", "size"),
            ("shape", [-1]),
            ("shape", 7),
            ("weights", 7),
            ("labels", 7),
            ("config", [1]),
            ("config", {"bukets": 1024}),
            ("config", {"buckets": "x"}),
            ("config", {"vocabulary": ["no mask token"]}),
            ("seed", "x"),
            ("seed", 2.5),
            ("seed", True),
            ("schedule", [1]),
            ("schedule", 5),
            ("schedule", {"seed": 1, "n": 8}),
            ("schedule", {"seed": 1, "n": "8", "step": 3}),
            ("schedule", {"seed": 1, "n": 8, "step": 3.0}),
        ],
    )
    def test_malformed_classifier_payload_is_a_data_format_error(self, field, damage):
        """A missing or malformed field, a weights blob whose size does not
        match the shape, or a refused config ends in DataFormatError naming
        the field, never in a KeyError or TypeError."""
        payload = model_to_payload(ToyBackend().create_classifier(["Neutral", "Duplicate"]))
        if damage is None:
            del payload[field]
        elif damage == "size":
            payload["shape"] = [payload["shape"][0], payload["shape"][1] - 1]
        else:
            payload[field] = damage
        with pytest.raises(DataFormatError, match=field):
            model_from_payload(payload)

    def test_a_huge_shape_is_echoed_cut(self):
        """A shape of 100,000 entries is refused in a short message naming
        the field."""
        payload = model_to_payload(ToyBackend().create_classifier(["Neutral", "Duplicate"]))
        payload["shape"] = [1] * 100_000
        with pytest.raises(DataFormatError, match="'weights' is not an array of shape") as err:
            model_from_payload(payload)
        assert len(str(err.value)) < 300

    @pytest.mark.parametrize("rows", [[1], {"x": "AAAA"}, {"0": 7}])
    def test_malformed_encoder_rows_are_a_data_format_error(self, backend, rows):
        encoder = backend.create_encoder()
        encoder.encode(["some text"])
        payload = model_to_payload(encoder)
        payload["rows"] = rows
        with pytest.raises(DataFormatError, match="rows"):
            model_from_payload(payload)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_weights_are_a_data_format_error(self, value):
        """No training writes a NaN or an infinity, so a payload that holds
        one is refused naming the field: an encoder row of inf would encode
        every text that reads it as inf."""
        backend = ToyBackend(default_backend_config(buckets=64, embedding_dim=4))
        for model in (backend.create_scorer(), backend.create_classifier(["A", "B"])):
            W = model.W.copy()
            W[1, 3] = value
            model.W = W
            with pytest.raises(DataFormatError, match="weights"):
                model_from_payload(model_to_payload(model))
        encoder = backend.create_encoder()
        encoder.encode(["alpha beta gamma"])
        encoder._rows[0, 2] = value
        with pytest.raises(DataFormatError, match="rows"):
            model_from_payload(model_to_payload(encoder))


class TestBatchContract:
    """A batch row is bit-equal to scoring its item alone, in any batch."""

    TEXTS = [
        "service healthy fast stable run3",
        "crash broken slow failure run4",
        "",
        "service healthy fast stable run3",
        "an unseen probe sentence",
        "x",
    ]

    @staticmethod
    def batches(items):
        """The items reversed, rotated, doubled and cut into a subset."""
        return [items[::-1], items[2:] + items[:2], items + items, items[1::2]]

    def assert_rows_match_singles(self, run, items):
        alone = {i: run([item]) for i, item in enumerate(items)}
        for batch in self.batches(list(range(len(items)))):
            out = run([items[i] for i in batch])
            assert out.shape[0] == len(batch)
            for row, i in zip(out, batch):
                assert row.tobytes() == alone[i][0].tobytes()

    def test_scorer_rows(self, backend):
        scorer = backend.create_scorer(seed=3)
        scorer.train(yes_no_rendering(12), steps=40, batch=4, lr=0.1, seed=5)
        clozes = [cloze(text) for text in self.TEXTS]
        self.assert_rows_match_singles(
            lambda batch: backend.score_scorers([scorer], batch, ["No", "Yes"])[0], clozes
        )

    def test_classifier_rows(self, backend):
        clf = backend.create_classifier(["A", "B", "C"])
        rows = [(f"text {i} kind {i % 3}", np.eye(3)[i % 3]) for i in range(12)]
        clf.train(rows, steps=30, batch=4, lr=0.1, seed=1)
        self.assert_rows_match_singles(clf.predict, self.TEXTS)

    def test_encoder_rows(self, backend):
        enc = backend.create_encoder(seed=6)
        enc.fit([(self.TEXTS[0], self.TEXTS[1], 0.0)] * 3, epochs=2, batch=2, lr=0.3, seed=4)
        self.assert_rows_match_singles(enc.encode, self.TEXTS)

    def test_empty_batches_have_zero_rows(self, backend):
        assert backend.score_scorers([backend.create_scorer()], [], ["Yes", "No"]).shape == (1, 0, 2)
        assert backend.create_classifier(["A", "B"]).predict([]).shape == (0, 2)
        enc = backend.create_encoder()
        assert enc.encode([]).shape == (0, enc.dim)


class TestMixedFeaturizers:
    """The backend verbs take scorers of several featurizer configs at once,
    such as a default scorer and one loaded from a payload: each scorer is
    featurized by its own config, as if handled alone."""

    @staticmethod
    def scorers():
        small = ToyBackend(backend_config_with({"buckets": 1024})).create_scorer(seed=4)
        return [ToyBackend().create_scorer(seed=1), model_from_payload(model_to_payload(small))]

    def test_equal_each_scorer_handled_alone(self, backend):
        together, alone = self.scorers(), self.scorers()
        assert [s.config.buckets for s in together] == [32768, 1024]
        data = yes_no_rendering(12)
        backend.train_scorers([(s, data, 7, ["Yes", "No"]) for s in together], 20, 4, 0.1)
        for scorer in alone:
            backend.train_scorers([(scorer, data, 7, ["Yes", "No"])], 20, 4, 0.1)
        assert [model_to_payload(s) for s in together] == [model_to_payload(s) for s in alone]
        probes = [cloze(text) for text in TestBatchContract.TEXTS]
        stacked = backend.score_scorers(together, probes, ["No", "Yes"])
        each = [backend.score_scorers([s], probes, ["No", "Yes"])[0] for s in alone]
        assert stacked.tobytes() == np.array(each).tobytes()
        assert not np.array_equal(stacked[0], stacked[1])
