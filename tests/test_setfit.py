"""Contrastive pair generation and the encoder-plus-head pipeline."""

import json

import numpy as np
import pytest

from pairshot.backend.state import model_to_payload
from pairshot.data import Dataset, LabeledExample, LabelSet, SentencePair
from pairshot.errors import DataFormatError, InfeasibleTripletsError
from pairshot.setfit import (
    SetFitConfig,
    generate_contrastive,
    load_setfit,
    run_setfit,
    save_setfit,
    setfit_fit,
    setfit_predict,
)


def class_dataset(n_labels: int, per_class: int, task="grid_task") -> Dataset:
    """per_class examples for each of n_labels classes, all sentences unique."""
    labels = tuple(f"L{i}" for i in range(n_labels))
    label_set = LabelSet(labels, task_id=task)
    examples = []
    for c, label in enumerate(labels):
        for j in range(per_class):
            examples.append(
                LabeledExample(
                    SentencePair(f"class {c} first {j}", f"class {c} second {j}"), label
                )
            )
    return Dataset(tuple(examples), label_set, "train")


class TestTripletCounts:
    def test_count_identity_over_grid(self):
        """|triplets| = 2 * R * |labels| for R in 1..8, |labels| in 2..5."""
        for n_labels in range(2, 6):
            data = class_dataset(n_labels, per_class=6)
            for R in range(1, 9):
                triplets = generate_contrastive(data, R=R, seed=13)
                assert len(triplets) == 2 * R * n_labels

    def test_provenance_matches_similarity(self):
        """similarity 1 exactly when both sides come from the same class."""
        data = class_dataset(3, per_class=5)
        for triplet in generate_contrastive(data, R=7, seed=3):
            if triplet.similarity == 1.0:
                assert triplet.label_a == triplet.label_b
            else:
                assert triplet.similarity == 0.0
                assert triplet.label_a != triplet.label_b

    def test_per_class_split_is_r_positives_r_negatives(self):
        data = class_dataset(2, per_class=8)
        triplets = generate_contrastive(data, R=5, seed=1)
        for label in ("L0", "L1"):
            pos = [t for t in triplets if t.label_a == label and t.similarity == 1.0]
            neg = [t for t in triplets if t.label_a == label and t.similarity == 0.0]
            assert len(pos) == 5
            assert len(neg) == 5

    def test_generation_is_deterministic(self):
        data = class_dataset(3, per_class=6)
        a = generate_contrastive(data, R=4, seed=9)
        b = generate_contrastive(data, R=4, seed=9)
        assert [(t.text_a, t.text_b, t.similarity) for t in a] == [
            (t.text_a, t.text_b, t.similarity) for t in b
        ]

    def test_singleton_class_is_infeasible_and_named(self):
        labels = LabelSet(("Common", "Rare"), task_id="t")
        examples = (
            LabeledExample(SentencePair("a1", "b1"), "Common"),
            LabeledExample(SentencePair("a2", "b2"), "Common"),
            LabeledExample(SentencePair("a3", "b3"), "Common"),
            LabeledExample(SentencePair("a4", "b4"), "Rare"),
        )
        data = Dataset(examples, labels, "train")
        with pytest.raises(InfeasibleTripletsError) as err:
            generate_contrastive(data, R=2, seed=0)
        assert err.value.label == "Rare"
        assert "Rare" in str(err.value)

    def test_small_class_falls_back_to_replacement_with_warning(self):
        # 2 examples per class -> only 1 distinct positive pair; R=3
        # needs replacement.
        data = class_dataset(2, per_class=2)
        with pytest.warns(UserWarning):
            triplets = generate_contrastive(data, R=3, seed=0)
        assert len(triplets) == 2 * 3 * 2

    def test_r_zero_yields_nothing(self):
        data = class_dataset(2, per_class=3)
        assert generate_contrastive(data, R=0, seed=0) == []

    def test_texts_are_joined_with_separator(self):
        data = class_dataset(2, per_class=3)
        triplets = generate_contrastive(data, R=1, seed=0, separator="||")
        for t in triplets:
            assert " || " in t.text_a
            assert " || " in t.text_b


class TestSetFitPipeline:
    def test_pairs_are_joined_with_the_backend_separator(self, dup_train):
        from pairshot.backend.toy import ToyBackend, default_backend_config

        backend = ToyBackend(default_backend_config(("<sep>",), separator_token="<sep>"))
        model = setfit_fit(SetFitConfig(R=2, epochs=1, batch=8), dup_train, backend, seed=2)
        assert model.separator == "<sep>"

    def test_learns_separable_task(self, dup_pool, dup_test, backend):
        from pairshot.data import sample_training_set

        train = sample_training_set(dup_pool, 40, seed=1000)
        _, report = run_setfit(
            SetFitConfig(R=10, epochs=2, batch=8), train, dup_test, backend, seed=1000
        )
        assert report.metric("accuracy") > 0.8

    def test_two_runs_are_byte_identical(self, dup_train, dup_test, backend):
        _, first = run_setfit(
            SetFitConfig(R=4, epochs=1, batch=8), dup_train, dup_test, backend, seed=1000
        )
        _, second = run_setfit(
            SetFitConfig(R=4, epochs=1, batch=8), dup_train, dup_test, backend, seed=1000
        )
        assert first.to_json() == second.to_json()

    def test_predict_returns_probabilities(self, dup_train, dup_test, backend):
        model = setfit_fit(SetFitConfig(R=3, epochs=1, batch=8), dup_train, backend, seed=2)
        labels, probs = setfit_predict(model, [dup_test[0].pair])
        assert labels[0] in dup_train.label_set.labels
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)

    def test_save_load_round_trip(self, tmp_path, dup_train, dup_test, backend):
        model = setfit_fit(SetFitConfig(R=3, epochs=1, batch=8), dup_train, backend, seed=2)
        path = tmp_path / "setfit.json"
        save_setfit(model, path)
        again = load_setfit(path)
        assert again.labels == model.labels
        pairs = [ex.pair for ex in list(dup_test)[:10]]
        l1, p1 = setfit_predict(model, pairs)
        l2, p2 = setfit_predict(again, pairs)
        assert l1 == l2
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize(
        "damage",
        [
            "not an object", "encoder", "head", "labels", "separator", "encoder=[1]",
            "labels=7", 'labels=["Neutral", 1]', "separator=null",
        ],
    )
    def test_malformed_bundle_is_a_data_format_error(self, tmp_path, dup_train, backend, damage):
        """A bundle or encoder payload that is not an object, or a bundle that
        lacks a part or holds labels or a separator that are not strings, is
        refused as DataFormatError."""
        path = tmp_path / "setfit.json"
        if damage == "not an object":
            path.write_text("[1]", encoding="utf-8")
        else:
            model = setfit_fit(SetFitConfig(R=3, epochs=1, batch=8), dup_train, backend, seed=2)
            save_setfit(model, path)
            payload = json.loads(path.read_text(encoding="utf-8"))
            if "=" in damage:
                key, value = damage.split("=")
                payload[key] = json.loads(value)
            else:
                del payload[damage]
            path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataFormatError):
            load_setfit(path)

    def test_a_huge_model_id_list_in_a_bundle_is_refused_in_a_short_message(
        self, tmp_path, dup_train, backend
    ):
        """A model payload in the bundle whose id list has 100,000 entries is
        refused in a short message naming the field."""
        path = tmp_path / "setfit.json"
        model = setfit_fit(SetFitConfig(R=3, epochs=1, batch=8), dup_train, backend, seed=2)
        save_setfit(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["encoder"] = model_to_payload(backend.create_classifier(["Neutral", "Duplicate"]))
        payload["encoder"]["ids"] = [1] * 100_000
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataFormatError, match="'ids' must be ascending") as err:
            load_setfit(path)
        assert len(str(err.value)) < 300

    @pytest.mark.parametrize("kind", ["text-classifier", "masked-scorer"])
    def test_an_encoder_slot_holding_another_model_kind_is_refused_at_load(
        self, tmp_path, dup_train, backend, kind
    ):
        """A bundle whose encoder is a classifier or a scorer is refused when
        it is loaded, not at its first prediction."""
        path = tmp_path / "setfit.json"
        model = setfit_fit(SetFitConfig(R=3, epochs=1, batch=8), dup_train, backend, seed=2)
        save_setfit(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        other = (backend.create_classifier(["Neutral", "Duplicate"])
                 if kind == "text-classifier" else backend.create_scorer())
        payload["encoder"] = model_to_payload(other)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"encoder holds a {kind}"):
            load_setfit(path)

    @pytest.mark.parametrize(
        "content", [b"{not json", b'{"format": "\xff"}', b"[" * 100_000], ids=["json", "utf8", "deep"]
    )
    def test_a_bundle_that_is_not_utf8_json_is_a_data_format_error_naming_it(self, tmp_path, content):
        path = tmp_path / "setfit.json"
        path.write_bytes(content)
        with pytest.raises(DataFormatError) as err:
            load_setfit(path)
        assert str(err.value).startswith(f"{path} is not UTF-8 JSON: ")

    @pytest.mark.parametrize(
        "field, damage",
        [
            ("head", {}),
            ("n_classes", None),
            ("dim", None),
            ("l2", None),
            ("W", None),
            ("b", None),
            ("W", "size"),
            ("n_classes", "2"),
            ("dim", 2.5),
            ("l2", "x"),
        ],
    )
    def test_malformed_head_is_a_data_format_error(
        self, tmp_path, dup_train, backend, field, damage
    ):
        """A head that lacks a field, holds one of the wrong type, or whose
        weights do not match its shape is refused as DataFormatError naming
        the field."""
        path = tmp_path / "setfit.json"
        model = setfit_fit(SetFitConfig(R=3, epochs=1, batch=8), dup_train, backend, seed=2)
        save_setfit(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        head = payload["head"]
        if field == "head":
            payload["head"] = damage
        elif damage is None:
            del head[field]
        elif damage == "size":
            head["dim"] -= 1
        else:
            head[field] = damage
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataFormatError, match=field):
            load_setfit(path)

    @pytest.mark.parametrize("field, value", [("W", np.nan), ("b", np.inf), ("W", -np.inf)])
    def test_non_finite_head_is_a_data_format_error(
        self, tmp_path, dup_train, backend, field, value
    ):
        """A head weight or intercept that is NaN or infinite is refused
        naming the field."""
        path = tmp_path / "setfit.json"
        model = setfit_fit(SetFitConfig(R=3, epochs=1, batch=8), dup_train, backend, seed=2)
        getattr(model.head, field).flat[0] = value
        save_setfit(model, path)
        with pytest.raises(DataFormatError, match=f"'{field}'"):
            load_setfit(path)

    def test_epochs_zero_skips_encoder_tuning(self, dup_train, backend):
        """With epochs=0 the encoder stays at its deterministic init, but
        the head is still fitted on the raw embeddings."""
        model = setfit_fit(SetFitConfig(R=3, epochs=0, batch=8), dup_train, backend, seed=2)
        fresh = backend.create_encoder(seed=model.encoder.seed)
        probe = "any text to embed"
        np.testing.assert_array_equal(model.encoder.encode([probe]), fresh.encode([probe]))
