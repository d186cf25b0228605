"""Datasets, sampling, validation, and the leakage-free split."""

import json

import pytest

from pairshot.data import (
    Dataset,
    LabeledExample,
    LabelSet,
    SentencePair,
    SoftLabeledExample,
    join_pair,
    load_dataset,
    normalize_sentence,
    sample_training_set,
    save_dataset,
    shared_sentences,
    split_no_leakage,
    validate_dataset,
)
from pairshot.errors import (
    DataFormatError,
    DatasetSizeError,
    InfeasibleSplitError,
)
from pairshot.synthetic import synthetic_pool, synthetic_unlabeled

LABELS = LabelSet(("Neutral", "Duplicate"), task_id="toy_task")


def make_dataset(pairs_with_labels, kind="train"):
    examples = tuple(
        LabeledExample(SentencePair(u, v), label) for (u, v), label in pairs_with_labels
    )
    return Dataset(examples, LABELS, kind)


def alternating(pairs):
    labels = ["Neutral", "Duplicate"]
    return [(pair, labels[i % 2]) for i, pair in enumerate(pairs)]


class TestNormalization:
    def test_collapses_internal_whitespace(self):
        assert normalize_sentence("a  b") == "a b"
        assert normalize_sentence("  a\tb \n") == "a b"

    def test_identity_on_clean_text(self):
        assert normalize_sentence("plain text") == "plain text"

    def test_join_pair_inserts_separator(self):
        pair = SentencePair("left side", "right side")
        assert join_pair(pair, "||") == "left side || right side"


class TestSharedSentences:
    def test_normalized_sentences_on_either_side(self):
        a = make_dataset([(("open  file", "close file"), "Neutral")])
        b = make_dataset([(("save file", " open file "), "Duplicate"), (("x", "y"), "Neutral")])
        assert shared_sentences(a, b) == {"open file"}
        assert shared_sentences(b, a) == {"open file"}

    def test_disjoint_sets_share_nothing(self):
        a = make_dataset([(("a", "b"), "Neutral")])
        b = make_dataset([(("c", "d"), "Neutral")])
        assert shared_sentences(a, b) == set()


class TestValidation:
    def test_pair_requires_strings(self):
        with pytest.raises(TypeError):
            SentencePair(1, "x")

    def test_label_set_requires_two_distinct(self):
        with pytest.raises(ValueError):
            LabelSet(("One",), task_id="t")
        with pytest.raises(ValueError):
            LabelSet(("A", "A"), task_id="t")

    def test_train_kind_requires_labels(self):
        with pytest.raises(ValueError):
            make_dataset([(("a", "b"), None)], kind="train")

    def test_unlabeled_kind_forbids_labels(self):
        with pytest.raises(ValueError):
            make_dataset([(("a", "b"), "Neutral")], kind="unlabeled")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            make_dataset([(("a", "b"), "Bogus")])

    def test_soft_label_distribution_must_be_normalized(self):
        pair = SentencePair("a", "b")
        SoftLabeledExample(pair, (0.25, 0.75))
        with pytest.raises(ValueError):
            SoftLabeledExample(pair, (0.5, 0.6))
        with pytest.raises(ValueError):
            SoftLabeledExample(pair, (-0.1, 1.1))


class TestSampling:
    def test_sample_is_deterministic_per_seed(self, dup_pool):
        a = sample_training_set(dup_pool, 10, seed=5)
        b = sample_training_set(dup_pool, 10, seed=5)
        assert [e.pair for e in a] == [e.pair for e in b]

    def test_different_seeds_differ(self, dup_pool):
        a = sample_training_set(dup_pool, 10, seed=5)
        b = sample_training_set(dup_pool, 10, seed=6)
        assert [e.pair for e in a] != [e.pair for e in b]

    def test_sample_too_large_raises(self, dup_pool):
        with pytest.raises(DatasetSizeError):
            sample_training_set(dup_pool, len(dup_pool) + 1, seed=0)

    def test_sample_is_subset_without_replacement(self, dup_pool):
        picked = sample_training_set(dup_pool, 25, seed=9)
        pool_pairs = {e.pair for e in dup_pool}
        picked_pairs = [e.pair for e in picked]
        assert len(set(picked_pairs)) == 25
        assert set(picked_pairs) <= pool_pairs


class TestSplitSmallFixtures:
    """Hand-checkable universes where the correct split is forced."""

    def test_connected_component_moves_together(self):
        # {(a,b), (a,c)} are connected through sentence a; (d,e) is free.
        data = make_dataset(alternating([("a", "b"), ("a", "c"), ("d", "e")]))
        pool, test = split_no_leakage(data, train_pool_size=2, test_size=1, seed=0)
        assert {(e.pair.u, e.pair.v) for e in test} == {("d", "e")}
        assert {(e.pair.u, e.pair.v) for e in pool} == {("a", "b"), ("a", "c")}

    def test_infeasible_split_reports_exact_maximum(self):
        # The only component split is {a-pairs} vs {(d,e)}: test can hold
        # at most 1 example once the pool needs 2.
        data = make_dataset(alternating([("a", "b"), ("a", "c"), ("d", "e")]))
        with pytest.raises(InfeasibleSplitError) as err:
            split_no_leakage(data, train_pool_size=2, test_size=3, seed=0)
        assert err.value.max_test_size == 1

    def test_whitespace_variants_count_as_the_same_sentence(self):
        # "a  b" and "a b" normalize identically, linking the two pairs.
        data = make_dataset(
            alternating([("a  b", "x"), ("a b", "y"), ("p", "q"), ("r", "s")])
        )
        pool, test = split_no_leakage(data, train_pool_size=2, test_size=2, seed=0)
        test_pairs = {(e.pair.u, e.pair.v) for e in test}
        # The normalized-identical pair stays on one side.
        assert test_pairs in ({("p", "q"), ("r", "s")},) or test_pairs == {
            ("a  b", "x"),
            ("a b", "y"),
        }

    def test_split_sizes_are_exact(self):
        pairs = [(f"u{i}", f"v{i}") for i in range(30)]
        data = make_dataset(alternating(pairs))
        pool, test = split_no_leakage(data, train_pool_size=12, test_size=10, seed=3)
        assert len(pool) == 12
        assert len(test) == 10
        assert pool.kind == "train" and test.kind == "test"

    def test_test_class_ratio_largest_remainder(self):
        pairs = [(f"u{i}", f"v{i}") for i in range(40)]
        data = make_dataset(alternating(pairs))
        pool, test = split_no_leakage(
            data, train_pool_size=10, test_size=9, seed=1,
            test_class_ratio={"Neutral": 2, "Duplicate": 1},
        )
        counts = {}
        for example in test:
            counts[example.label] = counts.get(example.label, 0) + 1
        assert counts == {"Neutral": 6, "Duplicate": 3}

    @pytest.mark.parametrize(
        "ratio, named",
        [
            ({"Neutral": -1, "Duplicate": 2}, "Neutral"),
            ({"Neutral": 1, "Duplicate": 1, "Bogus": 5}, "Bogus"),
            ({"Neutral": 1, "Duplicate": float("nan")}, "Duplicate"),
        ],
    )
    def test_bad_class_ratio_weight_is_named(self, ratio, named):
        pairs = [(f"u{i}", f"v{i}") for i in range(40)]
        data = make_dataset(alternating(pairs))
        with pytest.raises(ValueError, match=named):
            split_no_leakage(data, train_pool_size=10, test_size=9, seed=1, test_class_ratio=ratio)


class TestSplitLeakageProperty:
    def test_no_shared_sentences_across_100_seeds(self):
        """Randomized universes with heavy sentence sharing: after the
        split, no normalized sentence appears on both sides."""
        from pairshot.rng import Rng

        for seed in range(100):
            rng = Rng(seed).derive("fixture")
            n_sentences = 20 + rng.randbelow(15)
            sentences = [f"s{i}" for i in range(n_sentences)]
            pairs = set()
            while len(pairs) < 40:
                u = sentences[rng.randbelow(n_sentences)]
                v = sentences[rng.randbelow(n_sentences)]
                if u != v:
                    pairs.add((u, v))
            data = make_dataset(alternating(sorted(pairs)))
            try:
                pool, test = split_no_leakage(
                    data, train_pool_size=10, test_size=5, seed=seed
                )
            except InfeasibleSplitError:
                continue  # some universes are one giant component
            pool_sentences = {
                normalize_sentence(s) for e in pool for s in (e.pair.u, e.pair.v)
            }
            test_sentences = {
                normalize_sentence(s) for e in test for s in (e.pair.u, e.pair.v)
            }
            assert not pool_sentences & test_sentences, f"leak at seed {seed}"

    def test_split_is_deterministic(self):
        pairs = [(f"u{i}", f"v{i % 7}") for i in range(25)]
        data = make_dataset(alternating(pairs))
        first = split_no_leakage(data, train_pool_size=8, test_size=4, seed=11)
        second = split_no_leakage(data, train_pool_size=8, test_size=4, seed=11)
        assert [e.pair for e in first[0]] == [e.pair for e in second[0]]
        assert [e.pair for e in first[1]] == [e.pair for e in second[1]]


class TestValidateDataset:
    def test_counts_and_duplicates(self):
        data = make_dataset(
            [
                (("a", "b"), "Neutral"),
                (("a ", "b"), "Neutral"),  # duplicate after normalization
                (("c", "d"), "Duplicate"),
            ]
        )
        rep = validate_dataset(data)
        assert rep.label_counts == {"Neutral": 2, "Duplicate": 1}
        assert rep.duplicate_pairs == 1
        assert rep.empty_sentences == 0

    def test_zero_count_labels_are_listed(self):
        data = make_dataset([(("a", "b"), "Neutral")])
        rep = validate_dataset(data)
        assert rep.label_counts["Duplicate"] == 0

    def test_word_stats(self):
        data = make_dataset([(("one two", "three"), "Neutral")])
        rep = validate_dataset(data)
        assert rep.word_stats.mean == 3.0


class TestSerialization:
    def test_round_trip(self, tmp_path, dup_pool):
        path = tmp_path / "pool.jsonl"
        save_dataset(dup_pool, path, source="unit-test")
        again = load_dataset(path)
        assert len(again) == len(dup_pool)
        assert again.label_set.labels == dup_pool.label_set.labels
        assert [e.pair for e in again] == [e.pair for e in dup_pool]
        assert [e.label for e in again] == [e.label for e in dup_pool]

    def test_manifest_sidecar_contents(self, tmp_path, dup_pool):
        path = tmp_path / "pool.jsonl"
        save_dataset(dup_pool, path, source="unit-test")
        manifest = json.loads((tmp_path / "pool.manifest.json").read_text())
        assert manifest["count"] == len(dup_pool)
        assert manifest["task_id"] == "so_duplicate"
        assert manifest["source"] == "unit-test"

    def test_unlabeled_round_trip(self, tmp_path, dup_unlabeled):
        path = tmp_path / "unl.jsonl"
        save_dataset(dup_unlabeled, path)
        again = load_dataset(path)
        assert again.kind == "unlabeled"
        assert all(e.label is None for e in again)

    def test_corrupt_line_is_reported_with_line_number(self, tmp_path, dup_pool):
        path = tmp_path / "pool.jsonl"
        save_dataset(dup_pool, path)
        lines = path.read_text().splitlines()
        lines[4] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            load_dataset(path)
        assert "5" in str(err.value)

    @pytest.mark.parametrize(
        "line", [b'{"u": "a\xff", "v": "b"}', b"[" * 100_000], ids=["utf8", "deep"]
    )
    def test_a_line_that_is_not_utf8_json_is_located(self, tmp_path, dup_pool, line):
        path = tmp_path / "pool.jsonl"
        save_dataset(dup_pool, path)
        lines = path.read_bytes().splitlines()
        lines[4] = line
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DataFormatError) as err:
            load_dataset(path)
        assert str(err.value).startswith(f"{path}:5: invalid JSON: ")

    @pytest.mark.parametrize("line", ["[1, 2]", "7", '{"u": "a", "v": null}'])
    def test_line_that_is_not_a_pair_object_is_located(self, tmp_path, dup_pool, line):
        path = tmp_path / "pool.jsonl"
        save_dataset(dup_pool, path)
        lines = path.read_text().splitlines()
        lines[2] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}:3: u and v must be strings"

    @pytest.mark.parametrize("labels", [[["x"], ["y"]], ["x", 2], ["x"], ["x", "x"]])
    def test_manifest_labels_that_make_no_label_set_are_refused_by_file(
        self, tmp_path, dup_pool, labels
    ):
        """Labels that are not distinct strings, at least two of them, name
        the manifest instead of failing deeper with a TypeError or ValueError."""
        path = tmp_path / "pool.jsonl"
        manifest = save_dataset(dup_pool, path)
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "labels": labels}))
        with pytest.raises(DataFormatError) as err:
            load_dataset(path)
        assert str(manifest) in str(err.value)

    @pytest.mark.parametrize(
        "content", [b"{not json", b'{"format": "\xff"}', b"[" * 100_000], ids=["json", "utf8", "deep"]
    )
    def test_a_manifest_that_is_not_utf8_json_is_refused_by_file(self, tmp_path, dup_pool, content):
        path = tmp_path / "pool.jsonl"
        manifest = save_dataset(dup_pool, path)
        manifest.write_bytes(content)
        with pytest.raises(DataFormatError) as err:
            load_dataset(path)
        assert str(manifest) in str(err.value)

    def test_synthetic_pools_have_disjoint_sentences(self):
        a = synthetic_pool("so_duplicate", 50, seed=1, serial_prefix="a")
        b = synthetic_pool("so_duplicate", 50, seed=1, kind="test", serial_prefix="b")
        a_sentences = {s for e in a for s in (e.pair.u, e.pair.v)}
        b_sentences = {s for e in b for s in (e.pair.u, e.pair.v)}
        assert not a_sentences & b_sentences

    @pytest.mark.parametrize("make", [synthetic_pool, synthetic_unlabeled])
    def test_a_negative_synthetic_count_is_refused(self, make):
        with pytest.raises(ValueError, match="-5"):
            make("so_duplicate", -5, seed=1)
        assert len(make("so_duplicate", 0, seed=1)) == 0
