"""Plain fine-tuning, and its exact coincidence with empty-pool distillation."""

import numpy as np
import pytest

from pairshot.backend.toy import default_backend_config
from pairshot.errors import NoDataError
from pairshot.finetune import FinetuneConfig, finetune, finetune_predict, run_finetune
from pairshot.harness import ExperimentConfig
from pairshot.pet import PetConfig, distill, soft_label, train_ensemble
from pairshot.setfit import SetFitConfig


@pytest.mark.parametrize(
    "make, field, value",
    [
        (FinetuneConfig, "steps", 2.5),
        (FinetuneConfig, "steps", True),
        (FinetuneConfig, "batch", 1.5),
        (SetFitConfig, "R", 2.0),
        (SetFitConfig, "epochs", False),
        (SetFitConfig, "batch", "8"),
        (lambda **kw: PetConfig.for_task("so_duplicate", **kw), "mlm_steps", 2.5),
        (lambda **kw: PetConfig.for_task("so_duplicate", **kw), "mlm_steps", True),
        (lambda **kw: PetConfig.for_task("so_duplicate", **kw), "distill_steps", 1e3),
        (lambda **kw: PetConfig.for_task("so_duplicate", **kw), "batch", 8.0),
        (lambda **kw: PetConfig.for_task("so_duplicate", **kw), "max_len", None),
        (lambda **kw: PetConfig.for_task("so_duplicate", **kw), "seeds", (1, 2.5)),
        (lambda **kw: PetConfig.for_task("so_duplicate", **kw), "seeds", (True,)),
    ],
)
def test_engine_counts_that_are_not_integers_are_a_type_error_naming_the_field(make, field, value):
    """Step counts, batch sizes, lengths and seeds are ints, never floats or
    bools that a comparison or a range() would take or truncate later."""
    with pytest.raises(TypeError, match=field):
        make(**{field: value})


def _pet(**fields):
    return PetConfig.for_task("so_duplicate", **fields)


def _experiment(**fields):
    if "sizes" in fields:
        fields["sizes"] = (fields["sizes"],)
    return ExperimentConfig("so_duplicate", "finetune", **fields)


@pytest.mark.parametrize(
    "make, field, least",
    [
        (FinetuneConfig, "steps", 0), (FinetuneConfig, "batch", 1),
        (SetFitConfig, "R", 0), (SetFitConfig, "epochs", 0), (SetFitConfig, "batch", 1),
        (_pet, "mlm_steps", 0), (_pet, "distill_steps", 0), (_pet, "batch", 1),
        (_pet, "max_len", 1),
        (_experiment, "sizes", 1), (_experiment, "replicates", 1),
        (_experiment, "test_size", 1), (_experiment, "unlabeled_size", 0),
        (default_backend_config, "embedding_dim", 1), (default_backend_config, "word_order", 1),
        (default_backend_config, "buckets", 1),
    ],
)
def test_each_bounded_int_field_takes_its_least_value_and_refuses_one_less(make, field, least):
    """Every config bounds its int fields by one rule: the least value is
    taken, one less is a ValueError that starts with the field's name, and
    a bool is no int.  The toy backend config refuses a field of the wrong
    type as ValueError, since its fields arrive as command-line options."""
    make(**{field: least})
    with pytest.raises(ValueError, match=f"^{field} must be at least {least}$"):
        make(**{field: least - 1})
    wrong_type = ValueError if make is default_backend_config else TypeError
    with pytest.raises(wrong_type, match=field):
        make(**{field: True})


@pytest.mark.parametrize(
    "make",
    [FinetuneConfig, SetFitConfig, lambda **kw: PetConfig.for_task("so_duplicate", **kw)],
    ids=["finetune", "setfit", "pet"],
)
@pytest.mark.parametrize(
    "lr",
    [-0.1, 0.0, -0.0, float("nan"), float("inf"), float("-inf"), -1,
     pytest.param(10**400, id="int-past-float"), pytest.param(10**5000, id="int-past-digit-limit")],
)
def test_a_learning_rate_that_is_not_positive_and_finite_is_a_value_error_naming_it(make, lr):
    """A step against the gradient, no step at all, or a non-finite one
    would train to nonsense without an error, so configs refuse them; an
    int past float range is no finite rate either.  An int past the
    interpreter's digit limit has no repr, so the refusal gives its size."""
    try:
        shown = repr(lr)
    except ValueError:
        shown = f"{lr.bit_length()} bits"
    with pytest.raises(ValueError, match=f"lr .*{shown}"):
        make(lr=lr)


@pytest.mark.parametrize("lr", [None, 1e-5, 0.1, 3, 1e308])
def test_a_positive_finite_learning_rate_or_none_is_accepted(lr):
    assert FinetuneConfig(lr=lr).lr == lr


class TestFinetune:
    def test_untrained_steps_zero_predicts_first_label(self, dup_train, dup_test, backend):
        """Zero steps leave the zero-initialized classifier in place; all
        scores tie and the first label wins everywhere."""
        clf = finetune(FinetuneConfig(steps=0), dup_train, backend, seed=1)
        labels, scores = finetune_predict(clf, [dup_test[0].pair], backend.separator_token)
        assert labels == [dup_train.label_set.labels[0]]
        np.testing.assert_array_equal(scores, np.zeros((1, len(dup_train.label_set))))

    def test_learns_separable_task(self, dup_train, dup_test, backend):
        _, report = run_finetune(
            FinetuneConfig(steps=200, batch=8), dup_train, dup_test, backend, seed=1000
        )
        assert report.metric("accuracy") > 0.85

    def test_empty_train_raises(self, dup_test, backend):
        from pairshot.data import Dataset

        empty = Dataset((), dup_test.label_set, "train")
        with pytest.raises(NoDataError):
            finetune(FinetuneConfig(steps=5), empty, backend)

    def test_two_runs_are_byte_identical(self, dup_train, dup_test, backend):
        _, first = run_finetune(
            FinetuneConfig(steps=60, batch=8), dup_train, dup_test, backend, seed=1000
        )
        _, second = run_finetune(
            FinetuneConfig(steps=60, batch=8), dup_train, dup_test, backend, seed=1000
        )
        assert first.to_json() == second.to_json()

    def test_steps_can_be_split_across_calls(self, dup_train, dup_test, backend):
        straight = finetune(FinetuneConfig(steps=80, batch=8), dup_train, backend, seed=4)
        resumed = finetune(FinetuneConfig(steps=50, batch=8), dup_train, backend, seed=4)
        resumed = finetune(
            FinetuneConfig(steps=30, batch=8), dup_train, backend, seed=4,
            classifier=resumed,
        )
        np.testing.assert_array_equal(straight.W, resumed.W)


class TestDistillationEquivalence:
    def test_empty_pool_distillation_equals_finetuning(
        self, dup_train, dup_test, backend
    ):
        """With no unlabeled data, distilling the prompt ensemble is the
        same optimization problem as fine-tuning: identical rows, steps,
        batch, learning rate, and seed give identical weights and hence
        identical predictions."""
        steps, batch, seed = 120, 8, 77

        ft = finetune(FinetuneConfig(steps=steps, batch=batch), dup_train, backend, seed=seed)

        pet_config = PetConfig.for_task(
            "so_duplicate", mlm_steps=10, distill_steps=steps, batch=batch
        )
        clf = backend.create_classifier(dup_train.label_set.labels, seed)
        distilled = distill(dup_train, [], pet_config, clf, backend, seed=seed)

        np.testing.assert_array_equal(ft.W, distilled.W)
        pairs = [ex.pair for ex in dup_test]
        ft_labels, ft_scores = finetune_predict(ft, pairs, backend.separator_token)
        d_labels, d_scores = finetune_predict(distilled, pairs, backend.separator_token)
        assert ft_labels == d_labels
        np.testing.assert_array_equal(ft_scores, d_scores)

    def test_nonempty_pool_breaks_the_identity(
        self, dup_train, dup_unlabeled, dup_test, backend
    ):
        """Sanity check that the equivalence above is not vacuous: adding
        unlabeled rows changes the learned weights."""
        steps, batch, seed = 60, 8, 77
        ft = finetune(FinetuneConfig(steps=steps, batch=batch), dup_train, backend, seed=seed)
        pet_config = PetConfig.for_task(
            "so_duplicate", mlm_steps=10, distill_steps=steps, batch=batch
        )
        members = train_ensemble(pet_config, dup_train, backend, seed=seed)
        softened = soft_label(members, dup_unlabeled, dup_train.label_set, pet_config, backend)
        clf = backend.create_classifier(dup_train.label_set.labels, seed)
        distilled = distill(dup_train, softened, pet_config, clf, backend, seed=seed)
        assert not np.array_equal(ft.W, distilled.W)
