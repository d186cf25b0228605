"""Each method's answer to a labeled sample that lacks a class.

At small n a uniform sample of an imbalanced pool often holds no
example of a class.  The sample here is 8 so_duplicate pairs, all
Duplicate; the test set is balanced.  These tests pin today's answers.
"""

import warnings

import pytest

from pairshot.backend.toy import ToyBackend
from pairshot.data import Dataset
from pairshot.errors import InfeasibleTripletsError
from pairshot.finetune import FinetuneConfig, finetune_predict, run_finetune
from pairshot.pet import PetConfig, classifier_predict_label, run_pet
from pairshot.setfit import SetFitConfig, run_setfit


@pytest.fixture(scope="module")
def duplicates_only(dup_pool):
    examples = [ex for ex in dup_pool if ex.label == "Duplicate"][:8]
    return Dataset(examples, dup_pool.label_set, "train")


def test_finetune_trains_on_what_it_has_and_predicts_the_one_class(duplicates_only, dup_test):
    backend = ToyBackend()
    classifier, report = run_finetune(FinetuneConfig(steps=30, batch=4), duplicates_only, dup_test,
                                      backend, 1000)
    preds, _ = finetune_predict(classifier, [ex.pair for ex in dup_test], backend.separator_token)
    assert set(preds) == {"Duplicate"}
    assert report.accuracy == 0.5


def test_pet_weighs_every_member_zero_and_distills_the_one_class(
    duplicates_only, dup_test, dup_unlabeled
):
    """An untrained scorer predicts the first label, Neutral, everywhere, so
    each member's untrained accuracy on an all-Duplicate sample is 0."""
    backend = ToyBackend()
    config = PetConfig.for_task("so_duplicate", mlm_steps=5, distill_steps=10, batch=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_pet(config, duplicates_only, dup_unlabeled, dup_test, backend, 1000)
    assert [m["weight"] for m in result.member_weights] == [0.0] * 9
    assert "all ensemble weights are zero" in " ".join(str(w.message) for w in caught)
    pairs = [ex.pair for ex in dup_test]
    assert set(classifier_predict_label(result.classifier, pairs, backend.separator_token)) == {
        "Duplicate"
    }
    assert result.report.accuracy == 0.5


def test_setfit_refuses_naming_the_absent_class(duplicates_only, dup_test):
    with pytest.raises(InfeasibleTripletsError, match="Neutral"):
        run_setfit(SetFitConfig(), duplicates_only, dup_test, ToyBackend(), 1000)
