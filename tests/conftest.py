"""Shared fixtures: a toy backend and small synthetic datasets; load_dense
gives a toy model dense weights, and saved_sha256 pins a dataset's saved bytes."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from pairshot.backend.toy import ToyBackend
from pairshot.data import sample_training_set, save_dataset
from pairshot.synthetic import synthetic_pool, synthetic_unlabeled

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def backend():
    return ToyBackend()


@pytest.fixture(scope="session")
def dup_pool():
    """Labeled pool for the question-duplicate task, 120 pairs."""
    return synthetic_pool("so_duplicate", 120, seed=3)


@pytest.fixture(scope="session")
def dup_test():
    """Disjoint test set for the question-duplicate task, 60 pairs."""
    return synthetic_pool("so_duplicate", 60, seed=4, kind="test", serial_prefix="t")


@pytest.fixture(scope="session")
def dup_unlabeled():
    return synthetic_unlabeled("so_duplicate", 80, seed=5)


@pytest.fixture
def dup_train(dup_pool):
    """A 20-example few-shot sample from the pool."""
    return sample_training_set(dup_pool, 20, seed=1000)


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


def load_dense(model, W):
    """Give a toy scorer or classifier the dense weights W as a trained
    model stores them: every row and every column of W that holds a
    nonzero or a -0.0."""
    W = np.asarray(W, dtype=np.float64)
    assert W.shape == model._shape
    held = (W != 0) | np.signbit(W)
    model._rows, model._ids = np.flatnonzero(held.any(axis=1)), np.flatnonzero(held.any(axis=0))
    model._block = W[np.ix_(model._rows, model._ids)]


def saved_sha256(datasets, directory: Path) -> str:
    """sha256 of the JSONL bytes save_dataset writes for each of datasets, in order."""
    digest = hashlib.sha256()
    for index, dataset in enumerate(datasets):
        path = directory / f"pinned-{index}.jsonl"
        save_dataset(dataset, path)
        digest.update(path.read_bytes())
    return digest.hexdigest()
