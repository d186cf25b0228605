"""Bundled synthetic sentence-pair data.

Every built-in task gets a deterministic generator whose classes are
linearly separable from surface vocabulary: each label owns a pool of
marker words, and both sentences of an example draw from the label's
pool.  Every sentence also carries a unique serial token, so no two
examples ever share a sentence and leakage-free splits are always
feasible.

This is smoke-test data for exercising pipelines end to end; it makes
no claim of linguistic realism.
"""

from __future__ import annotations

from .data import Dataset, LabeledExample, SentencePair
from .errors import UnknownTaskError
from .prompting import builtin_label_set
from .rng import Rng

_SUBJECTS = ("uploader", "parser", "scheduler", "renderer", "cache", "indexer", "notifier")
_OBJECTS = ("profile", "report", "backup", "invoice", "ticket", "snapshot", "queue")

# Marker pools per task and label; pools are disjoint so one marker word
# is enough to identify the class.
_MARKERS: dict[str, dict[str, tuple[str, ...]]] = {
    "so_duplicate": {
        "Neutral": ("whisk", "lantern", "gravel", "orchid", "plume", "ember"),
        "Duplicate": ("mirror", "clone", "replicate", "twin", "echo", "rehash"),
    },
    "bugzilla_duplicate": {
        "Neutral": ("moss", "quartz", "drift", "fable", "onyx", "ripple"),
        "Duplicate": ("mirror", "clone", "replicate", "twin", "echo", "rehash"),
    },
    "bugzilla_entailment": {
        "Not Entailment": ("walnut", "tundra", "satin", "pebble", "harbor", "violet"),
        "Entailment": ("implies", "requires", "prereq", "blocks", "anchors", "depends"),
    },
    "srs_conflict": {
        "Neutral": ("amber", "teal", "crimson", "sienna", "cobalt", "ivory"),
        "Duplicate": ("mirror", "clone", "replicate", "twin", "echo", "rehash"),
        "Conflict": ("forbids", "contradicts", "excludes", "negates", "clashes", "vetoes"),
    },
}


def _sentence(rng: Rng, markers: tuple[str, ...], serial: str) -> str:
    subject = rng.choice(_SUBJECTS)
    obj = rng.choice(_OBJECTS)
    m1 = rng.choice(markers)
    m2 = rng.choice(markers)
    return f"the {subject} {m1} the {obj} {m2} case {serial}"


def synthetic_pool(
    task_id: str,
    n_pairs: int,
    seed: int,
    kind: str = "train",
    serial_prefix: str = "s",
) -> Dataset:
    """A labeled pool of n_pairs examples with near-balanced classes.

    Labels cycle through the task's label order, so class counts differ
    by at most one.  Sentences are unique across the pool (and across
    pools with distinct serial_prefix values).
    """
    if n_pairs < 0:
        raise ValueError(f"number of pairs must be non-negative, got {n_pairs}")
    label_set = builtin_label_set(task_id)
    if task_id not in _MARKERS:
        raise UnknownTaskError(f"no synthetic generator for task {task_id!r}")
    pools = _MARKERS[task_id]
    rng = Rng(seed).derive("synthetic", task_id, serial_prefix)
    examples = []
    for i in range(n_pairs):
        label = label_set.labels[i % len(label_set)]
        u = _sentence(rng, pools[label], f"{serial_prefix}{i}a")
        v = _sentence(rng, pools[label], f"{serial_prefix}{i}b")
        examples.append(LabeledExample(SentencePair(u, v), label))
    return Dataset(tuple(examples), label_set, kind)


def synthetic_unlabeled(task_id: str, n_pairs: int, seed: int, serial_prefix: str = "u") -> Dataset:
    """An unlabeled pool drawn from the same generator distribution."""
    labeled = synthetic_pool(task_id, n_pairs, seed, "train", serial_prefix)
    stripped = tuple(LabeledExample(ex.pair, None) for ex in labeled.examples)
    return Dataset(stripped, labeled.label_set, "unlabeled")
