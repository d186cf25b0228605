"""Core dataset types, sampling, and the leakage-free train/test split.

Sentence identity throughout this module means exact string equality
after trimming and collapsing internal whitespace.  That is the
definition the split, deduplication, and overlap checks all share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataFormatError, DatasetSizeError, InfeasibleSplitError
from .rng import Rng

KINDS = ("train", "test", "unlabeled")


def normalize_sentence(text: str) -> str:
    """Trim and collapse internal whitespace; the package-wide identity."""
    return " ".join(text.split())


@dataclass(frozen=True)
class SentencePair:
    """An ordered pair of sentences (u, v)."""

    u: str
    v: str

    def __post_init__(self) -> None:
        if not isinstance(self.u, str) or not isinstance(self.v, str):
            raise TypeError("sentence pair fields must be strings")


@dataclass(frozen=True)
class LabelSet:
    """Ordered, distinct label names for one task."""

    labels: tuple[str, ...]
    task_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not all(isinstance(lab, str) and lab for lab in self.labels):
            raise ValueError(f"label names must be non-empty strings, got {list(self.labels)!r}")
        if len(self.labels) < 2:
            raise ValueError("a label set needs at least two labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("label names must be distinct")

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r} for task {self.task_id!r}") from None

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: object) -> bool:
        return label in self.labels


@dataclass(frozen=True)
class LabeledExample:
    """A sentence pair with an optional gold label (None when unlabeled)."""

    pair: SentencePair
    label: str | None = None


@dataclass(frozen=True)
class Dataset:
    """An immutable collection of examples with a label set and a kind."""

    examples: tuple[LabeledExample, ...]
    label_set: LabelSet
    kind: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "examples", tuple(self.examples))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "unlabeled":
            if any(ex.label is not None for ex in self.examples):
                raise ValueError("unlabeled datasets must not carry labels")
        else:
            for ex in self.examples:
                if ex.label is None:
                    raise ValueError(f"{self.kind} dataset contains an unlabeled example")
                if ex.label not in self.label_set:
                    raise ValueError(f"label {ex.label!r} not in label set")

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def __getitem__(self, index: int) -> LabeledExample:
        return self.examples[index]


@dataclass(frozen=True)
class SoftLabeledExample:
    """A pair plus a probability distribution over the label set order."""

    pair: SentencePair
    distribution: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "distribution", tuple(float(p) for p in self.distribution))
        if any(p < 0 for p in self.distribution):
            raise ValueError("distribution entries must be non-negative")
        total = sum(self.distribution)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"distribution sums to {total!r}, expected 1 within 1e-9")


def shared_sentences(a: Iterable[LabeledExample], b: Iterable[LabeledExample]) -> set[str]:
    """Normalized sentences that occur on either side of a pair in both a and b."""

    def sentences(examples: Iterable[LabeledExample]) -> set[str]:
        return {normalize_sentence(s) for ex in examples for s in (ex.pair.u, ex.pair.v)}

    return sentences(a) & sentences(b)


def join_pair(pair: SentencePair, separator: str) -> str:
    """Single-text form of a pair: u, the separator token, then v.

    The separator stays in place even when a side is empty, so the
    boundary between the sentences is never ambiguous.
    """
    return f"{pair.u} {separator} {pair.v}"


# ---------------------------------------------------------------------------
# Sampling


def sample_training_set(pool: Dataset, n: int, seed: int, kind: str = "train") -> Dataset:
    """Draw n distinct examples uniformly without replacement from pool."""
    if n < 0:
        raise DatasetSizeError(f"sample size must be non-negative, got {n}")
    if n > len(pool):
        raise DatasetSizeError(f"requested {n} examples from a pool of {len(pool)}")
    rng = Rng(seed).derive("sample-training-set")
    drawn = rng.sample(pool.examples, n)
    return Dataset(tuple(drawn), pool.label_set, kind)


# ---------------------------------------------------------------------------
# Leakage-free splitting


def _components(examples: Sequence[LabeledExample]) -> list[list[int]]:
    """Group example indices into sentence-connected components.

    Two examples are connected when they share a normalized sentence on
    either side.  A component can never be divided between train and
    test without risking shared sentences, so assignment happens at
    component granularity.
    """
    parent = list(range(len(examples)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    first_seen: dict[str, int] = {}
    for idx, ex in enumerate(examples):
        for sentence in (ex.pair.u, ex.pair.v):
            key = normalize_sentence(sentence)
            if key in first_seen:
                union(first_seen[key], idx)
            else:
                first_seen[key] = idx

    groups: dict[int, list[int]] = {}
    for idx in range(len(examples)):
        groups.setdefault(find(idx), []).append(idx)
    return list(groups.values())


def _reachable_sums(sizes: Sequence[int], cap: int) -> int:
    """Bitset of subset sums in [0, cap] (bit i set iff sum i reachable)."""
    mask = (1 << (cap + 1)) - 1
    reachable = 1
    for s in sizes:
        reachable |= (reachable << s) & mask
    return reachable


def _min_subset_sum_at_least(sizes: Sequence[int], target: int) -> int | None:
    """Smallest subset sum >= target, or None when unreachable.

    A minimal solution never exceeds target + max(sizes) - 1 (dropping
    any element from a larger sum keeps it >= target), so the bitset is
    capped there.
    """
    if target <= 0:
        return 0
    if not sizes or sum(sizes) < target:
        return None
    cap = target + max(sizes) - 1
    reachable = _reachable_sums(sizes, cap)
    for total in range(target, cap + 1):
        if reachable >> total & 1:
            return total
    return None


def _pick_subset_with_sum(sizes: Sequence[int], want: int) -> list[int]:
    """Indices of a subset of sizes summing exactly to want (must exist)."""
    suffix: list[int] = [0] * (len(sizes) + 1)
    suffix[len(sizes)] = 1
    for i in range(len(sizes) - 1, -1, -1):
        mask = (1 << (want + 1)) - 1
        suffix[i] = (suffix[i + 1] | (suffix[i + 1] << sizes[i])) & mask
    chosen: list[int] = []
    remaining = want
    for i, s in enumerate(sizes):
        if s <= remaining and (suffix[i + 1] >> (remaining - s)) & 1:
            chosen.append(i)
            remaining -= s
        if remaining == 0:
            break
    if remaining != 0:
        raise AssertionError("subset reconstruction failed")
    return chosen


def _max_achievable_test(sizes: Sequence[int], train_pool_size: int) -> int:
    """Largest test size compatible with reserving train_pool_size pairs."""
    total = sum(sizes)
    reserved = _min_subset_sum_at_least(sizes, train_pool_size)
    if reserved is None:
        return 0
    return total - reserved


def _quota_counts(weights: Mapping[str, float], labels: Sequence[str], total: int) -> dict[str, int]:
    """Integer per-label targets from ratio weights via largest remainder."""
    if set(weights) != set(labels):
        raise ValueError(f"class ratio labels {sorted(weights)} are not the label set {list(labels)}")
    bad = [lab for lab in labels if not 0 <= float(weights[lab]) < math.inf]
    if bad:
        raise ValueError(f"class ratio weights must be finite and non-negative: {bad}")
    scale = sum(float(weights[lab]) for lab in labels)
    if scale <= 0:
        raise ValueError("class ratio weights must sum to a positive value")
    exact = {lab: total * float(weights[lab]) / scale for lab in labels}
    counts = {lab: int(exact[lab]) for lab in labels}
    shortfall = total - sum(counts.values())
    by_remainder = sorted(labels, key=lambda lab: (counts[lab] - exact[lab], labels.index(lab)))
    for lab in by_remainder[:shortfall]:
        counts[lab] += 1
    return counts


def split_no_leakage(
    all_pairs: Dataset,
    train_pool_size: int,
    test_size: int,
    seed: int,
    test_class_ratio: Mapping[str, float] | None = None,
) -> tuple[Dataset, Dataset]:
    """Split into a train pool and a test set with disjoint sentences.

    No sentence (normalized) may appear on both sides.  Examples are
    grouped into sentence-connected components and whole components are
    assigned to one side; pairs beyond the requested sizes are dropped.

    Args:
        all_pairs: labeled source dataset.
        train_pool_size: exact number of pairs for the training pool.
        test_size: exact number of pairs for the test set.
        seed: drives every random choice; same seed, same split.
        test_class_ratio: optional label -> weight mapping for the test
            side class mix.  None keeps whatever mix the drawn
            components have (the source ratio, in expectation).

    Raises:
        InfeasibleSplitError: when no component assignment can satisfy
            both sizes; the error reports the maximum achievable test
            size for the same train-pool request.
    """
    if train_pool_size < 0 or test_size < 0:
        raise DatasetSizeError("split sizes must be non-negative")
    if test_size == 0:
        raise DatasetSizeError("test size must be at least 1")
    examples = all_pairs.examples
    comps = _components(examples)
    sizes = [len(c) for c in comps]
    total = sum(sizes)
    rng = Rng(seed).derive("split")

    def fail(detail: str) -> InfeasibleSplitError:
        achievable = _max_achievable_test(sizes, train_pool_size)
        return InfeasibleSplitError(
            f"cannot split {total} pairs into train pool {train_pool_size} "
            f"and test {test_size} without sentence leakage ({detail}); "
            f"max achievable test size is {achievable}",
            max_test_size=achievable,
        )

    if total < train_pool_size + test_size:
        raise fail("not enough pairs")

    # Greedy seeded assignment: put shuffled components on the test side
    # while the train side can still be covered by what remains.
    order = rng.shuffled(range(len(comps)))
    test_comps: list[int] = []
    test_count = 0
    budget = total - train_pool_size
    # With a class ratio, fill the whole budget so the per-label buckets
    # are as deep as the component structure allows.
    target = test_size if test_class_ratio is None else budget
    for ci in order:
        if test_count >= target:
            break
        if test_count + sizes[ci] <= budget:
            test_comps.append(ci)
            test_count += sizes[ci]
    if test_count < test_size:
        # The greedy pass can strand feasible splits behind awkward
        # component sizes; fall back to an exact subset-sum search.
        want = _min_subset_sum_at_least(sizes, test_size)
        if want is None or want > budget:
            raise fail("component sizes do not admit the requested sizes")
        test_comps = _pick_subset_with_sum(sizes, want)
        test_count = want

    test_side = [idx for ci in test_comps for idx in comps[ci]]
    chosen = set(test_comps)
    train_side = [idx for ci in range(len(comps)) if ci not in chosen for idx in comps[ci]]
    if len(train_side) < train_pool_size:
        raise fail("train side too small after test assignment")

    test_side = rng.shuffled(test_side)
    train_side = rng.shuffled(train_side)

    if test_class_ratio is None:
        test_idx = test_side[:test_size]
    else:
        counts = _quota_counts(test_class_ratio, all_pairs.label_set.labels, test_size)
        buckets: dict[str, list[int]] = {lab: [] for lab in all_pairs.label_set.labels}
        for idx in test_side:
            buckets[examples[idx].label].append(idx)  # type: ignore[index]
        short = {lab: counts[lab] - len(buckets[lab]) for lab in counts if counts[lab] > len(buckets[lab])}
        if short:
            raise fail(f"class quota unsatisfiable for {sorted(short)}")
        test_idx = [idx for lab in all_pairs.label_set.labels for idx in buckets[lab][: counts[lab]]]
        test_idx = rng.shuffled(test_idx)
    label_set = all_pairs.label_set
    train = Dataset(tuple(examples[i] for i in train_side[:train_pool_size]), label_set, "train")
    test = Dataset(tuple(examples[i] for i in test_idx), label_set, "test")
    if shared_sentences(train, test):
        raise AssertionError("leakage check failed; component grouping is broken")
    return train, test


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class WordStats:
    minimum: int
    mean: float
    std: float
    median: float
    maximum: int


@dataclass(frozen=True)
class DatasetReport:
    size: int
    label_counts: dict[str, int]
    duplicate_pairs: int
    empty_sentences: int
    word_stats: WordStats


def validate_dataset(dataset: Dataset) -> DatasetReport:
    """Structural report: label coverage, duplicates, emptiness, word counts.

    Word counts are taken over the concatenation of both sentences.
    The standard deviation is the sample deviation (0 for fewer than
    two examples).
    """
    label_counts = {lab: 0 for lab in dataset.label_set.labels}
    seen: set[tuple[str, str]] = set()
    duplicates = 0
    empty = 0
    words: list[int] = []
    for ex in dataset.examples:
        if ex.label is not None:
            label_counts[ex.label] += 1
        key = (normalize_sentence(ex.pair.u), normalize_sentence(ex.pair.v))
        if key in seen:
            duplicates += 1
        seen.add(key)
        empty += sum(1 for s in key if not s)
        words.append(len(f"{ex.pair.u} {ex.pair.v}".split()))
    if words:
        arr = np.asarray(words, dtype=np.float64)
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        stats = WordStats(int(arr.min()), float(arr.mean()), std, float(np.median(arr)), int(arr.max()))
    else:
        stats = WordStats(0, 0.0, 0.0, 0.0, 0)
    return DatasetReport(len(dataset), label_counts, duplicates, empty, stats)


# ---------------------------------------------------------------------------
# On-disk format: JSON lines plus a manifest sidecar


def _manifest_path(path: Path) -> Path:
    return path.with_name(path.stem + ".manifest.json")


def save_dataset(
    dataset: Dataset, path: str | Path, source: str | Mapping[str, object] | None = None
) -> Path:
    """Write dataset records as JSON lines with a manifest sidecar.

    Each line holds u, v, and label; the label key is omitted for
    unlabeled examples.  The manifest records the task id, the label
    order, the kind, the record count, and optional source provenance.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for ex in dataset.examples:
            record: dict[str, object] = {"u": ex.pair.u, "v": ex.pair.v}
            if ex.label is not None:
                record["label"] = ex.label
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    manifest = {
        "format": "pairshot-dataset",
        "version": 1,
        "task_id": dataset.label_set.task_id,
        "labels": list(dataset.label_set.labels),
        "kind": dataset.kind,
        "count": len(dataset),
        "source": source if isinstance(source, str) else dict(source) if source else "",
    }
    manifest_path = _manifest_path(path)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest_path


def read_pair_lines(path: Path) -> Iterator[tuple[int, SentencePair, dict]]:
    """(line number, pair, record) per non-blank line; labels are the caller's to check."""
    # Bytes that are not UTF-8 decode as lone surrogates, so that the
    # strict decode below fails on their line, not on the file's.
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.encode("utf-8", "surrogateescape").decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                raise DataFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not (isinstance(record, dict) and all(isinstance(record.get(k), str) for k in "uv")):
                raise DataFormatError(f"{path}:{lineno}: u and v must be strings")
            yield lineno, SentencePair(record["u"], record["v"]), record


def read_json(path: str | Path) -> object:
    """The JSON value in the file at path; ValueError naming the file when
    it is not UTF-8 JSON (or nests past the parser's depth)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path} is not UTF-8 JSON: {exc}") from exc


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset written by save_dataset, validating as it goes."""
    path = Path(path)
    manifest_path = _manifest_path(path)
    if not manifest_path.exists():
        raise DataFormatError(f"missing manifest sidecar {manifest_path}")
    try:
        manifest = read_json(manifest_path)
    except ValueError as exc:
        raise DataFormatError(f"manifest {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "pairshot-dataset":
        raise DataFormatError(f"{manifest_path} is not a pairshot dataset manifest")
    for key, kind in (("task_id", str), ("kind", str), ("labels", list)):
        if not isinstance(manifest.get(key), kind):
            raise DataFormatError(f"manifest {manifest_path} needs a {kind.__name__} {key!r}")
    try:
        label_set = LabelSet(tuple(manifest["labels"]), manifest["task_id"])
    except ValueError as exc:
        raise DataFormatError(f"manifest {manifest_path}: {exc}") from exc
    kind = manifest["kind"]
    examples: list[LabeledExample] = []
    for lineno, pair, record in read_pair_lines(path):
        label = record.get("label")
        if label is not None and label not in label_set:
            raise DataFormatError(f"{path}:{lineno}: unknown label {label!r}")
        examples.append(LabeledExample(pair, label))
    try:
        return Dataset(tuple(examples), label_set, kind)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from exc
