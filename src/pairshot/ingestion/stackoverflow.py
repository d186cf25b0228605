"""Question-pair ingestion from data explorer CSV exports.

Two exports feed the pipeline: a duplicates export (closed-as-duplicate
questions joined to their targets) and a neutral export (answered open
questions).  Duplicate pairs come from the question/target title
columns; Neutral pairs are sampled uniformly from the neutral title
pairs by Rng.sample_pairs, which never lists them.
Rows failing the python-tag or creation-window checks are rejected and
counted rather than aborting the run.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..data import Dataset, LabeledExample, SentencePair
from ..errors import DatasetSizeError, ParseError
from ..prompting import builtin_label_set
from ..rng import Rng
from .bugzilla import IngestionWindow

# Column lists mirror the export queries that produce these files.
DUPLICATE_COLUMNS = (
    "id",
    "title",
    "creationdate",
    "tags",
    "body",
    "closeddate",
    "CloseReason",
    "dupid",
    "dupcreationdate",
    "duptitle",
    "dupbody",
)
NEUTRAL_COLUMNS = ("id", "title", "creationdate", "body")

# Site launch through the collection cutoff.
DEFAULT_WINDOW = IngestionWindow("2008-07-31", "2021-12-31")


@dataclass
class StackOverflowReport:
    duplicate_pairs: int
    neutral_pairs: int
    rejected_tag: int
    rejected_window: int
    skipped_malformed: int


def _has_python_tag(tags: str) -> bool:
    tokens = re.findall(r"<([^>]*)>", tags)
    if tokens:
        return any(tok.strip().lower() == "python" for tok in tokens)
    return "python" in tags.lower()


def _export_rows(path: str | Path, required: tuple[str, ...]) -> Iterator[dict[str, str]]:
    """The rows of a CSV export, once its header has every required column."""
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in required if reader.fieldnames is None or c not in reader.fieldnames]
        if missing:
            raise ParseError(f"{path}: missing required columns {missing}")
        yield from reader


def ingest_stackoverflow_exports(
    duplicates_file: str | Path,
    neutral_file: str | Path,
    seed: int = 0,
    neutral_ratio: float = 1.0,
    window: IngestionWindow = DEFAULT_WINDOW,
) -> tuple[Dataset, StackOverflowReport]:
    """Build the question-duplicate dataset from the two CSV exports.

    Duplicate rows must carry a python tag and both creation dates must
    fall inside the window.  Neutral pairs are sampled uniformly without
    replacement from in-window neutral titles, neutral_ratio times the
    duplicate count (rounded).
    """
    if neutral_ratio < 0:
        raise ValueError("neutral_ratio must be non-negative")
    rejected_tag = 0
    rejected_window = 0
    malformed = 0

    duplicate_pairs: list[tuple[str, str]] = []
    for row in _export_rows(duplicates_file, DUPLICATE_COLUMNS):
        try:
            int(row["id"])
            title = row["title"]
            dup_title = row["duptitle"]
            created = row["creationdate"]
            dup_created = row["dupcreationdate"]
            tags = row["tags"]
        except (KeyError, TypeError, ValueError):
            malformed += 1
            continue
        if not title or not dup_title or not created:
            malformed += 1
            continue
        if not _has_python_tag(tags):
            rejected_tag += 1
            continue
        if not window.contains(created) or (dup_created and not window.contains(dup_created)):
            rejected_window += 1
            continue
        duplicate_pairs.append((title, dup_title))

    neutral_titles: list[str] = []
    for row in _export_rows(neutral_file, NEUTRAL_COLUMNS):
        try:
            int(row["id"])
            title = row["title"]
            created = row["creationdate"]
        except (KeyError, TypeError, ValueError):
            malformed += 1
            continue
        if not title or not created:
            malformed += 1
            continue
        if not window.contains(created):
            rejected_window += 1
            continue
        neutral_titles.append(title)

    n_neutral = round(neutral_ratio * len(duplicate_pairs))
    total_neutral_pairs = len(neutral_titles) * (len(neutral_titles) - 1) // 2
    if n_neutral > total_neutral_pairs:
        raise DatasetSizeError(
            f"requested {n_neutral} neutral pairs but only {total_neutral_pairs} title pairs exist"
        )
    rng = Rng(seed).derive("so-neutral")
    neutral_pairs = [
        (neutral_titles[i], neutral_titles[j])
        for i, j in rng.sample_pairs(len(neutral_titles), n_neutral)
    ]

    label_set = builtin_label_set("so_duplicate")
    examples = [
        LabeledExample(SentencePair(u, v), "Duplicate") for u, v in duplicate_pairs
    ] + [LabeledExample(SentencePair(u, v), "Neutral") for u, v in neutral_pairs]
    dataset = Dataset(tuple(examples), label_set, "train")
    report = StackOverflowReport(
        duplicate_pairs=len(duplicate_pairs),
        neutral_pairs=len(neutral_pairs),
        rejected_tag=rejected_tag,
        rejected_window=rejected_window,
        skipped_malformed=malformed,
    )
    return dataset, report
