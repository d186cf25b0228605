"""Loader for requirement-pair files.

The source datasets are proprietary, so only a loader ships here: one
JSON object per line with u, v, and a label that must be exactly
Neutral, Duplicate, or Conflict (case matters).  Tests use the bundled
synthetic requirement generator instead of real data.
"""

from __future__ import annotations

from pathlib import Path

from ..data import Dataset, LabeledExample, read_pair_lines
from ..errors import DataFormatError, brief
from ..prompting import builtin_label_set


def load_requirement_pairs(path: str | Path) -> Dataset:
    """Read a requirement-pair JSON-lines file into a labeled dataset."""
    path = Path(path)
    label_set = builtin_label_set("srs_conflict")
    examples: list[LabeledExample] = []
    for lineno, pair, record in read_pair_lines(path):
        label = record.get("label")
        if label not in label_set:
            raise DataFormatError(
                f"{path}:{lineno}: label {brief(label)} is not one of {list(label_set.labels)} "
                "(labels are case-sensitive)"
            )
        examples.append(LabeledExample(pair, label))
    if not examples:
        raise DataFormatError(f"{path}: file contains no records")
    return Dataset(tuple(examples), label_set, "train")
