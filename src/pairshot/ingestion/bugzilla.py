"""Bug tracker REST ingestion and pair construction.

The client pages backwards from the newest bug inside a creation-time
window over urllib, requesting exactly the seven fields the rest of the
pipeline consumes; it retries a transport failure or a 5xx answer
MAX_RETRIES times, waiting BACKOFF_BASE seconds and doubling up to
BACKOFF_CAP.  Pair construction turns duplicate-resolution links into
Duplicate pairs, dependency links into Entailment pairs (u depends on
v), and samples Neutral pairs uniformly from unlinked open bugs with
Rng.sample_pairs, which never lists the candidate pairs.
Summaries, not descriptions, become the sentences.  mix_neutral_pairs,
shared with the question-pair source, sets the Neutral count from a
neutral_ratio that must be a finite non-negative number.
"""

from __future__ import annotations

import http.client
import json
import math
import time
import urllib.request
from dataclasses import dataclass
from datetime import date
from typing import Callable, Iterable, Mapping, Sequence
from urllib.error import HTTPError
from urllib.parse import urlencode

from ..data import Dataset, LabeledExample, SentencePair
from ..errors import DatasetSizeError, IngestError
from ..prompting import builtin_label_set
from ..rng import Rng

DEFAULT_FIELDS = (
    "id",
    "summary",
    "description",
    "creation_time",
    "resolution",
    "dupe_of",
    "depends_on",
)
MAX_RETRIES = 3
BACKOFF_BASE = 0.5  # seconds before the first retry; each later wait doubles
BACKOFF_CAP = 8.0


@dataclass(frozen=True)
class IngestionWindow:
    """Inclusive creation-date window, ISO dates."""

    start: str
    end: str

    def __post_init__(self) -> None:
        if date.fromisoformat(self.start) > date.fromisoformat(self.end):
            raise ValueError(f"window start {self.start} is after end {self.end}")

    def contains(self, iso_datetime: str) -> bool:
        day = iso_datetime[:10]
        return self.start <= day <= self.end


@dataclass(frozen=True)
class BugRecord:
    """One bug with link fields; resolution is blank for open bugs."""

    id: int
    summary: str
    description: str
    creation_time: str
    resolution: str
    dupe_of: tuple[int, ...]
    depends_on: tuple[int, ...]

    @property
    def is_open(self) -> bool:
        return self.resolution == ""


def _as_id_list(value: object) -> tuple[int, ...]:
    if value is None:
        return ()
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (int(value),)
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    raise ValueError(f"cannot interpret {value!r} as an id list")


def parse_bug(raw: Mapping[str, object]) -> BugRecord:
    """Strict conversion of one REST record; raises ValueError when malformed."""
    if not isinstance(raw.get("id"), int):
        raise ValueError("bug id must be an integer")
    summary = raw.get("summary")
    if not isinstance(summary, str):
        raise ValueError("bug summary must be a string")
    creation = raw.get("creation_time")
    if not isinstance(creation, str) or not creation:
        raise ValueError("bug creation_time must be a non-empty string")
    description = raw.get("description")
    resolution = raw.get("resolution")
    return BugRecord(
        id=raw["id"],
        summary=summary,
        description=description if isinstance(description, str) else "",
        resolution=resolution if isinstance(resolution, str) else "",
        creation_time=creation,
        dupe_of=_as_id_list(raw.get("dupe_of")),
        depends_on=_as_id_list(raw.get("depends_on")),
    )


@dataclass
class FetchResult:
    records: list[BugRecord]
    requests_made: int
    skipped_malformed: int


def fetch_bugs(
    endpoint: str,
    window: IngestionWindow,
    page_size: int = 100,
    sleep: Callable[[float], None] = time.sleep,
) -> FetchResult:
    """Page through /rest/bug newest-first within the window.

    Transport failures and 5xx responses retry with capped exponential
    backoff; a page that stays unreachable raises IngestError.
    Malformed records are skipped and counted, and records are deduped
    by id (first occurrence wins).
    """
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    url = endpoint.rstrip("/") + "/rest/bug"
    records: list[BugRecord] = []
    seen: set[int] = set()
    skipped = 0
    requests_made = 0
    offset = 0
    while True:
        params = {
            "include_fields": ",".join(DEFAULT_FIELDS),
            "creation_time_from": window.start,
            "creation_time_to": window.end,
            "order": "creation_time desc",
            "limit": str(page_size),
            "offset": str(offset),
        }
        payload = _get_with_retry(url, params, sleep)
        requests_made += 1
        bugs = payload.get("bugs")
        if not isinstance(bugs, list):
            raise IngestError(f"{url} returned no 'bugs' list")
        for raw in bugs:
            try:
                record = parse_bug(raw)
            except (ValueError, TypeError, KeyError):
                skipped += 1
                continue
            if record.id in seen:
                continue
            seen.add(record.id)
            records.append(record)
        offset += len(bugs)
        total = payload.get("total")
        if len(bugs) < page_size:
            break
        if isinstance(total, int) and offset >= total:
            break
    return FetchResult(records, requests_made, skipped)


def _get_with_retry(url: str, params: Mapping[str, str], sleep: Callable[[float], None]) -> dict:
    last_error: Exception | None = None
    for attempt in range(MAX_RETRIES + 1):
        if attempt:
            sleep(min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (attempt - 1)))
        try:
            with urllib.request.urlopen(f"{url}?{urlencode(params)}", timeout=30) as response:
                status, body = response.status, response.read()
        except HTTPError as exc:  # an answer, with a status that is not 2xx
            with exc:
                status = exc.code
        except (http.client.HTTPException, OSError) as exc:  # no answer; URLError is an OSError
            last_error = exc
            continue
        if status >= 500:
            last_error = IngestError(f"{url} returned {status}")
            continue
        if status != 200:
            raise IngestError(f"{url} returned {status}")
        try:
            return json.loads(body)
        except ValueError as exc:
            raise IngestError(f"{url} returned invalid JSON: {exc}") from exc
    raise IngestError(f"{url} unreachable after {MAX_RETRIES + 1} attempts: {last_error}")


# ---------------------------------------------------------------------------
# Pair construction


@dataclass
class LinkPairReport:
    pairs: list[tuple[str, str]]
    skipped_unresolved: int


def _link_pairs(
    records: Sequence[BugRecord],
    link_ids: Callable[[BugRecord], Iterable[int]],
) -> LinkPairReport:
    by_id = {r.id: r for r in records}
    pairs: list[tuple[str, str]] = []
    skipped = 0
    for record in records:
        for target_id in link_ids(record):
            target = by_id.get(target_id)
            if target is None:
                skipped += 1
                continue
            pairs.append((record.summary, target.summary))
    return LinkPairReport(pairs, skipped)


def build_duplicate_pairs(records: Sequence[BugRecord]) -> LinkPairReport:
    """(duplicate summary, original summary) for resolvable duplicate links.

    Only bugs resolved as DUPLICATE contribute; targets missing from
    records (outside the window) are skipped and counted.
    """
    return _link_pairs(
        records,
        lambda r: r.dupe_of if r.resolution == "DUPLICATE" else (),
    )


def build_dependency_pairs(records: Sequence[BugRecord]) -> LinkPairReport:
    """(dependent summary, dependency summary): u depends on v."""
    return _link_pairs(records, lambda r: r.depends_on)


def build_neutral_pairs(
    records: Sequence[BugRecord],
    n: int,
    seed: int,
) -> list[tuple[str, str]]:
    """n unordered summary pairs of open bugs, uniform, link-free.

    Open means a blank resolution.  Pairs related by any duplicate or
    dependency link are excluded from the sample space.  Requesting
    more pairs than the space holds raises DatasetSizeError.
    """
    if n < 0:
        raise DatasetSizeError("neutral pair count must be non-negative")
    return sample_neutral_pairs(*_neutral_space(records), n, Rng(seed).derive("neutral-pairs"))


def _neutral_space(records: Sequence[BugRecord]) -> tuple[list[str], set[tuple[int, int]]]:
    """The open bugs' summaries, and the index pairs i < j of them that a link relates."""
    open_records = [r for r in records if r.is_open]
    positions: dict[int, list[int]] = {}
    for i, record in enumerate(open_records):
        positions.setdefault(record.id, []).append(i)
    excluded = {
        (min(i, j), max(i, j))
        for record in records
        for target in (*record.dupe_of, *record.depends_on)
        for i in positions.get(record.id, ())
        for j in positions.get(target, ())
        if i != j
    }
    return [r.summary for r in open_records], excluded


def sample_neutral_pairs(
    sentences: Sequence[str], excluded: set[tuple[int, int]], n: int, rng: Rng
) -> list[tuple[str, str]]:
    """n uniform pairs of sentences whose index pair i < j is not in excluded."""
    m = len(sentences)
    allowed_total = m * (m - 1) // 2 - len(excluded)
    if n > allowed_total:
        raise DatasetSizeError(f"requested {n} neutral pairs but only {allowed_total} exist")
    return [(sentences[i], sentences[j]) for i, j in rng.sample_pairs(m, n, excluded)]


def mix_neutral_pairs(
    task_id: str, positives: Sequence[tuple[str, str]], labels: tuple[str, str],
    neutral_ratio: float, sentences: Sequence[str], excluded: set[tuple[int, int]], rng: Rng,
) -> Dataset:
    """The positives labeled labels[0], then round(neutral_ratio x their count)
    pairs from sample_neutral_pairs labeled labels[1], in one Dataset."""
    number = isinstance(neutral_ratio, (int, float)) and not isinstance(neutral_ratio, bool)
    if not (number and 0 <= neutral_ratio < math.inf):
        raise ValueError(f"neutral_ratio must be finite and non-negative, got {neutral_ratio!r}")
    wanted = neutral_ratio * len(positives)  # inf past float range: more than any space holds
    n = round(wanted) if wanted < math.inf else wanted
    neutral = sample_neutral_pairs(sentences, excluded, n, rng)
    examples = [LabeledExample(SentencePair(u, v), labels[0]) for u, v in positives] + [
        LabeledExample(SentencePair(u, v), labels[1]) for u, v in neutral
    ]
    return Dataset(tuple(examples), builtin_label_set(task_id), "train")


@dataclass
class BugzillaIngestReport:
    duplicate_pairs: int
    entailment_pairs: int
    neutral_pairs: int
    skipped_unresolved: int


# Each bug tracker task: its link pairs, and its positive and negative labels.
_TASKS = {
    "bugzilla_duplicate": (build_duplicate_pairs, ("Duplicate", "Neutral")),
    "bugzilla_entailment": (build_dependency_pairs, ("Entailment", "Not Entailment")),
}


def bugzilla_task_dataset(
    records: Sequence[BugRecord],
    task_id: str,
    seed: int,
    neutral_ratio: float = 1.0,
) -> tuple[Dataset, BugzillaIngestReport]:
    """Assemble a labeled dataset for a bug tracker task.

    bugzilla_duplicate pairs Duplicate links against Neutral samples;
    bugzilla_entailment pairs dependency links against Not Entailment
    samples.  The negative class is sampled at neutral_ratio times the
    positive count (rounded), matching a 1:1 mix by default.
    """
    if task_id not in _TASKS:
        raise ValueError(f"task {task_id!r} is not a bug tracker task")
    build_links, labels = _TASKS[task_id]
    link_report = build_links(records)
    space, rng = _neutral_space(records), Rng(seed).derive("neutral-pairs")
    dataset = mix_neutral_pairs(task_id, link_report.pairs, labels, neutral_ratio, *space, rng)
    positives = len(link_report.pairs)
    report = BugzillaIngestReport(
        duplicate_pairs=positives if task_id == "bugzilla_duplicate" else 0,
        entailment_pairs=positives if task_id == "bugzilla_entailment" else 0,
        neutral_pairs=len(dataset) - positives,
        skipped_unresolved=link_report.skipped_unresolved,
    )
    return dataset, report
