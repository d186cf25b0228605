"""Bug tracker REST ingestion and pair construction.

The client pages backwards from the newest bug inside a creation-time
window, requesting exactly the seven fields the rest of the pipeline
consumes.  Pair construction turns duplicate-resolution links into
Duplicate pairs, dependency links into Entailment pairs (u depends on
v), and samples Neutral pairs uniformly from unlinked open bugs with
Rng.sample_pairs, which never lists the candidate pairs.
Summaries, not descriptions, become the sentences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import date
from typing import Callable, Iterable, Mapping, Sequence

import requests

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
    fields: Sequence[str] = DEFAULT_FIELDS,
    session: requests.Session | None = None,
    max_retries: int = 3,
    backoff_base: float = 0.5,
    backoff_cap: float = 8.0,
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
    owns_session = session is None
    sess = session or requests.Session()
    url = endpoint.rstrip("/") + "/rest/bug"
    records: list[BugRecord] = []
    seen: set[int] = set()
    skipped = 0
    requests_made = 0
    offset = 0
    try:
        while True:
            params = {
                "include_fields": ",".join(fields),
                "creation_time_from": window.start,
                "creation_time_to": window.end,
                "order": "creation_time desc",
                "limit": str(page_size),
                "offset": str(offset),
            }
            payload = _get_with_retry(
                sess, url, params, max_retries, backoff_base, backoff_cap, sleep
            )
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
    finally:
        if owns_session:
            sess.close()


def _get_with_retry(
    session: requests.Session,
    url: str,
    params: Mapping[str, str],
    max_retries: int,
    backoff_base: float,
    backoff_cap: float,
    sleep: Callable[[float], None],
) -> dict:
    last_error: Exception | None = None
    for attempt in range(max_retries + 1):
        if attempt:
            sleep(min(backoff_cap, backoff_base * 2 ** (attempt - 1)))
        try:
            response = session.get(url, params=params, timeout=30)
        except requests.RequestException as exc:
            last_error = exc
            continue
        if response.status_code >= 500:
            last_error = IngestError(f"{url} returned {response.status_code}")
            continue
        if response.status_code != 200:
            raise IngestError(f"{url} returned {response.status_code}")
        try:
            return response.json()
        except ValueError as exc:
            raise IngestError(f"{url} returned invalid JSON: {exc}") from exc
    raise IngestError(f"{url} unreachable after {max_retries + 1} attempts: {last_error}")


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
    m = len(open_records)
    allowed_total = m * (m - 1) // 2 - len(excluded)
    if n > allowed_total:
        raise DatasetSizeError(
            f"requested {n} neutral pairs but only {allowed_total} unlinked open pairs exist"
        )
    rng = Rng(seed).derive("neutral-pairs")
    return [
        (open_records[i].summary, open_records[j].summary)
        for i, j in rng.sample_pairs(m, n, excluded)
    ]


@dataclass
class BugzillaIngestReport:
    duplicate_pairs: int
    entailment_pairs: int
    neutral_pairs: int
    skipped_unresolved: int


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
    if neutral_ratio < 0:
        raise ValueError("neutral_ratio must be non-negative")
    label_set = builtin_label_set(task_id)
    if task_id == "bugzilla_duplicate":
        link_report = build_duplicate_pairs(records)
        positive_label = "Duplicate"
        negative_label = "Neutral"
    elif task_id == "bugzilla_entailment":
        link_report = build_dependency_pairs(records)
        positive_label = "Entailment"
        negative_label = "Not Entailment"
    else:
        raise ValueError(f"task {task_id!r} is not a bug tracker task")
    n_neutral = round(neutral_ratio * len(link_report.pairs))
    neutral = build_neutral_pairs(records, n_neutral, seed)
    examples = [
        LabeledExample(SentencePair(u, v), positive_label) for u, v in link_report.pairs
    ] + [LabeledExample(SentencePair(u, v), negative_label) for u, v in neutral]
    dataset = Dataset(tuple(examples), label_set, "train")
    report = BugzillaIngestReport(
        duplicate_pairs=len(link_report.pairs) if task_id == "bugzilla_duplicate" else 0,
        entailment_pairs=len(link_report.pairs) if task_id == "bugzilla_entailment" else 0,
        neutral_pairs=len(neutral),
        skipped_unresolved=link_report.skipped_unresolved,
    )
    return dataset, report
