"""Dataset construction from external sources."""

from .bugzilla import (
    DEFAULT_FIELDS,
    BugRecord,
    BugzillaIngestReport,
    FetchResult,
    IngestionWindow,
    build_dependency_pairs,
    build_duplicate_pairs,
    build_neutral_pairs,
    bugzilla_task_dataset,
    fetch_bugs,
    parse_bug,
)
from .mock_server import MockBugzillaServer, make_fixture_bugs
from .srs import load_requirement_pairs
from .stackoverflow import (
    DUPLICATE_COLUMNS,
    NEUTRAL_COLUMNS,
    StackOverflowReport,
    ingest_stackoverflow_exports,
)

__all__ = [
    "DEFAULT_FIELDS",
    "DUPLICATE_COLUMNS",
    "NEUTRAL_COLUMNS",
    "BugRecord",
    "BugzillaIngestReport",
    "FetchResult",
    "IngestionWindow",
    "MockBugzillaServer",
    "StackOverflowReport",
    "build_dependency_pairs",
    "build_duplicate_pairs",
    "build_neutral_pairs",
    "bugzilla_task_dataset",
    "fetch_bugs",
    "ingest_stackoverflow_exports",
    "load_requirement_pairs",
    "make_fixture_bugs",
    "parse_bug",
]
