"""Question-pair CSV ingestion: fixtures, filters, and column contracts."""

import csv
import tracemalloc

import pytest

from pairshot.errors import DatasetSizeError, ParseError
from pairshot.ingestion.bugzilla import IngestionWindow
from pairshot.ingestion.stackoverflow import (
    DUPLICATE_COLUMNS,
    NEUTRAL_COLUMNS,
    ingest_stackoverflow_exports,
)

IMAP_QUESTION = "IMAP4: How to correctly decode UTF-8 encoded message body?"
IMAP_TARGET = "Python email quoted-printable encoding problem"

IN_WINDOW_NEUTRAL_TITLES = {
    "python csv read column function not giving correct output",
    "WSGIServer not working with https and python3",
    "select and filtered files in directory with enumerating in loop",
    "How to set any polygon the same total width",
}


@pytest.fixture(scope="module")
def fixture_paths(data_dir):
    return data_dir / "so_duplicates.csv", data_dir / "so_neutral.csv"


@pytest.fixture(scope="module")
def ingested(fixture_paths):
    duplicates_file, neutral_file = fixture_paths
    return ingest_stackoverflow_exports(duplicates_file, neutral_file, seed=0)


def write_csv(path, columns, rows):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    return path


def duplicate_row(
    row_id,
    title,
    created="2020-06-01 12:00:00",
    tags="<python>",
    dup_created="2019-06-01 12:00:00",
    dup_title="Target question title",
):
    return [
        row_id,
        title,
        created,
        tags,
        "body",
        "2020-06-02 12:00:00",
        "Duplicate",
        row_id + 1000,
        dup_created,
        dup_title,
        "target body",
    ]


class TestFixtureIngestion:
    def test_report_counts(self, ingested):
        """The bundled exports produce the documented accept/reject tallies."""
        _, report = ingested
        assert report.duplicate_pairs == 2
        assert report.neutral_pairs == 2
        assert report.rejected_tag == 1
        assert report.rejected_window == 3
        assert report.skipped_malformed == 1

    def test_documented_duplicate_pair_present(self, ingested):
        """The decode-question row yields its known Duplicate pair verbatim."""
        dataset, _ = ingested
        pairs = {
            (e.pair.u, e.pair.v) for e in dataset.examples if e.label == "Duplicate"
        }
        assert (IMAP_QUESTION, IMAP_TARGET) in pairs

    def test_duplicate_orientation_is_question_then_target(self, ingested):
        """u is the closed question's title and v is the target's title."""
        dataset, _ = ingested
        duplicates = [e for e in dataset.examples if e.label == "Duplicate"]
        assert {(e.pair.u, e.pair.v) for e in duplicates} == {
            (IMAP_QUESTION, IMAP_TARGET),
            ("Sort a dictionary by value in python", "How do I sort a dictionary by value?"),
        }

    def test_dataset_composition(self, ingested):
        """Two Duplicate examples precede two Neutral ones under the binary label set."""
        dataset, _ = ingested
        assert dataset.label_set.labels == ("Neutral", "Duplicate")
        assert [e.label for e in dataset.examples] == [
            "Duplicate",
            "Duplicate",
            "Neutral",
            "Neutral",
        ]

    def test_neutral_pairs_drawn_from_in_window_titles(self, ingested):
        """Neutral sentences come only from in-window neutral rows, no repeats."""
        dataset, _ = ingested
        for example in dataset.examples:
            if example.label != "Neutral":
                continue
            assert example.pair.u in IN_WINDOW_NEUTRAL_TITLES
            assert example.pair.v in IN_WINDOW_NEUTRAL_TITLES
            assert example.pair.u != example.pair.v

    def test_ingestion_deterministic_per_seed(self, fixture_paths, ingested):
        duplicates_file, neutral_file = fixture_paths
        dataset, _ = ingested
        again, _ = ingest_stackoverflow_exports(duplicates_file, neutral_file, seed=0)
        assert [(e.pair.u, e.pair.v, e.label) for e in again.examples] == [
            (e.pair.u, e.pair.v, e.label) for e in dataset.examples
        ]


class TestNeutralRatio:
    def test_zero_ratio_yields_no_neutrals(self, fixture_paths):
        dataset, report = ingest_stackoverflow_exports(
            *fixture_paths, seed=0, neutral_ratio=0.0
        )
        assert report.neutral_pairs == 0
        assert len(dataset.examples) == 2

    def test_ratio_scales_neutral_count(self, fixture_paths):
        _, report = ingest_stackoverflow_exports(
            *fixture_paths, seed=0, neutral_ratio=2.0
        )
        assert report.neutral_pairs == 4

    def test_oversized_ratio_raises(self, fixture_paths):
        """Four neutral titles give six possible pairs; asking for 20 fails."""
        with pytest.raises(DatasetSizeError, match="only 6"):
            ingest_stackoverflow_exports(*fixture_paths, seed=0, neutral_ratio=10.0)

    def test_negative_ratio_rejected(self, fixture_paths):
        with pytest.raises(ValueError):
            ingest_stackoverflow_exports(*fixture_paths, seed=0, neutral_ratio=-1.0)


class TestNeutralSampleMemory:
    def test_two_thousand_titles_stay_under_ten_megabytes(self, tmp_path):
        """Drawing 50 neutral pairs never lists the 1,999,000 title pairs."""
        duplicates = write_csv(
            tmp_path / "dups.csv",
            DUPLICATE_COLUMNS,
            [duplicate_row(i, f"Question {i}") for i in range(50)],
        )
        neutral = write_csv(
            tmp_path / "neutral.csv",
            NEUTRAL_COLUMNS,
            [[i, f"Neutral title {i}", "2020-06-01 12:00:00", "body"] for i in range(2000)],
        )
        tracemalloc.start()
        try:
            _, report = ingest_stackoverflow_exports(duplicates, neutral, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.neutral_pairs == 50
        assert peak < 10 * 2**20


class TestWindowChecks:
    def test_both_creation_dates_must_fall_inside_window(self, fixture_paths):
        """Narrowing the window to 2019+ evicts every pre-2019 target question."""
        narrow = IngestionWindow("2019-01-01", "2021-12-31")
        dataset, report = ingest_stackoverflow_exports(
            *fixture_paths, seed=0, window=narrow
        )
        assert report.duplicate_pairs == 0
        assert report.neutral_pairs == 0
        assert report.rejected_window == 5
        assert dataset.examples == ()


class TestTagFilter:
    @pytest.mark.parametrize(
        "tags, accepted",
        [
            ("<python><email>", True),
            ("<PYTHON>", True),
            ("<python-3.x><pandas>", False),
            ("<java><spring>", False),
            ("plain python mention without brackets", True),
            ("", False),
        ],
    )
    def test_tag_match_requires_exact_python_token(
        self, tmp_path, data_dir, tags, accepted
    ):
        """Bracketed tags must contain the exact token; bare text falls back to substring."""
        dup_file = write_csv(
            tmp_path / "dups.csv",
            DUPLICATE_COLUMNS,
            [duplicate_row(1, "Some question title", tags=tags)],
        )
        _, report = ingest_stackoverflow_exports(
            dup_file, data_dir / "so_neutral.csv", seed=0
        )
        assert report.duplicate_pairs == (1 if accepted else 0)
        assert report.rejected_tag == (0 if accepted else 1)


class TestColumnValidation:
    def test_missing_duplicate_column_raises(self, tmp_path, data_dir):
        columns = [c for c in DUPLICATE_COLUMNS if c != "duptitle"]
        dup_file = write_csv(
            tmp_path / "dups.csv",
            columns,
            [duplicate_row(1, "t")[: len(columns)]],
        )
        with pytest.raises(ParseError, match="duptitle"):
            ingest_stackoverflow_exports(dup_file, data_dir / "so_neutral.csv", seed=0)

    def test_missing_neutral_column_raises(self, tmp_path, data_dir):
        neutral_file = write_csv(
            tmp_path / "neutral.csv",
            ["id", "title", "body"],
            [[1, "t", "b"]],
        )
        with pytest.raises(ParseError, match="creationdate"):
            ingest_stackoverflow_exports(
                data_dir / "so_duplicates.csv", neutral_file, seed=0
            )

    def test_header_only_files_yield_empty_dataset(self, tmp_path):
        dup_file = write_csv(tmp_path / "dups.csv", DUPLICATE_COLUMNS, [])
        neutral_file = write_csv(tmp_path / "neutral.csv", NEUTRAL_COLUMNS, [])
        dataset, report = ingest_stackoverflow_exports(dup_file, neutral_file, seed=0)
        assert dataset.examples == ()
        assert report.duplicate_pairs == 0
        assert report.neutral_pairs == 0
