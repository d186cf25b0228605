"""Bug tracker ingestion: wire contract, retries, and pair construction."""

import json

import pytest

from pairshot.data import Dataset
from pairshot.errors import DataFormatError, DatasetSizeError, IngestError
from pairshot.ingestion.bugzilla import (
    DEFAULT_FIELDS,
    BugRecord,
    IngestionWindow,
    build_dependency_pairs,
    build_duplicate_pairs,
    build_neutral_pairs,
    bugzilla_task_dataset,
    fetch_bugs,
    parse_bug,
)
from pairshot.ingestion.mock_server import MockBugzillaServer, make_fixture_bugs
from pairshot.ingestion.srs import load_requirement_pairs

WINDOW = IngestionWindow("2019-01-01", "2021-12-31")


@pytest.fixture(scope="module")
def fixture_bugs():
    return make_fixture_bugs(250, duplicate_links=2, dependency_links=3, seed=7)


@pytest.fixture(scope="module")
def fetched(fixture_bugs):
    """One full fetch of the 250-bug fixture through the mock server."""
    with MockBugzillaServer(fixture_bugs) as server:
        result = fetch_bugs(server.endpoint, WINDOW, page_size=100)
        log = list(server.request_log)
    return result, log


def open_bug(bug_id, summary, depends_on=(), dupe_of=(), resolution=""):
    return BugRecord(
        id=bug_id,
        summary=summary,
        description="",
        creation_time="2020-06-01T00:00:00Z",
        resolution=resolution,
        dupe_of=tuple(dupe_of),
        depends_on=tuple(depends_on),
    )


class TestWindow:
    def test_contains_is_inclusive_on_both_ends(self):
        """Boundary days fall inside the window; neighbours fall outside."""
        assert WINDOW.contains("2019-01-01T00:00:00Z")
        assert WINDOW.contains("2021-12-31T23:59:59Z")
        assert not WINDOW.contains("2018-12-31T23:59:59Z")
        assert not WINDOW.contains("2022-01-01T00:00:00Z")

    def test_inverted_window_rejected(self):
        """A window whose start is after its end is a construction error."""
        with pytest.raises(ValueError):
            IngestionWindow("2021-01-01", "2019-01-01")


class TestFixture:
    def test_fixture_shape(self, fixture_bugs):
        """The generator emits the requested counts of links and records."""
        assert len(fixture_bugs) == 250
        duplicates = [b for b in fixture_bugs if b["resolution"] == "DUPLICATE"]
        dependents = [b for b in fixture_bugs if b["depends_on"]]
        fixed = [b for b in fixture_bugs if b["resolution"] == "FIXED"]
        assert len(duplicates) == 2
        assert all(len(b["dupe_of"]) == 1 for b in duplicates)
        assert len(dependents) == 3
        assert len(fixed) == 10

    def test_fixture_links_resolve_to_open_bugs(self, fixture_bugs):
        """Every link target exists in the fixture and is an open bug."""
        by_id = {b["id"]: b for b in fixture_bugs}
        for bug in fixture_bugs:
            for target in (*bug["dupe_of"], *bug["depends_on"]):
                assert by_id[target]["resolution"] == ""

    def test_fixture_dates_inside_window(self, fixture_bugs):
        assert all(WINDOW.contains(b["creation_time"]) for b in fixture_bugs)

    def test_fixture_deterministic(self, fixture_bugs):
        assert make_fixture_bugs(250, 2, 3, seed=7) == fixture_bugs


class TestFetchContract:
    def test_paging_fetches_everything_in_three_requests(self, fetched):
        """250 records at page size 100 need exactly three GETs."""
        result, log = fetched
        assert result.requests_made == 3
        assert len(log) == 3
        assert len(result.records) == 250
        assert result.skipped_malformed == 0
        assert {r.id for r in result.records} == set(range(1, 251))

    def test_request_parameters(self, fetched):
        """Each page request carries the full field list, window, order, and paging."""
        _, log = fetched
        for entry, offset in zip(log, ("0", "100", "200")):
            assert entry.path == "/rest/bug"
            assert entry.params["include_fields"] == ",".join(DEFAULT_FIELDS)
            assert entry.params["creation_time_from"] == "2019-01-01"
            assert entry.params["creation_time_to"] == "2021-12-31"
            assert entry.params["order"] == "creation_time desc"
            assert entry.params["limit"] == "100"
            assert entry.params["offset"] == offset

    def test_records_parse_links(self, fetched):
        """Fetched records keep duplicate and dependency links as id tuples."""
        result, _ = fetched
        by_id = {r.id: r for r in result.records}
        assert sum(1 for r in result.records if r.resolution == "DUPLICATE") == 2
        for record in result.records:
            for target in (*record.dupe_of, *record.depends_on):
                assert isinstance(target, int)
                assert target in by_id

    def test_window_filters_server_side(self, fixture_bugs):
        """A narrower window returns only records created inside it."""
        narrow = IngestionWindow("2020-01-01", "2020-12-31")
        with MockBugzillaServer(fixture_bugs) as server:
            result = fetch_bugs(server.endpoint, narrow, page_size=100)
        expected = [b for b in fixture_bugs if b["creation_time"].startswith("2020")]
        assert len(result.records) == len(expected)
        assert all(r.creation_time.startswith("2020") for r in result.records)

    def test_malformed_records_skipped_and_counted(self):
        """A record failing strict parsing is dropped, not fatal."""
        bugs = make_fixture_bugs(30, 1, 1, seed=3, resolved_fixed=2)
        bugs[5]["id"] = "not-an-int"
        with MockBugzillaServer(bugs) as server:
            result = fetch_bugs(server.endpoint, WINDOW, page_size=100)
        assert result.skipped_malformed == 1
        assert len(result.records) == 29

    def test_duplicate_ids_deduped_first_wins(self):
        """A record served twice under one id appears once in the result."""
        bugs = make_fixture_bugs(20, 1, 1, seed=3, resolved_fixed=2)
        clone = dict(bugs[4])
        clone["summary"] = "imposter summary"
        bugs.append(clone)
        with MockBugzillaServer(bugs) as server:
            result = fetch_bugs(server.endpoint, WINDOW, page_size=100)
        matching = [r for r in result.records if r.id == clone["id"]]
        assert len(matching) == 1

    def test_nonpositive_page_size_rejected(self):
        with pytest.raises(ValueError):
            fetch_bugs("http://localhost:1", WINDOW, page_size=0)


class TestRetries:
    def test_transient_503_retried_with_backoff(self, fixture_bugs):
        """Two 503s on the first page are absorbed by capped exponential backoff."""
        sleeps = []
        with MockBugzillaServer(fixture_bugs) as server:
            server.failures_remaining = 2
            result = fetch_bugs(
                server.endpoint, WINDOW, page_size=100, sleep=sleeps.append
            )
            log_size = len(server.request_log)
        assert len(result.records) == 250
        assert result.requests_made == 3  # successful pages only
        assert log_size == 5  # two failures plus three successes
        assert sleeps == [0.5, 1.0]

    def test_backoff_is_capped(self, fixture_bugs):
        """Waits double per attempt but never exceed the configured cap."""
        sleeps = []
        with MockBugzillaServer(fixture_bugs[:5]) as server:
            server.failures_remaining = 5
            result = fetch_bugs(
                server.endpoint,
                WINDOW,
                page_size=100,
                max_retries=5,
                backoff_cap=2.0,
                sleep=sleeps.append,
            )
        assert sleeps == [0.5, 1.0, 2.0, 2.0, 2.0]
        assert len(result.records) == 5

    def test_persistent_503_raises_after_retry_budget(self, fixture_bugs):
        """When every attempt fails, the fetch raises instead of looping."""
        sleeps = []
        with MockBugzillaServer(fixture_bugs[:5]) as server:
            server.failures_remaining = 99
            with pytest.raises(IngestError, match="after 3 attempts"):
                fetch_bugs(
                    server.endpoint,
                    WINDOW,
                    page_size=100,
                    max_retries=2,
                    sleep=sleeps.append,
                )
        assert sleeps == [0.5, 1.0]

    def test_client_error_fails_immediately(self, fixture_bugs):
        """A 4xx response is not retried; it is a contract violation."""
        sleeps = []
        with MockBugzillaServer(fixture_bugs[:5]) as server:
            bad_endpoint = server.endpoint + "/missing"
            with pytest.raises(IngestError, match="404"):
                fetch_bugs(bad_endpoint, WINDOW, page_size=100, sleep=sleeps.append)
        assert sleeps == []


class TestParseBug:
    def test_minimal_record(self):
        record = parse_bug(
            {"id": 9, "summary": "s", "creation_time": "2020-01-01T00:00:00Z"}
        )
        assert record.id == 9
        assert record.description == ""
        assert record.is_open
        assert record.dupe_of == ()

    def test_scalar_link_promoted_to_tuple(self):
        record = parse_bug(
            {
                "id": 9,
                "summary": "s",
                "creation_time": "2020-01-01T00:00:00Z",
                "dupe_of": 4,
                "depends_on": [1, 2],
            }
        )
        assert record.dupe_of == (4,)
        assert record.depends_on == (1, 2)

    @pytest.mark.parametrize(
        "raw",
        [
            {"summary": "s", "creation_time": "2020-01-01"},
            {"id": "x", "summary": "s", "creation_time": "2020-01-01"},
            {"id": 1, "creation_time": "2020-01-01"},
            {"id": 1, "summary": "s", "creation_time": ""},
            {"id": 1, "summary": "s", "creation_time": "2020-01-01", "dupe_of": "4"},
        ],
    )
    def test_malformed_records_raise(self, raw):
        with pytest.raises(ValueError):
            parse_bug(raw)


class TestLinkPairs:
    def test_duplicate_pairs_exact_count_and_orientation(self, fetched):
        """The 250-bug fixture yields exactly its two duplicate-link pairs."""
        result, _ = fetched
        by_id = {r.id: r for r in result.records}
        report = build_duplicate_pairs(result.records)
        assert len(report.pairs) == 2
        assert report.skipped_unresolved == 0
        duplicates = [r for r in result.records if r.resolution == "DUPLICATE"]
        expected = {
            (r.summary, by_id[r.dupe_of[0]].summary) for r in duplicates
        }
        assert set(report.pairs) == expected

    def test_dependency_pairs_exact_count_and_orientation(self, fetched):
        """Dependency links become (dependent, dependency) pairs, three of them."""
        result, _ = fetched
        by_id = {r.id: r for r in result.records}
        report = build_dependency_pairs(result.records)
        assert len(report.pairs) == 3
        dependents = [r for r in result.records if r.depends_on]
        expected = {
            (r.summary, by_id[r.depends_on[0]].summary) for r in dependents
        }
        assert set(report.pairs) == expected

    def test_duplicate_links_require_duplicate_resolution(self):
        """A dupe_of on a bug not resolved as DUPLICATE contributes nothing."""
        records = [
            open_bug(1, "a", dupe_of=[2], resolution="FIXED"),
            open_bug(2, "b"),
        ]
        assert build_duplicate_pairs(records).pairs == []

    def test_missing_target_skipped_and_counted(self):
        """Links pointing outside the fetched window are skipped, not fabricated."""
        records = [
            open_bug(1, "a", dupe_of=[99], resolution="DUPLICATE"),
            open_bug(2, "b", dupe_of=[3], resolution="DUPLICATE"),
            open_bug(3, "c"),
        ]
        report = build_duplicate_pairs(records)
        assert report.pairs == [("b", "c")]
        assert report.skipped_unresolved == 1


class TestNeutralPairs:
    def make_records(self):
        return [
            open_bug(1, "alpha"),
            open_bug(2, "beta"),
            open_bug(3, "gamma"),
            open_bug(4, "delta", depends_on=[1]),
            open_bug(5, "closed", resolution="FIXED"),
        ]

    def test_sample_space_excludes_links_and_closed_bugs(self):
        """All unlinked open pairs are reachable; the linked pair never appears."""
        records = self.make_records()
        pairs = build_neutral_pairs(records, 5, seed=11)
        assert len(pairs) == 5
        assert set(pairs) <= {
            ("alpha", "beta"),
            ("alpha", "gamma"),
            ("beta", "gamma"),
            ("beta", "delta"),
            ("gamma", "delta"),
        }
        flat = [s for pair in pairs for s in pair]
        assert "closed" not in flat
        assert ("delta", "alpha") not in pairs and ("alpha", "delta") not in pairs

    def test_oversized_request_raises(self):
        """Requesting more pairs than the unlinked open space holds fails loudly."""
        with pytest.raises(DatasetSizeError, match="only 5"):
            build_neutral_pairs(self.make_records(), 6, seed=11)

    def test_negative_request_raises(self):
        with pytest.raises(DatasetSizeError):
            build_neutral_pairs(self.make_records(), -1, seed=11)

    def test_deterministic_per_seed(self, fetched):
        result, _ = fetched
        first = build_neutral_pairs(result.records, 40, seed=21)
        second = build_neutral_pairs(result.records, 40, seed=21)
        other = build_neutral_pairs(result.records, 40, seed=22)
        assert first == second
        assert first != other

    def test_pairs_never_repeat_within_a_sample(self, fetched):
        result, _ = fetched
        pairs = build_neutral_pairs(result.records, 60, seed=5)
        keys = {frozenset(p) for p in pairs}
        assert len(keys) == 60

    def test_space_above_two_hundred_thousand_pairs(self):
        """800 open bugs hold 319,600 pairs less the links; draws stay exact and link-free."""
        records = [
            open_bug(
                i,
                f"bug {i}",
                depends_on=[i - 1] if i % 2 else [],
                dupe_of=[i - 7] if i % 5 == 0 and i >= 7 else [],
            )
            for i in range(800)
        ]
        records.append(open_bug(900, "closed", resolution="FIXED"))
        linked = {
            frozenset((r.summary, f"bug {t}")) for r in records for t in (*r.depends_on, *r.dupe_of)
        }
        first = build_neutral_pairs(records, 5000, seed=3)
        assert first == build_neutral_pairs(records, 5000, seed=3)
        assert first != build_neutral_pairs(records, 5000, seed=4)
        keys = {frozenset(p) for p in first}
        assert len(keys) == 5000
        assert not keys & linked
        assert all(len(key) == 2 and "closed" not in key for key in keys)


class TestTaskDatasets:
    def test_duplicate_task_mixes_links_with_neutrals(self, fetched):
        """The duplicate task pairs its 2 links against 2 neutrals at ratio 1."""
        result, _ = fetched
        dataset, report = bugzilla_task_dataset(
            result.records, "bugzilla_duplicate", seed=13
        )
        assert isinstance(dataset, Dataset)
        assert dataset.label_set.labels == ("Neutral", "Duplicate")
        counts = {label: 0 for label in dataset.label_set.labels}
        for example in dataset.examples:
            counts[example.label] += 1
        assert counts == {"Duplicate": 2, "Neutral": 2}
        assert report.duplicate_pairs == 2
        assert report.entailment_pairs == 0
        assert report.neutral_pairs == 2

    def test_entailment_task_uses_dependency_links(self, fetched):
        result, _ = fetched
        dataset, report = bugzilla_task_dataset(
            result.records, "bugzilla_entailment", seed=13
        )
        assert dataset.label_set.labels == ("Not Entailment", "Entailment")
        counts = {label: 0 for label in dataset.label_set.labels}
        for example in dataset.examples:
            counts[example.label] += 1
        assert counts == {"Entailment": 3, "Not Entailment": 3}
        assert report.entailment_pairs == 3

    def test_neutral_ratio_scales_negative_class(self, fetched):
        result, _ = fetched
        dataset, report = bugzilla_task_dataset(
            result.records, "bugzilla_duplicate", seed=13, neutral_ratio=2.0
        )
        assert report.neutral_pairs == 4
        assert len(dataset.examples) == 6

    def test_unknown_task_rejected(self, fetched):
        result, _ = fetched
        with pytest.raises(ValueError, match="bug tracker"):
            bugzilla_task_dataset(result.records, "so_duplicate", seed=13)

    def test_negative_ratio_rejected(self, fetched):
        result, _ = fetched
        with pytest.raises(ValueError):
            bugzilla_task_dataset(
                result.records, "bugzilla_duplicate", seed=13, neutral_ratio=-0.5
            )


class TestRequirementPairs:
    def write_lines(self, tmp_path, lines, name="pairs.jsonl"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_valid_file_loads_all_labels(self, tmp_path):
        """Well-formed lines load with the three-way label set intact."""
        lines = [
            json.dumps({"u": "The pump shall start.", "v": "The pump may start.", "label": "Neutral"}),
            json.dumps({"u": "Log every event.", "v": "All events are logged.", "label": "Duplicate"}),
            json.dumps({"u": "Shut down on overheat.", "v": "Never shut down.", "label": "Conflict"}),
            "",
        ]
        dataset = load_requirement_pairs(self.write_lines(tmp_path, lines))
        assert len(dataset.examples) == 3
        assert dataset.label_set.labels == ("Neutral", "Duplicate", "Conflict")
        assert [e.label for e in dataset.examples] == ["Neutral", "Duplicate", "Conflict"]
        assert dataset.examples[0].pair.u == "The pump shall start."

    def test_label_case_mismatch_names_file_and_line(self, tmp_path):
        """A lowercase label is rejected with the offending location spelled out."""
        lines = [
            json.dumps({"u": "a", "v": "b", "label": "Neutral"}),
            json.dumps({"u": "c", "v": "d", "label": "duplicate"}),
        ]
        path = self.write_lines(tmp_path, lines)
        with pytest.raises(DataFormatError, match="case-sensitive") as excinfo:
            load_requirement_pairs(path)
        assert f"{path}:2" in str(excinfo.value)
        assert "'duplicate'" in str(excinfo.value)

    def test_invalid_json_line_located(self, tmp_path):
        lines = [
            json.dumps({"u": "a", "v": "b", "label": "Neutral"}),
            "{not json",
        ]
        path = self.write_lines(tmp_path, lines)
        with pytest.raises(DataFormatError, match="invalid JSON"):
            load_requirement_pairs(path)

    def test_non_string_sentence_rejected(self, tmp_path):
        path = self.write_lines(
            tmp_path, [json.dumps({"u": 5, "v": "b", "label": "Neutral"})]
        )
        with pytest.raises(DataFormatError, match="u and v"):
            load_requirement_pairs(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self.write_lines(tmp_path, ["", ""])
        with pytest.raises(DataFormatError, match="no records"):
            load_requirement_pairs(path)
