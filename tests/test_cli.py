"""Command-line workflow: subcommands, exit codes, and file outputs."""

import argparse
import json
import socket
import sys

import pytest

from pairshot.backend.toy import ToyBackend, ToyTextClassifier
from pairshot.cli import _parse_option, build_parser, main
from pairshot.data import load_dataset
from pairshot.errors import NumericError
from pairshot.finetune import FinetuneConfig, run_finetune
from pairshot.pet import PetConfig, run_pet
from pairshot.setfit import SetFitConfig, run_setfit
from pairshot.ingestion.mock_server import MockBugzillaServer, make_fixture_bugs


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Datasets produced by the ingest and split subcommands, shared downstream."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(
        [
            "ingest", "synthetic",
            "--task", "so_duplicate",
            "--pairs", "120",
            "--unlabeled", "60",
            "--seed", "3",
            "--out", str(root / "data"),
        ]
    )
    assert rc == 0
    rc = main(
        [
            "split",
            "--data", str(root / "data" / "so_duplicate.pool.jsonl"),
            "--train-pool", "80",
            "--test", "30",
            "--seed", "5",
            "--out", str(root / "splits"),
        ]
    )
    assert rc == 0
    return {
        "root": root,
        "pool": root / "splits" / "so_duplicate.pool.train_pool.jsonl",
        "test": root / "splits" / "so_duplicate.pool.test.jsonl",
        "unlabeled": root / "data" / "so_duplicate.unlabeled.jsonl",
    }


class TestIngestAndSplit:
    def test_ingest_writes_pool_and_unlabeled(self, workspace):
        """The synthetic ingest writes a labeled pool and an unlabeled file."""
        data = workspace["root"] / "data"
        pool = load_dataset(data / "so_duplicate.pool.jsonl")
        unlabeled = load_dataset(workspace["unlabeled"])
        assert len(pool) == 120
        assert pool.label_set.labels == ("Neutral", "Duplicate")
        assert len(unlabeled) == 60
        assert unlabeled.kind == "unlabeled"

    def test_split_produces_disjoint_sized_parts(self, workspace):
        pool = load_dataset(workspace["pool"])
        test = load_dataset(workspace["test"])
        assert len(pool) == 80
        assert len(test) == 30
        pool_sentences = {s for e in pool for s in (e.pair.u, e.pair.v)}
        test_sentences = {s for e in test for s in (e.pair.u, e.pair.v)}
        assert pool_sentences.isdisjoint(test_sentences)


class TestTrain:
    def test_train_writes_report_and_prints_metrics(self, workspace, capsys):
        """Training emits a one-line metric summary and a JSON report file."""
        out = workspace["root"] / "train-out"
        rc = main(
            [
                "train",
                "--method", "finetune",
                "--train", str(workspace["pool"]),
                "--test", str(workspace["test"]),
                "--seed", "11",
                "--out", str(out),
                "--option", "steps=40",
                "--option", "batch=4",
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "finetune on 80 examples:" in stdout
        assert "accuracy=" in stdout
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert report["n"] == 30

    def test_train_pet_accepts_unlabeled_file(self, workspace, capsys):
        rc = main(
            [
                "train",
                "--method", "pet",
                "--train", str(workspace["pool"]),
                "--test", str(workspace["test"]),
                "--unlabeled", str(workspace["unlabeled"]),
                "--seed", "11",
                "--option", "mlm_steps=5",
                "--option", "distill_steps=5",
                "--option", "batch=4",
            ]
        )
        assert rc == 0
        assert "pet on 80 examples:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, task, what",
        [("--test", "bugzilla_duplicate", "the test set"),
         ("--unlabeled", "srs_conflict", "the unlabeled pool")],
    )
    def test_train_refuses_data_of_another_task(
        self, workspace, tmp_path, capsys, flag, task, what
    ):
        rc = main(["ingest", "synthetic", "--task", task, "--pairs", "20", "--unlabeled", "20",
                   "--out", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        files = {"--train": workspace["pool"], "--test": workspace["test"],
                 "--unlabeled": workspace["unlabeled"]}
        files[flag] = tmp_path / f"{task}.{'pool' if flag == '--test' else 'unlabeled'}.jsonl"
        argv = ["train", "--method", "pet"]
        for option, path in files.items():
            argv += [option, str(path)]
        rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {what} holds '{task}' data, not 'so_duplicate'\n"

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_a_test_set_sharing_sentences_with_the_training_set_is_refused(
        self, workspace, tmp_path, capsys, command
    ):
        """train checks its data as a sweep does: the training pool given as
        the test set is refused before anything is trained or written."""
        pool, out = str(workspace["pool"]), tmp_path / "out"
        if command == "train":
            argv = ["train", "--method", "finetune", "--train", pool, "--test", pool,
                    "--out", str(out)]
        else:
            config = tmp_path / "sweep.config.json"
            config.write_text(json.dumps({"task_id": "so_duplicate", "method": "finetune",
                                          "sizes": [10], "replicates": 1}))
            argv = ["sweep", "--config", str(config), "--pool", pool, "--test", pool,
                    "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: training pool and test set share 160 sentence(s)")
        assert captured.err.count("\n") == 1 and len(captured.err) <= 300
        assert not out.exists()


class TestTrainMatchesLibrary:
    """``pairshot train`` writes the report the library call produces."""

    def train_report(self, workspace, tmp_path, method, options, unlabeled=False, backend=()):
        argv = [
            "train",
            "--method", method,
            "--train", str(workspace["pool"]),
            "--test", str(workspace["test"]),
            "--seed", "17",
            "--out", str(tmp_path),
            *backend,
        ]
        if unlabeled:
            argv += ["--unlabeled", str(workspace["unlabeled"])]
        for key, value in options.items():
            argv += ["--option", f"{key}={json.dumps(value)}"]
        assert main(argv) == 0
        return (tmp_path / "report.json").read_bytes()

    def datasets(self, workspace):
        return load_dataset(workspace["pool"]), load_dataset(workspace["test"])

    def test_finetune(self, workspace, tmp_path):
        options = {"steps": 40, "batch": 4}
        train, test = self.datasets(workspace)
        _, report = run_finetune(FinetuneConfig(**options), train, test, ToyBackend(), 17)
        expected = (report.to_json() + "\n").encode("utf-8")
        assert self.train_report(workspace, tmp_path, "finetune", options) == expected

    def test_setfit(self, workspace, tmp_path):
        options = {"R": 2, "batch": 8}
        train, test = self.datasets(workspace)
        _, report = run_setfit(SetFitConfig(**options), train, test, ToyBackend(), 17)
        expected = (report.to_json() + "\n").encode("utf-8")
        assert self.train_report(workspace, tmp_path, "setfit", options) == expected

    def test_adapter_backend_writes_the_toy_report(self, workspace, tmp_path):
        """--backend-option gives train its deployment settings; the served
        toy backend trains exactly as the in-process one."""
        options = {"steps": 40, "batch": 4}
        expected = self.train_report(workspace, tmp_path / "toy", "finetune", options)
        command = [sys.executable, "-m", "pairshot.backend.serve"]
        got = self.train_report(
            workspace,
            tmp_path / "adapter",
            "finetune",
            options,
            backend=["--backend", "adapter-subprocess", "--backend-option", f"command={json.dumps(command)}"],
        )
        assert got == expected

    def test_pet_with_unlabeled(self, workspace, tmp_path):
        options = {"mlm_steps": 10, "distill_steps": 20, "batch": 4}
        train, test = self.datasets(workspace)
        unlabeled = load_dataset(workspace["unlabeled"])
        config = PetConfig.for_task(train.label_set.task_id, **options)
        result = run_pet(config, train, unlabeled, test, ToyBackend(), 17)
        expected = (result.report.to_json() + "\n").encode("utf-8")
        got = self.train_report(workspace, tmp_path, "pet", options, unlabeled=True)
        assert got == expected
        metadata = json.loads((tmp_path / "metadata.json").read_text())
        assert metadata["unlabeled"] == len(unlabeled)
        soft = (tmp_path / "soft_labeled.jsonl").read_text().splitlines()
        assert len(soft) == len(unlabeled)


@pytest.fixture(scope="module")
def sweep_dir(workspace):
    config = {
        "task_id": "so_duplicate",
        "method": "finetune",
        "sizes": [10, 20],
        "replicates": 2,
        "test_size": 30,
        "unlabeled_size": 0,
        "engine_options": {"steps": 20, "batch": 4},
    }
    config_path = workspace["root"] / "sweep.config.json"
    config_path.write_text(json.dumps(config))
    out = workspace["root"] / "sweeps"
    rc = main(
        [
            "sweep",
            "--config", str(config_path),
            "--pool", str(workspace["pool"]),
            "--test", str(workspace["test"]),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


class TestSweepAndReport:
    def test_sweep_writes_result_files(self, sweep_dir):
        assert (sweep_dir / "sweep.result.json").exists()
        assert (sweep_dir / "sweep.timing.json").exists()
        assert (sweep_dir / "sweep.manifest.json").exists()

    def test_report_single_result_text(self, sweep_dir, capsys):
        rc = main(["report", "--result", str(sweep_dir / "sweep.result.json")])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "task=so_duplicate method=finetune" in stdout
        assert "±" in stdout

    def test_report_json_format(self, sweep_dir, capsys):
        rc = main(
            [
                "report",
                "--result", str(sweep_dir / "sweep.result.json"),
                "--format", "json",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["size"] for row in payload["rows"]] == [10, 20]

    def test_report_compare_marks_best_columns(self, sweep_dir, capsys):
        """Comparing a result against itself renders starred, underscored cells."""
        result = str(sweep_dir / "sweep.result.json")
        rc = main(["report", "--result", result, result, "--metric", "accuracy"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "so_duplicate/finetune@toy" in stdout
        assert "_*" in stdout

    def bad_sweep(self, workspace, engine_options, out):
        config = {
            "task_id": "so_duplicate",
            "method": "finetune",
            "sizes": [10],
            "replicates": 1,
            "test_size": 30,
            "engine_options": engine_options,
        }
        config_path = workspace["root"] / "bad.config.json"
        config_path.write_text(json.dumps(config))
        return main(
            [
                "sweep",
                "--config", str(config_path),
                "--pool", str(workspace["pool"]),
                "--test", str(workspace["test"]),
                "--name", "bad",
                "--out", str(out),
            ]
        )

    def test_sweep_with_failing_cells_exits_nonzero(self, workspace, tmp_path, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise NumericError("non-finite scores during training; lower the learning rate")

        monkeypatch.setattr(ToyTextClassifier, "train", diverge)
        assert self.bad_sweep(workspace, {"steps": 5}, tmp_path / "out") == 1
        captured = capsys.readouterr()
        assert "1 cell(s) failed" in captured.err

    @pytest.mark.parametrize(
        "options, name", [({"bogus_knob": 1}, "bogus_knob"), ({"lr": -0.5}, "lr")]
    )
    def test_sweep_with_a_bad_engine_option_exits_one_before_any_cell(
        self, workspace, tmp_path, capsys, options, name
    ):
        assert self.bad_sweep(workspace, options, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()


class TestIngestRemoteSources:
    def test_ingest_bugzilla_through_mock_server(self, tmp_path, capsys):
        """The bugzilla ingest fetches pages and writes the task pool."""
        bugs = make_fixture_bugs(60, duplicate_links=2, dependency_links=3, seed=7, resolved_fixed=5)
        with MockBugzillaServer(bugs) as server:
            rc = main(
                [
                    "ingest", "bugzilla",
                    "--endpoint", server.endpoint,
                    "--task", "bugzilla_duplicate",
                    "--seed", "3",
                    "--out", str(tmp_path),
                ]
            )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "fetched 60 bug records in 1 request(s)" in stdout
        dataset = load_dataset(tmp_path / "bugzilla_duplicate.pool.jsonl")
        labels = [e.label for e in dataset]
        assert labels.count("Duplicate") == 2
        assert labels.count("Neutral") == 2

    def test_ingest_stackoverflow_fixture(self, tmp_path, data_dir, capsys):
        rc = main(
            [
                "ingest", "stackoverflow",
                "--duplicates", str(data_dir / "so_duplicates.csv"),
                "--neutral", str(data_dir / "so_neutral.csv"),
                "--seed", "0",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "duplicates=2 neutrals=2 rejected_tag=1 rejected_window=3 malformed=1" in stdout
        dataset = load_dataset(tmp_path / "so_duplicate.pool.jsonl")
        assert len(dataset) == 4

    @pytest.mark.parametrize("source", ["bugzilla", "stackoverflow"])
    def test_infinite_neutral_ratio_exits_one(self, tmp_path, data_dir, capsys, source):
        """--neutral-ratio inf ends in one error line naming it, and writes nothing."""
        out = tmp_path / "out"
        bugs = make_fixture_bugs(60, duplicate_links=2, dependency_links=3, seed=7, resolved_fixed=5)
        with MockBugzillaServer(bugs) as server:
            inputs = {
                "bugzilla": ["--endpoint", server.endpoint, "--task", "bugzilla_duplicate"],
                "stackoverflow": ["--duplicates", str(data_dir / "so_duplicates.csv"),
                                  "--neutral", str(data_dir / "so_neutral.csv")],
            }[source]
            rc = main(["ingest", source, *inputs, "--neutral-ratio", "inf", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "neutral_ratio" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_ingest_srs_file(self, tmp_path, capsys):
        source = tmp_path / "reqs.jsonl"
        lines = [
            json.dumps({"u": "The pump shall start.", "v": "The pump may start.", "label": "Neutral"}),
            json.dumps({"u": "Log every event.", "v": "All events are logged.", "label": "Duplicate"}),
            json.dumps({"u": "Shut down on overheat.", "v": "Never shut down.", "label": "Conflict"}),
        ]
        source.write_text("\n".join(lines) + "\n")
        rc = main(
            ["ingest", "srs", "--file", str(source), "--out", str(tmp_path / "out")]
        )
        assert rc == 0
        assert "wrote 3 examples" in capsys.readouterr().out
        dataset = load_dataset(tmp_path / "out" / "srs_conflict.pool.jsonl")
        assert dataset.label_set.task_id == "srs_conflict"


RESULT_CONFIG = {"task_id": "so_duplicate", "method": "finetune", "backend_kind": "toy",
                 "sizes": [10]}
RESULT_METRICS = {"accuracy": 0.9, "macro_f1": 0.8, "weighted_f1": 0.85}


def sweep_result(**fields):
    """A sweep result that reports can render, with fields replaced."""
    summary = {"count": 1, "means": RESULT_METRICS, "stds": RESULT_METRICS}
    payload = {
        "format": "pairshot-sweep",
        "config": RESULT_CONFIG,
        "cells": [{"size": 10, "replicate": 0, "seed": 1000, "status": "ok"}],
        "summaries": {"10": summary},
    }
    return {**payload, **fields}


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["split", "--nope", "x"])
        assert excinfo.value.code == 2

    def test_malformed_option_is_usage_error(self, workspace):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "train",
                    "--method", "finetune",
                    "--train", str(workspace["pool"]),
                    "--test", str(workspace["test"]),
                    "--option", "no-equals-sign",
                ]
            )
        assert excinfo.value.code == 2

    def test_a_huge_malformed_option_is_echoed_cut(self, workspace, capsys):
        """An --option of 100,000 characters without '=' is refused in a
        short usage error, not echoed whole."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "train",
                    "--method", "finetune",
                    "--train", str(workspace["pool"]),
                    "--test", str(workspace["test"]),
                    "--option", "x" * 100_000,
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "expected key=value, got 'xxx" in err
        assert len(err.encode("utf-8")) < 1000

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--method", "finetune",
                "--train", str(tmp_path / "absent.jsonl"),
                "--test", str(tmp_path / "absent.jsonl"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_infeasible_split_exits_one(self, workspace, capsys):
        rc = main(
            [
                "split",
                "--data", str(workspace["root"] / "data" / "so_duplicate.pool.jsonl"),
                "--train-pool", "60",
                "--test", "1000",
                "--out", str(workspace["root"] / "never"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, count", [("--pairs", "-5"), ("--unlabeled", "-3")])
    def test_negative_synthetic_count_exits_one_before_writing(
        self, tmp_path, capsys, flag, count
    ):
        out = tmp_path / "data"
        rc = main(["ingest", "synthetic", "--task", "so_duplicate", flag, count, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and count in err
        assert not out.exists()

    def test_bad_srs_label_exits_one(self, tmp_path, capsys):
        source = tmp_path / "reqs.jsonl"
        source.write_text(json.dumps({"u": "a", "v": "b", "label": "conflict"}) + "\n")
        rc = main(["ingest", "srs", "--file", str(source), "--out", str(tmp_path)])
        assert rc == 1
        assert "case-sensitive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest-srs", "train-finetune", "train-pet", "sweep"])
    def test_a_huge_label_or_task_id_gives_one_short_error_line(
        self, workspace, tmp_path, capsys, command
    ):
        """A 100,000-character label in a requirement file, or task id in a
        dataset manifest or a sweep config, is echoed in part only."""
        huge, out = "x" * 100_000, tmp_path / "out"
        if command == "ingest-srs":
            source = tmp_path / "reqs.jsonl"
            source.write_text(json.dumps({"u": "a", "v": "b", "label": huge}) + "\n")
            argv = ["ingest", "srs", "--file", str(source), "--out", str(out)]
        elif command == "sweep":
            config = tmp_path / "sweep.config.json"
            config.write_text(json.dumps({"task_id": huge, "method": "finetune", "sizes": [10],
                                          "replicates": 1}))
            argv = ["sweep", "--config", str(config), "--pool", str(workspace["pool"]),
                    "--test", str(workspace["test"]), "--out", str(out)]
        else:  # a copy of the training pool whose manifest names a huge task
            pool = tmp_path / "huge.jsonl"
            pool.write_bytes(workspace["pool"].read_bytes())
            manifest = workspace["pool"].with_name(workspace["pool"].stem + ".manifest.json")
            (tmp_path / "huge.manifest.json").write_text(
                json.dumps({**json.loads(manifest.read_text()), "task_id": huge})
            )
            argv = ["train", "--method", command.split("-")[1], "--train", str(pool),
                    "--test", str(workspace["test"]), "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert len(captured.err.encode()) <= 300, captured.err[:400]
        assert not out.exists()

    def test_report_on_non_sweep_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "nope"}))
        rc = main(["report", "--result", str(path)])
        assert rc == 1
        assert "not a sweep result" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ratio",
        ['[1]', '{"Neutral": null, "Duplicate": 1}', "{Neutral: 1}",
         pytest.param("[" * 100_000, id="deep")],
    )
    def test_class_ratio_that_is_not_an_object_of_numbers_exits_one(
        self, workspace, tmp_path, capsys, ratio
    ):
        rc = main(
            [
                "split",
                "--data", str(workspace["root"] / "data" / "so_duplicate.pool.jsonl"),
                "--train-pool", "60",
                "--test", "20",
                "--class-ratio", ratio,
                "--out", str(tmp_path),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "class-ratio" in err
        assert len(err.strip().splitlines()) == 1
        assert len(err) < 200  # a huge refused value is echoed in part

    @pytest.mark.parametrize(
        "ratio, named",
        [
            ('{"Neutral": -1, "Duplicate": 2}', "Neutral"),
            ('{"Neutral": 1, "Duplicate": 1, "Bogus": 5}', "Bogus"),
            ('{"Neutral": Infinity, "Duplicate": 1}', "Neutral"),
        ],
    )
    def test_class_ratio_with_a_bad_weight_exits_one(
        self, workspace, tmp_path, capsys, ratio, named
    ):
        rc = main(
            [
                "split",
                "--data", str(workspace["root"] / "data" / "so_duplicate.pool.jsonl"),
                "--train-pool", "60",
                "--test", "20",
                "--class-ratio", ratio,
                "--out", str(tmp_path),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "class ratio" in err and named in err
        assert len(err.strip().splitlines()) == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "manifest",
        [
            [],
            "pairshot-dataset",
            {"format": "pairshot-dataset", "kind": "train", "labels": ["Neutral", "Duplicate"]},
            {"format": "pairshot-dataset", "task_id": 5, "kind": "train",
             "labels": ["Neutral", "Duplicate"]},
            {"format": "pairshot-dataset", "task_id": "so_duplicate",
             "labels": ["Neutral", "Duplicate"]},
            {"format": "pairshot-dataset", "task_id": "so_duplicate", "kind": "train"},
            {"format": "pairshot-dataset", "task_id": "so_duplicate", "kind": "train",
             "labels": "Neutral,Duplicate"},
            {"format": "pairshot-dataset", "task_id": "so_duplicate", "kind": "train",
             "labels": [["Neutral"], ["Duplicate"]]},
            {"format": "pairshot-dataset", "task_id": "so_duplicate", "kind": "train",
             "labels": ["Neutral", "Neutral"]},
        ],
    )
    def test_malformed_manifest_exits_one(self, tmp_path, capsys, manifest):
        data = tmp_path / "bad.jsonl"
        data.write_text(json.dumps({"u": "a", "v": "b", "label": "Neutral"}) + "\n")
        (tmp_path / "bad.manifest.json").write_text(json.dumps(manifest))
        rc = main(
            [
                "split", "--data", str(data), "--train-pool", "1", "--test", "1",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "manifest" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            "pairshot-sweep",
            {"format": "pairshot-sweep"},
            {"format": "pairshot-sweep", "cells": [], "summaries": {}},
            {"format": "pairshot-sweep", "config": {}, "summaries": {}},
            {"format": "pairshot-sweep", "config": {}, "cells": []},
            sweep_result(config=5),
            sweep_result(config={"method": "finetune", "backend_kind": "toy", "sizes": [10]}),
            sweep_result(config={**RESULT_CONFIG, "method": 3}),
            sweep_result(config={**RESULT_CONFIG, "sizes": 10}),
            sweep_result(config={**RESULT_CONFIG, "sizes": ["10"]}),
            sweep_result(cells={}),
            sweep_result(cells=[5]),
            sweep_result(cells=[{"size": 10}]),
            sweep_result(summaries=[]),
            sweep_result(summaries={"ten": sweep_result()["summaries"]["10"]}),
            sweep_result(summaries={"10": 5}),
            sweep_result(summaries={"10": {"stds": RESULT_METRICS}}),
            sweep_result(summaries={"10": {"means": RESULT_METRICS, "stds": []}}),
            sweep_result(summaries={"10": {"means": {"accuracy": 0.9}, "stds": RESULT_METRICS}}),
            sweep_result(summaries={"10": {"means": RESULT_METRICS, "stds": {
                **RESULT_METRICS, "accuracy": "0.1"}}}),
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "compare"])
    def test_report_on_a_malformed_result_exits_one(self, tmp_path, capsys, payload, fmt):
        path = tmp_path / "bad.result.json"
        path.write_text(json.dumps(payload))
        rc = main(["report", "--result", str(path), "--format", fmt])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["text", "compare"])
    def test_report_renders_a_well_formed_result(self, tmp_path, capsys, fmt):
        """The base of the malformed results above is itself accepted."""
        path = tmp_path / "good.result.json"
        path.write_text(json.dumps(sweep_result()))
        assert main(["report", "--result", str(path), "--format", fmt]) == 0
        assert "90.0±90.0" in capsys.readouterr().out

    def test_report_with_an_unknown_metric_is_usage_error(self, sweep_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--result", str(sweep_dir / "sweep.result.json"), "--metric", "bogus"])
        assert excinfo.value.code == 2

    def test_sweep_with_an_unknown_metric_is_usage_error_before_any_cell(
        self, workspace, tmp_path
    ):
        config_path = tmp_path / "sweep.config.json"
        config_path.write_text(json.dumps({"task_id": "so_duplicate", "method": "finetune"}))
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "sweep",
                    "--config", str(config_path),
                    "--pool", str(workspace["pool"]),
                    "--test", str(workspace["test"]),
                    "--metric", "bogus",
                    "--out", str(tmp_path / "out"),
                ]
            )
        assert excinfo.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "method, option, name",
        [
            ("finetune", "bogus=1", "bogus"),
            ("finetune", "steps=x", "steps"),
            ("finetune", "lr=x", "lr"),
            ("finetune", "lr=true", "lr"),
            ("setfit", "lr=[0.1]", "lr"),
            ("setfit", "separator=x", "separator"),
            ("pet", "lr=x", "lr"),
            ("pet", "bogus=1", "bogus"),
            ("pet", "mlm_steps=2.5", "mlm_steps"),
            ("pet", "mlm_steps=true", "mlm_steps"),
            ("finetune", "steps=2.5", "steps"),
            ("finetune", "steps=true", "steps"),
            ("finetune", "batch=1.5", "batch"),
            ("finetune", "lr=-0.5", "lr"),
            ("setfit", "lr=0", "lr"),
            ("pet", "lr=NaN", "lr"),
            ("pet", "temperature=NaN", "temperature"),
            pytest.param("finetune", "lr=1" + "0" * 400, "lr", id="finetune-lr-past-float"),
            pytest.param("finetune", "steps=" + "[" * 100_000, "steps", id="finetune-deep-steps"),
        ],
    )
    def test_train_with_a_bad_option_exits_one_before_training(
        self, workspace, tmp_path, capsys, method, option, name
    ):
        """An unknown or mistyped engine option ends in one error line naming
        it, before anything is trained or written."""
        out = tmp_path / "out"
        rc = main(
            [
                "train",
                "--method", method,
                "--train", str(workspace["pool"]),
                "--test", str(workspace["test"]),
                "--unlabeled", str(workspace["unlabeled"]),
                "--out", str(out),
                "--option", "batch=4",
                "--option", option,
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert len(err.strip().splitlines()) == 1
        if len(option) > 1000:  # a huge refused value is echoed in part
            assert len(err) < 300
        assert not out.exists()

    @pytest.mark.parametrize(
        "config",
        [
            5,
            {"task_id": "so_duplicate", "method": "finetune", "sizes": 5},
            {"task_id": "so_duplicate", "method": "finetune", "replicates": "3"},
            {"method": "finetune"},
            {"task_id": "so_duplicate", "method": "finetune", "backend_kind": "adapter-tcp",
             "backend_options": 5},
            {"task_id": "so_duplicate", "method": "finetune", "engine_options": [1]},
        ],
    )
    def test_sweep_config_that_is_not_a_valid_object_exits_one(
        self, workspace, tmp_path, capsys, config
    ):
        config_path = tmp_path / "bad.config.json"
        config_path.write_text(json.dumps(config))
        rc = main(
            [
                "sweep",
                "--config", str(config_path),
                "--pool", str(workspace["pool"]),
                "--test", str(workspace["test"]),
                "--out", str(tmp_path / "sweeps"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "config" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "content",
        [b"{'sizes': [10]}", b"\xff\xfe{}", b"[" * 100_000],
        ids=["not-json", "not-utf8", "too-deep"],
    )
    @pytest.mark.parametrize("command", ["sweep", "report"])
    def test_a_file_that_is_not_utf8_json_is_named(
        self, workspace, tmp_path, capsys, command, content
    ):
        """A sweep config or a result file that does not decode ends in one
        error line that names the file, not only the decoder's message."""
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        if command == "sweep":
            argv = ["sweep", "--config", str(path), "--pool", str(workspace["pool"]),
                    "--test", str(workspace["test"]), "--out", str(tmp_path / "sweeps")]
        else:
            argv = ["report", "--result", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not UTF-8 JSON: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sizes", "25"),
            ("sizes", [10, 2.5]),
            ("sizes", [True]),
            ("replicates", 2.5),
            ("replicates", True),
            ("test_size", "30"),
            ("unlabeled_size", 0.0),
            ("seed_base", "3"),
            ("task_id", 5),
            ("method", ["finetune"]),
            ("backend_kind", None),
        ],
    )
    def test_sweep_config_field_of_the_wrong_type_exits_one_naming_it(
        self, workspace, tmp_path, capsys, field, value
    ):
        """"25" is no sizes (2, 5), and 2.5 replicates or a seed_base "3"
        end in one error line that names the field, before any cell runs."""
        config = {"task_id": "so_duplicate", "method": "finetune", "sizes": [10], field: value}
        config_path = tmp_path / "typed.config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "sweeps"
        rc = main(
            [
                "sweep",
                "--config", str(config_path),
                "--pool", str(workspace["pool"]),
                "--test", str(workspace["test"]),
                "--out", str(out),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_report_of_several_results_in_a_one_result_format_exits_one(
        self, tmp_path, capsys, fmt
    ):
        path = tmp_path / "r.result.json"
        path.write_text(json.dumps(sweep_result()))
        rc = main(["report", "--result", str(path), str(path), "--format", fmt])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and fmt in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_adapter_backend_without_command_exits_one(self, workspace, capsys):
        rc = main(
            [
                "train",
                "--method", "finetune",
                "--train", str(workspace["pool"]),
                "--test", str(workspace["test"]),
                "--backend", "adapter-subprocess",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "command" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "kind, options, name",
        [
            ("adapter-subprocess", ["port=1"], "command"),
            ("adapter-subprocess", ["command=42"], "command"),
            ("adapter-subprocess", ["command=serve"], "command"),
            ("adapter-subprocess", ["command=[]"], "command"),
            ("adapter-subprocess", ["command=[1]"], "command"),
            ("adapter-subprocess", ['command=["serve"]', "comand=1"], "comand"),
            ("adapter-tcp", [], "port"),
            ("adapter-tcp", ["port=x"], "port"),
            ("adapter-tcp", ["port=80.5"], "port"),
            ("adapter-tcp", ["port=1", "host=[1]"], "host"),
            ("toy", ["bukets=1024"], "bukets"),
            ("toy", ["buckets=x"], "buckets"),
        ],
    )
    def test_train_with_a_bad_backend_option_exits_one(
        self, workspace, tmp_path, capsys, kind, options, name
    ):
        """A missing, unknown or mistyped backend option ends in one error line naming it."""
        argv = [
            "train",
            "--method", "finetune",
            "--train", str(workspace["pool"]),
            "--test", str(workspace["test"]),
            "--out", str(tmp_path / "out"),
            "--backend", kind,
        ]
        for option in options:
            argv += ["--backend-option", option]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "backend, flag, option",
        [
            ("adapter-tcp", "--backend-option", "port=" + "[" * 100_000),
            ("toy", "--backend-option", "buckets=" + "[" * 100_000),
            ("toy", "--option", "k" * 100_000 + "=1"),
            ("toy", "--backend-option", "k" * 100_000 + "=1"),
        ],
        ids=["port-value", "buckets-value", "option-key", "backend-option-key"],
    )
    def test_a_huge_refused_value_or_key_gives_one_short_error_line(
        self, workspace, tmp_path, capsys, backend, flag, option
    ):
        """A 100,000-character option value or key is echoed in part only."""
        argv = [
            "train",
            "--method", "finetune",
            "--train", str(workspace["pool"]),
            "--test", str(workspace["test"]),
            "--out", str(tmp_path / "out"),
            "--backend", backend,
            flag, option,
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert len(captured.err.encode()) <= 300, captured.err[:400]
        assert not (tmp_path / "out").exists()

    def test_unknown_backend_option_exits_one(self, workspace, capsys):
        config = {
            "task_id": "so_duplicate",
            "method": "finetune",
            "sizes": [10],
            "replicates": 1,
            "test_size": 30,
            "backend_options": {"bukets": 1024},
        }
        config_path = workspace["root"] / "bad-backend.config.json"
        config_path.write_text(json.dumps(config))
        rc = main(
            [
                "sweep",
                "--config", str(config_path),
                "--pool", str(workspace["pool"]),
                "--test", str(workspace["test"]),
                "--out", str(workspace["root"] / "sweeps-bad-backend"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bukets" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "options",
        [
            {"buckets": "x"},
            {"embedding_dim": 2.5},
            {"word_order": True},
            {"seed": "0"},
            {"mask_token": 5},
            {"vocabulary": ["<mask>", "||", 3]},
        ],
    )
    def test_mistyped_backend_option_exits_one(self, workspace, tmp_path, capsys, options):
        """A backend option of the wrong type ends in one error line naming it."""
        config = {
            "task_id": "so_duplicate",
            "method": "finetune",
            "sizes": [10],
            "replicates": 1,
            "backend_options": options,
        }
        config_path = tmp_path / "mistyped-backend.config.json"
        config_path.write_text(json.dumps(config))
        rc = main(
            [
                "sweep",
                "--config", str(config_path),
                "--pool", str(workspace["pool"]),
                "--test", str(workspace["test"]),
                "--out", str(tmp_path / "sweeps"),
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and next(iter(options)) in err
        assert len(err.strip().splitlines()) == 1


class TestOptionParsing:
    def test_values_parse_as_json_when_possible(self):
        assert _parse_option("steps=40") == ("steps", 40)
        assert _parse_option("lr=0.05") == ("lr", 0.05)
        assert _parse_option("separator=\" | \"") == ("separator", " | ")
        assert _parse_option("flag=true") == ("flag", True)

    def test_non_json_values_stay_strings(self):
        assert _parse_option("name=plain-text") == ("name", "plain-text")
        deep = "[" * 100_000 + "]" * 100_000  # past the JSON parser's depth
        assert _parse_option(f"steps={deep}") == ("steps", deep)

    def test_missing_separator_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_option("no-equals")


class TestParserShape:
    def test_mock_bugzilla_subcommand_wired(self):
        """The demo server subcommand parses without being run."""
        args = build_parser().parse_args(
            ["mock-bugzilla", "--port", "8123", "--records", "50"]
        )
        assert args.port == 8123
        assert args.records == 50
        assert callable(args.func)

    @pytest.mark.parametrize("port", ["70000", "65536", "-1"])
    def test_mock_bugzilla_port_outside_the_tcp_range_is_a_usage_error(self, capsys, port):
        with pytest.raises(SystemExit) as excinfo:
            main(["mock-bugzilla", "--port", port])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --port" in err and "Traceback" not in err

    def test_mock_bugzilla_on_a_taken_port_is_one_error_line(self, capsys):
        with socket.create_server(("127.0.0.1", 0)) as holder:
            port = str(holder.getsockname()[1])
            assert main(["mock-bugzilla", "--port", port]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"127.0.0.1:{port}" in err

    def test_prog_name(self):
        assert build_parser().prog == "pairshot"
