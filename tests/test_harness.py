"""Sweep harness: configs, cell grids, persistence, and tables."""

import json
import subprocess
import sys
import warnings

import pytest

from pairshot import harness
from pairshot.backend.toy import ToyBackend
from pairshot.cli import main
from pairshot.data import Dataset, load_dataset, sample_training_set, save_dataset
from pairshot.errors import DatasetSizeError, InfeasibleSplitError, NumericError
from pairshot.finetune import FinetuneConfig, run_finetune
from pairshot.harness import (
    DEFAULT_SIZES,
    METHODS,
    ExperimentConfig,
    SweepResult,
    build_backend,
    emit_table,
    load_sweep_payload,
    render_comparison,
    replicate_seed,
    run_sweep,
    save_sweep,
)
from pairshot.pet import run_pet
from pairshot.setfit import run_setfit
from pairshot.synthetic import synthetic_pool, synthetic_unlabeled


def small_config(**overrides):
    base = dict(
        task_id="so_duplicate",
        method="finetune",
        sizes=(10, 20),
        replicates=2,
        test_size=60,
        unlabeled_size=0,
        engine_options={"steps": 30, "batch": 4},
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def pet_config(**overrides):
    """A quick prompt-ensemble sweep: two replicates of each size."""
    options = {"mlm_steps": 5, "distill_steps": 5, "batch": 4}
    return small_config(method="pet", engine_options=options, **overrides)


class UntrainableBackend(ToyBackend):
    """A toy backend whose classifiers fail as a diverging run does."""

    def create_classifier(self, labels, seed=0):
        raise NumericError("non-finite scores during training; lower the learning rate")


@pytest.fixture(scope="module")
def sweep_result(dup_pool, dup_test):
    return run_sweep(small_config(), dup_pool, dup_test, backend=ToyBackend())


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig(task_id="so_duplicate", method="pet")
        assert config.sizes == DEFAULT_SIZES
        assert config.replicates == 3
        assert config.backend_kind == "toy"

    def test_payload_round_trip(self):
        config = small_config(engine_options={"steps": 5})
        clone = ExperimentConfig.from_payload(config.to_payload())
        assert clone == config

    def test_unknown_payload_key_rejected(self):
        payload = small_config().to_payload()
        payload["epochz"] = 3
        with pytest.raises(ValueError, match="epochz"):
            ExperimentConfig.from_payload(payload)

    def test_sizes_coerced_to_int_tuple(self):
        config = ExperimentConfig(task_id="t", method="pet", sizes=[25, 50])
        assert config.sizes == (25, 50)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"method": "prompting"},
            {"sizes": ()},
            {"sizes": (0, 10)},
            {"replicates": 0},
            {"test_size": 0},
            {"unlabeled_size": -1},
            {"sizes": (10, 10)},
        ],
    )
    def test_invalid_fields_rejected(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)

    def test_config_hash_stable_and_sensitive(self):
        first = small_config()
        second = small_config()
        changed = small_config(replicates=3)
        assert first.config_hash() == second.config_hash()
        assert first.config_hash() != changed.config_hash()
        assert len(first.config_hash()) == 64
        int(first.config_hash(), 16)

    def test_known_methods(self):
        assert METHODS == ("finetune", "setfit", "pet")


class TestDispatch:
    def test_each_method_runs_its_engines_public_run_function(self):
        table = harness.METHOD_TABLE
        assert table["finetune"].run is run_finetune
        assert table["setfit"].run is run_setfit
        assert table["pet"].run is run_pet

    def test_cells_and_train_run_the_table_entry(self, dup_pool, dup_test, tmp_path, monkeypatch):
        """A sweep cell and pairshot train both call the method's table
        entry with the engine config, training set, test set and seed."""
        calls = []

        def spy(engine, train, **kwargs):
            calls.append((engine, train.examples, kwargs["test"].examples, kwargs["seed"]))
            return run_finetune(engine, train, **kwargs)

        monkeypatch.setitem(harness.METHOD_TABLE, "finetune", harness.Method(FinetuneConfig, spy))
        config = small_config()
        engine = FinetuneConfig(steps=30, batch=4)
        cell = harness._run_cell(config, engine, dup_pool, dup_test, None, 0, ToyBackend(), 10, 1)
        assert cell.status == "ok"
        sample = sample_training_set(dup_pool, 10, cell.seed)
        assert calls == [(engine, sample.examples, dup_test.examples, 1001)]

        calls.clear()
        save_dataset(sample, tmp_path / "train.jsonl")
        save_dataset(dup_test, tmp_path / "test.jsonl")
        argv = ["train", "--method", "finetune", "--train", str(tmp_path / "train.jsonl"),
                "--test", str(tmp_path / "test.jsonl"), "--seed", "17", "--option", "steps=30",
                "--option", "batch=4"]
        assert main(argv) == 0
        train, test = (load_dataset(tmp_path / f"{part}.jsonl") for part in ("train", "test"))
        assert calls == [(engine, train.examples, test.examples, 17)]


class TestReplicateSeed:
    def test_seed_formula(self):
        """Replicate seeds are base*1000 plus the zero-based replicate index."""
        assert replicate_seed(1, 0) == 1000
        assert replicate_seed(1, 2) == 1002
        assert replicate_seed(7, 1) == 7001


class TestBuildBackend:
    def test_toy_default(self):
        backend = build_backend("toy", {})
        assert isinstance(backend, ToyBackend)
        assert backend.config.embedding_dim == 32

    def test_toy_options_merge_over_defaults(self):
        backend = build_backend("toy", {"embedding_dim": 8})
        assert backend.config.embedding_dim == 8
        assert backend.config.mask_token == "<mask>"

    def test_unknown_backend_kind_rejected(self):
        with pytest.raises(ValueError, match="quantum"):
            build_backend("quantum", {})

    def test_unknown_toy_option_named(self):
        with pytest.raises(ValueError, match="bukets"):
            build_backend("toy", {"bukets": 1024})

    @pytest.mark.parametrize(
        "kind, option", [("adapter-subprocess", "command"), ("adapter-tcp", "port")]
    )
    def test_adapter_kind_names_missing_option(self, kind, option):
        with pytest.raises(ValueError, match=option):
            build_backend(kind, {})


class TestRunSweep:
    def test_grid_shape(self, sweep_result):
        """Two sizes and two replicates produce four ok cells and two summaries."""
        assert len(sweep_result.cells) == 4
        assert all(cell.status == "ok" for cell in sweep_result.cells)
        assert not sweep_result.failed
        assert set(sweep_result.summaries) == {10, 20}
        assert all(s.count == 2 for s in sweep_result.summaries.values())
        assert [(c.size, c.replicate) for c in sweep_result.cells] == [
            (10, 0),
            (10, 1),
            (20, 0),
            (20, 1),
        ]

    def test_cell_seeds_follow_replicate_formula(self, sweep_result):
        assert [c.seed for c in sweep_result.cells] == [1000, 1001, 1000, 1001]

    def test_result_json_is_reproducible(self, dup_pool, dup_test, sweep_result):
        """Rerunning the same config yields byte-identical canonical JSON."""
        again = run_sweep(small_config(), dup_pool, dup_test, backend=ToyBackend())
        assert again.to_json() == sweep_result.to_json()

    def test_timing_kept_out_of_canonical_payload(self, sweep_result):
        payload = sweep_result.to_payload()
        assert "wall_seconds" not in payload
        assert all("seconds" not in cell for cell in payload["cells"])

    def test_failed_cells_recorded_not_fatal(self, dup_pool, dup_test):
        """A cell whose training fails is marked failed; the sweep finishes."""
        result = run_sweep(small_config(), dup_pool, dup_test, backend=UntrainableBackend())
        assert result.failed == len(result.cells) == 4
        assert all(cell.status == "failed" for cell in result.cells)
        assert all("NumericError" in cell.error for cell in result.cells)
        assert result.summaries == {}
        json.loads(result.to_json())

    @pytest.mark.parametrize(
        "method, options, named",
        [
            ("finetune", {"bogus_knob": 1}, "bogus_knob"),
            ("finetune", {"steps": 2.5}, "steps"),
            ("finetune", {"lr": -0.5}, "lr"),
            ("finetune", {"batch": 0}, "batch"),
            ("setfit", {"separator": " | "}, "separator"),
            ("pet", {"temperature": float("nan")}, "temperature"),
            ("pet", {"bogus_knob": 1}, "bogus_knob"),
        ],
    )
    def test_engine_options_the_config_refuses_stop_the_sweep_before_any_cell(
        self, dup_pool, dup_test, monkeypatch, method, options, named
    ):
        """The method's config is built once, before the first cell, so one
        bad option is one ValueError naming it, not a failed cell per cell."""
        sampled = []
        monkeypatch.setattr(harness, "sample_training_set", lambda *args, **kw: sampled.append(args))
        config = small_config(method=method, engine_options=options)
        with pytest.raises(ValueError, match=named):
            run_sweep(config, dup_pool, dup_test, backend=ToyBackend())
        assert sampled == []

    def test_label_set_mismatch_rejected(self, dup_pool):
        other_test = synthetic_pool(
            "bugzilla_entailment", 30, seed=9, kind="test", serial_prefix="x"
        )
        with pytest.raises(DatasetSizeError, match="label sets"):
            run_sweep(small_config(), dup_pool, other_test, backend=ToyBackend())

    def test_a_config_of_another_task_is_refused_before_any_cell(self, dup_pool, dup_test):
        """so_duplicate data is not run with srs_conflict's patterns and
        recorded as srs_conflict: the error names both tasks."""
        config = small_config(task_id="srs_conflict")
        with pytest.raises(DatasetSizeError, match="pool holds 'so_duplicate' data, not 'srs_conflict'"):
            run_sweep(config, dup_pool, dup_test, backend=ToyBackend())

    def test_a_test_set_of_another_task_is_refused(self, dup_pool):
        """bugzilla_duplicate has so_duplicate's labels, so only its task tells it apart."""
        other = synthetic_pool("bugzilla_duplicate", 30, seed=9, kind="test", serial_prefix="x")
        with pytest.raises(
            DatasetSizeError, match="test set holds 'bugzilla_duplicate' data, not 'so_duplicate'"
        ):
            run_sweep(small_config(), dup_pool, other, backend=ToyBackend())

    def test_an_unlabeled_pool_of_another_task_is_refused(self, dup_pool, dup_test):
        other = synthetic_unlabeled("srs_conflict", 20, seed=3)
        config = pet_config(sizes=(8,), replicates=1, unlabeled_size=10)
        with pytest.raises(
            DatasetSizeError, match="unlabeled pool holds 'srs_conflict' data, not 'so_duplicate'"
        ):
            run_sweep(config, dup_pool, dup_test, other, backend=ToyBackend())

    def test_oversized_grid_rejected(self, dup_pool, dup_test):
        config = small_config(sizes=(500,))
        with pytest.raises(DatasetSizeError, match="exceeds pool"):
            run_sweep(config, dup_pool, dup_test, backend=ToyBackend())

    def test_shared_sentences_between_pool_and_test_rejected(self, dup_pool):
        """Feasibility checks refuse a test set that leaks a pool sentence."""
        leaky = Dataset(dup_pool.examples[:5], dup_pool.label_set, "test")
        with pytest.raises(InfeasibleSplitError, match="share"):
            run_sweep(small_config(), dup_pool, leaky, backend=ToyBackend())

    def test_small_unlabeled_pool_warns_and_proceeds(self, dup_pool, dup_test, dup_unlabeled):
        """Asking for more unlabeled data than exists uses it all with one
        warning: the pool is sized before the first cell, not in each of six."""
        config = pet_config(sizes=(8, 12, 16), unlabeled_size=500)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_sweep(config, dup_pool, dup_test, dup_unlabeled, backend=ToyBackend())
        assert len(result.cells) == 6 and not result.failed
        assert [str(w.message) for w in caught if "using all of them" in str(w.message)] == [
            "unlabeled pool has 80 examples; requested 500, using all of them"
        ]

    def test_a_short_pool_warning_made_an_error_stops_the_sweep_before_any_cell(
        self, dup_pool, dup_test, dup_unlabeled, monkeypatch
    ):
        """An error filter on the warning refuses the sweep once, before a
        backend is built or a cell samples, not once per failed cell."""
        built, sampled = [], []
        monkeypatch.setattr(harness, "build_backend", lambda *a: built.append(a) or ToyBackend())
        monkeypatch.setattr(harness, "sample_training_set", lambda *a, **kw: sampled.append(a))
        config = pet_config(sizes=(8, 12, 16), unlabeled_size=500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="using all of them"):
                run_sweep(config, dup_pool, dup_test, dup_unlabeled)
        assert built == [] and sampled == []

    def test_cells_run_alone_in_reverse_order_give_the_sweep_cells(
        self, dup_pool, dup_test, dup_unlabeled
    ):
        """A cell depends only on its size and replicate: running a sweep's
        cells one by one, last first, on a fresh backend records the same bytes."""
        config = pet_config(sizes=(8, 12), unlabeled_size=40)
        result = run_sweep(config, dup_pool, dup_test, dup_unlabeled, backend=ToyBackend())
        assert not result.failed
        engine = harness.engine_config("pet", config.task_id, config.engine_options, "options")
        backend = ToyBackend()
        cells = [
            harness._run_cell(config, engine, dup_pool, dup_test, dup_unlabeled, 40, backend,
                              cell.size, cell.replicate)
            for cell in reversed(result.cells)
        ]
        again = SweepResult(config, cells[::-1], result.summaries, 0.0)
        assert again.to_payload()["cells"] == result.to_payload()["cells"]


class TestBackendLifetime:
    def test_sweep_closes_the_backend_it_built(self, dup_pool, dup_test, monkeypatch):
        """An adapter sweep leaves no server child running behind it."""
        import pairshot.backend.adapter as adapter

        built = []

        def connect(command):
            proc = subprocess.Popen(list(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            built.append(proc)
            return adapter.RemoteBackend(
                adapter.LineTransport(
                    proc.stdout.fileno(), proc.stdin.fileno(), lambda: adapter._stop_child(proc)
                )
            )

        monkeypatch.setattr(adapter, "connect_subprocess", connect)
        config = small_config(
            sizes=(10,),
            replicates=1,
            backend_kind="adapter-subprocess",
            backend_options={"command": [sys.executable, "-m", "pairshot.backend.serve"]},
        )
        result = run_sweep(config, dup_pool, dup_test)
        assert not result.failed
        assert len(built) == 1
        assert built[0].poll() is not None

    def test_sweep_leaves_a_passed_backend_open(self, dup_pool, dup_test):
        closed = []

        class Closable(ToyBackend):
            def close(self):
                closed.append(True)

        run_sweep(small_config(sizes=(10,), replicates=1), dup_pool, dup_test, backend=Closable())
        assert closed == []


class TestPersistence:
    def test_save_writes_result_timing_and_manifest(self, sweep_result, tmp_path):
        """Saving produces the result file plus timing and manifest sidecars."""
        result_path = save_sweep(sweep_result, tmp_path, name="demo")
        assert result_path == tmp_path / "demo.result.json"
        assert (tmp_path / "demo.timing.json").exists()
        assert (tmp_path / "demo.manifest.json").exists()

    def test_result_file_round_trips(self, sweep_result, tmp_path):
        path = save_sweep(sweep_result, tmp_path)
        payload = load_sweep_payload(path)
        assert payload["format"] == "pairshot-sweep"
        assert payload["version"] == 1
        assert payload["config_hash"] == sweep_result.config.config_hash()
        assert len(payload["cells"]) == 4
        assert set(payload["summaries"]) == {"10", "20"}

    def test_manifest_records_environment_and_seeds(self, sweep_result, tmp_path):
        import numpy

        import pairshot

        save_sweep(sweep_result, tmp_path)
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["config_hash"] == sweep_result.config.config_hash()
        assert manifest["seeds"] == [1000, 1001]
        assert manifest["package_version"] == pairshot.__version__
        assert manifest["numpy_version"] == numpy.__version__

    def test_non_sweep_file_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a sweep result"):
            load_sweep_payload(path)


class TestTables:
    def test_text_table_lists_each_size(self, sweep_result):
        text = emit_table(sweep_result.to_payload(), fmt="text")
        lines = text.splitlines()
        assert "task=so_duplicate method=finetune backend=toy metric=accuracy" == lines[0]
        assert len(lines) == 3
        assert lines[1].strip().startswith("10")
        assert "±" in lines[1]

    def test_json_table_structure(self, sweep_result):
        payload = json.loads(emit_table(sweep_result.to_payload(), fmt="json"))
        assert payload["metric"] == "accuracy"
        assert [row["size"] for row in payload["rows"]] == [10, 20]
        assert all(row["count"] == 2 and row["of"] == 2 for row in payload["rows"])

    def test_csv_table_structure(self, sweep_result):
        lines = emit_table(sweep_result.to_payload(), metric="macro_f1", fmt="csv").splitlines()
        assert lines[0] == "size,macro_f1_mean,macro_f1_std,replicates"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "10"
        assert float(first[1]) <= 1.0

    def test_failed_sizes_marked_in_text(self, dup_pool, dup_test):
        result = run_sweep(small_config(), dup_pool, dup_test, backend=UntrainableBackend())
        text = emit_table(result.to_payload(), fmt="text")
        assert "failed" in text

    def test_unknown_format_rejected(self, sweep_result):
        with pytest.raises(ValueError, match="latex"):
            emit_table(sweep_result.to_payload(), fmt="latex")


def comparison_payload(task, backend_kind, means_by_size, method="finetune"):
    return {
        "config": {"task_id": task, "method": method, "backend_kind": backend_kind},
        "summaries": {
            str(size): {
                "count": 3,
                "means": {"accuracy": mean},
                "stds": {"accuracy": 0.01},
            }
            for size, mean in means_by_size.items()
        },
    }


class TestComparison:
    def test_single_column_carries_no_markers(self):
        text = render_comparison([comparison_payload("t", "toy", {50: 0.9})])
        assert "*" not in text
        assert "_" not in text

    def test_best_per_task_starred_and_best_per_backend_underscored(self):
        """The task winner gets a star; each backend's winner gets an underscore."""
        left = comparison_payload("t", "toy", {50: 0.90}, method="pet")
        right = comparison_payload("t", "big", {50: 0.80}, method="pet")
        row = render_comparison([left, right]).splitlines()[1]
        assert "_*90.0±1.0" in row
        assert "_80.0±1.0" in row
        assert "*80.0" not in row

    def test_same_backend_yields_single_underscore(self):
        left = comparison_payload("t", "toy", {50: 0.90}, method="pet")
        right = comparison_payload("t", "toy", {50: 0.80}, method="finetune")
        row = render_comparison([left, right]).splitlines()[1]
        assert row.count("*") == 1
        assert row.count("_") == 1

    def test_missing_sizes_render_as_dash(self):
        left = comparison_payload("t", "toy", {50: 0.9, 100: 0.95})
        right = comparison_payload("u", "toy", {50: 0.85})
        lines = render_comparison([left, right]).splitlines()
        assert lines[0].strip().startswith("size")
        row_100 = [line for line in lines if line.strip().startswith("100")][0]
        assert row_100.rstrip().endswith("-")

    def test_empty_comparison_rejected(self):
        with pytest.raises(ValueError):
            render_comparison([])
