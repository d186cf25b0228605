"""Command-line interface.

Subcommands cover the full workflow: ingest (synthetic, bugzilla,
stackoverflow, srs), split, train, sweep, report, and a local
mock-bugzilla server for demos and tests.  Runtime failures exit 1;
argparse usage errors exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .data import Dataset, load_dataset, read_json, save_dataset, split_no_leakage, validate_dataset
from .errors import PairshotError, brief, check, port
from .harness import (
    METHOD_TABLE,
    METHODS,
    ExperimentConfig,
    build_backend,
    check_data,
    emit_table,
    engine_config,
    load_sweep_payload,
    render_comparison,
    run_sweep,
    save_sweep,
)
from .metrics import METRIC_NAMES
from .prompting import builtin_task_ids


def _parse_option(text: str) -> tuple[str, object]:
    """Parse one ``key=value`` option; value is JSON if it parses."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected key=value, got {brief(text)}")
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):
        value = raw
    return key, value


def _write_dataset(dataset: Dataset, out_dir: str, stem: str, source: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{stem}.jsonl"
    save_dataset(dataset, path, source=source)
    return path


def _print_dataset_summary(dataset: Dataset, path: Path) -> None:
    report = validate_dataset(dataset)
    counts = ", ".join(f"{label}={n}" for label, n in report.label_counts.items())
    print(f"wrote {len(dataset)} examples to {path} ({counts})")


# ---------------------------------------------------------------------------
# ingest


def _cmd_ingest_synthetic(args: argparse.Namespace) -> int:
    from .synthetic import synthetic_pool, synthetic_unlabeled

    pool = synthetic_pool(args.task, args.pairs, args.seed)
    unl = synthetic_unlabeled(args.task, args.unlabeled, args.seed + 1) if args.unlabeled else None
    path = _write_dataset(pool, args.out, f"{args.task}.pool", "synthetic")
    _print_dataset_summary(pool, path)
    if unl is not None:
        upath = _write_dataset(unl, args.out, f"{args.task}.unlabeled", "synthetic")
        print(f"wrote {len(unl)} unlabeled examples to {upath}")
    return 0


def _cmd_ingest_bugzilla(args: argparse.Namespace) -> int:
    from .ingestion.bugzilla import IngestionWindow, bugzilla_task_dataset, fetch_bugs

    window = IngestionWindow(args.window_start, args.window_end)
    fetched = fetch_bugs(args.endpoint, window, page_size=args.page_size)
    print(
        f"fetched {len(fetched.records)} bug records in {fetched.requests_made} request(s)"
        + (f", skipped {fetched.skipped_malformed} malformed" if fetched.skipped_malformed else "")
    )
    dataset, report = bugzilla_task_dataset(
        fetched.records, args.task, seed=args.seed, neutral_ratio=args.neutral_ratio
    )
    path = _write_dataset(dataset, args.out, f"{args.task}.pool", args.endpoint)
    _print_dataset_summary(dataset, path)
    if report.skipped_unresolved:
        print(f"skipped {report.skipped_unresolved} link(s) pointing outside the window")
    return 0


def _cmd_ingest_stackoverflow(args: argparse.Namespace) -> int:
    from .ingestion.stackoverflow import ingest_stackoverflow_exports

    dataset, report = ingest_stackoverflow_exports(
        args.duplicates, args.neutral, seed=args.seed, neutral_ratio=args.neutral_ratio
    )
    path = _write_dataset(dataset, args.out, "so_duplicate.pool", args.duplicates)
    _print_dataset_summary(dataset, path)
    print(
        f"duplicates={report.duplicate_pairs} neutrals={report.neutral_pairs} "
        f"rejected_tag={report.rejected_tag} rejected_window={report.rejected_window} "
        f"malformed={report.skipped_malformed}"
    )
    return 0


def _cmd_ingest_srs(args: argparse.Namespace) -> int:
    from .ingestion.srs import load_requirement_pairs

    dataset = load_requirement_pairs(args.file)
    path = _write_dataset(dataset, args.out, "srs_conflict.pool", args.file)
    _print_dataset_summary(dataset, path)
    return 0


# ---------------------------------------------------------------------------
# split / train / sweep / report / mock server


def _cmd_split(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    ratio = None
    if args.class_ratio:
        ratio = args.class_ratio
        with contextlib.suppress(ValueError, RecursionError):  # not JSON: refused as text
            ratio = json.loads(ratio)
        check(ratio, {str: float}, ValueError, "--class-ratio")
    pool, test = split_no_leakage(
        dataset, args.train_pool, args.test, seed=args.seed, test_class_ratio=ratio
    )
    stem = Path(args.data).stem
    for part, name in ((pool, "train_pool"), (test, "test")):
        path = _write_dataset(part, args.out, f"{stem}.{name}", str(args.data))
        _print_dataset_summary(part, path)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    train = load_dataset(args.train)
    test = load_dataset(args.test)
    method = METHOD_TABLE[args.method]
    task_id = train.label_set.task_id
    engine = engine_config(args.method, task_id, dict(args.option or []), "--option")
    unlabeled = load_dataset(args.unlabeled) if args.unlabeled and method.uses_unlabeled else None
    check_data(task_id, train, test, unlabeled)
    backend = build_backend(args.backend, dict(args.backend_option or []))
    try:
        report = method.report(engine, train, unlabeled, test, backend, args.seed, args.out)
    finally:
        backend.close()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    print(
        f"{args.method} on {len(train)} examples: "
        + " ".join(f"{name}={report.metric(name):.4f}" for name in ("accuracy", "macro_f1", "weighted_f1"))
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_payload(read_json(args.config))
    pool = load_dataset(args.pool)
    test = load_dataset(args.test)
    unlabeled = load_dataset(args.unlabeled) if args.unlabeled else None
    result = run_sweep(config, pool, test, unlabeled)
    path = save_sweep(result, args.out, name=args.name)
    print(emit_table(result.to_payload(), metric=args.metric))
    print(f"result written to {path}")
    if result.failed:
        print(f"{result.failed} cell(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if len(args.result) > 1 and args.format in ("json", "csv"):
        raise ValueError(f"--format {args.format} renders one result; compare several with text")
    payloads = [load_sweep_payload(path) for path in args.result]
    if len(payloads) == 1 and args.format != "compare":
        print(emit_table(payloads[0], metric=args.metric, fmt=args.format))
    else:
        print(render_comparison(payloads, metric=args.metric))
    return 0


def _cmd_mock_bugzilla(args: argparse.Namespace) -> int:
    from .ingestion.mock_server import MockBugzillaServer, make_fixture_bugs

    bugs = make_fixture_bugs(
        n=args.records,
        duplicate_links=args.duplicate_links,
        dependency_links=args.dependency_links,
        seed=args.seed,
    )
    try:
        server = MockBugzillaServer(bugs, host=args.host, port=args.port)
    except OSError as exc:  # the address is taken or not this machine's
        raise OSError(f"cannot listen on {args.host}:{args.port}: {exc}") from exc
    server.start()
    print(
        f"serving {args.records} bug records at {server.endpoint}"
        f" (GET {server.endpoint}/rest/bug; pass --endpoint {server.endpoint})",
        flush=True,
    )
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pairshot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="build datasets from a source")
    ingest_sub = ingest.add_subparsers(dest="source", required=True)

    syn = ingest_sub.add_parser("synthetic", help="generate a synthetic labeled pool")
    syn.add_argument("--task", choices=builtin_task_ids(), required=True)
    syn.add_argument("--pairs", type=int, default=200)
    syn.add_argument("--unlabeled", type=int, default=0)
    syn.add_argument("--seed", type=int, default=7)
    syn.add_argument("--out", required=True)
    syn.set_defaults(func=_cmd_ingest_synthetic)

    bz = ingest_sub.add_parser("bugzilla", help="fetch bug pairs over REST")
    bz.add_argument("--endpoint", required=True)
    bz.add_argument("--task", choices=("bugzilla_duplicate", "bugzilla_entailment"), required=True)
    bz.add_argument("--window-start", default="2019-01-01")
    bz.add_argument("--window-end", default="2021-12-31")
    bz.add_argument("--page-size", type=int, default=100)
    bz.add_argument("--neutral-ratio", type=float, default=1.0)
    bz.add_argument("--seed", type=int, default=7)
    bz.add_argument("--out", required=True)
    bz.set_defaults(func=_cmd_ingest_bugzilla)

    so = ingest_sub.add_parser("stackoverflow", help="build question pairs from CSV exports")
    so.add_argument("--duplicates", required=True)
    so.add_argument("--neutral", required=True)
    so.add_argument("--neutral-ratio", type=float, default=1.0)
    so.add_argument("--seed", type=int, default=7)
    so.add_argument("--out", required=True)
    so.set_defaults(func=_cmd_ingest_stackoverflow)

    srs = ingest_sub.add_parser("srs", help="load labeled requirement pairs from JSONL")
    srs.add_argument("--file", required=True)
    srs.add_argument("--out", required=True)
    srs.set_defaults(func=_cmd_ingest_srs)

    split = sub.add_parser("split", help="leakage-free train-pool/test split")
    split.add_argument("--data", required=True)
    split.add_argument("--train-pool", type=int, required=True)
    split.add_argument("--test", type=int, required=True)
    split.add_argument("--seed", type=int, default=7)
    split.add_argument("--class-ratio", help='JSON object, e.g. {"Neutral": 1, "Duplicate": 1}')
    split.add_argument("--out", required=True)
    split.set_defaults(func=_cmd_split)

    train = sub.add_parser("train", help="train one method once and evaluate")
    train.add_argument("--method", choices=METHODS, required=True)
    train.add_argument("--train", required=True)
    train.add_argument("--test", required=True)
    train.add_argument("--unlabeled")
    train.add_argument("--backend", default="toy")
    train.add_argument("--seed", type=int, default=1000)
    train.add_argument(
        "--out", metavar="DIR",
        help="directory for report.json and, for pet, the run's artifacts",
    )
    train.add_argument(
        "--option", action="append", type=_parse_option, metavar="KEY=VALUE",
        help="engine option, repeatable (values parsed as JSON when possible)",
    )
    train.add_argument(
        "--backend-option", action="append", type=_parse_option, metavar="KEY=VALUE",
        help="backend setting, repeatable, such as an adapter's command, host or port "
        "(values parsed as JSON when possible)",
    )
    train.set_defaults(func=_cmd_train)

    sweep = sub.add_parser("sweep", help="run a sizes x replicates sweep from a config file")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--pool", required=True)
    sweep.add_argument("--test", required=True)
    sweep.add_argument("--unlabeled")
    sweep.add_argument("--metric", choices=METRIC_NAMES, default="accuracy")
    sweep.add_argument("--name", default="sweep")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser("report", help="render sweep results as a table")
    report.add_argument("--result", nargs="+", required=True)
    report.add_argument("--metric", choices=METRIC_NAMES, default="accuracy")
    report.add_argument("--format", choices=("text", "json", "csv", "compare"), default="text")
    report.set_defaults(func=_cmd_report)

    mock = sub.add_parser("mock-bugzilla", help="serve a fixture bug tracker over HTTP")
    mock.add_argument("--host", default="127.0.0.1")
    mock.add_argument("--port", type=port, default=0)
    mock.add_argument("--records", type=int, default=250)
    mock.add_argument("--duplicate-links", type=int, default=2)
    mock.add_argument("--dependency-links", type=int, default=3)
    mock.add_argument("--seed", type=int, default=7)
    mock.set_defaults(func=_cmd_mock_bugzilla)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PairshotError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
