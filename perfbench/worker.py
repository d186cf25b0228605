"""One set-up, and optionally one measured run, of a workload.

Started by run.py in a fresh process for every run, so that a run's
peak memory is its own and a hung run can be killed with its adapter
server.  The result, a JSON object, goes to the file named by
``--result``; standard output carries whatever the package prints.

Set-up time runs from before the first import of numpy or pairshot to
the end of the adapter handshake.  Wall time runs from the first library
call of the run to verified outputs.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child.

    The only child a run has is the adapter server, so the sum covers
    every process doing the run.  Linux reports kilobytes.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6


def measure(workload, seed: int, run: bool, spans: Path | None, scratch: Path,
            started: float) -> dict:
    """Set up (and with run, run) workload once; spans set means traced.

    started is when set-up began.  Scratch files go to a fresh directory
    under scratch that is removed before returning.  Shims installed for
    a traced run are removed again, so in-process callers can measure
    several times.
    """
    import numpy

    from workloads import SERVER_COMMAND

    out = {"seed": seed, "ops": workload.ops, "numpy": numpy.__version__, "problems": []}
    shims = server_summary = None
    command = SERVER_COMMAND
    if spans is not None:
        from tracer import Shims, Tracer, install_client_shims

        shims = Shims(Tracer())
        install_client_shims(shims)
        server_summary = spans.with_suffix(".server.json")
        server_summary.unlink(missing_ok=True)
        command = (
            sys.executable, str(BENCH / "traced_serve.py"),
            "--summary", str(server_summary),
            "--spans", str(spans.with_suffix(".server.jsonl")),
        )

    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    state: dict = {}
    try:
        state = workload.setup(seed, workdir, command)
        out["setup_s"] = time.perf_counter() - started
        out["spawn_s"] = state["spawn_s"]
        if run:
            begun = time.perf_counter()
            outcome = workload.run(state)
            out["wall_s"] = time.perf_counter() - begun
            out.update(
                failed=outcome.failed,
                accuracy=outcome.accuracy,
                macro_f1=outcome.macro_f1,
                digest=outcome.digest,
                problems=outcome.problems,
            )
    except Exception:
        out["failed"] = workload.ops
        out["problems"].append(traceback.format_exc())
    finally:
        workload.close(state)
        shutil.rmtree(workdir, ignore_errors=True)
        if shims is not None:
            shims.uninstall()
    out["peak_rss_mb"] = peak_rss_mb()

    if shims is not None:
        from tracer import layer_metrics, merge

        server = None
        if server_summary.exists():
            server = json.loads(server_summary.read_text(encoding="utf-8"))
        summary = merge(shims.tracer.summary(), server)
        out["spans"] = summary["calls"]
        out["span_total_s"] = summary["total_s"]
        out["layers"] = layer_metrics(summary)
        out["layers"]["backend.adapter.spawn_s"] = out.get("spawn_s", 0.0)
        shims.tracer.write_spans(spans.with_suffix(".client.jsonl"), "client")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    # One CPU for the run and its adapter server.  Client and server
    # take turns (one outstanding call), so nothing waits for a CPU, and
    # each hand-off is a local switch rather than a cross-CPU wake-up,
    # whose latency on a shared virtual machine varies severalfold.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    result = Path(args.result)
    out = measure(workload, seed, args.mode == "run",
                  None if args.spans is None else Path(args.spans), result.parent, STARTED)
    result.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
