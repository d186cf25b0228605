"""The pairshot benchmark: one workload, one seed, timed for a while.

    python3 perfbench/run.py --workload pet-headline --seed 101 --seconds 10 --trace 0

Run it from the root of a checkout that holds ``src/pairshot``.  Every
set-up and every measured run happens in a fresh worker process
(worker.py) with a deadline, so a hung run is killed and recorded as
failed, and one run's peak memory never carries into the next.  Runs
repeat until ``--seconds`` have passed (at least one run).

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are
reported: medians over the runs.  With ``--trace 1`` each round is an
untraced run followed by a traced one, and the per-layer metrics are
reported, with the tracing overhead between the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with
the environment and every sample is written under perfbench/out/runs/,
and the spans of traced runs under perfbench/out/trace/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up-only workers started before measuring, so that setup_s is a
# median over several set-ups even when a run holds a single iteration.
SETUP_REPEATS = 4
# Everything, set-up included, must finish well inside 180 seconds.
RUN_BUDGET_S = 165.0
POLL_S = 0.02


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _code_version() -> str:
    """Hash of the package sources and the workload definitions."""
    digest = hashlib.sha256()
    files = sorted((SRC / "pairshot").rglob("*.py")) + [BENCH / "workloads.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _stats(values: list[float]) -> dict:
    """Sample count, median and quartiles."""
    if not values:
        return {"n": 0, "median": None, "q1": None, "q3": None, "samples": []}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": values}


class Runner:
    """Starts workers one at a time and makes sure each one ends."""

    def __init__(self, workload: str, seed: int | None, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        for sub in ("work", "trace"):
            (OUT / sub).mkdir(parents=True, exist_ok=True)

    def worker(self, mode: str, traced: bool = False) -> dict:
        """One worker; a crash or a missed deadline becomes a failed result."""
        result = OUT / "work" / f"{uuid.uuid4().hex}.json"
        command = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
                   "--mode", mode, "--result", str(result)]
        if self.seed is not None:
            command += ["--seed", str(self.seed)]
        if traced:
            seed = "default" if self.seed is None else self.seed
            command += ["--spans", str(OUT / "trace" / f"{self.workload}-seed{seed}.jsonl")]
        started = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=sys.stderr, start_new_session=True)
        timed_out = not self._wait_unreaped(proc.pid)
        self._stop_group(proc)
        elapsed = time.perf_counter() - started
        try:
            out = json.loads(result.read_text(encoding="utf-8"))
            result.unlink()
        except (OSError, ValueError):
            reason = "missed its deadline" if timed_out else f"exited {proc.returncode}"
            out = {"problems": [f"{mode} worker {reason} without a result"], "crashed": True}
        out.update(elapsed_s=elapsed, pid=proc.pid)
        return out

    def _wait_unreaped(self, pid: int) -> bool:
        """Wait for pid to exit without reaping it; False at the deadline."""
        while time.perf_counter() < self.deadline:
            if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None:
                return True
            time.sleep(POLL_S)
        return False

    @staticmethod
    def _stop_group(proc: subprocess.Popen) -> None:
        """Kill whatever is left of the worker's process group, then reap.

        The worker is still unreaped here, so its group id cannot have
        been reused.  An adapter server left behind by a crash or a
        timeout dies with it; the loop waits until the group is empty.
        """
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for _ in range(250):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(POLL_S)


def check_digests(store_path: Path, key: str, runs: list[dict]) -> None:
    """Fail runs whose result digest differs from other runs of this code.

    key names the code version, workload and seed.  Runs under one key
    must produce the same report bytes, within this invocation and
    across invocations; the digests are remembered in store_path.
    """
    try:
        store = json.loads(store_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        store = {}
    for run in runs:
        digest = run.get("digest")
        if digest is None:
            continue
        expected = store.setdefault(key, digest)
        if digest != expected:
            run["failed"] = run["ops"]
            run["problems"].append(f"result digest {digest} differs from {expected}")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(store_path)


def metric_series(setups: list[dict], untraced: list[dict], traced: list[dict]) -> dict:
    """Samples of every metric: per-layer ones when traced runs exist."""
    if traced:
        layers = [r["layers"] for r in traced if "layers" in r]
        series = {name: [layer[name] for layer in layers] for name in layers[0]} if layers else {}
        pairs = [(u["wall_s"], t["wall_s"]) for u, t in zip(untraced, traced)
                 if "wall_s" in u and "wall_s" in t]
        series["trace.overhead_frac"] = [t / u - 1.0 for u, t in pairs]
        return series

    def samples(key: str, source: list[dict]) -> list[float]:
        return [r[key] for r in source if r.get(key) is not None]

    attempted = sum(r["ops"] for r in untraced)
    failed = sum(r["failed"] for r in untraced)
    return {
        "wall_s": samples("wall_s", untraced),
        "setup_s": samples("setup_s", setups + untraced),
        "peak_rss_mb": samples("peak_rss_mb", untraced),
        "accuracy": samples("accuracy", untraced),
        "macro_f1": samples("macro_f1", untraced),
        "ok_rate": [1.0 - failed / attempted] if attempted else [],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="workload seed (default: the acceptance seeds)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (SRC / "pairshot" / "__init__.py").is_file():
        print(f"error: no pairshot package under {SRC}", file=sys.stderr)
        return 2
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, started + RUN_BUDGET_S)
    setups = [] if args.trace else [runner.worker("setup") for _ in range(SETUP_REPEATS)]
    untraced: list[dict] = []
    traced: list[dict] = []
    measuring = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(runner.worker("run"))
        if args.trace:
            traced.append(runner.worker("run", traced=True))
        now = time.perf_counter()
        if now - measuring >= args.seconds or now + 1.5 * (now - round_start) > runner.deadline:
            break

    runs = untraced + traced
    ops = next((r["ops"] for r in setups + runs if "ops" in r), 1)
    for run in runs:
        run.setdefault("ops", ops)
        run.setdefault("failed", run["ops"])
    seed = next((r["seed"] for r in setups + runs if "seed" in r), args.seed)
    check_digests(OUT / "digests.json", f"{args.workload}|{seed}|{_code_version()}", runs)
    attempted = sum(r["ops"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in setups + runs for p in r.get("problems", [])]

    declared = spec["per_layer" if args.trace else "end_to_end"]
    series = metric_series(setups, untraced, traced)
    stats = {m["name"]: _stats(series.get(m["name"], [])) for m in declared}
    metrics = {
        m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
        for m in declared
        if stats[m["name"]]["median"] is not None
    }
    correct = failed == 0 and not problems and len(metrics) == len(declared)

    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "worker_cpu": max(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": next((r["numpy"] for r in setups + runs if "numpy" in r), None),
            "git_commit": _git_commit(),
            "code_version": _code_version(),
        },
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {m["name"]: {"unit": m["unit"], **stats[m["name"]]} for m in declared},
        "runs": runs,
        "setups": setups,
        "total_s": time.perf_counter() - started,
    }
    runs_dir = OUT / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    record_path = runs_dir / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}"
              f" (n={stats[name]['n']})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
