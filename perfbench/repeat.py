"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --workload pet-headline --seeds 1-10 --out spread.json

For every workload named, run.py runs once per seed.  Each metric gets
its values, median, quartiles (``statistics.quantiles(values, n=4)``)
and spread, the distance between the quartiles as a share of the
median, next to its bound from BENCHMARK.json.  Use it to check that
the benchmark is steady and to record a baseline.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,5,9")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    summary: dict = {"seconds": seconds, "trace": args.trace, "python": platform.python_version(),
                     "workloads": {}}
    for workload in args.workload:
        results = []
        for seed in _seeds(args.seeds):
            command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True, timeout=200)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            results.append(json.loads(last))
            print(f"{workload} seed {seed}: exit {proc.returncode} {last}", file=sys.stderr)
        metrics = {}
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for r in results
                      if m["name"] in r.get("metrics", {})]
            if values:
                metrics[m["name"]] = {"unit": m["unit"], "bound": m.get("bound"),
                                      **summarise(values)}
        record = summary["workloads"][workload] = {
            "seeds": _seeds(args.seeds),
            "correct": all(r.get("correct") for r in results),
            "attempted": sum(r.get("attempted", 0) for r in results),
            "failed": sum(r.get("failed", 0) for r in results),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            bound = "" if m["bound"] is None else f" bound {m['bound']}"
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:13} {name:36} median {m['median']:.6g} {m['unit']:8} "
                  f"spread {spread}{bound}")
        print(f"{workload:13} correct {record['correct']} attempted {record['attempted']} "
              f"failed {record['failed']}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
