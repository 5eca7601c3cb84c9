"""Steadiness report: run each workload repeatedly and show the spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workloads explore_fd,dc_range]
                                [--seconds 20] [--seed0 1] [--out set1.json]
                                [--against set0.json]

Each run is a fresh ``perfbench/run.py`` process with its own seed
(``seed0``, ``seed0 + 1``, ...); the workload order alternates from one
repetition to the next.  For each end-to-end metric the report gives the
median, the first and third quartile (``statistics.quantiles(n=4)``) and
the spread ``(q3 - q1) / median``, and flags a spread wider than the
metric's bound in ``BENCHMARK.json`` (``!!``) or wider than a third of it
(``~``).  ``--against`` adds the median's change from an earlier report.
The report records the host's CPU count and the Python and NumPy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _one_run(workload: str, seed: int, seconds: int) -> dict[str, Any]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent"
    return numpy.__version__


def summarize(results: dict[str, list[dict[str, Any]]], bounds: dict[str, float]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for workload, runs in results.items():
        rows = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[metric] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
                "bound": bounds.get(metric), "values": values,
            }
        shares = {r["failed"] / r["attempted"] for r in runs}
        out[workload] = {"metrics": rows, "failed_shares": sorted(shares),
                         "correct": all(r["correct"] for r in runs)}
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict[str, Any]]] = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            result = _one_run(workload, args.seed0 + i, args.seconds)
            results[workload].append(result)
            print(f"run {i} {workload}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    report = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": _numpy_version(), "machine": platform.machine()},
        "runs": args.runs, "seconds": args.seconds, "seed0": args.seed0,
        "workloads": summarize(results, bounds),
    }
    before = json.loads(args.against.read_text())["workloads"] if args.against else {}
    print(f"\nhost: {report['host']}, {args.runs} runs of {args.seconds} s each")
    for workload, summary in report["workloads"].items():
        print(f"\n{workload}: correct={summary['correct']} "
              f"failed shares={summary['failed_shares']}")
        for metric, row in summary["metrics"].items():
            bound = row["bound"] or 0.0
            flag = "!!" if row["spread"] > bound else "~" if row["spread"] > bound / 3 else ""
            line = (f"  {metric:16s} median {row['median']:10.4g}  q1 {row['q1']:10.4g}  "
                    f"q3 {row['q3']:10.4g}  spread {row['spread']:6.3f} / {bound:.2f} {flag}")
            old = before.get(workload, {}).get("metrics", {}).get(metric)
            if old:
                line += f"  vs earlier {row['median'] / old['median'] - 1:+.3f}"
            print(line)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
