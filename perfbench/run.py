"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explore_fd --seed 1 --seconds 25 --trace 0

The run makes its inputs from ``--seed`` and does one untimed warm-up
round.  Then it times set-ups alone (``SETUP_SHARE`` of ``--seconds``)
and repeats whole rounds (set-up + the workload's operations) until the
timed phases add up to ``--seconds``.  The outputs of the first timed
round are checked (outside the timed phase).  ``--trace 0`` prints the
end-to-end metrics, scaled to the host probe's reference speed
(``hostspeed.py``); the measured figures go to standard error.
``--trace 1`` wraps the layer entry points and prints the per-layer
metrics instead, as per-round means.  The last line of standard output is
the result object.

The run fails (exit code 1, no result) when a round's work units or
operation fingerprint differ from the run's first round, or from an
earlier run of the same workload, seed, inputs and engine source in this
checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
FINGERPRINTS = WORK / "fingerprints.json"
#: Operations of the untimed warm-up round.
WARMUP_OPS = 6
#: Share of ``--seconds`` spent timing set-ups alone, before the rounds.
SETUP_SHARE = 0.15
MIN_SETUPS = 5


class RunFailed(RuntimeError):
    """The run did not repeat its own work; no result is printed."""


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def engine_digest() -> str:
    """A digest of the engine's source, so a change to the engine starts
    new fingerprint records instead of failing against the old ones."""
    h = hashlib.sha256()
    package = ROOT / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        h.update(path.relative_to(package).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _remember(workload: Any, work_units: int, digest: str) -> None:
    """Compare with (or record) the first run of this workload and seed on
    the same inputs and the same engine source."""
    known = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    key = f"{workload.name}:{workload.seed}:{workload.input_digest()}:{engine_digest()}"
    mine = {"work_units": work_units, "digest": digest}
    if key in known and known[key] != mine:
        raise RunFailed(f"{key}: this run did {mine}, the first run did {known[key]}")
    known[key] = mine
    tmp = FINGERPRINTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(FINGERPRINTS)


def as_measured(start: float, elapsed: float) -> float:
    return elapsed


def end_to_end(
    workload: Any,
    rounds: list[Any],
    setups: list[tuple[float, float]],
    scale: Callable[[float, float], float],
) -> dict[str, dict[str, Any]]:
    """The end-to-end metrics, each time passed through ``scale``."""
    latencies = [scale(at, lat) for rnd in rounds for at, lat in zip(rnd.starts, rnd.latencies)]
    ops_s = sum(scale(at, d) for rnd in rounds for at, d in rnd.pieces)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": statistics.median(scale(at, d) for at, d in setups), "unit": "s"},
        "ops_per_s": {"value": len(latencies) / ops_s, "unit": "1/s"},
        "latency_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "latency_tail_ms": {"value": 1000 * percentile(latencies, workload.tail), "unit": "ms"},
        "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MiB"},
    }


def per_layer(
    tracer: Any, rounds: list[Any], setups: list[tuple[float, float]], probe: Any
) -> dict[str, dict[str, Any]]:
    """Per-layer self times and counts as measured, per-round means;
    ``trace.ops_per_s`` is scaled like ``ops_per_s``."""
    from spans import TIMED_LAYERS, layer_metrics

    n = len(rounds)
    totals = layer_metrics(tracer.spans)
    # Each operation's time as its client saw it: on the service the two
    # clients' requests overlap, so the accounted time is their sum, not
    # the phase's wall time.  Turnstile waits are blocked time, not work.
    latency_sum = sum(sum(rnd.latencies) for rnd in rounds)
    worked = sum(totals[f"{layer}_s"] for layer in TIMED_LAYERS
                 if layer != "service.turnstile_wait")
    waited = totals["service.turnstile_wait_s"]
    is_service = any(s.name == "service.execute" for s in tracer.spans)
    values = {key: total / n for key, total in totals.items()}
    for key in rounds[0].counts:
        values[key] = sum(rnd.counts[key] for rnd in rounds) / n
    values["service.admission_s"] = (
        (latency_sum - totals["service.execute_total_s"] - waited) / n if is_service else 0.0
    )
    values["relation.load_s"] = totals["relation.load_s"] / len(setups)
    values["query.rows_out"] = sum(rnd.rows_out for rnd in rounds) / n
    values["work.units"] = float(rounds[0].work_units)
    values["trace.wall_s"] = latency_sum / n
    values["trace.unaccounted_s"] = (latency_sum - worked - waited) / n
    values["trace.ops_per_s"] = (
        sum(len(rnd.latencies) for rnd in rounds)
        / sum(probe.scale(at, d) for rnd in rounds for at, d in rnd.pieces)
    )
    values["host.probe_ms"] = 1000 * probe.median_s()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]}


def run(args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    from checks import CheckFailed
    from hostspeed import HostProbe
    from spans import Tracer, install
    from workloads import WORKLOADS

    from repro.metrics.timing import clock

    workload = WORKLOADS[args.workload](args.seed, workdir)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    probe = HostProbe()
    # Imports are done; the warm-up round runs every lazy initialisation
    # (kernels, storage, service threads) before any clock starts.
    workload.run_round(probe, tracer, limit=WARMUP_OPS)
    if tracer is not None:
        tracer.spans.clear()

    # Set-up alone, many times: one set-up lasts 20-200 ms.
    setups: list[tuple[float, float]] = []
    started = clock()
    while clock() - started < SETUP_SHARE * args.seconds or len(setups) < MIN_SETUPS:
        probe.maybe()
        setups.append(workload.time_setup())
    measured = sum(d for _, d in setups)

    rounds: list[Any] = []
    correct, failed = True, 0
    while measured < args.seconds:
        gc.collect()
        first = not rounds
        try:
            rnd = workload.run_round(probe, tracer, keep=first)
        except CheckFailed as exc:
            print(f"perfbench: {args.workload} output check failed: {exc}", file=sys.stderr)
            correct = False
            rnd = workload.run_round(probe, tracer)
        if rounds and (rnd.work_units, rnd.digest) != (rounds[0].work_units, rounds[0].digest):
            raise RunFailed(
                f"round {len(rounds)} did {rnd.work_units} work units ({rnd.digest}), "
                f"round 0 did {rounds[0].work_units} ({rounds[0].digest})"
            )
        failed += rnd.failed
        rounds.append(rnd)
        setups.append(rnd.setup)
        measured += rnd.setup[1] + sum(d for _, d in rnd.pieces)
    probe.measure()
    _remember(workload, rounds[0].work_units, rounds[0].digest)

    if any(rnd.lost_writes for rnd in rounds):
        print(f"perfbench: {args.workload} lost written values per round: "
              f"{[rnd.lost_writes for rnd in rounds]}", file=sys.stderr)
    if tracer is not None:
        metrics = per_layer(tracer, rounds, setups, probe)
        traces = WORK / "traces"
        traces.mkdir(exist_ok=True)
        tracer.dump(traces / f"{args.workload}-{args.seed}.jsonl")
    else:
        metrics = end_to_end(workload, rounds, setups, probe.scale)
        measured_figures = end_to_end(workload, rounds, setups, as_measured)
        print("perfbench: as measured, host probe median "
              f"{1000 * probe.median_s():.2f} ms over {len(probe.samples)} probes: "
              + ", ".join(f"{k}={v['value']:.5g}" for k, v in measured_figures.items()),
              file=sys.stderr)
    return {
        "correct": correct,
        "attempted": sum(len(rnd.latencies) + rnd.extra_ops for rnd in rounds),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["explore_fd", "dc_range", "service_rw"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {src}/repro; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    # The engine spills to the temp directory: keep that inside the checkout.
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)
    try:
        result = run(args, workdir)
    except RunFailed as exc:
        print(f"perfbench: {args.workload} did not repeat its work: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
