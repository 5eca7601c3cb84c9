"""The three workloads: set-up, one round of operations, output checks.

A *round* sets the engine up from the CSV files on disk (timed, one
sample of ``setup_s``), runs the workload's operations closed-loop (each
one timed), and tears the engine down.  Every round of a run does the same
operations on the same inputs, so ``Daisy.total_work()`` must come out the
same.  The host probe runs between operations, never inside one.

Sizes are class constants; the README lists them.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import data
from checks import admits, check_dc_range, check_explore_fd, check_service_rw, lost_writes
from hostspeed import HostProbe
from repro import Daisy, DaisyConfig
from repro.metrics.timing import clock
from repro.relation import ColumnType, Relation
from repro.relation import io as rio
from repro.service import DaisyService, ServiceRequest, replay_serial
from repro.service.requests import canonical_encode


@dataclass
class Round:
    """What one round measured and left behind for the checks."""

    #: (start, duration) of the round's set-up.
    setup: tuple[float, float] = (0.0, 0.0)
    latencies: list[float] = field(default_factory=list)
    #: When each operation of ``latencies`` started.
    starts: list[float] = field(default_factory=list)
    #: (start, duration) of the pieces of the operation phase, without
    #: the host probes between them.
    pieces: list[tuple[float, float]] = field(default_factory=list)
    rows_out: int = 0
    #: Operations that returned an error or a wrong result.
    failed: int = 0
    #: Operations of the round that have no latency (the overwrite read-back).
    extra_ops: int = 0
    #: Written cells of the service script whose last value is gone.
    lost_writes: int = 0
    work_units: int = 0
    #: Order-sensitive fingerprint of what the engine was asked to do.
    digest: str = ""
    counts: dict[str, float] = field(default_factory=dict)


def _storage_counts(engine: Daisy) -> dict[str, float]:
    out = {"storage.chunk_reads": 0.0, "storage.evictions": 0.0,
           "storage.resident_mb": 0.0, "storage.sqlite_queries": 0.0}
    for storage in engine.storage_manager.tables():
        out["storage.chunk_reads"] += storage.store.chunk_reads
        out["storage.evictions"] += storage.store.tracker.evictions
        out["storage.resident_mb"] += storage.store.tracker.resident_bytes / 2**20
        if storage.sqlite is not None:
            out["storage.sqlite_queries"] += storage.sqlite.queries_served
    return out


def _log_counts(session: Any) -> dict[str, float]:
    entries = session.query_log
    return {
        "api.plan_cache_hits": float(session.plan_cache_hits),
        "api.plan_cache_misses": float(session.plan_cache_misses),
        "core.relax_extra_tuples": float(sum(e.extra_tuples for e in entries)),
        "core.switches": float(sum(e.switched_to_full for e in entries)),
        "repair.cells_repaired": float(sum(e.errors_fixed for e in entries)),
    }


class _Stamp:
    """The completion time of a future, taken in its done-callback.

    ``Future.result()`` can return before the callbacks have run, so the
    waiter blocks on the stamp itself.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.at = 0.0

    def stamp(self, _future: Any) -> None:
        self.at = clock()
        self._event.set()

    def wait(self) -> float:
        self._event.wait()
        return self.at


class Workload:
    """Shared round driver; subclasses define set-up and operations."""

    name = ""
    #: Percentile reported as ``latency_tail_ms`` (see README).
    tail = 95.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def _csv(self, relation: Any, name: str) -> Path:
        path = self.workdir / f"{name}.csv"
        rio.write_csv(relation, path)
        return path

    def script(self) -> str:
        """The operations' text, for :meth:`input_digest`."""
        raise NotImplementedError

    def input_digest(self) -> str:
        """A digest of everything the engine is given: files and script."""
        h = hashlib.sha256(self.script().encode())
        for path in sorted(self.workdir.glob("*.csv")):
            h.update(path.read_bytes())
        return h.hexdigest()[:16]

    def time_setup(self) -> tuple[float, float]:
        """One set-up from the CSV files, timed as (start, duration); then
        the teardown."""
        started = clock()
        ctx = self.setup()
        elapsed = clock() - started
        self.teardown(ctx)
        return started, elapsed

    def run_round(
        self,
        probe: HostProbe,
        tracer: Any = None,
        keep: bool = False,
        limit: int | None = None,
    ) -> Round:
        """Set up, run the operations (the first ``limit`` only, when
        given), tear down.  ``keep`` runs the output checks first."""
        started = clock()
        ctx = self.setup()
        rnd = Round(setup=(started, clock() - started))
        if tracer is not None:
            tracer.phase = "ops"
        try:
            self.operations(ctx, rnd, tracer, probe, limit)
            if tracer is not None:
                tracer.phase = "check"
            self.finish(ctx, rnd)
            if keep:
                self.check(ctx)
        finally:
            self.teardown(ctx)
            if tracer is not None:
                tracer.phase = "setup"
        return rnd

    # -- per-workload hooks -------------------------------------------------------------

    def setup(self) -> Any:
        raise NotImplementedError

    def operations(
        self, ctx: Any, rnd: Round, tracer: Any, probe: HostProbe, limit: int | None
    ) -> None:
        """Run the operations, recording their times (not the probe's) in
        ``rnd``."""
        raise NotImplementedError

    def finish(self, ctx: Any, rnd: Round) -> None:
        raise NotImplementedError

    def check(self, ctx: Any) -> None:
        raise NotImplementedError

    def teardown(self, ctx: Any) -> None:
        ctx["engine"].close()


class _SessionWorkload(Workload):
    """A workload of SQL queries on one session (explore_fd, dc_range)."""

    queries: list[str]

    def script(self) -> str:
        return "\n".join(self.queries)

    def operations(
        self, ctx: Any, rnd: Round, tracer: Any, probe: HostProbe, limit: int | None
    ) -> None:
        session = ctx["session"]
        results = ctx["results"]
        for i, sql in enumerate(self.queries[:limit]):
            if tracer is not None:
                tracer.set_op(f"q{i}")
            probe.maybe()
            started = clock()
            result = session.execute(sql)
            rnd.latencies.append(clock() - started)
            rnd.starts.append(started)
            rnd.pieces.append((started, rnd.latencies[-1]))
            rnd.rows_out += len(result)
            results.append(result)

    def finish(self, ctx: Any, rnd: Round) -> None:
        engine = ctx["engine"]
        rnd.work_units = engine.total_work()
        rnd.digest = hashlib.sha256(
            "\n".join(e.sql for e in ctx["session"].query_log).encode()
        ).hexdigest()[:16]
        rnd.counts = {**_log_counts(ctx["session"]), **_storage_counts(engine)}


class ExploreFd(_SessionWorkload):
    """The exploratory SSB scenario: FD cleaning inside SP and SPJ queries."""

    name = "explore_fd"
    tail = 95.0
    ROWS, ORDERKEYS, SUPPKEYS = 10_000, 1_000, 400
    SP_QUERIES, JOIN_QUERIES = 72, 48

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.inputs = data.explore_fd_inputs(
            seed, self.ROWS, self.ORDERKEYS, self.SUPPKEYS,
            self.SP_QUERIES, self.JOIN_QUERIES,
        )
        self.queries = self.inputs.queries
        self.paths = {
            "lineorder": self._csv(self.inputs.lineorder, "lineorder"),
            "supplier": self._csv(self.inputs.supplier, "supplier"),
        }

    def setup(self) -> Any:
        engine = Daisy(config=DaisyConfig(expected_queries=len(self.queries)))
        for table, path in self.paths.items():
            engine.register_table(table, rio.read_csv(path, name=table))
            engine.add_rule(table, self.inputs.rules[table])
        return {"engine": engine, "session": engine.connect(), "results": []}

    def check(self, ctx: Any) -> None:
        engine = ctx["engine"]
        tables = {name: engine.table(name) for name in self.paths}
        check_explore_fd(self.inputs, tables, ctx["results"])


class DcRange(_SessionWorkload):
    """Fig. 10: an inequality DC cleaned inside range queries on price."""

    name = "dc_range"
    # p95 lands on the second-costliest query of each round, whose time
    # moves by about 13% from round to round; p90 lands on the fourth,
    # which moves by about 6%.
    tail = 90.0
    ROWS, QUERIES, PER_CLUSTER = 2_000, 31, 6

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.inputs = data.dc_range_inputs(seed, self.ROWS, self.QUERIES, self.PER_CLUSTER)
        self.queries = self.inputs.queries
        self.path = self._csv(self.inputs.table, "prices")

    def setup(self) -> Any:
        # Without the cost model ("Daisy w/o cost") and with Algorithm 2's
        # threshold at 1.0: the estimator's error rate on these clusters is
        # near 1 for every query, so any lower threshold turns the workload
        # into one full-matrix clean at its first query.
        engine = Daisy(config=DaisyConfig(
            use_cost_model=False, dc_error_threshold=1.0,
            expected_queries=len(self.queries),
        ))
        engine.register_table("lineorder", rio.read_csv(self.path, name="lineorder"))
        engine.add_rule("lineorder", data.price_discount_dc())
        return {"engine": engine, "session": engine.connect(), "results": []}

    def check(self, ctx: Any) -> None:
        check_dc_range(self.inputs, ctx["engine"].table("lineorder"))


class ServiceRw(Workload):
    """Reads beside writes: two clients on an in-process DaisyService."""

    name = "service_rw"
    tail = 95.0
    LINEORDER_ROWS, ORDERKEYS, SUPPKEYS = 6_000, 600, 300
    PRICE_ROWS, STEPS, BATCH_CELLS = 600, 32, 40
    #: Below lineorder's modeled column bytes (6,000 x 10 cells x 56 B), above
    #: the price table's, so lineorder spills and prices stay in memory.
    BUDGET_MB = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.inputs = data.service_rw_inputs(
            seed, self.LINEORDER_ROWS, self.ORDERKEYS, self.SUPPKEYS,
            self.PRICE_ROWS, self.STEPS, self.BATCH_CELLS,
        )
        self.paths = {
            "lineorder": self._csv(self.inputs.lineorder, "lineorder"),
            "prices": self._csv(self.inputs.prices, "prices"),
        }

    def engine(self) -> Daisy:
        engine = Daisy(config=DaisyConfig(
            storage="auto", memory_budget_mb=self.BUDGET_MB,
            expected_queries=2 * len(self.inputs.steps),
        ))
        for table, path in self.paths.items():
            engine.register_table(table, rio.read_csv(path, name=table))
            engine.add_rule(table, self.inputs.rules[table])
        return engine

    def script(self) -> str:
        return repr(self.inputs.steps)

    def setup(self) -> Any:
        engine = self.engine()
        service = DaisyService(engine)
        service.start()
        return {"engine": engine, "service": service, "responses": [],
                "submitted": []}

    def operations(
        self, ctx: Any, rnd: Round, tracer: Any, probe: HostProbe, limit: int | None
    ) -> None:
        service = ctx["service"]
        for step, pair in enumerate(self.inputs.steps[:limit]):
            probe.maybe()
            step_started = clock()
            futures = []
            for client, fields in zip(("analyst", "ingest"), pair):
                request = ServiceRequest(client=client, seq=step, **fields)
                done = _Stamp()
                started = clock()
                future = service.submit(request)
                future.add_done_callback(done.stamp)
                futures.append((started, done, future))
                ctx["submitted"].append(request)
            # Lock-step: the next round of requests waits for this one.
            step_done = step_started
            for started, done, future in futures:
                response = future.result()
                step_done = max(step_done, done.wait())
                rnd.latencies.append(done.at - started)
                rnd.starts.append(started)
                rnd.failed += response.status != "ok"
                ctx["responses"].append(response)
                rnd.rows_out += len(response.payload.get("rows", ()))
            rnd.pieces.append((step_started, step_done - step_started))

    def finish(self, ctx: Any, rnd: Round) -> None:
        engine, service = ctx["engine"], ctx["service"]
        ctx["status"] = service.status()
        counts = _storage_counts(engine)
        service.stop()
        ctx["tables"] = {name: engine.table(name) for name in self.paths}
        rnd.lost_writes = lost_writes(ctx["submitted"], ctx["tables"])
        # One more operation per round, on a fixed input and outside the
        # timed phase: it fails while the engine drops an overwritten
        # value when it cleans again (README).
        rnd.extra_ops = 1
        rnd.failed += not overwrite_survives()
        rnd.work_units = engine.total_work()
        rnd.digest = hashlib.sha256(
            b"\n".join(canonical_encode(r.to_wire()) for r in service.admission_log)
        ).hexdigest()[:16]
        counts["service.admitted"] = float(ctx["status"]["admitted"])
        counts["service.shed"] = float(ctx["status"]["shed"])
        counts["service.lost_writes"] = float(rnd.lost_writes)
        counts.update({
            "core.relax_extra_tuples": float(sum(
                r.payload.get("extra_tuples", 0) for r in ctx["responses"])),
            "core.switches": float(sum(
                bool(r.payload.get("switched_to_full")) for r in ctx["responses"])),
            "repair.cells_repaired": float(sum(
                r.payload.get("errors_fixed", 0) for r in ctx["responses"])),
            "api.plan_cache_hits": 0.0,
            "api.plan_cache_misses": 0.0,
        })
        rnd.counts = counts

    def check(self, ctx: Any) -> None:
        replay_engine = self.engine()
        try:
            replayed = replay_serial(replay_engine, ctx["service"].admission_log)
        finally:
            replay_engine.close()
        check_service_rw(self.inputs, ctx["responses"], ctx["submitted"],
                         ctx["status"], replayed)

    def teardown(self, ctx: Any) -> None:
        ctx["service"].stop()
        ctx["engine"].close()


#: A 5-row table with the FD ``zip -> city``; zip 1 is one dirty group.
OVERWRITE_ROWS = [(1, "A"), (1, "A"), (1, "A"), (1, "B"), (2, "X")]


def overwrite_survives() -> bool:
    """Clean a group, overwrite one of its cells, clean it again: does the
    cell still admit the value written to it?"""
    relation = Relation.from_rows(
        [("zip", ColumnType.INT), ("city", ColumnType.STRING)], OVERWRITE_ROWS, name="zips"
    )
    engine = Daisy()
    try:
        engine.register_table("zips", relation)
        engine.add_rule("zips", "zip -> city")
        session = engine.connect()
        sql = "SELECT zip, city FROM zips WHERE zip = 1"
        session.execute(sql)
        session.update_table("zips", {(0, "city"): "C"})
        session.execute(sql)
        return admits(engine.table("zips").tid_index()[0].values[1], "C")
    finally:
        engine.close()


WORKLOADS = {w.name: w for w in (ExploreFd, DcRange, ServiceRw)}
