"""The output checks pass on the engine's outputs and fail when a result
row is dropped or a repair is undone; the overwrite read-back records the
engine fault that the service workload counts as a failed operation.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import types

import pytest

import checks
import workloads
from hostspeed import HostProbe
from repro.probabilistic.value import PValue
from repro.relation import Relation


class SmallFd(workloads.ExploreFd):
    ROWS, ORDERKEYS, SUPPKEYS = 600, 60, 30
    SP_QUERIES, JOIN_QUERIES = 12, 8


class SmallDc(workloads.DcRange):
    ROWS, QUERIES, PER_CLUSTER = 600, 6, 2


class SmallService(workloads.ServiceRw):
    LINEORDER_ROWS, ORDERKEYS, SUPPKEYS = 600, 60, 30
    PRICE_ROWS, STEPS, BATCH_CELLS = 200, 8, 8


def _run(workload):
    ctx = workload.setup()
    rnd = workloads.Round()
    workload.operations(ctx, rnd, None, HostProbe(), None)
    workload.finish(ctx, rnd)
    return ctx, rnd


def _undo_one_repair(relation: Relation, dirty: Relation) -> Relation:
    """Put back the dirty values of the first repaired tuple."""
    dirty_rows = dirty.tid_index()
    for row in relation.rows:
        undo = {
            (row.tid, relation.schema.columns[idx].name): dirty_rows[row.tid].values[idx]
            for idx, cell in enumerate(row.values) if isinstance(cell, PValue)
        }
        if undo:
            return relation.update_cells(undo)
    raise AssertionError("nothing was repaired")


def test_explore_fd_check(tmp_path):
    workload = SmallFd(3, tmp_path)
    ctx, _ = _run(workload)
    try:
        tables = {name: ctx["engine"].table(name) for name in workload.paths}
        results = ctx["results"]
        checks.check_explore_fd(workload.inputs, tables, results)

        # Drop a row that alone admits some clean answer row.
        conn = checks._sqlite_of({"lineorder": workload.inputs.clean_lineorder})
        i = next(i for i, sql in enumerate(workload.queries) if "supplier" not in sql)
        clean = conn.execute(workload.queries[i]).fetchall()
        conn.close()
        rel = results[i].relation
        rows = [row.values for row in rel.rows]
        k = next(k for k in range(len(rows))
                 if checks.lost_rows(clean, rows[:k] + rows[k + 1:]))
        dropped = list(results)
        dropped[i] = types.SimpleNamespace(
            relation=Relation(rel.schema, rel.rows[:k] + rel.rows[k + 1:], name=rel.name))
        with pytest.raises(checks.CheckFailed, match="clean answer rows lost"):
            checks.check_explore_fd(workload.inputs, tables, dropped)

        (tid, attr), _truth = next(iter(workload.inputs.injections["lineorder"].ground_truth.items()))
        dirty_value = workload.inputs.lineorder.tid_index()[tid].values[
            workload.inputs.lineorder.schema.index_of(attr)]
        undone = dict(tables, lineorder=tables["lineorder"].update_cells({(tid, attr): dirty_value}))
        with pytest.raises(checks.CheckFailed, match="injected cells"):
            checks.check_explore_fd(workload.inputs, undone, results)
    finally:
        workload.teardown(ctx)


def test_dc_range_check(tmp_path):
    workload = SmallDc(3, tmp_path)
    ctx, _ = _run(workload)
    try:
        table = ctx["engine"].table("lineorder")
        checks.check_dc_range(workload.inputs, table)
        with pytest.raises(checks.CheckFailed, match="violating tuples not repaired"):
            checks.check_dc_range(workload.inputs, _undo_one_repair(table, workload.inputs.table))
    finally:
        workload.teardown(ctx)


def test_dc_range_brute_force_matches_generator():
    inputs = workloads.data.dc_range_inputs(5, 600, 6, 2)
    violating = checks.violating_tids(inputs.table)
    assert set(inputs.dirty_tids) <= violating
    assert not checks.violating_tids(inputs.clean)


def test_service_rw_check(tmp_path):
    workload = SmallService(3, tmp_path)
    ctx, rnd = _run(workload)
    try:
        replay_engine = workload.engine()
        try:
            replayed = workloads.replay_serial(replay_engine, ctx["service"].admission_log)
        finally:
            replay_engine.close()
        args = (workload.inputs, ctx["responses"], ctx["submitted"], ctx["status"])
        checks.check_service_rw(*args, replayed)

        j = next(j for j, r in enumerate(replayed) if r.payload.get("rows"))
        payload = dict(replayed[j].payload, rows=replayed[j].payload["rows"][1:])
        tampered = list(replayed)
        tampered[j] = dataclasses.replace(replayed[j], payload=payload)
        with pytest.raises(checks.CheckFailed, match="differ from the serial replay"):
            checks.check_service_rw(*args, tampered)

        assert rnd.extra_ops == 1 and rnd.failed == 1
        tables = dict(ctx["tables"])
        before = checks.lost_writes(ctx["submitted"], tables)
        assert before == rnd.lost_writes
        last = {}
        for request in ctx["submitted"]:
            if request.kind == "update_table" and request.table == "lineorder":
                last.update({(tid, attr): v for tid, attr, v in request.cells})
        lineorder = tables["lineorder"]
        rows = lineorder.tid_index()
        (tid, attr), _ = next(
            (key, v) for key, v in last.items()
            if checks.admits(rows[key[0]].values[lineorder.schema.index_of(key[1])], v)
        )
        tables["lineorder"] = lineorder.update_cells({(tid, attr): -1})
        assert checks.lost_writes(ctx["submitted"], tables) == before + 1
    finally:
        workload.teardown(ctx)


@pytest.mark.xfail(strict=True, reason=(
    "the engine rebuilds a re-cleaned FD cell from its pre-update candidates, "
    "dropping the value written to it (CHANGES.md, FOUND)"))
def test_overwritten_cell_keeps_its_value():
    """When this passes, the service workload's failed count drops to 0."""
    assert workloads.overwrite_survives()
