"""Output checks made apart from the engine.

Each check recomputes what the workload's outputs must satisfy from the
generator's own data, with code that shares nothing with the engine's
query, detection or repair layers: stdlib ``sqlite3`` for clean answers, a
NumPy all-pairs scan for DC violations, and plain bookkeeping of the
request script for the service.  A check raises :class:`CheckFailed`;
:func:`lost_writes` counts instead, because the engine fails it (README).
"""

from __future__ import annotations

import sqlite3
from typing import Any, Iterable, Sequence

import numpy as np

from repro.probabilistic.value import PValue
from repro.relation import Relation


class CheckFailed(AssertionError):
    """An output of the engine is not what the independent check expects."""


def admits(cell: Any, value: Any) -> bool:
    """A cell admits a concrete value: equal, or a candidate matches it."""
    if isinstance(cell, PValue):
        return cell.matches(value)
    return cell == value


def _sqlite_of(tables: dict[str, Relation]) -> sqlite3.Connection:
    conn = sqlite3.connect(":memory:")
    for name, relation in tables.items():
        cols = [c.name for c in relation.schema.columns]
        conn.execute(f"CREATE TABLE {name} ({', '.join(cols)})")
        conn.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(cols))})",
            [row.values for row in relation.rows],
        )
    return conn


def lost_rows(clean_rows: Iterable[tuple], result_rows: Sequence[tuple]) -> int:
    """How many clean answer rows no result row admits."""
    by_key: dict[Any, list[tuple]] = {}
    wild: list[tuple] = []
    for row in result_rows:
        first = row[0]
        if not isinstance(first, PValue):
            by_key.setdefault(first, []).append(row)
        elif any(c.is_range() for c in first.candidates):
            wild.append(row)
        else:
            for value in set(first.concrete_values()):
                by_key.setdefault(value, []).append(row)
    lost = 0
    for clean in clean_rows:
        candidates = by_key.get(clean[0], []) + wild
        if not any(all(admits(c, v) for c, v in zip(row, clean)) for row in candidates):
            lost += 1
    return lost


def missed_cells(tables: dict[str, Relation], truth: dict[str, dict]) -> int:
    """How many injected cells do not admit their ground-truth value."""
    missed = 0
    for name, cells in truth.items():
        relation = tables[name]
        rows = relation.tid_index()
        for (tid, attr), value in cells.items():
            if not admits(rows[tid].values[relation.schema.index_of(attr)], value):
                missed += 1
    return missed


def check_explore_fd(inputs: Any, tables: dict[str, Relation], results: Sequence[Any]) -> None:
    """Every clean answer row is admitted by some result row, and every
    injected cell admits its ground truth."""
    if len(results) != len(inputs.queries):
        raise CheckFailed(f"{len(results)} results for {len(inputs.queries)} queries")
    conn = _sqlite_of({"lineorder": inputs.clean_lineorder, "supplier": inputs.clean_supplier})
    try:
        lost = total = 0
        for sql, result in zip(inputs.queries, results):
            clean = conn.execute(sql).fetchall()
            total += len(clean)
            lost += lost_rows(clean, [row.values for row in result.relation.rows])
    finally:
        conn.close()
    if lost:
        raise CheckFailed(f"{lost} of {total} clean answer rows lost")
    truth = {name: report.ground_truth for name, report in inputs.injections.items()}
    missed = missed_cells(tables, truth)
    if missed:
        raise CheckFailed(f"{missed} injected cells do not admit their true value")


def violating_tids(relation: Relation) -> set[int]:
    """Tuples in some pair violating ``not(t1.price < t2.price and
    t1.discount > t2.discount)``, by an all-pairs scan."""
    p_idx = relation.schema.index_of("extended_price")
    d_idx = relation.schema.index_of("discount")
    tids = np.array([row.tid for row in relation.rows])
    price = np.array([row.values[p_idx] for row in relation.rows], dtype=float)
    disc = np.array([row.values[d_idx] for row in relation.rows], dtype=float)
    # pair[i, j]: t_i as t1 and t_j as t2 violate.
    pair = (price[:, None] < price[None, :]) & (disc[:, None] > disc[None, :])
    return set(tids[pair.any(axis=0) | pair.any(axis=1)].tolist())


def probabilistic_tids(relation: Relation) -> set[int]:
    return {
        row.tid for row in relation.rows
        if any(isinstance(v, PValue) for v in row.values)
    }


def check_dc_range(inputs: Any, table: Relation) -> None:
    """After the queries covered the price domain, exactly the tuples of
    some violating pair of the dirty input hold a probabilistic cell."""
    expected = violating_tids(inputs.table)
    got = probabilistic_tids(table)
    if not expected:
        raise CheckFailed("the dirty input has no violations")
    if got != expected:
        raise CheckFailed(
            f"{len(got - expected)} tuples repaired without a violation, "
            f"{len(expected - got)} violating tuples not repaired"
        )


def lost_writes(submitted: Sequence[Any], tables: dict[str, Relation]) -> int:
    """How many written cells do not admit the last value written to them."""
    truth: dict[str, dict] = {}
    for request in submitted:
        if request.kind == "update_table":
            for tid, attr, value in request.cells:
                truth.setdefault(request.table, {})[(tid, attr)] = value
    if not truth:
        raise CheckFailed("the script wrote nothing")
    return missed_cells(tables, truth)


def check_service_rw(
    inputs: Any,
    responses: Sequence[Any],
    submitted: Sequence[Any],
    status: dict[str, Any],
    replayed: Sequence[Any],
) -> None:
    """Responses ok and none shed; epochs rise within the batches sent;
    responses equal a serial replay of the admission log byte for byte.

    Whether written cells keep their last value is :func:`lost_writes`,
    which the workload reports as an operation of its own.
    """
    bad = [r for r in responses if r.status != "ok"]
    if bad:
        raise CheckFailed(f"{len(bad)} responses not ok, first: {bad[0].payload}")
    if status["shed"] or status["admitted"] != len(submitted):
        raise CheckFailed(f"admitted {status['admitted']} of {len(submitted)}, shed {status['shed']}")
    ordered = sorted(responses, key=lambda r: r.admitted)
    last_epoch: dict[str, int] = {}
    for response in ordered:
        for table, epoch in response.epochs:
            if epoch < last_epoch.get(table, 0) or epoch > inputs.batches_sent[table]:
                raise CheckFailed(f"{table} epoch {epoch} after {last_epoch.get(table, 0)}, "
                                  f"{inputs.batches_sent[table]} batches sent")
            last_epoch[table] = epoch
    for table, info in status["tables"].items():
        if info["data_epoch"] > inputs.batches_sent[table]:
            raise CheckFailed(f"{table} ends at epoch {info['data_epoch']}")
    if len(replayed) != len(ordered):
        raise CheckFailed(f"replay gave {len(replayed)} responses for {len(ordered)}")
    differ = sum(a.encode() != b.encode() for a, b in zip(ordered, replayed))
    if differ:
        raise CheckFailed(f"{differ} responses differ from the serial replay")
