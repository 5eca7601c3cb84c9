"""Seeded input generators for the three benchmark workloads.

Everything the engine receives is made here from ``seed`` and written to
CSV files; the engine reads only those files and the query/request texts.
The generators also return the clean ground truth the output checks need.

Work per run must not depend on the seed beyond noise, because the
steadiness criterion compares runs made with different seeds.  So sizes,
error counts and the multiset of query widths are fixed; the seed picks
which keys are dirty, where each query's range lies, and the query order.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Any

from repro.constraints import DenialConstraint, Predicate
from repro.constraints.dc import FunctionalDependency
from repro.datasets import ssb
from repro.datasets.errors import ErrorInjectionReport
from repro.relation import ColumnType, Relation

PRICE_SCHEMA = [
    ("orderkey", ColumnType.INT),
    ("extended_price", ColumnType.FLOAT),
    ("discount", ColumnType.FLOAT),
]


def price_discount_dc() -> DenialConstraint:
    """The Fig. 10 rule: a higher price never has a lower discount."""
    return DenialConstraint(
        [
            Predicate(0, "extended_price", "<", 1, "extended_price"),
            Predicate(0, "discount", ">", 1, "discount"),
        ],
        name="dc_price_discount",
    )


def width_ladder(domain: int, count: int) -> list[int]:
    """``count`` positive integer widths summing to ``domain``.

    The widths follow a fixed geometric ladder (narrowest to widest about
    1:12), so the multiset of selectivities is the same for every seed.
    """
    if count > domain:
        raise ValueError("more queries than keys in the domain")
    raw = [12.0 ** (i / max(1, count - 1)) for i in range(count)]
    scale = (domain - count) / sum(raw)
    widths = [1 + int(r * scale) for r in raw]
    for i in range(domain - sum(widths)):
        widths[-1 - (i % count)] += 1
    return widths


def random_cover(
    domain: int, count: int, rng: random.Random, start: int = 0
) -> list[tuple[int, int]]:
    """Half-open ranges covering ``[start, start + domain)`` with ladder
    widths in seed-shuffled order."""
    widths = width_ladder(domain, count)
    rng.shuffle(widths)
    out, low = [], start
    for width in widths:
        out.append((low, low + width))
        low += width
    return out


def _range_sql(projection: str, tables: str, attr: str, low: int, high: int, extra: str = "") -> str:
    prefix = f"SELECT {projection} FROM {tables} WHERE {extra}"
    if high - low == 1:
        return f"{prefix}{attr} = {low}"
    return f"{prefix}{attr} >= {low} AND {attr} < {high}"


# -- explore_fd -------------------------------------------------------------------------


@dataclass
class FdInputs:
    """Dirty SSB tables, their FDs, the query mix and the clean truth."""

    lineorder: Relation
    supplier: Relation
    clean_lineorder: Relation
    clean_supplier: Relation
    rules: dict[str, FunctionalDependency]
    queries: list[str]
    injections: dict[str, ErrorInjectionReport]


JOIN_PROJECTION = "lineorder.orderkey, lineorder.suppkey, supplier.address"
JOIN_TABLES = "lineorder, supplier"
JOIN_ON = "lineorder.suppkey = supplier.suppkey AND "


def explore_fd_inputs(
    seed: int,
    rows: int,
    orderkeys: int,
    suppkeys: int,
    sp_queries: int,
    join_queries: int,
) -> FdInputs:
    """The exploratory scenario of Figs 7 and 12.

    Lineorder violates ``orderkey -> suppkey`` in a quarter of the
    orderkeys, supplier violates ``address -> suppkey`` in a tenth of the
    addresses.  The SP queries and the SPJ queries each cover the orderkey
    domain once, with ladder widths; the two sets are shuffled together.
    """
    lineorder, phi, lo_report = ssb.dirty_lineorder(
        rows, orderkeys, suppkeys, error_group_fraction=0.25, seed=seed
    )
    supplier, psi, sup_report = ssb.dirty_supplier(
        suppkeys, error_fraction=0.1, seed=seed + 7
    )
    rng = random.Random(seed * 7919 + 1)
    queries = [
        _range_sql("*", "lineorder", "orderkey", low, high)
        for low, high in random_cover(orderkeys, sp_queries, rng)
    ]
    queries += [
        _range_sql(JOIN_PROJECTION, JOIN_TABLES, "lineorder.orderkey", low, high, JOIN_ON)
        for low, high in random_cover(orderkeys, join_queries, rng)
    ]
    rng.shuffle(queries)
    return FdInputs(
        lineorder=lineorder,
        supplier=supplier,
        clean_lineorder=ssb.clean_lineorder(rows, orderkeys, suppkeys, seed=seed),
        clean_supplier=ssb.supplier_table(suppkeys, duplicates=2, seed=seed + 7),
        rules={"lineorder": phi, "supplier": psi},
        queries=queries,
        injections={"lineorder": lo_report, "supplier": sup_report},
    )


# -- dc_range ---------------------------------------------------------------------------


@dataclass
class DcInputs:
    """A dirty price/discount table, its DC, and range queries on price."""

    table: Relation
    clean: Relation
    queries: list[str]
    dirty_tids: list[int]


def clean_prices(seed: int, rows: int, name: str) -> Relation:
    """Distinct prices, two per price unit from 100 up, with discount
    strictly rising in price: the clean table satisfies the DC."""
    rng = random.Random(seed)
    cents = [10_000 + i * 50 + rng.randrange(50) for i in range(rows)]
    order = list(range(rows))
    rng.shuffle(order)  # tids are not in price order
    raw = []
    for tid_slot, rank in enumerate(order):
        raw.append((tid_slot, cents[rank] / 100.0, round(0.01 + rank * 1e-5, 6)))
    return Relation.from_rows(PRICE_SCHEMA, raw, name=name, validate=False)


def dirty_prices(
    clean: Relation,
    seed: int,
    spans: list[tuple[float, float]],
    fill: float,
    per_span: int = 1,
) -> tuple[Relation, dict[tuple[int, str], Any]]:
    """Make one violation cluster inside each price span.

    In a span of ``m`` tuples, ``per_span`` tuples each take the discount of
    the tuple ``shift = fill * (m - 1)`` price ranks above them (or below,
    alternating), both inside the span.  Each then violates the DC with
    about ``shift`` tuples, none outside the span.  Prices have a fixed
    density, so every cluster costs the same on every seed.
    Returns the dirty table and the ground truth of every edited cell.
    """
    price_idx = clean.schema.index_of("extended_price")
    disc_idx = clean.schema.index_of("discount")
    by_price = sorted(clean.rows, key=lambda row: row.values[price_idx])
    prices = [row.values[price_idx] for row in by_price]
    updates: dict[tuple[int, str], Any] = {}
    truth: dict[tuple[int, str], Any] = {}
    for e, (low, high) in enumerate(spans):
        first = bisect.bisect_left(prices, low)
        last = bisect.bisect_left(prices, high) - 1
        shift = max(1, int(fill * (last - first)))
        room = last - first - shift
        for k in range(per_span):
            rank = first + (room * (2 * k + 1)) // (2 * per_span)
            mine, other = (rank, rank + shift) if (e + k) % 2 == 0 else (rank + shift, rank)
            row = by_price[mine]
            if (row.tid, "discount") in truth:
                continue
            updates[(row.tid, "discount")] = by_price[other].values[disc_idx]
            truth[(row.tid, "discount")] = row.values[disc_idx]
    return clean.update_cells(updates), truth


def dc_range_inputs(
    seed: int, rows: int, queries: int, per_span: int, fill: float = 0.9
) -> DcInputs:
    """``queries`` equal range queries covering the price domain once, in a
    fixed order; each range holds one violation cluster (see
    :func:`dirty_prices`), so every query cleans about the same amount.

    The layout and the query order are the same for every seed, since
    what a cluster costs depends on where it falls and on which neighbours
    were cleaned before it; the seed sets the prices and the tids.
    """
    clean = clean_prices(seed, rows, "lineorder")
    # Prices lie in [100, 100 + rows/2); integer bounds cover every one.
    domain = rows // 2 + 1
    bounds = [100 + (domain * i) // queries for i in range(queries + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    dirty, truth = dirty_prices(clean, seed, ranges, fill, per_span)
    sql = [
        _range_sql("orderkey, extended_price, discount", "lineorder", "extended_price", low, high)
        for low, high in ranges
    ]
    random.Random(len(sql)).shuffle(sql)
    return DcInputs(
        table=dirty, clean=clean, queries=sql,
        dirty_tids=sorted(tid for tid, _ in truth),
    )


# -- service_rw -------------------------------------------------------------------------


@dataclass
class ServiceInputs:
    """Two tables and the lock-step request script of two clients."""

    lineorder: Relation
    prices: Relation
    rules: dict[str, Any]
    #: ``steps[i] = (analyst_request_fields, ingest_request_fields)``.
    steps: list[tuple[dict[str, Any], dict[str, Any]]]
    batches_sent: dict[str, int] = field(default_factory=dict)


def service_rw_inputs(
    seed: int,
    lineorder_rows: int,
    orderkeys: int,
    suppkeys: int,
    price_rows: int,
    steps: int,
    batch_cells: int,
) -> ServiceInputs:
    """Lineorder (FD, large enough to spill) and a small price table (DC).

    The analyst alternates orderkey-range reads of lineorder with price
    range reads of the price table.  The ingest client cycles through an
    update batch on lineorder, a read of it, an update batch on the price
    table and a read of it.  Each batch writes fresh errors into some rows
    (a wrong supplier; the discount of the row 8 price ranks away) and
    corrects the rows the table's previous batch broke; a table's last
    batch only corrects.  So every batch undoes cleaning that the next
    reads must redo.
    """
    lineorder, phi, _ = ssb.dirty_lineorder(
        lineorder_rows, orderkeys, suppkeys, error_group_fraction=0.25, seed=seed
    )
    clean_lo = ssb.clean_lineorder(lineorder_rows, orderkeys, suppkeys, seed=seed)
    rng = random.Random(seed * 7919 + 3)
    ok_ranges = random_cover(orderkeys, 24, rng)
    price_ranges = random_cover(price_rows // 2 + 1, 12, rng, start=100)
    clean_pr = clean_prices(seed + 3, price_rows, "prices")
    prices = dirty_prices(clean_pr, seed + 3, spans=sorted(price_ranges)[::3], fill=0.5)[0]
    true_supp = {row.tid: row.values[4] for row in clean_lo.rows}
    by_price = sorted(clean_pr.rows, key=lambda row: row.values[1])
    rank_of = {row.tid: rank for rank, row in enumerate(by_price)}
    true_disc = {row.tid: row.values[2] for row in clean_pr.rows}

    def wrong_supp(tid: int) -> int:
        return (true_supp[tid] + 1 + rng.randrange(suppkeys - 1)) % suppkeys

    def wrong_disc(tid: int) -> float:
        rank = rank_of[tid]
        other = rank + 8 if rank + 8 < len(by_price) else rank - 8
        return by_price[other].values[2]

    tables = {
        "lineorder": ("suppkey", true_supp, wrong_supp, batch_cells),
        "prices": ("discount", true_disc, wrong_disc, max(1, batch_cells // 4)),
    }
    batches = {"lineorder": len(range(0, steps, 4)), "prices": len(range(2, steps, 4))}
    broken: dict[str, list[int]] = {"lineorder": [], "prices": []}

    def batch(table: str) -> dict[str, Any]:
        attr, truth, wrong, size = tables[table]
        sent[table] += 1
        cells = {tid: truth[tid] for tid in broken[table]}
        fresh: list[int] = []
        if sent[table] < batches[table]:
            pool = [tid for tid in sorted(truth) if tid not in cells]
            fresh = rng.sample(pool, size)
            cells.update({tid: wrong(tid) for tid in fresh})
        broken[table] = fresh
        return {"kind": "update_table", "table": table,
                "cells": tuple(sorted((tid, attr, v) for tid, v in cells.items()))}

    def lo_read(i: int) -> dict[str, Any]:
        low, high = ok_ranges[i % len(ok_ranges)]
        return {"kind": "execute", "sql": _range_sql(
            "orderkey, suppkey, quantity", "lineorder", "orderkey", low, high)}

    def price_read(i: int) -> dict[str, Any]:
        low, high = price_ranges[i % len(price_ranges)]
        return {"kind": "execute", "sql": _range_sql(
            "orderkey, extended_price, discount", "prices", "extended_price", low, high)}

    sent = {"lineorder": 0, "prices": 0}
    script = []
    for step in range(steps):
        analyst = lo_read(step // 2) if step % 2 == 0 else price_read(step // 2)
        phase = step % 4
        if phase == 0:
            ingest = batch("lineorder")
        elif phase == 2:
            ingest = batch("prices")
        elif phase == 1:
            ingest = lo_read(step * 5 + 3)
        else:
            ingest = price_read(step * 5 + 3)
        script.append((analyst, ingest))
    return ServiceInputs(
        lineorder=lineorder,
        prices=prices,
        rules={"lineorder": phi, "prices": price_discount_dc()},
        steps=script,
        batches_sent=sent,
    )
