"""Independent reference models the tests check the engine against.

Everything here recomputes expected results from first principles
(dict replays, brute-force diffs, single-threaded query evaluation)
and deliberately shares no code with the engine.
"""

import random

import numpy as np

from htaplite.bench import (INITIAL_LOAD_LINES_PER_ORDER, INITIAL_ORDER_BASE,
                            INITIAL_STOCK_QUANTITY)
from htaplite.txn import STOCK_KEY_SPAN


def replay_oplog(oplog):
    """Replay a committed operation log into a plain dict model.

    oplog entries: ("insert", key, row_tuple) or ("update", key, {col: value}).
    Returns {key: {col: value}}.
    """
    model = {}
    for entry in oplog:
        if entry[0] == "insert":
            _, key, names, row = entry
            model[key] = dict(zip(names, row))
        elif entry[0] == "update":
            _, key, deltas = entry
            model[key].update(deltas)
        else:
            raise ValueError(entry[0])
    return model


def reference_load(db, cfg):
    """The initial load one row at a time, as the loader did it first.

    One insert_committed per row, in the loader's random draw order,
    with each line's price read back through read_latest.
    """
    rng = random.Random(cfg.seed)
    item = db.table("item")
    for w in range(cfg.warehouses):
        db.table("warehouse").insert_committed((w,))
    for i in range(cfg.items):
        item.insert_committed((i, round(rng.uniform(1.0, 100.0), 2)))
    for w in range(cfg.warehouses):
        for i in range(cfg.items):
            db.table("stock").insert_committed(
                (w * STOCK_KEY_SPAN + i, INITIAL_STOCK_QUANTITY))
    for seq in range(cfg.initial_orders):
        o_id = INITIAL_ORDER_BASE + seq
        entry_d = 7000 + seq % 365
        db.table("orders").insert_committed(
            (o_id, seq % cfg.warehouses, entry_d, INITIAL_LOAD_LINES_PER_ORDER))
        for number in range(1, INITIAL_LOAD_LINES_PER_ORDER + 1):
            item_id = rng.randrange(cfg.items)
            qty = rng.randint(1, 10)
            price = item.read_latest(item_id)[1]
            db.table("orderline").insert_committed((
                o_id * 16 + number, o_id, number, item_id, qty,
                round(price * qty, 2), entry_d + rng.randint(0, 30)))
    return db


def store_state(store):
    """Everything a load leaves in one table, in comparable form.

    The committed row count, the active instance, the bitmap length,
    the index entries in insertion order (repr, so a numpy scalar key
    differs from a Python int) and the bytes of every chunk of both
    instances.
    """
    return (store.committed_rows, store.active, len(store.bitmap._flags),
            repr(list(store.index.items())),
            [[chunk.tobytes() for chunk in inst.columns[c.name].chunks]
             for inst in store.instances for c in store.schema])


def engine_state(db):
    return {name: store_state(store) for name, store in db.tables.items()}


def instance_diff_cells(store, fence):
    """(row_id, column) pairs whose two copies differ, below the fence."""
    bad = []
    for col in store.schema:
        a = store.instances[0].columns[col.name]
        b = store.instances[1].columns[col.name]
        for row in range(fence):
            if a.read(row) != b.read(row):
                bad.append((row, col.name))
    return bad


def instance_vs_snapshot_diff_bytes(olap_columns, olap_watermark, frozen):
    """Bytes an extract step must move, recomputed by brute force.

    Compares the analytical copy against the frozen snapshot cell by
    cell below the watermark, and charges the full insert tail above it.
    olap_columns: {name: numpy array of at least watermark rows}.
    """
    total = 0
    for col in frozen.schema:
        width = col.byte_width
        mine = olap_columns[col.name]
        for row in range(olap_watermark):
            if mine[row] != frozen.read_cell(col.name, row):
                total += width
        total += (frozen.committed_count - olap_watermark) * width
    return total


def reference_eval(plan, tables):
    """Single-threaded row-at-a-time evaluation of a query plan.

    tables: {name: list of row dicts} for the logical snapshot. Plain
    python arithmetic in row order; the engine's block sums may differ
    in the last float bits, so compare with a relative tolerance.
    """

    def passes(pred, row):
        if pred is None:
            return True
        for col, lo, hi in pred.conditions:
            v = row[col]
            if lo is not None and v < lo:
                return False
            if hi is not None and v > hi:
                return False
        return True

    def finalize(op, rows, col):
        vals = [r[col] for r in rows]
        if op == "count":
            return len(vals)
        if op == "sum":
            return sum(vals) if vals else 0
        if op == "min":
            return min(vals) if vals else None
        return sum(vals) / len(vals) if vals else None

    fact_table = plan.join.fact_table if plan.join else plan.scans[0][0]
    fact_pred = None
    for t, _, pred in plan.scans:
        if t == fact_table:
            fact_pred = pred
    rows = [r for r in tables[fact_table] if passes(fact_pred, r)]

    if plan.shape == "fact-dimension-join":
        dim_pred = None
        for t, _, pred in plan.scans:
            if t == plan.join.dim_table:
                dim_pred = pred
        dim = {}
        for r in tables[plan.join.dim_table]:
            if passes(dim_pred, r):
                dim[r[plan.join.dim_key]] = r
        joined = []
        for r in rows:
            hit = dim.get(r[plan.join.fact_key])
            if hit is not None:
                joined.append({**hit, **r})
        labels = tuple("%s(%s)" % (op, col) for col, op in plan.aggregates)
        return labels, [tuple(finalize(op, joined, col)
                              for col, op in plan.aggregates)]

    if plan.shape == "scan-filter-reduce":
        labels = tuple("%s(%s)" % (op, col) for col, op in plan.aggregates)
        return labels, [tuple(finalize(op, rows, col)
                              for col, op in plan.aggregates)]

    groups = {}
    for r in rows:
        groups.setdefault(tuple(r[k] for k in plan.groupby_keys), []).append(r)
    labels = plan.groupby_keys + tuple("%s(%s)" % (op, col)
                                       for col, op in plan.aggregates)
    out = [key + tuple(finalize(op, grp, col) for col, op in plan.aggregates)
           for key, grp in sorted(groups.items())]
    return labels, out


def snapshot_rows(frozen):
    """Materialize a frozen handle as a list of row dicts."""
    names = [c.name for c in frozen.schema]
    return [dict(zip(names, frozen.read_row(row)))
            for row in range(frozen.committed_count)]


def results_match(result, expected_columns, expected_rows, rel=1e-9):
    """Compare an engine ResultSet against oracle output."""
    if tuple(result.columns) != tuple(expected_columns):
        return False
    if len(result.rows) != len(expected_rows):
        return False
    for got, want in zip(result.rows, expected_rows):
        if len(got) != len(want):
            return False
        for g, w in zip(got, want):
            if g is None or w is None:
                if g is not w:
                    return False
            elif isinstance(w, float) or isinstance(g, float):
                if abs(g - w) > rel * max(1.0, abs(g), abs(w)):
                    return False
            elif g != w:
                return False
    return True


class SyntheticStats:
    """Hand-specified freshness numbers for planner unit tests."""

    def __init__(self, epoch, counts, updated=None, widths=None):
        self.epoch = epoch
        self._counts = counts          # table -> (watermark, oltp_count)
        self._updated = updated or {}  # (table, column) -> row count
        self._widths = widths or {}    # (table, column) -> bytes

    def watermark(self, table):
        return self._counts[table][0]

    def oltp_count(self, table):
        return self._counts[table][1]

    def updated_rows(self, table, column):
        return self._updated.get((table, column), 0)

    def column_width(self, table, column):
        return self._widths.get((table, column), 8)
