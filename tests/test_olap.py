import itertools
import random
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from htaplite.bench import TABLE_SCHEMAS, q1_plan, q6_plan, q19_plan
import htaplite.olap as olap_module
from htaplite.olap import (
    AccessPath,
    AccessPathPlan,
    EpochMismatchError,
    Join,
    KeyLookup,
    KindMismatchError,
    OlapInstance,
    PlanError,
    Predicate,
    QueryPlan,
    choose_access_paths,
    execute,
    fresh_bytes_for_query,
)
from htaplite.storage import ColumnSchema, Database

from oracles import SyntheticStats, reference_eval, results_match, snapshot_rows


def state_at(epoch, cpus=(8, 9, 10, 11)):
    return SimpleNamespace(epoch=epoch, olap_cpus=frozenset(cpus))


def all_remote(plan, table_rows, epoch):
    return AccessPathPlan(
        per_column={tc: AccessPath.REMOTE for tc in plan.scanned_columns()},
        table_rows=dict(table_rows),
        execution_cpus=frozenset({0}),
        epoch=epoch,
    )


def full_etl(frozen_map):
    """Fresh analytical copy of everything in the handles."""
    inst = OlapInstance()
    epoch = None
    for name, handle in frozen_map.items():
        inst.append_from(name, handle, handle.committed_count)
        epoch = handle.epoch
    inst.epoch_synced = epoch
    return inst


class TestPlanValidation:
    def test_unknown_shape(self):
        with pytest.raises(PlanError):
            QueryPlan(name="x", shape="scan-sort", scans=[("t", ["a"], None)],
                      aggregates=[("a", "sum")])

    def test_predicate_column_must_be_scanned(self):
        with pytest.raises(PlanError):
            QueryPlan(name="x", shape="scan-filter-reduce",
                      scans=[("t", ["a"], Predicate((("b", 0, 1),)))],
                      aggregates=[("a", "sum")])

    def test_aggregate_column_must_be_scanned(self):
        with pytest.raises(PlanError):
            QueryPlan(name="x", shape="scan-filter-reduce",
                      scans=[("t", ["a"], None)], aggregates=[("b", "sum")])

    def test_unknown_aggregate_op(self):
        with pytest.raises(PlanError):
            QueryPlan(name="x", shape="scan-filter-reduce",
                      scans=[("t", ["a"], None)], aggregates=[("a", "median")])

    def test_join_shape_requires_join_clause(self):
        with pytest.raises(PlanError):
            QueryPlan(name="x", shape="fact-dimension-join",
                      scans=[("t", ["a"], None)], aggregates=[("a", "sum")])

    def test_groupby_keys_only_on_groupby_shape(self):
        with pytest.raises(PlanError):
            QueryPlan(name="x", shape="scan-filter-reduce",
                      scans=[("t", ["a"], None)], aggregates=[("a", "sum")],
                      groupby_keys=("a",))


class TestChooseAccessPaths:
    def test_untouched_column_goes_local(self):
        stats = SyntheticStats(3, {"orderline": (500, 500)})
        paths = choose_access_paths(q6_plan(), stats, state_at(3))
        assert set(paths.per_column.values()) == {AccessPath.LOCAL}

    def test_one_updated_tuple_forces_whole_column_remote(self):
        stats = SyntheticStats(3, {"orderline": (500, 500)},
                               updated={("orderline", "ol_amount"): 1})
        paths = choose_access_paths(q6_plan(), stats, state_at(3))
        assert paths.path("orderline", "ol_amount") is AccessPath.REMOTE
        assert paths.path("orderline", "ol_quantity") is AccessPath.LOCAL

    def test_insert_only_tail_splits_at_watermark(self):
        stats = SyntheticStats(4, {"orderline": (1000, 1200)})
        paths = choose_access_paths(q6_plan(), stats, state_at(4))
        assert paths.path("orderline", "ol_amount") is AccessPath.SPLIT
        assert paths.split_ranges("orderline") == ((0, 1000), (1000, 1200))

    def test_epoch_mismatch_rejected(self):
        stats = SyntheticStats(3, {"orderline": (500, 500)})
        with pytest.raises(EpochMismatchError):
            choose_access_paths(q6_plan(), stats, state_at(4))

    def test_execution_cpus_follow_state_grant(self):
        stats = SyntheticStats(1, {"orderline": (10, 10)})
        paths = choose_access_paths(q6_plan(), stats, state_at(1, cpus=(2, 5)))
        assert paths.execution_cpus == frozenset({2, 5})


class TestFreshBytes:
    def test_no_fresh_data_is_zero(self):
        stats = SyntheticStats(1, {"orderline": (500, 500)})
        assert fresh_bytes_for_query(q6_plan(), stats) == 0

    def test_updates_outside_scanned_columns_do_not_count(self):
        stats = SyntheticStats(1, {"orderline": (500, 500)},
                               updated={("orderline", "ol_id"): 50})
        assert fresh_bytes_for_query(q6_plan(), stats) == 0

    def test_tail_times_width(self):
        plan = QueryPlan(name="x", shape="scan-filter-reduce",
                         scans=[("t", ["x"], None)], aggregates=[("x", "sum")])
        stats = SyntheticStats(1, {"t": (800, 1000)}, widths={("t", "x"): 8})
        assert fresh_bytes_for_query(plan, stats) == 1600

    def test_updated_rows_counted_once_per_cell(self):
        # 100 tail rows plus 7 updated rows below the watermark, 8B each
        plan = QueryPlan(name="x", shape="scan-filter-reduce",
                         scans=[("t", ["x"], None)], aggregates=[("x", "sum")])
        stats = SyntheticStats(1, {"t": (900, 1000)},
                               updated={("t", "x"): 7}, widths={("t", "x"): 8})
        assert fresh_bytes_for_query(plan, stats) == (100 + 7) * 8


def make_orderline_db(rows, amount=1.0):
    db = Database()
    ol = db.create_table("orderline", TABLE_SCHEMAS["orderline"])
    for i in range(rows):
        ol.insert_committed((i, i // 10, i % 15, i % 7, 1 + i % 10, amount,
                             7000 + i % 30))
    return db, ol


class TestExecuteBasics:
    def test_sum_over_empty_table(self):
        db, ol = make_orderline_db(0)
        frozen = {"orderline": db.switch_all()["orderline"][0]}
        paths = all_remote(q6_plan(), {"orderline": (0, 0)}, frozen["orderline"].epoch)
        out = execute(q6_plan(), paths, OlapInstance(), frozen)
        assert out.rows == [(0,)]

    def test_constant_sum_local_and_split_agree(self):
        db, ol = make_orderline_db(300, amount=1.0)
        frozen = {"orderline": db.switch_all()["orderline"][0]}
        epoch = frozen["orderline"].epoch
        plan = q6_plan()

        partial = OlapInstance()
        partial.append_from("orderline", frozen["orderline"], 150)
        split = AccessPathPlan(
            per_column={tc: AccessPath.SPLIT for tc in plan.scanned_columns()},
            table_rows={"orderline": (150, 300)},
            execution_cpus=frozenset({0}), epoch=epoch)

        full = full_etl(frozen)
        local = AccessPathPlan(
            per_column={tc: AccessPath.LOCAL for tc in plan.scanned_columns()},
            table_rows={"orderline": (300, 300)},
            execution_cpus=frozenset({0}), epoch=epoch)

        a = execute(plan, split, partial, frozen)
        b = execute(plan, local, full, frozen)
        assert a.rows == b.rows == [(300.0,)]

    def test_join_matches_nested_loop_oracle(self):
        rng = random.Random(99)
        db = Database()
        ol = db.create_table("orderline", TABLE_SCHEMAS["orderline"])
        it = db.create_table("item", TABLE_SCHEMAS["item"])
        for i in range(10):
            it.insert_committed((i, float(i + 1)))
        for i in range(100):
            # every third line references an item id with no dimension row
            item_id = rng.randrange(15)
            ol.insert_committed((i, i, 1, item_id, rng.randint(1, 10),
                                 round(rng.uniform(1, 50), 2), 7000))
        out = db.switch_all()
        frozen = {name: h for name, (h, _) in out.items()}
        plan = q19_plan(price_lo=2.0, price_hi=9.0, quantity_lo=2)
        rows = {"orderline": (100, 100), "item": (10, 10)}
        paths = all_remote(plan, rows, frozen["orderline"].epoch)
        got = execute(plan, paths, OlapInstance(), frozen)
        labels, want = reference_eval(plan, {n: snapshot_rows(h)
                                             for n, h in frozen.items()})
        assert results_match(got, labels, want)

    def test_groupby_output_sorted_by_key(self):
        db, ol = make_orderline_db(400)
        frozen = {"orderline": db.switch_all()["orderline"][0]}
        plan = q1_plan()
        paths = all_remote(plan, {"orderline": (400, 400)},
                           frozen["orderline"].epoch)
        out = execute(plan, paths, OlapInstance(), frozen, worker_count=4)
        keys = [r[0] for r in out.rows]
        assert keys == sorted(keys)
        assert len(keys) == 15

    def test_aggregate_over_string_column_rejected(self):
        db = Database()
        t = db.create_table("t", [ColumnSchema("k", "int64"),
                                  ColumnSchema("name", "str", width=8)])
        t.insert_committed((1, "a"))
        frozen = {"t": db.switch_all()["t"][0]}
        plan = QueryPlan(name="x", shape="scan-filter-reduce",
                         scans=[("t", ["k", "name"], None)],
                         aggregates=[("name", "sum")])
        paths = all_remote(plan, {"t": (1, 1)}, frozen["t"].epoch)
        with pytest.raises(KindMismatchError):
            execute(plan, paths, OlapInstance(), frozen)

    def test_stale_path_plan_rejected_at_execute(self):
        db, ol = make_orderline_db(50)
        frozen = {"orderline": db.switch_all()["orderline"][0]}
        plan = q6_plan()
        paths = all_remote(plan, {"orderline": (50, 50)},
                           frozen["orderline"].epoch + 1)
        with pytest.raises(EpochMismatchError):
            execute(plan, paths, OlapInstance(), frozen)


def grow_random_db(seed):
    """Database with an ETL'd prefix, then mixed inserts and updates.

    Returns everything the equivalence property needs, including a
    shadow record of exactly which rows each column saw updated.
    """
    rng = random.Random(seed)
    ts = itertools.count(1)
    db = Database()
    ol = db.create_table("orderline", TABLE_SCHEMAS["orderline"])
    it = db.create_table("item", TABLE_SCHEMAS["item"])
    n_items = 25
    for i in range(n_items):
        it.insert_committed((i, round(rng.uniform(1.0, 50.0), 2)))

    def add_line(idx):
        ol.insert_committed((idx, idx // 10, 1 + idx % 15, rng.randrange(n_items),
                             rng.randint(1, 10), round(rng.uniform(1, 60), 2),
                             7000 + idx % 45))

    base = rng.randint(300, 1500)
    for idx in range(base):
        add_line(idx)

    first = {n: h for n, (h, _) in db.switch_all().items()}
    olap = full_etl(first)
    wm = {n: h.committed_count for n, h in first.items()}

    for idx in range(base, base + rng.randint(0, 1200)):
        add_line(idx)
    updated = {}
    for _ in range(rng.randint(0, 500)):
        row = rng.randrange(ol.committed_rows)
        col = rng.choice(["ol_quantity", "ol_amount"])
        val = rng.randint(1, 10) if col == "ol_quantity" else round(rng.uniform(1, 99), 2)
        ol.update_committed(row, {col: val}, commit_ts=next(ts))
        updated.setdefault(("orderline", col), set()).add(row)
    if rng.random() < 0.5:
        item_row = rng.randrange(n_items)
        it.update_committed(item_row, {"i_price": 3.33}, commit_ts=next(ts))
        updated.setdefault(("item", "i_price"), set()).add(item_row)

    frozen = {n: h for n, (h, _) in db.switch_all().items()}
    epoch = frozen["orderline"].epoch
    widths = {(n, c.name): c.byte_width
              for n, h in frozen.items() for c in h.schema}
    counts = {n: (wm[n], h.committed_count) for n, h in frozen.items()}
    upd_counts = {tc: len([r for r in rows if r < wm[tc[0]]])
                  for tc, rows in updated.items()}
    stats = SyntheticStats(epoch, counts, updated=upd_counts, widths=widths)
    return db, olap, frozen, stats, counts


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("builder", [
    q1_plan,
    lambda: q6_plan(delivery_lo=7005, delivery_hi=7035, max_quantity=7),
    lambda: q19_plan(price_lo=5.0, price_hi=40.0),
])
def test_path_equivalence_and_worker_independence(seed, builder):
    db, olap, frozen, stats, counts = grow_random_db(seed)
    plan = builder()
    epoch = stats.epoch

    mixed = choose_access_paths(plan, stats, state_at(epoch))
    remote = all_remote(plan, counts, epoch)
    refreshed = full_etl(frozen)
    local = AccessPathPlan(
        per_column={tc: AccessPath.LOCAL for tc in plan.scanned_columns()},
        table_rows={t: (cc, cc) for t, (_, cc) in counts.items()},
        execution_cpus=frozenset({0}), epoch=epoch)

    runs = {}
    for name, (paths, inst) in {"mixed": (mixed, olap),
                                "remote": (remote, OlapInstance()),
                                "local": (local, refreshed)}.items():
        per_worker = [execute(plan, paths, inst, frozen, worker_count=w)
                      for w in (1, 2, 8)]
        # identical bits regardless of worker count
        assert per_worker[0].rows == per_worker[1].rows == per_worker[2].rows
        runs[name] = per_worker[0]

    labels, want = reference_eval(plan, {n: snapshot_rows(h)
                                         for n, h in frozen.items()})
    for name, got in runs.items():
        assert results_match(got, labels, want), name


def test_snapshot_stability_under_concurrent_writes():
    db, ol = make_orderline_db(2000)
    frozen = {"orderline": db.switch_all()["orderline"][0]}
    plan = q1_plan()
    paths = all_remote(plan, {"orderline": (2000, 2000)},
                       frozen["orderline"].epoch)
    first = execute(plan, paths, OlapInstance(), frozen, worker_count=4)

    stop = threading.Event()

    def churn():
        ts = itertools.count(1000)
        i = 5000
        while not stop.is_set():
            ol.insert_committed((i, i, 1 + i % 15, 0, 5, 2.0, 7001))
            ol.update_committed(i % 2000, {"ol_amount": 9.9}, commit_ts=next(ts))
            i += 1

    t = threading.Thread(target=churn)
    t.start()
    try:
        for _ in range(5):
            again = execute(plan, paths, OlapInstance(), frozen, worker_count=4)
            assert again.rows == first.rows
    finally:
        stop.set()
        t.join()


def test_update_after_stats_forces_replan_to_remote():
    # a SPLIT plan from epoch N cannot run against epoch N+1 handles;
    # refreshed stats classify the updated column REMOTE
    db, ol = make_orderline_db(1000)
    first = db.switch_all()["orderline"][0]
    olap = full_etl({"orderline": first})
    for i in range(1000, 1200):
        ol.insert_committed((i, i, 1, 0, 5, 1.0, 7001))
    second = db.switch_all()["orderline"][0]
    plan = q6_plan()
    stats_tail = SyntheticStats(second.epoch, {"orderline": (1000, 1200)})
    paths = choose_access_paths(plan, stats_tail, state_at(second.epoch))
    assert paths.path("orderline", "ol_amount") is AccessPath.SPLIT

    ol.update_committed(3, {"ol_amount": 50.0}, commit_ts=77)
    third = db.switch_all()["orderline"][0]
    with pytest.raises(EpochMismatchError):
        execute(plan, paths, olap, {"orderline": third})

    stats_new = SyntheticStats(third.epoch, {"orderline": (1000, 1200)},
                               updated={("orderline", "ol_amount"): 1})
    replanned = choose_access_paths(plan, stats_new, state_at(third.epoch))
    assert replanned.path("orderline", "ol_amount") is AccessPath.REMOTE
    assert replanned.path("orderline", "ol_quantity") is AccessPath.SPLIT
    out = execute(plan, replanned, olap, {"orderline": third})
    labels, want = reference_eval(plan, {"orderline": snapshot_rows(third)})
    assert results_match(out, labels, want)


GROUPED_SCHEMA = [
    ColumnSchema("k", "int64"),
    ColumnSchema("g", "int64"),
    ColumnSchema("tag", "str", 3),
    ColumnSchema("q", "int64"),
    ColumnSchema("amt", "float64"),
    ColumnSchema("d", "date64"),
    ColumnSchema("s", "int64"),
    ColumnSchema("n", "int64"),
]
GROUPED_AGGREGATES = [("q", "sum"), ("amt", "sum"), ("q", "avg"), ("amt", "avg"),
                      ("q", "min"), ("amt", "min"), ("d", "min"), ("tag", "count")]


def grouped_rows(seed, n, groups):
    rng = random.Random(seed)
    rows = []
    for k in range(n):
        # rows 16..31 form one whole 16-row block the filter drops
        d = 9_000 if 16 <= k < 32 else 7_000 + rng.randrange(60)
        g = rng.randrange(groups)
        rows.append((k, g, rng.choice([b"ab", b"c", b"xyz"]),
                     rng.randint(-5, 50), round(rng.uniform(-10, 90), 2), d,
                     (g - 1) * 10 ** 12,    # sparse: coded with np.unique
                     -3 - 2 * g))           # negative, dense with gaps
    return rows


def reference_groupby(rows, keys, aggregates, d_max):
    """Row-at-a-time group-by over plain tuples."""
    names = [c.name for c in GROUPED_SCHEMA]
    groups = {}
    for row in rows:
        rec = dict(zip(names, row))
        if rec["d"] <= d_max:
            groups.setdefault(tuple(rec[k] for k in keys), []).append(rec)
    out = []
    for key in sorted(groups):
        vals = []
        for col, op in aggregates:
            column = [rec[col] for rec in groups[key]]
            if op == "sum":
                vals.append(sum(column))
            elif op == "avg":
                vals.append(sum(column) / len(column))
            elif op == "min":
                vals.append(min(column))
            else:
                vals.append(len(column))
        out.append(key + tuple(vals))
    return out


@pytest.mark.parametrize("keys,groups", [
    (("g",), 5),
    (("tag", "g"), 4),
    (("g", "tag"), 1),     # one g value: at most three groups
    (("g",), 1),           # a single group
    (("s",), 5),           # sparse integer key
    (("n", "tag"), 4),     # negative integer key
])
def test_groupby_matches_row_reference(monkeypatch, keys, groups):
    monkeypatch.setattr(olap_module, "BLOCK_ROWS", 16)
    rows = grouped_rows(len(keys) * 10 + groups, 150, groups)
    db = Database()
    t = db.create_table("t", GROUPED_SCHEMA)
    for row in rows:
        t.insert_committed(row)
    frozen = {"t": db.switch_all()["t"][0]}
    plan = QueryPlan(name="grouped", shape="scan-filter-groupby",
                     scans=[("t", ["g", "tag", "q", "amt", "d", "s", "n"],
                             Predicate(conditions=(("d", None, 8_000),)))],
                     aggregates=GROUPED_AGGREGATES, groupby_keys=keys)
    paths = all_remote(plan, {"t": (len(rows), len(rows))}, frozen["t"].epoch)
    got = [execute(plan, paths, OlapInstance(), frozen, worker_count=w)
           for w in (1, 3)]
    assert got[0].rows == got[1].rows
    want = reference_groupby(rows, keys, GROUPED_AGGREGATES, 8_000)
    assert [r[:len(keys)] for r in got[0].rows] == [r[:len(keys)] for r in want]
    for g_row, w_row in zip(got[0].rows, want):
        for g, w in zip(g_row, w_row):
            assert type(g) is type(w)
            if isinstance(w, float):
                assert g == pytest.approx(w, rel=1e-9)
            else:
                assert g == w


def reference_lookup(dim_keys, fact_keys):
    first = {}
    for pos, key in enumerate(dim_keys):
        first.setdefault(key, pos)
    return [first.get(key) for key in fact_keys]


@pytest.mark.parametrize("dim_keys", [
    [3, 5, 7, 5, 4],                    # dense table, repeated dimension key
    list(range(100, 140, 2)),           # dense table, half the slots empty
    [10, 1_000_000, 5_000_000, 10],     # sparse: sorted-key search
    [],                                 # empty dimension
], ids=["dense", "dense-gaps", "sparse", "empty"])
def test_key_lookup_matches_dict_reference(dim_keys):
    rng = random.Random(len(dim_keys))
    pool = dim_keys + [-7, 0, 1, 2, 6, 99, 141, 10 ** 7, 2 ** 40]
    fact_keys = [rng.choice(pool) for _ in range(500)]   # repeats, misses, outside range
    lookup = KeyLookup(np.array(dim_keys, dtype=np.int64))
    matched, pos = lookup(np.array(fact_keys, dtype=np.int64))
    want = reference_lookup(dim_keys, fact_keys)
    assert matched.tolist() == [w is not None for w in want]
    assert pos[matched].tolist() == [w for w in want if w is not None]


def test_key_lookup_float_keys_take_sorted_search():
    lookup = KeyLookup(np.array([1.5, 2.0, 7.25, 2.0]))
    matched, pos = lookup(np.array([2.0, 2.5, 7.25, 1.5, 0.0]))
    assert matched.tolist() == [True, False, True, True, False]
    assert pos[matched].tolist() == [1, 2, 0]
    matched, pos = KeyLookup(np.array([1, 2, 3]))(np.array([2.0, 2.5]))
    assert matched.tolist() == [True, False]
    assert pos[matched].tolist() == [1]
