import threading

import pytest

from htaplite.bench import BenchConfig, build_database, load_initial_data
from htaplite.storage import (
    CHUNK_ROWS,
    ColumnSchema,
    Database,
    KeyCollisionError,
    SchemaError,
    StorageError,
)
from htaplite.txn import (
    NewOrderGenerator,
    NewOrderParams,
    TransactionManager,
    TxnAborted,
    UnknownItemError,
    WorkerPool,
    execute_new_order,
    stock_key,
)


@pytest.fixture
def loaded():
    cfg = BenchConfig(scale_factor=1.0, divisor=10_000, seed=7)
    db = load_initial_data(build_database(cfg), cfg)
    return db, cfg, TransactionManager(db)


def table_quantity_sums(db):
    stock = db.table("stock")
    orderline = db.table("orderline")
    s = sum(stock.read_latest(k)[1] for k in list(stock.index))
    ol = sum(orderline.read_latest(k)[4] for k in list(orderline.index))
    return s, ol


class TestBegin:
    def test_ids_distinct_and_increasing(self, loaded):
        _, _, mgr = loaded
        a, b = mgr.begin(), mgr.begin()
        assert a.txn_id < b.txn_id
        mgr.abort(a)
        mgr.abort(b)

    def test_start_ts_zero_before_any_commit(self, loaded):
        _, _, mgr = loaded
        ctx = mgr.begin()
        assert ctx.start_ts == 0
        mgr.abort(ctx)

    def test_thousand_concurrent_begins_unique(self, loaded):
        _, _, mgr = loaded
        seen = []
        mu = threading.Lock()

        def worker():
            for _ in range(125):
                ctx = mgr.begin()
                with mu:
                    seen.append(ctx.txn_id)
                mgr.abort(ctx)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 1000
        assert len(set(seen)) == 1000


class TestNewOrder:
    def test_five_lines_full_effect(self, loaded):
        db, cfg, mgr = loaded
        stock = db.table("stock")
        before_orders = db.table("orders").committed_rows
        before_lines = db.table("orderline").committed_rows
        params = NewOrderParams(
            warehouse_id=0, order_id=1 << 40, entry_d=7100,
            item_ids=[0, 1, 2, 3, 4], quantities=[1, 2, 3, 4, 5],
        )
        assert execute_new_order(mgr, mgr.begin(), params, db) == "commit"
        assert db.table("orders").committed_rows == before_orders + 1
        assert db.table("orderline").committed_rows == before_lines + 5
        bits = 0
        for i in range(5):
            row_id, _ = stock.index[stock_key(0, i)]
            bits += stock.bitmap.test(row_id)
        assert bits == 5

    def test_stock_decrement_visible(self, loaded):
        db, cfg, mgr = loaded
        key = stock_key(0, 3)
        before = db.table("stock").read_latest(key)[1]
        params = NewOrderParams(0, 1 << 41, 7100, [3], [7])
        # single-line order is below the generator's floor but exercises the path
        execute_new_order(mgr, mgr.begin(), params, db)
        assert db.table("stock").read_latest(key)[1] == before - 7

    def test_unknown_item_raises_and_aborts(self, loaded):
        db, cfg, mgr = loaded
        ctx = mgr.begin()
        params = NewOrderParams(0, 1 << 42, 7100, [999_999], [1])
        with pytest.raises(UnknownItemError):
            execute_new_order(mgr, ctx, params, db)
        assert ctx.status == "aborted"
        assert not ctx.locks_held

    def test_disjoint_warehouses_commit_concurrently(self):
        cfg = BenchConfig(scale_factor=2.0, divisor=10_000, seed=7)
        db = load_initial_data(build_database(cfg), cfg)
        mgr = TransactionManager(db)
        barrier = threading.Barrier(2)
        results = {}

        def run(w):
            barrier.wait()
            params = NewOrderParams(w, (1 << 43) + w, 7100, [0, 1, 2, 3, 4], [1] * 5)
            results[w] = execute_new_order(mgr, mgr.begin(), params, db)

        threads = [threading.Thread(target=run, args=(w,)) for w in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {0: "commit", 1: "commit"}


class TestLockOrdering:
    def test_opposite_order_exactly_one_aborts(self, loaded):
        db, cfg, mgr = loaded
        stock = db.table("stock")
        row_a, _ = stock.index[stock_key(0, 0)]
        row_b, _ = stock.index[stock_key(0, 5)]
        t1 = mgr.begin()
        t2 = mgr.begin()
        mgr.lock(t1, stock, row_a)          # ascending: fine
        mgr.lock(t2, stock, row_b)          # fine on its own
        with pytest.raises(TxnAborted):
            mgr.lock(t2, stock, row_a)      # descending request -> immediate abort
        mgr.abort(t2)
        mgr.abort(t1)

    def test_blocked_then_granted_after_release(self, loaded):
        db, cfg, mgr = loaded
        stock = db.table("stock")
        row, _ = stock.index[stock_key(0, 2)]
        t1 = mgr.begin()
        mgr.lock(t1, stock, row)
        granted = threading.Event()

        def second():
            t2 = mgr.begin()
            mgr.lock(t2, stock, row)
            granted.set()
            mgr.abort(t2)

        th = threading.Thread(target=second)
        th.start()
        assert not granted.wait(0.1)
        mgr.abort(t1)   # releases the lock
        assert granted.wait(2.0)
        th.join()

    def test_reacquire_own_lock_is_noop(self, loaded):
        db, cfg, mgr = loaded
        stock = db.table("stock")
        row, _ = stock.index[stock_key(0, 2)]
        ctx = mgr.begin()
        mgr.lock(ctx, stock, row)
        mgr.lock(ctx, stock, row)
        assert len(ctx.locks_held) == 1
        mgr.abort(ctx)


class TestWorkerPool:
    def test_resize_down_keeps_counter_monotone(self, loaded):
        db, cfg, mgr = loaded
        pool = WorkerPool(mgr, db, seed=cfg.seed, warehouses=cfg.warehouses,
                          items=cfg.items)
        pool.set_worker_count(list(range(8)))
        assert pool.active_count == 8
        before = pool.committed_count()
        pool.set_worker_count([0, 1, 2, 3])
        assert pool.active_count == 4
        mid = pool.committed_count()
        assert mid >= before
        pool.stop_all()
        assert pool.committed_count() >= mid

    def test_resize_to_empty_rejected(self, loaded):
        db, cfg, mgr = loaded
        pool = WorkerPool(mgr, db)
        with pytest.raises(ValueError):
            pool.set_worker_count([])

    def test_throughput_snapshot_monotone(self, loaded):
        db, cfg, mgr = loaded
        pool = WorkerPool(mgr, db, seed=cfg.seed, warehouses=cfg.warehouses,
                          items=cfg.items, txn_budget=25)
        assert pool.committed_count() == 0
        pool.set_worker_count([0, 1])
        assert pool.wait_budget_done(timeout=30)
        c1, w1 = pool.throughput_snapshot()
        c2, w2 = pool.throughput_snapshot()
        assert c1 == 50
        assert c2 >= c1
        assert w2 >= w1
        pool.stop_all()


    def test_worker_exception_is_raised_not_lost(self, loaded):
        db, cfg, mgr = loaded
        # items beyond the loaded stock: the first NewOrder that picks one
        # raises UnknownItemError in its worker thread
        pool = WorkerPool(mgr, db, seed=cfg.seed, warehouses=cfg.warehouses,
                          items=cfg.items * 1000, txn_budget=25)
        pool.set_worker_count([0, 1])
        with pytest.raises(UnknownItemError):
            pool.wait_budget_done(timeout=30)
        with pytest.raises(UnknownItemError):
            pool.stop_all()
        assert pool.active_count == 0
        switcher = threading.Thread(target=db.switch_all, daemon=True)
        switcher.start()
        switcher.join(timeout=10)
        assert not switcher.is_alive(), "switch_all blocked by a dead worker's pin"


class TestInvariants:
    def test_quantity_conservation_exact(self, loaded):
        db, cfg, mgr = loaded
        s0, ol0 = table_quantity_sums(db)
        pool = WorkerPool(mgr, db, seed=cfg.seed, warehouses=cfg.warehouses,
                          items=cfg.items, txn_budget=50)
        pool.set_worker_count([0, 1, 2, 3])
        assert pool.wait_budget_done(timeout=60)
        pool.stop_all()
        s1, ol1 = table_quantity_sums(db)
        assert s1 + ol1 == s0 + ol0

    def test_final_state_matches_serial_replay(self):
        # committed NewOrders must be equivalent to SOME serial order;
        # stock decrements commute per row, so replaying the committed
        # set in any order on a fresh copy is the oracle
        cfg = BenchConfig(scale_factor=1.0, divisor=10_000, seed=13)
        db = load_initial_data(build_database(cfg), cfg)
        mgr = TransactionManager(db)
        committed = []
        mu = threading.Lock()

        def on_commit(params):
            with mu:
                committed.append(params)

        pool = WorkerPool(mgr, db, seed=cfg.seed, warehouses=cfg.warehouses,
                          items=cfg.items, txn_budget=50, on_commit=on_commit)
        pool.set_worker_count([0, 1, 2, 3])
        assert pool.wait_budget_done(timeout=60)
        pool.stop_all()
        assert len(committed) == 200

        ref = load_initial_data(build_database(cfg), cfg)
        ref_mgr = TransactionManager(ref)
        for params in committed:
            assert execute_new_order(ref_mgr, ref_mgr.begin(), params, ref) == "commit"

        for name in ("stock", "orders", "orderline"):
            live = db.table(name)
            want = ref.table(name)
            assert live.committed_rows == want.committed_rows
            for key in list(want.index):
                assert live.read_latest(key) == want.read_latest(key), (name, key)

    def test_orders_never_frozen_without_their_lines(self, loaded):
        db, cfg, mgr = loaded
        pool = WorkerPool(mgr, db, seed=cfg.seed, warehouses=cfg.warehouses,
                          items=cfg.items, txn_budget=150)
        pool.set_worker_count([0, 1, 2, 3])
        try:
            for _ in range(20):
                out = db.switch_all()
                orders_h = out["orders"][0]
                lines_h = out["orderline"][0]
                per_order = {}
                for row in range(lines_h.committed_count):
                    o_id = lines_h.read_cell("ol_o_id", row)
                    per_order[o_id] = per_order.get(o_id, 0) + 1
                for row in range(orders_h.committed_count):
                    o_id = orders_h.read_cell("o_id", row)
                    cnt = orders_h.read_cell("o_ol_cnt", row)
                    assert per_order.get(o_id, 0) == cnt, "order %d torn" % o_id
        finally:
            pool.stop_all()


def test_generator_is_deterministic_and_bounded():
    a = NewOrderGenerator(seed=5, worker_id=2, warehouses=3, items=50)
    b = NewOrderGenerator(seed=5, worker_id=2, warehouses=3, items=50)
    for _ in range(50):
        pa, pb = a.next(), b.next()
        assert pa == pb
        assert 5 <= pa.order_line_count <= 15
        assert pa.warehouse_id in (0, 1, 2)
        assert len(set(pa.item_ids)) == len(pa.item_ids)


def _bad_write_sets():
    """A write set whose last operation is invalid, and the error it raises."""

    def existing_key(db, mgr, ctx):
        orders = db.table("orders")
        mgr.buffer_insert(ctx, orders, orders.read_latest(next(iter(orders.index))))
        return KeyCollisionError

    def repeated_key(db, mgr, ctx):
        mgr.buffer_insert(ctx, db.table("orders"), (1 << 46, 0, 7100, 1))
        mgr.buffer_insert(ctx, db.table("orders"), (1 << 46, 0, 7101, 2))
        return KeyCollisionError

    def wrong_arity(db, mgr, ctx):
        mgr.buffer_insert(ctx, db.table("orders"), (1 << 47, 0, 7100))
        return SchemaError

    def unknown_row(db, mgr, ctx):
        stock = db.table("stock")
        mgr.lock(ctx, stock, 10 ** 9)
        mgr.buffer_update(ctx, stock, 10 ** 9, {"s_quantity": 1})
        return StorageError

    return [existing_key, repeated_key, wrong_arity, unknown_row]


@pytest.mark.parametrize("bad", _bad_write_sets(), ids=lambda f: f.__name__)
def test_failed_commit_applies_nothing_and_releases_everything(loaded, bad):
    db, cfg, mgr = loaded
    orders = db.table("orders")
    stock = db.table("stock")
    key = stock_key(0, 1)
    row_id, _ = stock.index[key]
    quantity = stock.read_latest(key)[1]
    before_orders = orders.committed_rows

    ctx = mgr.begin()
    mgr.lock(ctx, stock, row_id)
    mgr.buffer_update(ctx, stock, row_id, {"s_quantity": quantity - 5})
    mgr.buffer_insert(ctx, orders, (1 << 45, 0, 7100, 1))
    error = bad(db, mgr, ctx)
    with pytest.raises(error):
        mgr.commit(ctx)

    assert orders.committed_rows == before_orders
    assert orders.read_latest(1 << 45) is None
    assert stock.read_latest(key)[1] == quantity
    assert not stock.bitmap.test(row_id)
    assert ctx.status == "aborted"
    assert not ctx.locks_held

    switcher = threading.Thread(target=db.switch_all, daemon=True)
    switcher.start()
    switcher.join(timeout=10)
    assert not switcher.is_alive(), "switch_all blocked by a leaked epoch pin"

    # the row lock is free again: a fresh transaction commits on the row
    params = NewOrderParams(0, 1 << 44, 7100, [1], [2])
    assert execute_new_order(mgr, mgr.begin(), params, db) == "commit"
    assert stock.read_latest(key)[1] == quantity - 2


def test_concurrent_inserts_of_one_new_key_land_once(loaded, monkeypatch):
    """Two transactions insert the same new key at once.

    The first pauses right after its write-set check, for at most a
    second, and the second commits during that pause if it can. Exactly
    one must land whole; the other fails its check with nothing applied.
    """
    db, cfg, mgr = loaded
    orders = db.table("orders")
    before = orders.committed_rows
    shared = 1 << 46
    rows = {
        "first": [(1 << 45, 0, 7100, 1), (shared, 0, 7100, 2)],
        "second": [(shared, 1, 7101, 3), (1 << 47, 1, 7101, 4)],
    }
    first_checked = threading.Event()
    second_done = threading.Event()
    check = mgr._check_write_set

    def pausing_check(write_set):
        check(write_set)
        if not first_checked.is_set():
            first_checked.set()
            second_done.wait(timeout=1.0)

    monkeypatch.setattr(mgr, "_check_write_set", pausing_check)
    outcome = {}

    def commit(name):
        try:
            ctx = mgr.begin()
            for row in rows[name]:
                mgr.buffer_insert(ctx, orders, row)
            mgr.commit(ctx)
            outcome[name] = "committed"
        except KeyCollisionError:
            outcome[name] = "collision"
        finally:
            if name == "second":
                second_done.set()

    def second():
        assert first_checked.wait(timeout=10)
        commit("second")

    threads = [threading.Thread(target=commit, args=("first",), daemon=True),
               threading.Thread(target=second, daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()

    assert sorted(outcome.values()) == ["collision", "committed"]
    winner = next(name for name, result in outcome.items() if result == "committed")
    loser = "second" if winner == "first" else "first"
    assert orders.committed_rows == before + len(rows[winner])
    for row in rows[winner]:
        assert orders.read_latest(row[0]) == row
    for row in rows[loser]:
        if row[0] != shared:
            assert orders.read_latest(row[0]) is None

    switcher = threading.Thread(target=db.switch_all, daemon=True)
    switcher.start()
    switcher.join(timeout=10)
    assert not switcher.is_alive(), "switch_all blocked after the collision"


CHUNK_SCHEMA = [
    ColumnSchema("k", "int64"),
    ColumnSchema("qty", "int64"),
    ColumnSchema("tag", "str", 4),
    ColumnSchema("amt", "float64"),
]


def _new_row(k):
    return (k * 7, k % 50, b"t%d" % (k % 1000), k / 4)


def test_commit_across_chunk_boundaries_matches_single_ops():
    """Write sets whose inserts straddle chunk boundaries, and updates that
    are the first touch of a row after a switch, committed through the
    transaction manager; the same ops applied one at a time through
    insert_committed / update_committed give the reference."""
    committed, single = Database(), Database()
    table = committed.create_table("t", CHUNK_SCHEMA)
    ref = single.create_table("t", CHUNK_SCHEMA)
    mgr = TransactionManager(committed)
    model = {}     # key -> newest row
    next_row = 0

    def write_set(updates, inserts):
        nonlocal next_row
        ctx = mgr.begin()
        for row_id, deltas in sorted(updates):
            mgr.lock(ctx, table, row_id)
            mgr.buffer_update(ctx, table, row_id, deltas)
        new_rows = [_new_row(k) for k in range(next_row, next_row + inserts)]
        for row in new_rows:
            mgr.buffer_insert(ctx, table, row)
        mgr.commit(ctx)
        for row_id, deltas in sorted(updates):
            ref.update_committed(row_id, deltas)
            key = row_id * 7
            model[key] = tuple(deltas.get(c.name, v) for c, v in zip(CHUNK_SCHEMA, model[key]))
        for row in new_rows:
            ref.insert_committed(row)
            model[row[0]] = row
        next_row += inserts

    def check():
        n = len(model)
        assert table.committed_rows == ref.committed_rows == n
        for inst, ref_inst in zip(table.instances, ref.instances):
            for c in CHUNK_SCHEMA:
                assert (inst.columns[c.name].slice(0, n).tolist()
                        == ref_inst.columns[c.name].slice(0, n).tolist())
        for key, row in model.items():
            assert table.read_latest(key) == row
            assert ref.read_latest(key) == row
        assert table.index == ref.index
        assert table.bitmap.set_rows() == ref.bitmap.set_rows()
        assert ({r: [d.column_values for d in chain] for r, chain in table.deltas.items()}
                == {r: [d.column_values for d in chain] for r, chain in ref.deltas.items()})

    for _ in range(10):
        write_set([], 409)                            # rows 0..4089
    write_set([(5, {"qty": 1, "tag": b"up"}), (4089, {"amt": -1.5})], 3)
    committed.switch_all()
    single.switch_all()
    # first touches after the switch pull rows 5 and 4089 across; the
    # inserts run from 4093 over the chunk boundary to 4100
    write_set([(5, {"qty": 2}), (4089, {"tag": b"new"}), (70, {"amt": 0.25})], 8)
    check()
    write_set([(4094, {"qty": 9, "tag": b"x"}), (CHUNK_ROWS, {"tag": b"y"})], 5)
    committed.switch_all()
    single.switch_all()
    write_set([(CHUNK_ROWS + 1, {"amt": 2.5}), (4094, {"qty": 3})], 1)
    check()
