import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from htaplite.storage import (
    CHUNK_ROWS,
    ChunkedColumn,
    ColumnSchema,
    Database,
    KeyCollisionError,
    SchemaError,
    StorageError,
    TwinStore,
    UpdateBitmap,
    switch_tables,
)

from oracles import instance_diff_cells, replay_oplog, store_state


def three_col_schema():
    return [
        ColumnSchema("id", "int64"),
        ColumnSchema("qty", "int64"),
        ColumnSchema("price", "float64"),
    ]


def make_store(**kw):
    return TwinStore(three_col_schema(), **kw)


def run_sync_pass(store, handle):
    # convergence loop as the exchange layer runs it: every flagged row
    # below the snapshot fence, skipping rows the new epoch rewrote
    copied = 0
    for row in store.bitmap.set_rows(limit=handle.committed_count):
        if store.sync_row(row):
            copied += 1
    return copied


class TestCreate:
    def test_empty_store_shape(self):
        st = make_store()
        assert st.active == 0
        assert st.epoch == 0
        assert st.committed_rows == 0
        for inst in st.instances:
            assert set(inst.columns) == {"id", "qty", "price"}
            assert inst.committed_count == 0

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TwinStore([ColumnSchema("qty", "int64"), ColumnSchema("qty", "int64")])

    def test_unsupported_kind_rejected(self):
        with pytest.raises(SchemaError):
            TwinStore([ColumnSchema("x", "uuid")])

    def test_string_needs_width(self):
        with pytest.raises(SchemaError):
            TwinStore([ColumnSchema("s", "str")])
        st = TwinStore([ColumnSchema("s", "str", width=8)])
        assert st.schema[0].byte_width == 8

    def test_capacity_hint_honoured(self):
        st = make_store(capacity_hint=10_000)
        for i in range(10_000):
            st.insert_committed((i, i, float(i)))
        assert st.committed_rows == 10_000
        assert st.read_latest(9_999) == (9_999, 9_999, 9_999.0)


class TestInsert:
    def test_first_insert(self):
        st = make_store()
        row_id = st.insert_committed((7, 3, 1.5))
        assert row_id == 0
        # lands in both physical copies at the same row id
        for inst in st.instances:
            assert inst.columns["qty"].read(0) == 3
        # but the inactive copy does not expose it until a switch
        assert st.inactive.committed_count == 0

    def test_visible_through_inactive_only_after_switch(self):
        st = make_store()
        st.insert_committed((1, 10, 0.0))
        handle, _ = st.switch()
        assert handle.committed_count == 1
        assert handle.read_row(0) == (1, 10, 0.0)

    def test_duplicate_key_rejected(self):
        st = make_store()
        st.insert_committed((5, 1, 0.0))
        with pytest.raises(KeyCollisionError):
            st.insert_committed((5, 2, 0.0))

    def test_arity_mismatch_rejected(self):
        st = make_store()
        with pytest.raises(SchemaError):
            st.insert_committed((1, 2))


class TestUpdate:
    def test_update_writes_active_and_chains_prior(self):
        st = make_store()
        for i in range(6):
            st.insert_committed((i, 10, 0.0))
        st.update_committed(5, {"qty": 12})
        assert st.instances[st.active].columns["qty"].read(5) == 12
        assert st.deltas[5][0].column_values == {"qty": 10}
        assert st.bitmap.test(5)

    def test_chain_is_newest_first(self):
        st = make_store()
        st.insert_committed((1, 10, 0.0))
        st.update_committed(0, {"qty": 11})
        st.update_committed(0, {"qty": 12})
        chain = st.deltas[0]
        assert len(chain) == 2
        assert chain[0].column_values == {"qty": 11}
        assert chain[1].column_values == {"qty": 10}
        assert chain[0].commit_ts > chain[1].commit_ts

    def test_bit_set_is_idempotent(self):
        st = make_store()
        st.insert_committed((1, 10, 0.0))
        st.update_committed(0, {"qty": 11})
        st.update_committed(0, {"qty": 12})
        assert st.bitmap.test(0)

    def test_unknown_row_rejected(self):
        st = make_store()
        with pytest.raises(StorageError):
            st.update_committed(3, {"qty": 1})

    def test_unknown_column_rejected(self):
        st = make_store()
        st.insert_committed((1, 10, 0.0))
        with pytest.raises(SchemaError):
            st.update_committed(0, {"weight": 1})

    def test_key_column_immutable(self):
        st = make_store()
        st.insert_committed((1, 10, 0.0))
        with pytest.raises(SchemaError):
            st.update_committed(0, {"id": 2})

    def test_delta_retention_trims_oldest(self):
        st = make_store(delta_retention=2)
        st.insert_committed((1, 0, 0.0))
        for v in range(1, 6):
            st.update_committed(0, {"qty": v})
        chain = st.deltas[0]
        assert len(chain) == 2
        assert chain[0].column_values == {"qty": 4}


class TestReadLatest:
    def test_read_your_insert(self):
        st = make_store()
        st.insert_committed((9, 1, 2.0))
        assert st.read_latest(9) == (9, 1, 2.0)

    def test_read_after_update(self):
        st = make_store()
        st.insert_committed((9, 1, 2.0))
        st.update_committed(0, {"qty": 4})
        assert st.read_latest(9) == (9, 4, 2.0)

    def test_absent_key_is_none(self):
        st = make_store()
        assert st.read_latest(404) is None

    def test_update_switch_sync_hand_trace(self):
        # 3-row store traced by hand: update lands on the active copy,
        # the switch freezes that copy, the sync pass copies the row to
        # the new active, and afterwards both copies agree on v'.
        st = make_store()
        for i in range(3):
            st.insert_committed((i, 10 * i, 0.0))
        st.update_committed(1, {"qty": 99})
        handle, stats = st.switch()
        assert stats.has_updates("qty")
        assert handle.read_cell("qty", 1) == 99
        copied = run_sync_pass(st, handle)
        assert copied == 1
        assert st.read_latest(1) == (1, 99, 0.0)
        assert st.instances[0].columns["qty"].read(1) == 99
        assert st.instances[1].columns["qty"].read(1) == 99
        assert not st.bitmap.test(1)


class TestSwitch:
    def test_quiesced_switch_counts_and_epoch(self):
        st = make_store()
        for i in range(100):
            st.insert_committed((i, i, 0.0))
        handle, stats = st.switch()
        assert stats.record_count == 100
        assert stats.epoch == 1
        assert st.epoch == 1
        assert handle.committed_count == 100

    def test_no_updates_means_no_flags(self):
        st = make_store()
        st.insert_committed((1, 1, 0.0))
        _, stats = st.switch()
        assert not stats.any_updates

    def test_epoch_strictly_increases_per_instance(self):
        st = make_store()
        seen = {0: [st.instances[0].epoch], 1: [st.instances[1].epoch]}
        for _ in range(4):
            st.switch()
            seen[st.active].append(st.instances[st.active].epoch)
        for eps in seen.values():
            assert eps == sorted(eps)
            assert len(set(eps)) == len(eps)

    def test_switch_blocks_until_pinned_transaction_ends(self):
        st = make_store()
        st.insert_committed((1, 1, 0.0))
        pin_epoch = st.gate.pin()   # stands in for an in-flight transaction
        done = threading.Event()
        result = {}

        def do_switch():
            result["out"] = st.switch()
            done.set()

        t = threading.Thread(target=do_switch)
        t.start()
        assert not done.wait(0.15)   # rendezvous holds while the pin lives
        st.gate.unpin(pin_epoch)
        assert done.wait(2.0)
        t.join()
        handle, _ = result["out"]
        assert handle.committed_count == 1

    def test_straggler_commit_lands_inside_snapshot(self):
        # a transaction begun before the flip commits during the drain
        # window; the freeze happens after it, so its row is counted
        st = make_store()
        st.insert_committed((1, 1, 0.0))
        pin_epoch = st.gate.pin()
        done = threading.Event()
        result = {}

        def do_switch():
            result["out"] = st.switch()
            done.set()

        t = threading.Thread(target=do_switch)
        t.start()
        assert not done.wait(0.1)
        st.insert_committed((2, 2, 0.0))   # straggler's write
        st.gate.unpin(pin_epoch)
        assert done.wait(2.0)
        t.join()
        handle, stats = result["out"]
        assert handle.committed_count == 2
        assert stats.record_count == 2

    def test_straggler_update_lands_inside_snapshot(self):
        # inserts reach both copies but updates only the active one; the
        # freeze has to fold straggler updates in, or the snapshot would
        # show a transaction's inserts without its updates
        st = make_store()
        st.insert_committed((1, 5, 0.0))
        pin_epoch = st.gate.pin()
        done = threading.Event()
        result = {}

        def do_switch():
            result["out"] = st.switch()
            done.set()

        t = threading.Thread(target=do_switch)
        t.start()
        assert not done.wait(0.1)
        st.insert_committed((2, 3, 0.0))      # one txn: insert + update
        st.update_committed(0, {"qty": 2})
        st.gate.unpin(pin_epoch)
        assert done.wait(2.0)
        t.join()
        handle, _ = result["out"]
        assert handle.committed_count == 2
        assert handle.read_cell("qty", 0) == 2

    def test_second_switch_rejected_while_first_blocked(self):
        st = make_store()
        pin_epoch = st.gate.pin()
        started = threading.Event()
        done = threading.Event()

        def do_switch():
            started.set()
            st.switch()
            done.set()

        t = threading.Thread(target=do_switch)
        t.start()
        started.wait()
        while not st._switch_mu.locked():
            pass
        with pytest.raises(StorageError):
            st.switch()
        st.gate.unpin(pin_epoch)
        assert done.wait(2.0)
        t.join()

    def test_frozen_handle_immune_to_later_inserts(self):
        st = make_store()
        for i in range(5):
            st.insert_committed((i, i, 0.0))
        handle, _ = st.switch()
        for i in range(5, 50):
            st.insert_committed((i, i, 0.0))
        assert handle.committed_count == 5
        got = [v for _, block in handle.blocks("qty") for v in block.tolist()]
        assert got == [0, 1, 2, 3, 4]


class TestSyncSkip:
    def test_reupdated_row_not_overwritten(self):
        st = make_store()
        st.insert_committed((1, 10, 0.0))
        st.update_committed(0, {"qty": 20})
        handle, _ = st.switch()
        st.update_committed(0, {"qty": 30})   # new epoch, write-through
        assert st.sync_row(0) is False
        assert st.bitmap.test(0)              # bit survives for the next pass
        assert st.read_latest(1) == (1, 30, 0.0)
        assert handle.read_cell("qty", 0) == 20   # snapshot keeps its instant

    def test_next_pass_converges_the_survivor(self):
        st = make_store()
        st.insert_committed((1, 10, 0.0))
        st.update_committed(0, {"qty": 20})
        handle, _ = st.switch()
        st.update_committed(0, {"qty": 30})
        run_sync_pass(st, handle)
        handle2, _ = st.switch()
        copied = run_sync_pass(st, handle2)
        assert copied == 1
        assert not st.bitmap.test(0)
        assert st.instances[0].columns["qty"].read(0) == 30
        assert st.instances[1].columns["qty"].read(0) == 30


@settings(max_examples=60, deadline=None)
@given(hyp.lists(hyp.sampled_from(["insert", "switch"]), min_size=1, max_size=40))
def test_visibility_watermark_property(ops):
    # a frozen scan never observes rows inserted after its switch
    st = TwinStore([ColumnSchema("id", "int64"), ColumnSchema("v", "int64")])
    inserted = 0
    handle = None
    count_at_switch = 0
    for op in ops:
        if op == "insert":
            st.insert_committed((inserted, inserted * 7))
            inserted += 1
        else:
            handle, _ = st.switch()
            count_at_switch = inserted
    if handle is not None:
        assert handle.committed_count == count_at_switch
        vals = [v for _, block in handle.blocks("v") for v in block.tolist()]
        assert vals == [i * 7 for i in range(count_at_switch)]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_bit_soundness_exhaustive(seed):
    # wherever the two copies disagree, either the update bit is set or
    # the row sits above the older copy's committed fence
    rng = random.Random(seed)
    st = TwinStore([ColumnSchema("id", "int64"), ColumnSchema("v", "int64")])
    handle = None
    value = 100
    for _ in range(400):
        roll = rng.random()
        if roll < 0.5 or st.committed_rows == 0:
            st.insert_committed((st.committed_rows, value))
            value += 1
        elif roll < 0.85:
            row = rng.randrange(st.committed_rows)
            st.update_committed(row, {"v": value})
            value += 1
        elif roll < 0.95 or handle is None:
            handle, _ = st.switch()
        else:
            run_sync_pass(st, handle)
    fence = st.inactive.committed_count
    for row, _col in instance_diff_cells(st, fence):
        assert st.bitmap.test(row), "row %d differs with a clear bit" % row


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_index_freshness_matches_oplog_replay(seed):
    rng = random.Random(seed)
    st = TwinStore([ColumnSchema("id", "int64"), ColumnSchema("v", "int64"),
                    ColumnSchema("w", "float64")])
    names = ["id", "v", "w"]
    oplog = []
    keys = []
    handle = None
    value = 0
    for _ in range(500):
        roll = rng.random()
        if roll < 0.45 or not keys:
            key = len(keys)
            row = (key, value, float(value) / 2)
            st.insert_committed(row)
            oplog.append(("insert", key, names, row))
            keys.append(key)
            value += 1
        elif roll < 0.85:
            key = rng.choice(keys)
            deltas = {"v": value} if rng.random() < 0.5 else {"v": value, "w": float(value)}
            st.update_committed(key, deltas)   # row_id == key by construction
            oplog.append(("update", key, deltas))
            value += 1
        elif roll < 0.95 or handle is None:
            handle, _ = st.switch()
        else:
            run_sync_pass(st, handle)
    model = replay_oplog(oplog)
    for key in keys:
        expect = tuple(model[key][n] for n in names)
        assert st.read_latest(key) == expect


def test_delta_chain_reconstructs_every_version():
    st = make_store()
    st.insert_committed((1, 100, 1.0))
    history = [(100, 1.0)]
    for step in range(1, 6):
        st.update_committed(0, {"qty": 100 + step, "price": 1.0 + step})
        history.append((100 + step, 1.0 + step))

    # undo-walk the chain newest-to-oldest back to the original row,
    # then replay the logged updates oldest-to-newest and land on the
    # current active value
    current = {"qty": st.read_latest(1)[1], "price": st.read_latest(1)[2]}
    assert (current["qty"], current["price"]) == history[-1]
    for version in st.deltas[0]:
        current.update(version.column_values)
    assert (current["qty"], current["price"]) == history[0]
    for qty, price in history[1:]:
        current.update({"qty": qty, "price": price})
    assert (current["qty"], current["price"]) == history[-1]


class TestMultiTableSwitch:
    def test_paired_rows_freeze_together(self):
        # writer commits paired rows (one per table) inside one commit
        # section; every multi-table snapshot must contain equal counts
        db = Database()
        a = db.create_table("a", [ColumnSchema("k", "int64")])
        b = db.create_table("b", [ColumnSchema("k", "int64")])
        stop = threading.Event()

        def writer():
            n = 0
            while not stop.is_set():
                with db.gate.commit_section():
                    a.insert_committed((n,))
                    b.insert_committed((n,))
                n += 1

        t = threading.Thread(target=writer)
        t.start()
        try:
            for _ in range(30):
                out = db.switch_all()
                ca = out["a"][0].committed_count
                cb = out["b"][0].committed_count
                assert ca == cb
        finally:
            stop.set()
            t.join()

    def test_tables_with_different_gates_cannot_co_switch(self):
        st1 = make_store()
        st2 = make_store()
        with pytest.raises(StorageError):
            switch_tables([st1, st2])


class TestBitmapScan:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_set_rows_matches_loop_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 3 * CHUNK_ROWS)
        bm = UpdateBitmap(n)
        for row in rng.sample(range(n), rng.randrange(0, n // 4 + 1)):
            bm.set(row)
        flags = [bm.test(i) for i in range(n)]
        for limit in (None, 0, 1, n // 2, n, n + 10):
            stop = n if limit is None else min(n, limit)
            want = [i for i in range(stop) if flags[i]]
            got = bm.set_rows(limit=limit)
            assert got == want
            assert all(type(r) is int for r in got)

    def test_grow_after_scan(self):
        bm = UpdateBitmap(10)
        bm.set(3)
        rows = bm.set_rows()
        bm.grow_to(10_000)          # would raise BufferError on a held view
        bm.set(9_999)
        assert rows == [3]
        assert bm.set_rows() == [3, 9_999]
        assert bm.set_rows(limit=9_999) == [3]


def test_copy_rows_from_matches_cell_copy():
    rng = random.Random(5)
    n = 3 * CHUNK_ROWS + 17
    src = ChunkedColumn(np.dtype(np.float64), n)
    src.write_range(0, np.arange(n, dtype=np.float64) + 0.5)
    dst = ChunkedColumn(np.dtype(np.float64), n)
    want = ChunkedColumn(np.dtype(np.float64), n)
    rows = set(rng.sample(range(n), 300)) | {0, CHUNK_ROWS - 1, CHUNK_ROWS, n - 1}
    for row in rows:
        want.write(row, src.read(row))
    dst.copy_rows_from(src, rows)
    assert np.array_equal(dst.slice(0, n), want.slice(0, n))


def tagged_schema():
    return three_col_schema() + [ColumnSchema("tag", "str", width=6)]


def tagged_columns(keys):
    keys = list(keys)
    return [keys, [k % 7 for k in keys], [k / 4 for k in keys],
            ["t%d" % (k % 1000) for k in keys]]


def tagged_rows(keys):
    return list(zip(*tagged_columns(keys)))


class TestBulkLoad:
    @pytest.mark.parametrize("prefix, switched, batch", [
        (0, False, 0),                  # empty batch
        (0, False, 300),
        (CHUNK_ROWS - 6, False, 20),    # crosses the first chunk boundary
        (50, True, 300),                # after a switch: active is 1
        (50, True, 0),
    ])
    def test_matches_single_row_inserts(self, prefix, switched, batch):
        bulk, single = TwinStore(tagged_schema()), TwinStore(tagged_schema())
        for st in (bulk, single):
            for row in tagged_rows(range(prefix)):
                st.insert_committed(row)
            if switched:
                st.switch()
        assert bulk.active == (1 if switched else 0)

        keys = range(10_000, 10_000 + batch)
        bulk.bulk_load(tagged_columns(keys))
        for row in tagged_rows(keys):
            single.insert_committed(row)

        assert store_state(bulk) == store_state(single)
        assert bulk.committed_rows == prefix + batch
        for key in list(single.index):
            assert bulk.read_latest(key) == single.read_latest(key)

    @pytest.mark.parametrize("bad, error", [
        ("repeated key", KeyCollisionError),
        ("existing key", KeyCollisionError),
        ("column count", SchemaError),
        ("unequal lengths", SchemaError),
        ("oops in int64", ValueError),
    ])
    def test_bad_batch_applies_nothing(self, bad, error):
        db = Database()
        st = db.create_table("t", tagged_schema())
        for row in tagged_rows(range(10)):
            st.insert_committed(row)
        columns = tagged_columns(range(100, 110))
        if bad == "repeated key":
            columns[0][-1] = 100
        elif bad == "existing key":
            columns[0][-1] = 5
        elif bad == "column count":
            columns.pop()
        elif bad == "unequal lengths":
            columns[2].pop()
        else:
            columns[1][3] = "oops"
        before = store_state(st)

        with pytest.raises(error):
            st.bulk_load(columns)

        assert store_state(st) == before
        assert st.append_lock.acquire(blocking=False)
        st.append_lock.release()
        switcher = threading.Thread(target=db.switch_all, daemon=True)
        switcher.start()
        switcher.join(timeout=10)
        assert not switcher.is_alive(), "switch_all blocked after a failed bulk load"
