import itertools
import random
import sys
import threading
import time

import pytest

from htaplite.bench import TABLE_SCHEMAS
from htaplite.olap import EpochMismatchError, OlapError, OlapInstance
from htaplite.rde import (
    FREE,
    ISOLATED,
    NON_ISOLATED,
    OLAP,
    OLTP,
    S1,
    S2,
    S3_IS,
    S3_NI,
    LedgerError,
    RdeController,
    ResourceLedger,
    assignment_s1,
    assignment_s2,
    compute_freshness_stats,
    default_cpu_thres,
    etl_delta,
    make_topology,
    switch_and_sync,
)
from htaplite.storage import ColumnSchema, Database

from oracles import instance_diff_cells, instance_vs_snapshot_diff_bytes


def two_col_db(rows=0):
    db = Database()
    t = db.create_table("t", [ColumnSchema("k", "int64"),
                              ColumnSchema("v", "int64")])
    for i in range(rows):
        t.insert_committed((i, i * 10))
    return db, t


class TestSwitchAndSync:
    def test_no_updates_short_circuits_bit_scan(self, monkeypatch):
        db, t = two_col_db(100)
        calls = []
        monkeypatch.setattr(t, "sync_row", lambda row: calls.append(row))
        switch_and_sync(t)
        assert calls == []

    def test_single_update_converges_both_copies(self):
        db, t = two_col_db(100)
        t.update_committed(7, {"v": 999}, commit_ts=1)
        handle, stats = switch_and_sync(t)
        assert stats.has_updates("v")
        assert instance_diff_cells(t, handle.committed_count) == []
        assert not t.bitmap.test(7)

    def test_row_reupdated_after_switch_is_skipped(self):
        db, t = two_col_db(50)
        t.update_committed(3, {"v": 111}, commit_ts=1)

        def racing_update():
            t.update_committed(3, {"v": 222}, commit_ts=2)

        switch_and_sync(t, after_switch=racing_update)
        # the newer value stays, and the bit survives for the next pass
        assert t.read_latest(3) == (3, 222)
        assert t.bitmap.test(3)
        assert t.instances[t.active].columns["v"].read(3) == 222


class TestEtlDelta:
    def test_requires_a_frozen_handle(self):
        db, t = two_col_db(10)
        with pytest.raises(OlapError):
            etl_delta(t, OlapInstance())

    def test_already_synced_copies_nothing(self):
        db, t = two_col_db(200)
        switch_and_sync(t)
        olap = OlapInstance()
        assert etl_delta(t, olap) == 200 * 16
        assert etl_delta(t, olap) == 0

    def test_tail_arithmetic(self):
        db, t = two_col_db(50)
        switch_and_sync(t)
        olap = OlapInstance()
        etl_delta(t, olap)
        for i in range(50, 150):
            t.insert_committed((i, i * 10))
        switch_and_sync(t)
        assert etl_delta(t, olap) == 100 * 16     # 100 rows, two 8B columns
        assert olap.watermark["t"] == 150
        assert olap.epoch_synced == t.current_frozen.epoch

    def test_mixed_delta_matches_brute_force_diff(self):
        db, t = two_col_db(80)
        switch_and_sync(t)
        olap = OlapInstance()
        etl_delta(t, olap)
        fresh_value = itertools.count(10_000)   # values never repeat
        for i in range(80, 130):
            t.insert_committed((i, next(fresh_value)))
        updated = set()
        for row in (3, 17, 17, 40, 41, 42, 55, 60, 61, 79):
            t.update_committed(row, {"v": next(fresh_value)}, commit_ts=row + 1)
            updated.add(row)
        switch_and_sync(t)
        frozen = t.current_frozen

        shadow = 50 * 16 + len(updated) * 8     # tail + updated v cells
        oracle = instance_vs_snapshot_diff_bytes(
            {name: col_array(olap, "t", name, 80) for name in ("k", "v")},
            80, frozen)
        copied = etl_delta(t, olap)
        assert copied == shadow == oracle
        after = instance_vs_snapshot_diff_bytes(
            {name: col_array(olap, "t", name, 130) for name in ("k", "v")},
            130, frozen)
        assert after == 0

    def test_stale_handle_rejected(self):
        db, t = two_col_db(10)
        switch_and_sync(t)
        olap = OlapInstance()
        etl_delta(t, olap)
        olap.epoch_synced += 5
        with pytest.raises(EpochMismatchError):
            etl_delta(t, olap)


def col_array(olap, table, name, rows):
    return olap.column(table, name).slice(0, rows)


class TestFreshnessStats:
    def test_fully_synced(self):
        db, t = two_col_db(40)
        switch_and_sync(t)
        olap = OlapInstance()
        etl_delta(t, olap)
        stats = compute_freshness_stats(t, olap)
        assert stats.n_ft == 0
        assert stats.freshness_rate == 1.0

    def test_half_the_tuples_updated_gives_half_rate(self):
        db, t = two_col_db(10)
        switch_and_sync(t)
        olap = OlapInstance()
        etl_delta(t, olap)
        for row in range(5):
            t.update_committed(row, {"v": 7_000 + row}, commit_ts=row + 1)
        switch_and_sync(t)
        stats = compute_freshness_stats(t, olap)
        assert stats.freshness_rate == 0.5
        assert stats.n_ft == 5 * 8
        assert stats.updated_rows("t", "v") == 5
        assert stats.updated_rows("t", "k") == 0

    def test_plan_restriction_sets_n_fq(self):
        from htaplite.olap import QueryPlan
        db, t = two_col_db(10)
        switch_and_sync(t)
        olap = OlapInstance()
        etl_delta(t, olap)
        for row in range(4):
            t.update_committed(row, {"v": 9_000 + row}, commit_ts=row + 1)
        switch_and_sync(t)
        k_only = QueryPlan(name="x", shape="scan-filter-reduce",
                           scans=[("t", ["k"], None)], aggregates=[("k", "sum")])
        stats = compute_freshness_stats(t, olap, plan=k_only)
        assert stats.n_fq == 0
        assert stats.n_ft == 4 * 8

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_n_ft_matches_brute_force_on_random_history(self, seed):
        rng = random.Random(seed)
        fresh_value = itertools.count(1_000_000)
        db, t = two_col_db(rng.randint(50, 400))
        switch_and_sync(t)
        olap = OlapInstance()
        etl_delta(t, olap)
        for _ in range(rng.randint(0, 3)):
            for i in range(rng.randint(0, 150)):
                t.insert_committed((t.committed_rows, next(fresh_value)))
            for _ in range(rng.randint(0, 80)):
                t.update_committed(rng.randrange(t.committed_rows),
                                   {"v": next(fresh_value)},
                                   commit_ts=next(fresh_value))
            switch_and_sync(t)
            if rng.random() < 0.4:
                etl_delta(t, olap)
        if t.current_frozen.epoch != compute_freshness_stats(t, olap).epoch:
            pytest.fail("stats must follow the latest switch")
        stats = compute_freshness_stats(t, olap)
        wm = olap.watermark["t"]
        oracle = instance_vs_snapshot_diff_bytes(
            {name: col_array(olap, "t", name, max(wm, 1)) for name in ("k", "v")},
            wm, t.current_frozen)
        assert stats.n_ft == oracle
        assert (stats.freshness_rate == 1.0) == (stats.n_ft == 0)


class TestAssignments:
    def test_s1_two_by_four_even_split(self):
        topo = make_topology(2, 4)
        asg = assignment_s1(topo, (2, 2))
        assert [c for c in topo.all_cpus() if asg[c] == OLTP] == [0, 1, 4, 5]
        assert [c for c in topo.all_cpus() if asg[c] == OLAP] == [2, 3, 6, 7]

    def test_s1_full_thresholds_leave_olap_nothing(self):
        topo = make_topology(2, 4)
        with pytest.raises(LedgerError):
            assignment_s1(topo, (4, 4))

    def test_s1_degenerates_to_isolation(self):
        topo = make_topology(2, 4)
        asg = assignment_s1(topo, (4, 0))
        assert asg == assignment_s2(topo, 1)

    def test_s1_threshold_exceeding_socket_rejected(self):
        topo = make_topology(2, 4)
        with pytest.raises(LedgerError):
            assignment_s1(topo, (5, 0))

    def test_s2_two_sockets(self):
        topo = make_topology(2, 4)
        asg = assignment_s2(topo, 1)
        assert all(asg[c] == OLTP for c in range(4))
        assert all(asg[c] == OLAP for c in range(4, 8))

    def test_s2_four_sockets_thres_two(self):
        topo = make_topology(4, 4)
        asg = assignment_s2(topo, 2)
        assert {c for c, r in asg.items() if r == OLTP} == set(range(8))
        assert {c for c, r in asg.items() if r == OLAP} == set(range(8, 16))

    def test_s2_needs_a_socket_for_olap(self):
        with pytest.raises(LedgerError):
            assignment_s2(make_topology(1, 8), 1)
        with pytest.raises(LedgerError):
            assignment_s2(make_topology(2, 8), 2)

    def test_assignments_are_pure(self):
        topo = make_topology(3, 6)
        assert assignment_s1(topo, (4, 4, 0)) == assignment_s1(topo, (4, 4, 0))
        assert assignment_s2(topo, 2) == assignment_s2(topo, 2)

    def test_default_cpu_thres_keeps_elastic_grant(self):
        topo = make_topology(2, 14)
        assert default_cpu_thres(topo, 1, elastic_grant=4) == (10, 0)


def controller(rows=60, sockets=2, cpus=4, **ledger_kw):
    db, t = two_col_db(rows)
    ledger = ResourceLedger(make_topology(sockets, cpus), **ledger_kw)
    return RdeController(db, ledger), db, t


class TestMigrations:
    def test_s2_partitions_and_extracts(self):
        ctl, db, t = controller(rows=30)
        state = ctl.migrate_state_s2()
        assert state.tag == S2
        assert state.oltp_cpus == frozenset({0, 1, 2, 3})
        assert state.olap_cpus == frozenset({4, 5, 6, 7})
        assert ctl.olap.watermark["t"] == 30
        assert ctl.last_etl_bytes == 30 * 16
        ctl.ledger.assert_valid(S2)

    def test_repeated_s2_is_idempotent_on_bytes(self):
        ctl, db, t = controller(rows=30)
        ctl.migrate_state_s2()
        state = ctl.migrate_state_s2()
        assert ctl.last_etl_bytes == 0
        assert state.epoch > 0

    def test_s1_splits_every_socket_and_skips_etl(self):
        ctl, db, t = controller(rows=30, oltp_cpu_thres=(2, 2))
        ctl.migrate_state_s2()
        before = ctl.olap.watermark["t"]
        for i in range(30, 45):
            t.insert_committed((i, i))
        state = ctl.migrate_state_s1()
        assert state.tag == S1
        assert state.oltp_cpus == frozenset({0, 1, 4, 5})
        assert ctl.olap.watermark["t"] == before      # no copy happened
        assert ctl.handles["t"].committed_count == 45
        ctl.ledger.assert_valid(S1)

    def test_s3_isolated_matches_s2_ledger_with_zero_bytes(self):
        ctl, db, t = controller(rows=25)
        ctl.migrate_state_s2()
        spent = ctl.total_etl_bytes
        for i in range(25, 33):
            t.insert_committed((i, i))
        state = ctl.migrate_state_s3(ISOLATED)
        assert state.tag == S3_IS
        assert state.olap_cpus == frozenset({4, 5, 6, 7})
        assert ctl.total_etl_bytes == spent
        assert ctl.olap.watermark["t"] == 25
        ctl.ledger.assert_valid(S3_IS)

    def test_s3_non_isolated_grants_oltp_socket_cpus(self):
        ctl, db, t = controller(rows=25, oltp_cpu_thres=(2, 0))
        ctl.migrate_state_s2()
        state = ctl.migrate_state_s3(NON_ISOLATED)
        assert state.tag == S3_NI
        # two elastic CPUs on socket 0 joined the analytical side
        assert state.olap_cpus == frozenset({2, 3, 4, 5, 6, 7})
        ctl.ledger.assert_valid(S3_NI)

    def test_s3_non_isolated_with_no_grant_degenerates_to_isolated(self):
        ctl, db, t = controller(rows=25, oltp_cpu_thres=(4, 0))
        a = ctl.migrate_state_s3(NON_ISOLATED)
        asg_ni = ctl.ledger.snapshot()
        b = ctl.migrate_state_s3(ISOLATED)
        assert asg_ni == ctl.ledger.snapshot()
        assert a.olap_cpus == b.olap_cpus

    def test_unknown_mode_rejected(self):
        ctl, db, t = controller()
        with pytest.raises(LedgerError):
            ctl.migrate_state_s3("sideways")

    def test_epochs_increase_across_migrations(self):
        ctl, db, t = controller(rows=10)
        seen = [ctl.migrate_state_s2().epoch,
                ctl.migrate_state_s1().epoch,
                ctl.migrate_state_s3(ISOLATED).epoch,
                ctl.migrate_state_s3(NON_ISOLATED).epoch]
        assert seen == sorted(seen)
        assert len(set(seen)) == 4


def test_s3_isolated_never_mutates_analytical_copy():
    ctl, db, t = controller(rows=40)
    ctl.migrate_state_s2()
    for i in range(40, 70):
        t.insert_committed((i, i))
    t.update_committed(5, {"v": 12345}, commit_ts=99)
    before_wm = dict(ctl.olap.watermark)
    before_bytes = {name: col_array(ctl.olap, "t", name, 40).tobytes()
                    for name in ("k", "v")}
    for _ in range(6):
        ctl.migrate_state_s3(ISOLATED)
        compute_freshness_stats(t, ctl.olap)
    assert ctl.olap.watermark == before_wm
    for name, blob in before_bytes.items():
        assert col_array(ctl.olap, "t", name, 40).tobytes() == blob


def test_post_etl_freshness_law_on_random_histories():
    fresh_value = itertools.count(5_000_000)
    for seed in range(5):
        rng = random.Random(seed)
        ctl, db, t = controller(rows=rng.randint(10, 200))
        ctl.migrate_state_s2()
        for _ in range(rng.randint(1, 4)):
            for _ in range(rng.randint(0, 100)):
                t.insert_committed((t.committed_rows, next(fresh_value)))
            for _ in range(rng.randint(0, 50)):
                t.update_committed(rng.randrange(t.committed_rows),
                                   {"v": next(fresh_value)},
                                   commit_ts=next(fresh_value))
            ctl.migrate_state_s2()
            stats = ctl.freshness()
            assert stats.n_ft == 0
            assert stats.freshness_rate == 1.0


def test_thousand_random_migrations_keep_ledger_valid():
    rng = random.Random(4242)
    ctl, db, t = controller(rows=20, oltp_cpu_thres=(2, 1))
    moves = [
        lambda: (ctl.migrate_state_s1(), S1),
        lambda: (ctl.migrate_state_s2(), S2),
        lambda: (ctl.migrate_state_s3(ISOLATED), S3_IS),
        lambda: (ctl.migrate_state_s3(NON_ISOLATED), S3_NI),
    ]
    for i in range(1000):
        state, tag = rng.choice(moves)()
        assert state.tag == tag
        ctl.ledger.assert_valid(tag)
        assert state.oltp_cpus | state.olap_cpus == set(range(8))
        assert not (state.oltp_cpus & state.olap_cpus)
        if i % 97 == 0:
            t.insert_committed((t.committed_rows, i))


class _AddsWhileIterated(set):
    """A live dirty set that a committing writer adds to mid-iteration."""

    def __iter__(self):
        rows = super().__iter__()
        yield next(rows)
        self.add(-1 - len(self))    # a row id no set holds yet
        yield from rows


def test_freshness_reads_live_dirty_rows_through_a_copy():
    db, t = two_col_db(100)
    t.switch()
    t.update_committed(3, {"v": 1})
    t.update_committed(4, {"v": 2})
    t._live_dirty["v"] = _AddsWhileIterated(t._live_dirty["v"])
    olap = OlapInstance()
    etl_delta(t, olap)
    stats = compute_freshness_stats(t, olap)
    assert stats.updated_rows("t", "v") == 2


def test_freshness_under_concurrent_updates():
    db, t = two_col_db(2_000)
    olap = OlapInstance()
    t.switch()
    etl_delta(t, olap)
    stop = threading.Event()
    failures = []

    def writer(seed):
        rng = random.Random(seed)
        while not stop.is_set():
            t.update_committed(rng.randrange(2_000), {"v": rng.randrange(100)})

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    writers = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
    for w in writers:
        w.start()
    try:
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            try:
                stats = compute_freshness_stats(t, olap)
            except RuntimeError as exc:
                failures.append(exc)
                break
            assert 0 <= stats.updated_rows("t", "v") <= 2_000
    finally:
        stop.set()
        for w in writers:
            w.join(timeout=10)
        sys.setswitchinterval(old_interval)
    assert not any(w.is_alive() for w in writers)
    assert failures == []
