"""Self-checks the command line runs against a fresh build.

Each check constructs everything it needs from scratch, exercises one
engine guarantee, and reports a single pass or fail line with a short
detail. Wall-clock seconds go to the console only; the written report
carries no timings, so two runs with the same seed produce identical
bytes.
"""

import itertools
import math
import random
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from .bench import (BenchConfig, INITIAL_STOCK_QUANTITY, TABLE_SCHEMAS,
                    build_database, load_initial_data, q1_plan, q6_plan,
                    q19_plan)
from .config import EXPERIMENTS
from .experiments import (crossover_bracket, mix_workload, run_experiment,
                          s2_batch_rows, s3_fresh_rows, sim_database,
                          write_csv)
from .olap import (AccessPath, AccessPathPlan, Predicate, QueryPlan,
                   choose_access_paths, execute)
from .rde import (FREE, ISOLATED, NON_ISOLATED, OLAP, OLTP, RdeController,
                  ResourceLedger, S1, S2, S3_IS, S3_NI, SystemState,
                  assignment_s1, assignment_s2, etl_delta, make_topology,
                  sync_pass)
from .scheduler import (COLOCATION, HYBRID, SchedulerConfig, SchedulerInput,
                        decide)
from .simcost import ADAPTIVE, estimate_oltp_tps, run_sequence
from .storage import ColumnSchema, Database
from .txn import TransactionManager, WorkerPool


class CheckFailed(Exception):
    """One verification check did not hold; the message says why."""


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float      # console only, never written to the report file

    @property
    def status(self):
        return "pass" if self.ok else "fail"


REPORT_COLUMNS = ("check", "status", "detail")
REPORT_NAME = "verify_report.csv"

BIT_CLEAR_FAULT = "etl-keeps-dirty-bits"
FAULTS = (BIT_CLEAR_FAULT,)


def _ensure(cond, msg, *args):
    if not cond:
        raise CheckFailed(msg % args if args else msg)


# -- configuration -------------------------------------------------------------


def _check_config_valid(cfg, faults):
    problems = cfg.problems()
    if problems:
        raise CheckFailed("; ".join(problems))
    # validation itself has to catch contract breakers
    probes = (replace(cfg, alpha=1.5),
              replace(cfg, elastic_mode="sideways"),
              replace(cfg, scale_factor=0.0),
              replace(cfg, experiment="warp-drive"))
    for bad in probes:
        _ensure(bad.problems(), "a broken configuration passed validation")
    return "configuration clean; 4 bad-config probes all flagged"


# -- access path equivalence ---------------------------------------------------


def _random_plan(rng, kind):
    if kind == "q1":
        cutoff = rng.choice((None, rng.randrange(7000, 7400)))
        return q1_plan(delivery_cutoff=cutoff)
    if kind == "q6":
        lo = rng.randrange(7000, 7200)
        return q6_plan(delivery_lo=lo, delivery_hi=lo + rng.randrange(50, 300),
                       max_quantity=rng.randrange(10, 60))
    lo = round(rng.uniform(1.0, 40.0), 2)
    return q19_plan(price_lo=lo, price_hi=round(lo + rng.uniform(5.0, 60.0), 2),
                    quantity_lo=1, quantity_hi=rng.randrange(5, 30))


def _legal_paths(stats, table, col):
    paths = [AccessPath.REMOTE]
    if stats.updated_rows(table, col) == 0:
        paths.append(AccessPath.SPLIT)
        if stats.oltp_count(table) == stats.watermark(table):
            paths.append(AccessPath.LOCAL)
    return paths


def _forced_paths(base_plan, per_column):
    return AccessPathPlan(per_column=per_column,
                          table_rows=dict(base_plan.table_rows),
                          execution_cpus=base_plan.execution_cpus,
                          epoch=base_plan.epoch)


def _results_match(a, b):
    if a.columns != b.columns or len(a.rows) != len(b.rows):
        return False
    for ra, rb in zip(a.rows, b.rows):
        if len(ra) != len(rb):
            return False
        for va, vb in zip(ra, rb):
            if isinstance(va, float) or isinstance(vb, float):
                if va != vb and abs(va - vb) > 1e-9 * max(abs(va), abs(vb)):
                    return False
            elif va != vb:
                return False
    return True


def _orderline_row(rng, items, seq):
    return (seq, seq // 3, seq % 3 + 1, rng.randrange(items),
            rng.randint(1, 50), round(rng.uniform(1.0, 5000.0), 2),
            rng.randrange(7000, 7400))


def _seeded_orderline_db(rng):
    db = Database()
    db.create_table("orderline", TABLE_SCHEMAS["orderline"])
    db.create_table("item", TABLE_SCHEMAS["item"])
    items = rng.randrange(20, 120)
    prices = [round(rng.uniform(1.0, 100.0), 2) for _ in range(items)]
    db.table("item").bulk_load([range(items), prices])
    initial = rng.randrange(50, 1500)
    rows = [_orderline_row(rng, items, seq) for seq in range(initial)]
    db.table("orderline").bulk_load(list(zip(*rows)))
    return db, items, initial


def _mutate_orderline(rng, db, items, initial, tail):
    ol = db.table("orderline")
    for seq in range(initial, initial + tail):
        ol.insert_committed(_orderline_row(rng, items, seq))
    updates = rng.randrange(0, 40) if rng.random() < 0.7 else 0
    for _ in range(updates):
        row = rng.randrange(initial + tail)       # may land in the tail
        col = rng.choice(("ol_quantity", "ol_amount", "ol_delivery_d"))
        if col == "ol_amount":
            val = round(rng.uniform(1.0, 5000.0), 2)
        elif col == "ol_quantity":
            val = rng.randint(1, 50)
        else:
            val = rng.randrange(7000, 7400)
        ol.update_committed(row, {col: val})
    return updates


def _check_path_equivalence(cfg, faults):
    master = random.Random(cfg.seed * 1_000_003 + 11)
    plans_run = 0
    variants_run = 0
    split_columns = 0
    for case in range(100):
        rng = random.Random(master.randrange(2 ** 63))
        db, items, initial = _seeded_orderline_db(rng)
        topo = make_topology(2, 4)
        ctl = RdeController(db, ResourceLedger(topo, elastic_grant=2))
        ctl.migrate_state_s2()

        tail = rng.randrange(1, 800)
        _mutate_orderline(rng, db, items, initial, tail)

        ctl.migrate_state_s3(ISOLATED)
        stats = ctl.freshness()
        plans = [_random_plan(rng, kind) for kind in ("q1", "q6", "q19")]
        for plan in plans:
            engine_pp = choose_access_paths(plan, stats, ctl.state)
            remote_pp = _forced_paths(engine_pp, {
                key: AccessPath.REMOTE for key in engine_pp.per_column})
            mixed_pp = _forced_paths(engine_pp, {
                (t, c): rng.choice(_legal_paths(stats, t, c))
                for (t, c) in engine_pp.per_column})
            split_columns += sum(
                1 for p in engine_pp.per_column.values()
                if p is AccessPath.SPLIT)
            baseline = execute(plan, remote_pp, ctl.olap, ctl.handles,
                               worker_count=1)
            for pp in (engine_pp, mixed_pp):
                got = execute(plan, pp, ctl.olap, ctl.handles,
                              worker_count=rng.choice((1, 2, 3, 5)))
                _ensure(_results_match(baseline, got),
                        "case %d plan %s: path mix diverged from the "
                        "remote-only baseline", case, plan.name)
                variants_run += 1
            plans_run += 1

        # after consolidation the same plans must read identically LOCAL
        ctl.migrate_state_s2()
        stats = ctl.freshness()
        _ensure(stats.freshness_rate == 1.0,
                "case %d: consolidation left stale bytes", case)
        for plan in plans:
            local_pp = choose_access_paths(plan, stats, ctl.state)
            _ensure(all(p is AccessPath.LOCAL
                        for p in local_pp.per_column.values()),
                    "case %d: fully fresh column not planned LOCAL", case)
            remote_pp = _forced_paths(local_pp, {
                key: AccessPath.REMOTE for key in local_pp.per_column})
            a = execute(plan, local_pp, ctl.olap, ctl.handles, worker_count=3)
            b = execute(plan, remote_pp, ctl.olap, ctl.handles, worker_count=1)
            _ensure(_results_match(a, b),
                    "case %d plan %s: local read after consolidation "
                    "diverged", case, plan.name)
            variants_run += 1
    return ("100 databases, %d plans, %d path variants agreed; "
            "%d split-path columns exercised"
            % (plans_run, variants_run, split_columns))


# -- decision rule -------------------------------------------------------------


def _transcribed_rule(n_fq, n_ft, alpha, f_el, m_el, batch):
    # written out independently of the scheduler module
    fresh_read_wanted = (n_fq < alpha * n_ft) and not batch
    if not fresh_read_wanted:
        return S2
    if not f_el:
        return S3_IS
    if m_el == HYBRID:
        return S3_NI
    return S1


def _check_decision_rule_table(cfg, faults):
    n_ft = 1000
    cells = 0
    for tenth in range(11):
        n_fq = tenth * 100
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            for f_el in (False, True):
                for m_el in (HYBRID, COLOCATION):
                    for batch in (False, True):
                        sc = SchedulerConfig(alpha=alpha, f_el=f_el, m_el=m_el)
                        got = decide(SchedulerInput(n_fq, n_ft, batch), sc)
                        want = _transcribed_rule(n_fq, n_ft, alpha,
                                                 f_el, m_el, batch)
                        _ensure(got == want,
                                "n_fq=%d alpha=%s f_el=%s m_el=%s batch=%s: "
                                "decided %s, rule says %s",
                                n_fq, alpha, f_el, m_el, batch, got, want)
                        cells += 1
                        # integer scaling must not move the threshold
                        for k in (2, 3, 10, 1000):
                            scaled = decide(
                                SchedulerInput(k * n_fq, k * n_ft, batch), sc)
                            _ensure(scaled == got,
                                    "decision changed under x%d scaling", k)
    # raising alpha only ever switches toward the fresh-read branch
    for n_fq in range(0, 1001, 50):
        for f_el in (False, True):
            left_stale = False
            for step in range(0, 101):
                sc = SchedulerConfig(alpha=step / 100, f_el=f_el, m_el=HYBRID)
                fresh = decide(SchedulerInput(n_fq, n_ft, False), sc) != S2
                _ensure(not (left_stale and not fresh),
                        "alpha sweep at n_fq=%d fell back to consolidation",
                        n_fq)
                left_stale = left_stale or fresh
    return "%d grid cells matched the transcription; monotone in alpha; scale-invariant" % cells


# -- switch, sync and delta bookkeeping ----------------------------------------


def _instance_array(inst, column, stop):
    parts = [v for _, v in inst.columns[column].blocks(0, stop)]
    return np.concatenate(parts) if parts else np.empty(0)


def _sabotage_bit_clear(db):
    for store in db.tables.values():
        store.consume_sealed_dirty = lambda column, rows: None


def _check_sync_etl_bookkeeping(cfg, faults):
    rng = random.Random(cfg.seed * 1_000_003 + 13)
    histories = 50
    for h in range(histories):
        db = Database()
        db.create_table("t", [ColumnSchema("k", "int64"),
                              ColumnSchema("a", "int64"),
                              ColumnSchema("b", "float64")])
        if BIT_CLEAR_FAULT in faults:
            _sabotage_bit_clear(db)
        store = db.table("t")
        ctl = RdeController(db, ResourceLedger(make_topology(2, 2),
                                               elastic_grant=1))
        counter = itertools.count(1)
        shadow = []
        for i in range(rng.randrange(20, 200)):
            row = (i, next(counter), float(next(counter)))
            store.insert_committed(row)
            shadow.append(list(row))
        ctl.migrate_state_s2()
        wm = ctl.olap.watermark["t"]
        _ensure(wm == len(shadow), "history %d: bad watermark after load", h)
        synced = [list(r) for r in shadow]

        for i in range(rng.randrange(0, 100)):
            rid = len(shadow)
            row = (rid, next(counter), float(next(counter)))
            store.insert_committed(row)
            shadow.append(list(row))
        for _ in range(rng.randrange(0, 80)):
            rid = rng.randrange(len(shadow))
            col, pos = rng.choice((("a", 1), ("b", 2)))
            val = next(counter) if col == "a" else float(next(counter))
            store.update_committed(rid, {col: val})
            shadow[rid][pos] = val

        # brute-force delta: whole tail rows plus changed cells below wm
        tail_bytes = (len(shadow) - wm) * store.row_bytes
        cell_bytes = sum(
            8
            for rid in range(wm)
            for pos in (1, 2)
            if shadow[rid][pos] != synced[rid][pos])
        oracle = tail_bytes + cell_bytes

        ctl.migrate_state_s3(ISOLATED)
        cc = ctl.handles["t"].committed_count
        _ensure(cc == len(shadow), "history %d: switch lost commits", h)
        for cs in store.schema:
            a0 = _instance_array(store.instances[0], cs.name, cc)
            a1 = _instance_array(store.instances[1], cs.name, cc)
            _ensure(np.array_equal(a0, a1),
                    "history %d: instances disagree on %r below the "
                    "switch point", h, cs.name)

        stats = ctl.freshness()
        _ensure(stats.n_ft == oracle,
                "history %d: freshness counts %d stale bytes, oracle "
                "says %d", h, stats.n_ft, oracle)
        ctl.migrate_state_s2()
        _ensure(ctl.last_etl_bytes == oracle,
                "history %d: delta moved %d bytes, oracle says %d",
                h, ctl.last_etl_bytes, oracle)
        after = ctl.freshness()
        _ensure(after.freshness_rate == 1.0 and after.n_ft == 0,
                "history %d: stale bytes remain after the delta copy", h)
        again = sum(etl_delta(s, ctl.olap) for s in db.tables.values())
        _ensure(again == 0,
                "history %d: a second delta pass recopied %d bytes", h, again)
    return "50 histories: instance convergence, byte oracle, and clean second pass"


# -- snapshot isolation under concurrent writers -------------------------------


def _frozen_array(handle, column):
    parts = [v for _, v in handle.blocks(column, 0, handle.committed_count)]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


GENERATED_ID_CEILING = 1 << 40      # loader ids start at 1 << 48


def _remote_plan(handles, plan, cpus):
    per_column = {key: AccessPath.REMOTE for key in plan.scanned_columns()}
    table_rows = {t: (0, handles[t].committed_count)
                  for t, _ in plan.scanned_columns()}
    epoch = next(iter(handles.values())).epoch
    return AccessPathPlan(per_column=per_column, table_rows=table_rows,
                          execution_cpus=frozenset(cpus), epoch=epoch)


def _conservation_plans():
    stock = QueryPlan(
        name="stock-total", shape="scan-filter-reduce",
        scans=[("stock", ["s_quantity"], None)],
        aggregates=[("s_quantity", "sum")])
    ordered = QueryPlan(
        name="ordered-total", shape="scan-filter-reduce",
        scans=[("orderline", ["ol_o_id", "ol_quantity"],
                Predicate(conditions=(("ol_o_id", None,
                                       GENERATED_ID_CEILING),)))],
        aggregates=[("ol_quantity", "sum")])
    return stock, ordered


def _assert_atomic_orders(handles):
    o_id = _frozen_array(handles["orders"], "o_id")
    o_cnt = _frozen_array(handles["orders"], "o_ol_cnt")
    mask = o_id < GENERATED_ID_CEILING
    gen_ids, gen_cnt = o_id[mask], o_cnt[mask]
    ol_o = _frozen_array(handles["orderline"], "ol_o_id")
    line_ids, line_counts = np.unique(ol_o[ol_o < GENERATED_ID_CEILING],
                                      return_counts=True)
    order = np.argsort(gen_ids)
    _ensure(np.array_equal(gen_ids[order], line_ids)
            and np.array_equal(gen_cnt[order], line_counts),
            "snapshot shows a torn order: headers and line counts disagree")
    return int(gen_ids.size)


def _check_snapshot_isolation(cfg, faults):
    bcfg = BenchConfig(scale_factor=4.0, divisor=10_000, seed=cfg.seed)
    db = load_initial_data(build_database(bcfg), bcfg)
    mgr = TransactionManager(db)
    budget_per_worker = 2500
    pool = WorkerPool(mgr, db, seed=cfg.seed, warehouses=bcfg.warehouses,
                      items=bcfg.items, txn_budget=budget_per_worker)
    pool.set_worker_count([0, 1, 2, 3])

    initial_stock = bcfg.warehouses * bcfg.items * INITIAL_STOCK_QUANTITY
    stock_plan, ordered_plan = _conservation_plans()
    cpus = range(4, 8)
    scans = 0
    try:
        done = False
        while not done:
            done = pool.wait_budget_done(timeout=0.01)
            # protocol: every switch is followed by a convergence pass
            out = db.switch_all()
            handles = {}
            for name, (handle, switch_stats) in out.items():
                handles[name] = handle
                if switch_stats.any_updates:
                    sync_pass(db.table(name), handle.committed_count)
            stock_sum = execute(
                stock_plan, _remote_plan(handles, stock_plan, cpus),
                None, handles, worker_count=2).scalar("sum(s_quantity)")
            ordered_sum = execute(
                ordered_plan, _remote_plan(handles, ordered_plan, cpus),
                None, handles, worker_count=2).scalar("sum(ol_quantity)")
            _ensure(stock_sum + ordered_sum == initial_stock,
                    "snapshot broke quantity conservation: stock %d + "
                    "ordered %d != %d", stock_sum, ordered_sum, initial_stock)
            _assert_atomic_orders(handles)
            scans += 1
    finally:
        try:
            pool.wait_budget_done()
        finally:
            committed = pool.committed_count()
            pool.stop_all()
    _ensure(committed == 4 * budget_per_worker,
            "worker budget not exhausted: %d of %d commits",
            committed, 4 * budget_per_worker)
    _ensure(scans >= 3, "writers finished before enough snapshot scans ran")
    return ("10000 transactions on 4 workers; every concurrent snapshot "
            "conserved quantities and saw whole orders")


# -- ledger safety across migrations -------------------------------------------


def _assert_ledger_sound(ledger, tag):
    topo = ledger.topology
    assignment = dict(ledger.assignment)
    _ensure(set(assignment) == set(topo.all_cpus()),
            "assignment does not cover every CPU exactly once")
    per_role = {OLTP: 0, OLAP: 0, FREE: 0}
    for role in assignment.values():
        _ensure(role in per_role, "unknown CPU role %r" % (role,))
        per_role[role] += 1
    _ensure(sum(per_role.values()) == sum(len(s) for s in topo.sockets),
            "CPU conservation broken")
    oltp_per_socket = [0] * topo.socket_count
    for cpu, role in assignment.items():
        if role == OLTP:
            oltp_per_socket[topo.socket_of(cpu)] += 1
    if tag in (S1, S3_NI):
        for s, floor in enumerate(ledger.oltp_cpu_thres):
            _ensure(oltp_per_socket[s] >= floor,
                    "socket %d fell below its OLTP floor", s)
    else:
        whole = sum(1 for s, cpus in enumerate(topo.sockets)
                    if oltp_per_socket[s] == len(cpus))
        _ensure(whole >= ledger.oltp_sock_thres,
                "fewer whole OLTP sockets than the floor allows")


def _check_ledger_safety(cfg, faults):
    rng = random.Random(cfg.seed * 1_000_003 + 17)
    migrations = 0
    for seq in range(1000):
        sockets = rng.choice((2, 4))
        cps = rng.choice((2, 4, 8))
        topo = make_topology(sockets, cps)
        ledger = ResourceLedger(
            topo,
            oltp_sock_thres=1 if sockets == 2 else rng.choice((1, 2)),
            elastic_grant=rng.randrange(0, cps + 1))
        db = Database()
        db.create_table("t", [ColumnSchema("k", "int64"),
                              ColumnSchema("v", "int64")])
        store = db.table("t")
        for i in range(rng.randrange(2, 10)):
            store.insert_committed((i, i))
        ctl = RdeController(db, ledger)
        moves = (ctl.migrate_state_s1,
                 ctl.migrate_state_s2,
                 lambda: ctl.migrate_state_s3(ISOLATED),
                 lambda: ctl.migrate_state_s3(NON_ISOLATED))
        for _ in range(rng.randrange(4, 10)):
            wm_before = dict(ctl.olap.watermark)
            synced_before = ctl.olap.epoch_synced
            state = rng.choice(moves)()
            migrations += 1
            ledger.assert_valid(state.tag)
            _assert_ledger_sound(ledger, state.tag)
            if state.tag != S2:
                _ensure(ctl.olap.watermark == wm_before
                        and ctl.olap.epoch_synced == synced_before,
                        "sequence %d: a %s migration moved the analytical "
                        "watermark", seq, state.tag)
            else:
                _ensure(ctl.freshness().freshness_rate == 1.0,
                        "sequence %d: consolidation left stale bytes", seq)
            # keep the next switch and sync non-trivial
            rows = store.committed_rows
            for i in range(rng.randrange(0, 4)):
                store.insert_committed((rows + i, rows + i))
            if rows and rng.random() < 0.6:
                store.update_committed(rng.randrange(rows),
                                       {"v": rng.randrange(10 ** 6)})
    return ("1000 random sequences, %d migrations: conservation, floors, "
            "and watermark stability held" % migrations)


# -- simulator trends ----------------------------------------------------------


def _check_batch_amortization(cfg, faults):
    rows = s2_batch_rows(cfg.cost_params(), cfg.cpus_per_socket)
    totals = [r[4] for r in rows]
    shares = {r[0]: r[5] for r in rows}
    for a, b in zip(totals, totals[1:]):
        _ensure(b < a, "total time rose when the batch grew")
    _ensure(shares[1] >= 0.30,
            "copy share at batch=1 is %.3f, expected at least 0.30",
            shares[1])
    _ensure(shares[16] <= 0.10,
            "copy share at batch=16 is %.3f, expected at most 0.10",
            shares[16])
    return ("totals strictly decreasing over batches 1..16; copy share "
            "%.3f at batch=1 and %.3f at batch=16" % (shares[1], shares[16]))


def _check_consolidation_crossover(cfg, faults):
    rows = s3_fresh_rows(cfg.cost_params(), cfg.cpus_per_socket)
    bracket = crossover_bracket(rows)
    _ensure(bracket is not None,
            "split and consolidate curves never crossed on [0, 1]")
    lo, hi = bracket
    _ensure(0.0 < lo and hi < 1.0,
            "crossover bracket (%.3f, %.3f) touches the boundary", lo, hi)
    return ("consolidation overtakes split reads between fresh fractions "
            "%.2f and %.2f" % (lo, hi))


def _check_adaptive_advantage(cfg, faults):
    params = cfg.cost_params()
    sc = cfg.scheduler_config()
    topo = cfg.topology()
    workload = mix_workload(cfg.sim_steps, cfg.sim_txns_per_step)
    totals = {}
    adaptive_trace = None
    for policy in (ADAPTIVE, S1, S2, S3_IS, S3_NI):
        trace = run_sequence(workload, policy, sc, params,
                             simdb=sim_database(cfg.scale_factor),
                             topology=topo,
                             elastic_grant=cfg.elastic_grant_cpus)
        totals[policy] = trace.cumulative_olap_seconds
        if policy == ADAPTIVE:
            adaptive_trace = trace
    adaptive = totals[ADAPTIVE]
    slack = max((e.etl_seconds for e in adaptive_trace.events), default=0.0)
    for policy, total in totals.items():
        _ensure(adaptive <= total + slack + 1e-9,
                "adaptive spent %.3fs, policy %s spent %.3fs and one copy "
                "charge is only %.3fs", adaptive, policy, total, slack)
    stale = totals[S3_IS]
    gap = (stale - adaptive) / stale
    _ensure(gap >= 0.20,
            "gap versus the stale-isolated policy is %.1f%%, expected at "
            "least 20%%", 100 * gap)
    return ("adaptive %.3fs beats stale-isolated %.3fs (gap %.1f%%) and "
            "stays within one copy charge of every static policy"
            % (adaptive, stale, 100 * gap))


def _check_interference_endpoints(cfg, faults):
    params = cfg.cost_params()
    topo = make_topology(cfg.sockets, cfg.cpus_per_socket)
    size = cfg.cpus_per_socket
    base = params.oltp_base_tps

    def traded_tps(traded, olap_active):
        thres = (size - traded, traded) + (0,) * (cfg.sockets - 2)
        ledger = ResourceLedger(topo, oltp_sock_thres=1,
                                oltp_cpu_thres=thres)
        ledger.apply(assignment_s1(topo, thres))
        state = SystemState(tag=S1, epoch=0,
                            oltp_cpus=frozenset(ledger.cpus(OLTP)),
                            olap_cpus=frozenset(ledger.cpus(OLAP)))
        return estimate_oltp_tps(state, ledger, olap_active, params)

    quiet = [traded_tps(t, False) for t in range(size + 1)]
    busy = [traded_tps(t, True) for t in range(size + 1)]
    _ensure(math.isclose(quiet[0], base, rel_tol=1e-12),
            "untraded quiet throughput is %.1f, expected the base rate",
            quiet[0])
    _ensure(math.isclose(quiet[size], 0.63 * base, rel_tol=1e-12),
            "fully traded quiet throughput is %.1f, expected %.1f",
            quiet[size], 0.63 * base)
    _ensure(math.isclose(busy[size], 0.45 * base, rel_tol=1e-12),
            "fully traded busy throughput is %.1f, expected %.1f",
            busy[size], 0.45 * base)
    for series, label in ((quiet, "quiet"), (busy, "busy")):
        for a, b in zip(series, series[1:]):
            _ensure(b <= a + 1e-9,
                    "%s throughput rose while trading away CPUs", label)

    ledger = ResourceLedger(topo, oltp_sock_thres=1)
    ledger.apply(assignment_s2(topo, 1))
    isolated = SystemState(tag=S2, epoch=0,
                           oltp_cpus=frozenset(ledger.cpus(OLTP)),
                           olap_cpus=frozenset(ledger.cpus(OLAP)))
    _ensure(math.isclose(estimate_oltp_tps(isolated, ledger, True, params),
                         base, rel_tol=1e-12),
            "socket isolation should hold the full base rate")
    return ("0.63 and 0.45 endpoints exact; both sweeps monotone; "
            "isolation holds the base rate")


# -- end-to-end determinism ----------------------------------------------------


def _check_csv_determinism(cfg, faults):
    dirs = (tempfile.mkdtemp(prefix="htap-verify-a-"),
            tempfile.mkdtemp(prefix="htap-verify-b-"))
    try:
        for out in dirs:
            for name in EXPERIMENTS:
                run_experiment(name, cfg, out_dir=out)
        names_a = sorted(p.name for p in Path(dirs[0]).iterdir())
        names_b = sorted(p.name for p in Path(dirs[1]).iterdir())
        _ensure(names_a == names_b, "the two runs wrote different files")
        for name in names_a:
            a = (Path(dirs[0]) / name).read_bytes()
            b = (Path(dirs[1]) / name).read_bytes()
            _ensure(a == b, "%s differs between two seeded runs", name)
        decisions = _replay_decision_log(Path(dirs[0])
                                         / "adaptive_seq_decisions.csv")
    finally:
        for out in dirs:
            shutil.rmtree(out, ignore_errors=True)
    return ("%d files byte-identical across two runs; %d logged decisions "
            "re-derived from their inputs" % (len(names_a), decisions))


def _replay_decision_log(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    _ensure(lines and lines[0].startswith("# htaplite-csv"),
            "decision log is missing its schema header")
    header = lines[1].split(",")
    checked = 0
    for line in lines[2:]:
        row = dict(zip(header, line.split(",")))
        sc = SchedulerConfig(alpha=float(row["alpha"]),
                             f_el=row["f_el"] == "True",
                             m_el=row["m_el"])
        inp = SchedulerInput(int(row["n_fq"]), int(row["n_ft"]),
                             row["is_batch"] == "True")
        _ensure(decide(inp, sc) == row["state"],
                "logged decision %r cannot be re-derived from its own "
                "inputs", row)
        checked += 1
    _ensure(checked > 0, "decision log is empty")
    return checked


# -- harness -------------------------------------------------------------------


ALL_CHECKS = (
    ("config-valid", _check_config_valid),
    ("path-equivalence", _check_path_equivalence),
    ("decision-rule-table", _check_decision_rule_table),
    ("sync-etl-bookkeeping", _check_sync_etl_bookkeeping),
    ("snapshot-isolation", _check_snapshot_isolation),
    ("ledger-safety", _check_ledger_safety),
    ("batch-amortization", _check_batch_amortization),
    ("consolidation-crossover", _check_consolidation_crossover),
    ("adaptive-advantage", _check_adaptive_advantage),
    ("interference-endpoints", _check_interference_endpoints),
    ("csv-determinism", _check_csv_determinism),
)

CHECK_NAMES = tuple(name for name, _ in ALL_CHECKS)


def run_checks(cfg, faults=frozenset(), names=None, echo=None):
    """Run the named checks (all by default) and return their results.

    A broken configuration short-circuits everything that would have to
    trust it; those checks are reported as failed without running.
    """
    say = echo if echo is not None else (lambda line: None)
    unknown = [] if names is None else [n for n in names
                                        if n not in CHECK_NAMES]
    if unknown:
        raise ValueError("unknown checks: %s" % ", ".join(sorted(unknown)))
    bad_faults = [f for f in faults if f not in FAULTS]
    if bad_faults:
        raise ValueError("unknown faults: %s" % ", ".join(sorted(bad_faults)))

    picked = [(n, fn) for n, fn in ALL_CHECKS
              if names is None or n in names or n == "config-valid"]
    config_broken = bool(cfg.problems())
    results = []
    for name, fn in picked:
        if config_broken and name != "config-valid":
            results.append(CheckResult(name, False,
                                       "not run; configuration invalid", 0.0))
            say("FAIL %s: not run; configuration invalid" % name)
            continue
        started = perf_counter()
        try:
            detail = fn(cfg, faults)
            ok = True
        except CheckFailed as exc:
            detail, ok = str(exc), False
        except Exception as exc:            # a crash still has to be listed
            detail, ok = "%s: %s" % (type(exc).__name__, exc), False
        elapsed = perf_counter() - started
        results.append(CheckResult(name, ok, detail, elapsed))
        say("%s %s: %s (%.2fs)"
            % ("PASS" if ok else "FAIL", name, detail, elapsed))
    return results


def write_report(results, path):
    """Machine-readable pass/fail table; no timings, so reruns match."""
    rows = [(r.name, r.status, r.detail.replace(",", ";")) for r in results]
    return write_csv(Path(path), "verify_report", REPORT_COLUMNS, rows)


def all_passed(results):
    return all(r.ok for r in results)
