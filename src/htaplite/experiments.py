"""Experiment drivers: live-engine correctness plus simulated timing.

Each experiment runs the desk-scale engine for everything that must be
exact (decision logs, migrations, bytes copied) and the cost model for
everything that is about time at server scale. CSV files carry only
deterministically derived values, so a rerun with the same seed is
byte-identical; wall-clock observations go to the echo callback and
never into a file.
"""

import time
from pathlib import Path

from .bench import (ORDERLINE_BASE_ROWS, TABLE_SCHEMAS, build_database,
                    load_initial_data, q1_plan, q6_plan, q19_plan)
from .config import ConfigError
from .olap import AccessPath, AccessPathPlan, QueryPlan
from .rde import (NON_ISOLATED, OLAP, OLTP, S1, S2, S3_IS, S3_NI,
                  RdeController, ResourceLedger, SystemState)
from .scheduler import DECISION_COLUMNS, DecisionLog, run_query, schedule_batch
from .simcost import (ADAPTIVE, TRACE_COLUMNS, SimDb, StepGrowth,
                      estimate_etl_time, estimate_oltp_tps,
                      estimate_query_time, run_sequence)
from .txn import NewOrderGenerator, TransactionManager, execute_new_order

CSV_SCHEMA_VERSION = 1

BATCH_SIZES = (1, 2, 4, 8, 16)
BATCH_QUERY_COUNT = 16
BATCH_COPY_BYTES = 500e6
SCAN_FOOTPRINT_BYTES = 160e6


def _fmt(value):
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def write_csv(path, name, columns, rows):
    lines = ["# htaplite-csv v%d %s" % (CSV_SCHEMA_VERSION, name)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Path(path)


class EngineRig:
    """Desk-scale engine with single-threaded, replayable churn.

    Transactions apply synchronously from one seeded generator, so the
    committed state after N steps is a pure function of the config.
    The constructor leaves the engine consolidated: both twin copies
    and the analytical copy agree before any measurement starts.
    """

    def __init__(self, cfg):
        bench_cfg = cfg.bench()
        self.db = build_database(bench_cfg)
        load_initial_data(self.db, bench_cfg)
        self.ledger = ResourceLedger(
            cfg.topology(), oltp_sock_thres=cfg.oltp_socket_threshold,
            elastic_grant=cfg.elastic_grant_cpus)
        self.ctl = RdeController(self.db, self.ledger)
        self.mgr = TransactionManager(self.db)
        self.gen = NewOrderGenerator(cfg.seed, 0, bench_cfg.warehouses,
                                     bench_cfg.items)
        self.ctl.migrate_state_s2()
        self.committed = 0

    def churn(self, txns):
        for _ in range(txns):
            params = self.gen.next()
            while True:
                ctx = self.mgr.begin()
                if execute_new_order(self.mgr, ctx, params, self.db) == "commit":
                    break
            self.committed += 1


def datagen(cfg):
    """Build and load the engine, consolidated and ready to measure."""
    cfg.check()
    rig = EngineRig(cfg)
    rate = rig.ctl.freshness().freshness_rate
    if rate != 1.0:
        raise RuntimeError("engine not synchronized after load (rate %r)" % rate)
    return rig


def dump_tables(db, out_dir):
    """Write each table's frozen snapshot as one CSV."""
    written = []
    for name, store in db.tables.items():
        handle = store.current_frozen
        columns = [c.name for c in store.schema]
        rows = zip(*(handle.column(c).slice(0, handle.committed_count).tolist()
                     for c in columns))
        written.append(write_csv(Path(out_dir) / ("data_%s.csv" % name),
                                 "table %s" % name, columns, rows))
    return written


# -- workload definitions ----------------------------------------------------


def query_mix():
    """The three analytical shapes, in fixed rotation order."""
    return (q1_plan,
            lambda: q6_plan(0, 10 ** 9, 50),
            lambda: q19_plan(1.0, 900.0, 1, 5))


def step_growth(txns):
    """Full-scale fresh data from one step of order-entry traffic.

    Each transaction adds one order of about ten lines and decrements
    the stocked quantity once per line.
    """
    return StepGrowth(inserts={"orderline": 10 * txns, "orders": txns},
                      updates={("stock", "s_quantity"): 10 * txns})


def sim_database(scale_factor, width=8):
    """Server-scale table cardinalities for the cost simulator."""
    db = SimDb()
    for name, base in (("orderline", ORDERLINE_BASE_ROWS),
                       ("orders", ORDERLINE_BASE_ROWS // 15),
                       ("stock", 100_000),
                       ("item", 100_000)):
        db.add_table(name, int(scale_factor * base),
                     [c.name for c in TABLE_SCHEMAS[name]], width=width)
    return db


def mix_workload(steps, txns_per_step):
    builders = query_mix()
    return [(builders[i % 3](), step_growth(txns_per_step))
            for i in range(steps)]


# -- fixed-footprint scan helpers for the sweep figures -----------------------


def _footprint_plan():
    return QueryPlan(name="scan", shape="scan-filter-reduce",
                     scans=[("facts", ["v"], None)],
                     aggregates=[("v", "sum")])


def _paths(plan, table_rows, path, cpus):
    per_column = {(t, c): path for t, c in plan.scanned_columns()}
    return AccessPathPlan(per_column=per_column, table_rows=table_rows,
                          execution_cpus=frozenset(cpus), epoch=None)


# -- experiments ---------------------------------------------------------------


def s1_sweep(cfg, out_dir, echo):
    """Trade CPUs between the sides two at a time; log modeled throughput."""
    params = cfg.cost_params()
    topo = cfg.topology()
    size = cfg.cpus_per_socket
    started = time.monotonic()
    rig = EngineRig(cfg)
    rows = []
    for traded in range(0, size + 1, 2):
        thres = (size - traded, traded) + (0,) * (cfg.sockets - 2)
        rig.ctl.ledger = ResourceLedger(
            topo, oltp_sock_thres=cfg.oltp_socket_threshold,
            oltp_cpu_thres=thres)
        state = rig.ctl.migrate_state_s1()
        rig.ctl.ledger.assert_valid(state.tag)
        rig.churn(cfg.engine_txns_per_step)
        home = set(topo.sockets[0])
        oltp = rig.ctl.ledger.cpus(OLTP)
        rows.append((
            traded,
            sum(1 for c in oltp if c in home),
            sum(1 for c in oltp if c not in home),
            len(rig.ctl.ledger.cpus(OLAP)),
            state.epoch,
            estimate_oltp_tps(state, rig.ctl.ledger, False, params),
            estimate_oltp_tps(state, rig.ctl.ledger, True, params),
        ))
    path = write_csv(Path(out_dir) / "s1_sweep.csv", "cpu trading sweep",
                     ("traded_cpus", "oltp_home_cpus", "oltp_remote_cpus",
                      "olap_cpus", "epoch", "tps_quiet", "tps_busy"), rows)
    echo("s1-sweep: %d configurations, %d txns committed, %.2fs"
         % (len(rows), rig.committed, time.monotonic() - started))
    return [path]


def s2_batch_rows(params, cores):
    """Modeled cost of 16 fixed queries at each batch size.

    One delta copy serves a whole batch, so doubling the batch halves
    the copies while execution time stays put.
    """
    rows_scanned = int(SCAN_FOOTPRINT_BYTES // params.column_width_bytes)
    plan = _footprint_plan()
    table_rows = {"facts": (rows_scanned, rows_scanned)}
    state = SystemState(tag=S2, epoch=0, oltp_cpus=frozenset(),
                        olap_cpus=frozenset(range(cores)))
    pp = _paths(plan, table_rows, AccessPath.LOCAL, range(cores))
    scan_s = estimate_query_time(plan, pp, state, None, params)
    copy_s = estimate_etl_time(BATCH_COPY_BYTES, params)
    out = []
    for batch in BATCH_SIZES:
        copies = BATCH_QUERY_COUNT // batch
        etl_total = copies * copy_s
        exec_total = BATCH_QUERY_COUNT * scan_s
        total = etl_total + exec_total
        out.append((batch, copies, etl_total, exec_total, total,
                    etl_total / total))
    return out


def s2_batch(cfg, out_dir, echo):
    """Batch admissions: one consolidation amortized over many queries."""
    params = cfg.cost_params()
    started = time.monotonic()
    modeled = s2_batch_rows(params, cfg.cpus_per_socket)
    builders = query_mix()
    rows = []
    for (batch, copies, etl_s, exec_s, total_s, share) in modeled:
        rig = EngineRig(cfg)
        log = DecisionLog()
        etl_bytes = 0
        groups = BATCH_QUERY_COUNT // batch
        for _ in range(groups):
            rig.churn(batch * cfg.engine_txns_per_step)
            plans = [builders[i % 3]() for i in range(batch)]
            schedule_batch(plans, cfg.scheduler_config(), rig.ctl, log=log)
            etl_bytes += rig.ctl.last_etl_bytes
        migrations = len(log.records)
        rows.append((batch, copies, etl_s, exec_s, total_s, share,
                     migrations, etl_bytes, rig.committed))
    path = write_csv(Path(out_dir) / "s2_batch.csv", "batch amortization",
                     ("batch_size", "modeled_copies", "etl_seconds",
                      "exec_seconds", "total_seconds", "etl_share",
                      "engine_migrations", "engine_etl_bytes", "engine_txns"),
                     rows)
    echo("s2-batch: %d batch sizes, %.2fs"
         % (len(rows), time.monotonic() - started))
    return [path]


def s3_fresh_rows(params, cores, points=50):
    """Split-read cost versus consolidate-then-read cost by fresh share."""
    total_rows = int(SCAN_FOOTPRINT_BYTES // params.column_width_bytes)
    plan = _footprint_plan()
    split_state = SystemState(tag=S3_IS, epoch=0, oltp_cpus=frozenset(),
                              olap_cpus=frozenset(range(cores)))
    cons_state = SystemState(tag=S2, epoch=0, oltp_cpus=frozenset(),
                             olap_cpus=frozenset(range(cores)))
    local_pp = _paths(plan, {"facts": (total_rows, total_rows)},
                      AccessPath.LOCAL, range(cores))
    cons_scan = estimate_query_time(plan, local_pp, cons_state, None, params)
    out = []
    for i in range(points + 1):
        fraction = i / points
        wm = total_rows - round(fraction * total_rows)
        split_pp = _paths(plan, {"facts": (wm, total_rows)},
                          AccessPath.SPLIT, range(cores))
        split_s = estimate_query_time(plan, split_pp, split_state, None, params)
        cons_s = estimate_etl_time(fraction * SCAN_FOOTPRINT_BYTES,
                                   params) + cons_scan
        out.append((fraction, split_s, cons_s,
                    "split" if split_s <= cons_s else "consolidate"))
    return out


def crossover_bracket(rows):
    """First fraction interval where consolidation overtakes splitting."""
    for prev, cur in zip(rows, rows[1:]):
        if prev[3] == "split" and cur[3] == "consolidate":
            return prev[0], cur[0]
    return None


def s3_fresh_sweep(cfg, out_dir, echo):
    params = cfg.cost_params()
    started = time.monotonic()
    rows = s3_fresh_rows(params, cfg.cpus_per_socket)
    path = write_csv(Path(out_dir) / "s3_fresh_sweep.csv",
                     "fresh fraction sweep",
                     ("fresh_fraction", "split_seconds",
                      "consolidate_seconds", "faster"), rows)
    bracket = crossover_bracket(rows)
    if bracket is not None:
        echo("s3-fresh-sweep: curves cross between f=%.3f and f=%.3f"
             % bracket)
    else:
        echo("s3-fresh-sweep: curves do not cross in (0, 1)")
    echo("s3-fresh-sweep: %d points, %.2fs"
         % (len(rows), time.monotonic() - started))
    return [path]


def s3_elastic_sweep(cfg, out_dir, echo):
    """Lend the analytical side extra write-socket cores, one at a time."""
    params = cfg.cost_params()
    topo = cfg.topology()
    size = cfg.cpus_per_socket
    fresh_fraction = 0.25
    total_rows = int(SCAN_FOOTPRINT_BYTES // params.column_width_bytes)
    wm = total_rows - round(fresh_fraction * total_rows)
    plan = _footprint_plan()
    started = time.monotonic()
    rig = EngineRig(cfg)
    rows = []
    for grant in range(0, size + 1):
        thres = (size - grant,) + (0,) * (cfg.sockets - 1)
        rig.ctl.ledger = ResourceLedger(
            topo, oltp_sock_thres=cfg.oltp_socket_threshold,
            oltp_cpu_thres=thres)
        state = rig.ctl.migrate_state_s3(NON_ISOLATED)
        rig.ctl.ledger.assert_valid(state.tag)
        rig.churn(cfg.engine_txns_per_step)
        pp = _paths(plan, {"facts": (wm, total_rows)}, AccessPath.SPLIT,
                    state.olap_cpus)
        rows.append((
            grant,
            len(state.oltp_cpus),
            len(state.olap_cpus),
            state.epoch,
            estimate_query_time(plan, pp, state, rig.ctl.ledger, params),
            estimate_oltp_tps(state, rig.ctl.ledger, True, params),
        ))
    path = write_csv(Path(out_dir) / "s3_elastic_sweep.csv",
                     "elastic core grant sweep",
                     ("granted_cpus", "oltp_cpus", "olap_cpus", "epoch",
                      "exec_seconds", "oltp_tps"), rows)
    echo("s3-elastic-sweep: %d grants, %.2fs"
         % (len(rows), time.monotonic() - started))
    return [path]


def adaptive_seq(cfg, out_dir, echo):
    """The three-query mix for many passes: adaptive against each static.

    Server-scale timing comes from the simulator; the desk engine runs
    the same rotation live and logs every admission decision.
    """
    params = cfg.cost_params()
    scfg = cfg.scheduler_config()
    started = time.monotonic()
    workload = mix_workload(cfg.sim_steps, cfg.sim_txns_per_step)
    traces = {}
    for policy in (ADAPTIVE, S1, S2, S3_IS, S3_NI):
        traces[policy] = run_sequence(
            workload, policy, scfg, params,
            simdb=sim_database(cfg.scale_factor, params.column_width_bytes),
            topology=cfg.topology(), elastic_grant=cfg.elastic_grant_cpus)
    written = [write_csv(Path(out_dir) / "adaptive_seq_trace.csv",
                         "adaptive policy trace", TRACE_COLUMNS,
                         traces[ADAPTIVE].rows())]
    totals = []
    for policy, trace in traces.items():
        tps = [e.oltp_tps for e in trace.events]
        totals.append((policy, len(trace.events),
                       trace.cumulative_olap_seconds,
                       sum(tps) / len(tps)))
    written.append(write_csv(Path(out_dir) / "adaptive_seq_totals.csv",
                             "policy totals",
                             ("policy", "queries", "cumulative_olap_seconds",
                              "mean_oltp_tps"), totals))
    stale = traces[S3_IS].cumulative_olap_seconds
    adaptive = traces[ADAPTIVE].cumulative_olap_seconds
    echo("adaptive-seq: adaptive %.3fs vs stale-isolated %.3fs (gap %.1f%%)"
         % (adaptive, stale, 100 * (1 - adaptive / stale)))

    rig = EngineRig(cfg)
    builders = query_mix()
    for _ in range(cfg.warmup_passes):
        for builder in builders:
            rig.churn(cfg.engine_txns_per_step)
            run_query(builder(), scfg, rig.ctl,
                      worker_count=cfg.engine_query_workers)
    log = DecisionLog()
    for step in range(cfg.sim_steps):
        rig.churn(cfg.engine_txns_per_step)
        run_query(builders[step % 3](), scfg, rig.ctl, log=log,
                  worker_count=cfg.engine_query_workers)
    written.append(write_csv(Path(out_dir) / "adaptive_seq_decisions.csv",
                             "engine decision log", DECISION_COLUMNS,
                             log.rows()))
    echo("adaptive-seq: %d live queries, %d txns, %.2fs total"
         % (len(log.records), rig.committed, time.monotonic() - started))
    return written


_RUNNERS = {
    "s1-sweep": s1_sweep,
    "s2-batch": s2_batch,
    "s3-fresh-sweep": s3_fresh_sweep,
    "s3-elastic-sweep": s3_elastic_sweep,
    "adaptive-seq": adaptive_seq,
}


def run_experiment(name, cfg, out_dir=None, echo=None):
    """Run one named experiment; returns the CSV paths it wrote."""
    if name not in _RUNNERS:
        raise ConfigError("unknown experiment %r; choose from %s"
                          % (name, ", ".join(sorted(_RUNNERS))))
    cfg.check()
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if echo is None:
        echo = lambda line: None
    return _RUNNERS[name](cfg, out, echo)
