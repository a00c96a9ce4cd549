"""The three benchmark workloads, driven through htaplite's public API.

Every workload segment starts from the engine `EngineRig` builds: loaded
from the seed at the given scale (60,012 orderline rows, 100,000 stock rows
and 1,000 items at scale 100) and consolidated. Transactions are
NewOrders from the rig's seeded generator, run the way
`EngineRig.churn` runs them; queries rotate q1, q6, q19 with the plans
of `experiments.query_mix`, admitted through `scheduler.run_query`.

    neworder         one closed-loop NewOrder client, no switches and
                     no queries; before it, an idle query probe
    htap             single-threaded steps of 20 NewOrders and one query
    htap-concurrent  a writer thread at a fixed offered NewOrder rate
                     beside a closed loop of queries on the main thread

Engine functions are called through their modules (`txn.…`,
`scheduler.…`) so that the traced run's wrappers see every call.
"""

import gc
import resource
import threading
import traceback
from collections import Counter
from time import perf_counter

import htaplite.scheduler as scheduler
import htaplite.txn as txn
from htaplite.config import RunConfig
from htaplite.experiments import query_mix

WORKLOADS = ("neworder", "htap", "htap-concurrent")
# workloads whose admissions repeat exactly for a given seed
DETERMINISTIC = ("neworder", "htap")

# a run is this many segments, each in a fresh process with its own
# engine build, run PARALLEL at a time (one at a time on one CPU), each
# pinned to a CPU of its own; see segment.py. SEGMENTS is a multiple of
# PARALLEL.
SEGMENTS = 4
PARALLEL = 2

# at the default alpha of 0.5 every admission of this mix serves in
# place and the delta copy never runs; at 0.4 q1 consolidates (S2, ETL,
# LOCAL paths) and q6/q19 serve in place (S3-IS, SPLIT paths)
ALPHA = 0.4
TXNS_PER_STEP = 20
# offered NewOrders per second in htap-concurrent: held on 2 CPUs,
# where 1000/s was past the knee
WRITER_RATE_PER_S = 500
# neworder's idle query probe takes this share of a segment's seconds,
# and at least PROBE_ADMISSIONS admissions; its write loop the rest
PROBE_SHARE = 0.25
PROBE_ADMISSIONS = 120
FINGERPRINT_ADMISSIONS = 60
# peak RSS is read once this much work is done, so that a faster engine,
# which gets through more work in a run, does not read as a larger one
MEMORY_TXNS = 5_000


def params(scale, seed):
    """Everything that defines a run besides its length."""
    cfg = RunConfig(scale_factor=scale, seed=seed, alpha=ALPHA)
    return {
        "scale": scale,
        "seed": seed,
        "alpha": cfg.alpha,
        "htap_query_workers": cfg.engine_query_workers,
        "concurrent_query_workers": 1,
        "txns_per_step": TXNS_PER_STEP,
        "writer_rate_per_s": WRITER_RATE_PER_S,
        "segments": SEGMENTS,
        "parallel": PARALLEL,
        "probe_share": PROBE_SHARE,
        "probe_admissions": PROBE_ADMISSIONS,
        "fingerprint_admissions": FINGERPRINT_ADMISSIONS,
        "memory_txns": MEMORY_TXNS,
        "orderline_rows": cfg.bench().initial_orderline_rows,
        "items": cfg.bench().items,
        "warehouses": cfg.bench().warehouses,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed operations of one thread, failures by type."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.tracebacks = {}

    def fail(self, kind, text):
        self.failures[kind] += 1
        self.tracebacks.setdefault(kind, text)


class Writer:
    """NewOrder client; keeps the tallies the conservation check needs."""

    def __init__(self, rig, tracer):
        self.rig = rig
        self.tracer = tracer
        self.tally = Tally()
        self.latencies = []      # seconds, from start or from due time
        self.starts = []         # perf_counter at each latency's start
        self.lateness = []       # seconds a paced transaction started late
        self.ordered_quantity = 0
        self.lines = 0
        self.aborts = 0
        self.started = None
        self.elapsed = None

    def run_one(self, due=None):
        rig = self.rig
        order = rig.gen.next()
        if self.tracer is not None:
            self.tracer.set_request("t%d" % self.tally.attempted)
        self.tally.attempted += 1
        start = perf_counter()
        if due is not None:
            self.lateness.append(start - due)
        try:
            ctx = rig.mgr.begin()
            outcome = txn.execute_new_order(rig.mgr, ctx, order, rig.db)
        except Exception as exc:   # counted by type; the run goes on
            self.tally.fail(type(exc).__name__, traceback.format_exc())
            return
        end = perf_counter()
        if outcome != "commit":
            self.aborts += 1
            self.tally.fail("abort", "NewOrder returned %r" % outcome)
            return
        begun = start if due is None else due
        self.starts.append(begun)
        self.latencies.append(end - begun)
        self.ordered_quantity += sum(order.quantities)
        self.lines += order.order_line_count


class Reader:
    """Query client: the q1, q6, q19 rotation through run_query."""

    def __init__(self, rig, cfg, workers, tracer):
        self.ctl = rig.ctl
        self.scfg = cfg.scheduler_config()
        self.workers = workers
        self.tracer = tracer
        self.builders = query_mix()
        self.tally = Tally()
        self.latencies = {"q1": [], "q6": [], "q19": []}
        self.starts = {"q1": [], "q6": [], "q19": []}
        self.admissions = []     # (plan, state tag, snapshot fences, result)
        self.started = None
        self.elapsed = None

    def run_one(self):
        i = self.tally.attempted
        plan = self.builders[i % len(self.builders)]()
        if self.tracer is not None:
            self.tracer.set_request("q%d" % i)
            self.tracer.counting = i < FINGERPRINT_ADMISSIONS
        self.tally.attempted += 1
        start = perf_counter()
        try:
            state, result, _ = scheduler.run_query(plan, self.scfg, self.ctl,
                                                   worker_count=self.workers)
        except Exception as exc:   # counted by type; the run goes on
            kind = type(exc).__name__
            self.tally.fail(kind, traceback.format_exc())
            self.admissions.append((plan, "failed:" + kind, None, None))
            return
        self.latencies[plan.name].append(perf_counter() - start)
        self.starts[plan.name].append(start)
        fences = {t: h.committed_count for t, h in self.ctl.handles.items()}
        self.admissions.append((plan, state.tag, fences, result))


def neworder(rig, cfg, seconds, tracer, clock):
    """Idle query probe, then a closed NewOrder loop.

    The probe runs for PROBE_SHARE of `seconds` and at least
    PROBE_ADMISSIONS admissions; the loop for the rest of `seconds` and
    at least MEMORY_TXNS transactions.

    The probe runs the query rotation on the freshly consolidated engine
    (S2 with an empty delta copy, LOCAL paths) so that this workload has
    query figures too; the timed write loop after it touches no switch,
    no freshness statistics and no executor. Both loops time the host
    reference on `clock` between operations.
    """
    reader = Reader(rig, cfg, cfg.engine_query_workers, tracer)
    gc.collect()
    clock.tick(force=True)
    reader.started = start = perf_counter()
    while True:
        reader.run_one()
        clock.tick()
        elapsed = perf_counter() - start
        if elapsed >= PROBE_SHARE * seconds and reader.tally.attempted >= PROBE_ADMISSIONS:
            break
    reader.elapsed = elapsed

    writer = Writer(rig, tracer)
    gc.collect()
    clock.tick(force=True)
    writer.started = start = perf_counter()
    while True:
        writer.run_one()
        clock.tick()
        if writer.tally.attempted == MEMORY_TXNS:
            rss_mb = peak_rss_mb()
        elapsed = perf_counter() - start
        if (elapsed >= (1 - PROBE_SHARE) * seconds
                and writer.tally.attempted >= MEMORY_TXNS):
            break
    writer.elapsed = elapsed
    return writer, reader, rss_mb


def htap(rig, cfg, seconds, tracer, clock):
    """Steps of TXNS_PER_STEP NewOrders then one admission, one thread.

    Runs for `seconds` and at least FINGERPRINT_ADMISSIONS admissions,
    timing the host reference on `clock` between steps. Returns the
    writer, the reader and the peak RSS after that window.
    """
    writer = Writer(rig, tracer)
    reader = Reader(rig, cfg, cfg.engine_query_workers, tracer)
    gc.collect()
    clock.tick(force=True)
    writer.started = reader.started = start = perf_counter()
    while True:
        for _ in range(TXNS_PER_STEP):
            writer.run_one()
        reader.run_one()
        clock.tick()
        if reader.tally.attempted == FINGERPRINT_ADMISSIONS:
            rss_mb = peak_rss_mb()
        elapsed = perf_counter() - start
        if elapsed >= seconds and reader.tally.attempted >= FINGERPRINT_ADMISSIONS:
            break
    writer.elapsed = reader.elapsed = elapsed
    return writer, reader, rss_mb


def htap_concurrent(rig, cfg, seconds, tracer, clock):
    """An open-loop writer thread racing a closed loop of admissions.

    The writer issues NewOrder n at start + n / WRITER_RATE_PER_S and
    times it from that due time, so a stall counts against every order
    queued behind it. Two threads are busy: the writer, and the main
    thread running queries with one executor worker. Stops like `htap`.
    `clock` stays empty: the reference cannot be timed alone while the
    writer thread runs, so this workload's figures are not adjusted.
    """
    writer = Writer(rig, tracer)
    reader = Reader(rig, cfg, 1, tracer)
    stop = threading.Event()
    crashed = []
    gc.collect()
    writer.started = reader.started = start = perf_counter()

    def write_loop():
        try:
            n = 0
            while not stop.is_set():
                due = start + n / WRITER_RATE_PER_S
                wait = due - perf_counter()
                if wait > 0 and stop.wait(wait):
                    break
                writer.run_one(due)
                n += 1
            writer.elapsed = perf_counter() - start
        except BaseException as exc:   # re-raised on the main thread
            crashed.append(exc)

    thread = threading.Thread(target=write_loop, name="bench-writer", daemon=True)
    thread.start()
    try:
        while True:
            reader.run_one()
            if reader.tally.attempted == FINGERPRINT_ADMISSIONS:
                rss_mb = peak_rss_mb()
            elapsed = perf_counter() - start
            if elapsed >= seconds and reader.tally.attempted >= FINGERPRINT_ADMISSIONS:
                break
        reader.elapsed = elapsed
    finally:
        stop.set()
        thread.join(timeout=60)
    if thread.is_alive():
        raise RuntimeError("the writer thread did not stop")
    if crashed:
        raise crashed[0]
    return writer, reader, rss_mb


RUNNERS = {"neworder": neworder, "htap": htap, "htap-concurrent": htap_concurrent}
