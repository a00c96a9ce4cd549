"""One segment of a benchmark run, in a process of its own.

    python3 perfbench/segment.py '{"workload": "htap", "seed": 1, "seconds": 4,
                                   "trace": 0, "scale": 100, "spans": null,
                                   "cpu": 0}'

`run.py` starts its segments in rounds, one segment pinned to each CPU
of a round: each builds the engine once (that build is one `setup_s`
sample), runs the workload for its share of the run, checks the outputs,
and prints one JSON line with its samples for `run.py` to pool: divided
by the host's slowdown factor of their moment (hostspeed.py), and raw
under "raw". The two vCPUs of the VM this was built on slow down
independently of each other, for tens of seconds at a time (see
README.md), so a round samples both at once.
"""

import hashlib
import json
import os
import statistics
import sys
from collections import Counter
from time import perf_counter


def storage_footprint(db, olap):
    """Version entries, and column-chunk bytes per committed row byte."""
    entries = sum(len(chain) for st in db.tables.values() for chain in st.deltas.values())
    chunk_bytes = sum(chunk.nbytes for st in db.tables.values()
                      for inst in st.instances for col in inst.columns.values()
                      for chunk in col.chunks)
    chunk_bytes += sum(chunk.nbytes for cols in olap.columns.values()
                       for col in cols.values() for chunk in col.chunks)
    user_bytes = sum(st.committed_rows * st.row_bytes for st in db.tables.values())
    return entries, chunk_bytes / user_bytes


def fingerprint(admissions, window):
    """Digests of the first `window` admissions' states and answers."""
    head = admissions[:window]
    states = [tag for _, tag, _, _ in head]
    answers = [(plan.name, result.columns, result.rows)
               for plan, _, _, result in head if result is not None]
    return {
        "admissions": len(head),
        "state_counts": dict(Counter(states)),
        "states_sha": hashlib.sha256(repr(states).encode()).hexdigest()[:16],
        "answers_sha": hashlib.sha256(repr(answers).encode()).hexdigest()[:16],
    }


def run_segment(workload, seed, seconds, trace, scale, spans=None):
    import hostspeed
    import oracle
    import tracing
    import workloads
    from htaplite.config import RunConfig
    from htaplite.experiments import EngineRig

    cfg = RunConfig(scale_factor=scale, seed=seed, alpha=workloads.ALPHA)
    tracer = tracing.Tracer() if trace else None
    clock = hostspeed.HostClock()
    if tracer is not None:
        tracer.install(tracing.SETUP_TARGETS)
    try:
        around = [hostspeed.reference() for _ in range(3)]
        start = perf_counter()
        rig = EngineRig(cfg)
        setup_s = perf_counter() - start
        around += [hostspeed.reference() for _ in range(3)]
        before = (oracle.stock_total(rig.db), rig.db.table("orderline").committed_rows)
        if tracer is not None:
            tracer.install(tracing.RUN_TARGETS)
        writer, reader, rss_mb = workloads.RUNNERS[workload](rig, cfg, seconds, tracer,
                                                              clock)
    finally:
        if tracer is not None:
            tracer.uninstall()

    after = (oracle.stock_total(rig.db), rig.db.table("orderline").committed_rows)
    problems = oracle.check_new_orders(before, after, writer.ordered_quantity,
                                       writer.lines)
    problems += oracle.check_answers(reader.admissions, rig.ctl.handles)
    setup_factor = statistics.median(around) / hostspeed.REF_S
    raw = {"setup_s": setup_s,
           "txn_latencies": writer.latencies,
           "txn_elapsed": writer.elapsed,
           "query_latencies": reader.latencies,
           "query_elapsed": reader.elapsed}
    timed = dict(raw, setup_s=setup_s / setup_factor)
    if clock.factors:
        timed.update(
            txn_latencies=clock.adjust(writer.starts, writer.latencies),
            txn_elapsed=clock.span(writer.started, writer.started + writer.elapsed),
            query_latencies={q: clock.adjust(reader.starts[q], values)
                             for q, values in reader.latencies.items()},
            query_elapsed=clock.span(reader.started, reader.started + reader.elapsed))
    out = {
        **timed,
        "raw": raw,
        "host_factor": dict(clock.summary() if clock.factors else {},
                            setup=setup_factor),
        "rss_mb": rss_mb,
        "txn_lateness": writer.lateness,
        "txn_attempted": writer.tally.attempted,
        "txn_failures": writer.tally.failures,
        "aborts": writer.aborts,
        "query_attempted": reader.tally.attempted,
        "query_failures": reader.tally.failures,
        "tracebacks": {**writer.tally.tracebacks, **reader.tally.tracebacks},
        "problems": problems,
        "fingerprint": fingerprint(reader.admissions, workloads.FINGERPRINT_ADMISSIONS),
    }
    if tracer is not None:
        out["trace"] = tracer.export()
        out["trace"]["version_entries"], out["trace"]["bytes_per_user_byte"] = (
            storage_footprint(rig.db, rig.ctl.olap))
        if spans is not None:
            tracer.write_spans(spans)
    return out


def main(argv=None):
    args = json.loads((argv if argv is not None else sys.argv[1:])[0])
    # pinned before numpy loads, so that every thread of the segment stays
    # on its CPU
    os.sched_setaffinity(0, {args.pop("cpu")})
    from run import import_engine
    problem = import_engine()
    if problem is not None:
        print("perfbench: " + problem, file=sys.stderr)
        return 2
    print(json.dumps(run_segment(**args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
