"""Timing spans around the calls into each htaplite layer.

Only the traced run installs these wrappers, and it removes them when
it ends. Each wrapper replaces a function where its callers look it up:
the scheduler imports `execute` and `choose_access_paths` by name, so
those are wrapped in `htaplite.scheduler`; `rde` calls `sync_pass`,
`etl_delta` and `compute_freshness_stats` through its own module
globals; methods are wrapped on their classes. A target that has moved
makes installation fail instead of silently measuring nothing.

Every span records its name, start, end, parent span and request id
(an admission `q<n>` or a transaction `t<n>`). Aggregates (calls, total
and self time) are kept per thread as spans close, so the per-layer
numbers cover the whole run; the spans themselves are kept in memory up
to a cap and written out when the run ends.
"""

import functools
import itertools
import json
import statistics
import threading
from collections import Counter, defaultdict
from time import perf_counter

import htaplite.experiments
import htaplite.rde
import htaplite.scheduler
import htaplite.storage
import htaplite.txn

SPAN_CAP = 50_000

# spans whose per-call median is reported; the rest keep only totals
MEDIAN_SPANS = frozenset({"bench.load", "txn.new_order", "txn.commit"})

LAYERS = ("bench", "txn", "storage", "rde", "olap", "scheduler")


def _count_sync(counts, args, result):
    counts["rde.rows_synced"] += result


def _count_etl(counts, args, result):
    counts["rde.etl_bytes"] += result


def _count_migration(counts, args, result):
    state = result[0]
    counts["rde.migrations." + state.tag] += 1


def _count_paths(counts, args, result):
    for path in result.per_column.values():
        counts["olap.paths." + path.value] += 1


def _count_rows(counts, args, result):
    plan, path_plan, _, frozen = args[:4]
    for table in {t for t, _, _ in plan.scans}:
        _, cc = path_plan.table_rows[table]
        counts["olap.rows_scanned"] += min(cc, frozen[table].committed_count)


def _execute_name(args):
    return "olap.execute." + args[0].name


# (owner, attribute, span name or callable(args) -> name, result hook)
SETUP_TARGETS = (
    (htaplite.experiments, "load_initial_data", "bench.load", None),
)
RUN_TARGETS = (
    (htaplite.txn, "execute_new_order", "txn.new_order", None),
    (htaplite.txn.TransactionManager, "commit", "txn.commit", None),
    (htaplite.txn.LockManager, "acquire", "txn.lock_acquire", None),
    (htaplite.storage.TwinStore, "insert_committed", "storage.insert_committed", None),
    (htaplite.storage.TwinStore, "update_committed", "storage.update_committed", None),
    (htaplite.storage.TwinStore, "read_latest", "storage.read_latest", None),
    (htaplite.storage.Database, "switch_all", "storage.switch_all", None),
    (htaplite.storage.SwitchGate, "drain", "storage.gate_drain", None),
    (htaplite.rde, "compute_freshness_stats", "rde.freshness", None),
    (htaplite.rde, "sync_pass", "rde.sync_pass", _count_sync),
    (htaplite.rde, "etl_delta", "rde.etl_delta", _count_etl),
    (htaplite.rde.RdeController, "migrate_state_s2", "rde.migrate", None),
    (htaplite.rde.RdeController, "migrate_state_s3", "rde.migrate", None),
    (htaplite.scheduler, "run_query", "scheduler.run_query", _count_migration),
    (htaplite.scheduler, "choose_access_paths", "olap.choose_access_paths", _count_paths),
    (htaplite.scheduler, "execute", _execute_name, _count_rows),
)


class _Lane:
    """One thread's open spans and running aggregates."""

    def __init__(self, thread_name):
        self.thread = thread_name
        self.stack = []            # open spans: [id, child seconds, name]
        self.request = None
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, total, self
        self.children = defaultdict(float)   # "parent name>name" -> seconds
        self.durations = defaultdict(list)
        self.counts = Counter()


class Tracer:
    """Installs span wrappers and aggregates what they record."""

    def __init__(self):
        self.spans = []
        self.counting = True      # fingerprint counters stop after the window
        self._lanes = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed = []

    # -- wrappers ---------------------------------------------------------

    def install(self, targets):
        for owner, attr, name, hook in targets:
            original = owner.__dict__.get(attr)
            if not callable(original):
                raise RuntimeError("trace target %s.%s is gone"
                                   % (getattr(owner, "__name__", owner), attr))
            setattr(owner, attr, self._wrap(original, name, hook))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, hook):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            lane = tracer._lane()
            span_name = name(args) if callable(name) else name
            frame = [next(tracer._ids), 0.0, span_name]
            parent = lane.stack[-1] if lane.stack else None
            lane.stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                lane.stack.pop()
                tracer._close(lane, span_name, frame, parent, start, end)
            if hook is not None and tracer.counting:
                hook(lane.counts, args, result)
            return result

        return traced

    def _lane(self):
        lane = getattr(self._local, "lane", None)
        if lane is None:
            lane = self._local.lane = _Lane(threading.current_thread().name)
            self._lanes.append(lane)
        return lane

    def _close(self, lane, name, frame, parent, start, end):
        duration = end - start
        stat = lane.stats[name]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        if name in MEDIAN_SPANS:
            lane.durations[name].append(duration)
        parent_id = None
        if parent is not None:
            parent[1] += duration
            parent_id = parent[0]
            lane.children[parent[2] + ">" + name] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], name, start, end, parent_id,
                               lane.request, lane.thread))

    # -- workload hooks ---------------------------------------------------

    def set_request(self, request):
        self._lane().request = request

    # -- results ----------------------------------------------------------

    def export(self):
        """This process's aggregates, as JSON-ready dicts."""
        stats, children, durations = _pool(
            (lane.stats, lane.children, lane.durations) for lane in self._lanes)
        counts = Counter()
        for lane in self._lanes:
            counts.update(lane.counts)
        return {"stats": stats, "children": children, "durations": durations,
                "counts": counts, "spans_kept": len(self.spans)}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, request, thread in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "thread": thread,
                }) + "\n")


def _pool(parts):
    """Sum (stats, child times, durations) over threads or segments."""
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    children = defaultdict(float)
    durations = defaultdict(list)
    for part_stats, part_children, part_durations in parts:
        for name, (calls, total, own) in part_stats.items():
            stat = stats[name]
            stat[0] += calls
            stat[1] += total
            stat[2] += own
        for key, seconds in part_children.items():
            children[key] += seconds
        for name, values in part_durations.items():
            durations[name].extend(values)
    return stats, children, durations


def combine(exports):
    """Pool the exports of several segments.

    Times, calls and durations add up; the fingerprint counts, which
    cover each segment's first admissions, are the median segment's.
    """
    stats, children, durations = _pool(
        (e["stats"], e["children"], e["durations"]) for e in exports)
    names = {name for export in exports for name in export["counts"]}
    counts = {name: statistics.median(export["counts"].get(name, 0) for export in exports)
              for name in names}
    return stats, children, durations, counts


def per_layer(stats, durations, counts):
    """The per-layer metrics the spans and counters give.

    `_s` metrics are totals over the run, `_ms` metrics are means per
    call except the `txn` ones, which are medians; counts are taken
    over the fingerprint window only.
    """
    def calls(name):
        return stats[name][0] if name in stats else 0

    def total(name):
        return stats[name][1] if name in stats else 0.0

    def mean_ms(name):
        return 1000.0 * total(name) / calls(name) if calls(name) else 0.0

    def median(name):
        values = durations.get(name)
        return statistics.median(values) if values else 0.0

    out = {
        "bench.load_s": median("bench.load"),
        "txn.new_order_ms": 1000.0 * median("txn.new_order"),
        "txn.commit_ms": 1000.0 * median("txn.commit"),
        "txn.lock_wait_s": total("txn.lock_acquire"),
        "storage.switch_all_ms": mean_ms("storage.switch_all"),
        "storage.gate_drain_s": total("storage.gate_drain"),
        "rde.freshness_ms": mean_ms("rde.freshness"),
        "rde.sync_pass_ms": mean_ms("rde.sync_pass"),
        "rde.etl_delta_ms": mean_ms("rde.etl_delta"),
        "olap.choose_access_paths_ms": mean_ms("olap.choose_access_paths"),
        "scheduler.run_query_ms": mean_ms("scheduler.run_query"),
        "scheduler.self_ms": (1000.0 * stats["scheduler.run_query"][2]
                              / calls("scheduler.run_query")
                              if calls("scheduler.run_query") else 0.0),
    }
    for op in ("insert_committed", "update_committed", "read_latest"):
        out["storage.%s_s" % op] = total("storage." + op)
        out["storage.%s.calls" % op] = calls("storage." + op)
    for query in ("q1", "q6", "q19"):
        out["olap.execute.%s_ms" % query] = mean_ms("olap.execute." + query)
    for name in ("rde.rows_synced", "rde.etl_bytes", "rde.migrations.S2",
                 "rde.migrations.S3-IS", "olap.paths.local", "olap.paths.split",
                 "olap.paths.remote", "olap.rows_scanned"):
        out[name] = counts.get(name, 0)
    for layer in LAYERS:
        out["self_s." + layer] = sum(own for name, (_, _, own) in stats.items()
                                     if name.split(".")[0] == layer)
    return out


def run_query_accounting(stats, children):
    """run_query time split into its own time and each direct child's."""
    prefix = "scheduler.run_query>"
    run_query = stats.get("scheduler.run_query", [0, 0.0, 0.0])
    return {
        "run_query_s": run_query[1],
        "self_s": run_query[2],
        "children_s": {key[len(prefix):]: seconds for key, seconds in children.items()
                       if key.startswith(prefix)},
    }
