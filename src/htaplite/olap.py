"""Vectorized analytical executor over frozen snapshots.

Queries run over a logical snapshot: the analytical copy below its
watermark plus, when the plan allows, the frozen transactional
instance. Three per-column access paths cover the cases:

  LOCAL   the analytical copy alone (column fully synced),
  REMOTE  the frozen transactional instance for every row,
  SPLIT   analytical copy for [0, watermark), frozen tail above it.

Execution is interpreted and vectorized over fixed-size blocks; there
is no code generation. Within a block every step is an array
operation: group-by codes rows by key offset or with np.unique and
aggregates every group at once, and the join looks fact keys up in a
dimension table built once per query. Workers pull blocks from a
locality-aware queue, and per-block partials are reduced in block
order, so results are identical for any worker count.
"""

import enum
import threading
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .storage import CHUNK_ROWS, ChunkedColumn

BLOCK_ROWS = CHUNK_ROWS    # block == chunk keeps most reads zero-copy
# a direct-address join table, or a group-by coding by key offset, may
# hold at most this many slots per key
DENSE_SPAN_FACTOR = 4

SHAPES = ("scan-filter-reduce", "scan-filter-groupby", "fact-dimension-join")
AGG_OPS = ("sum", "count", "avg", "min")


class OlapError(Exception):
    pass


class PlanError(OlapError):
    pass


class KindMismatchError(OlapError):
    """Aggregate op applied to a column kind it cannot reduce."""


class EpochMismatchError(OlapError):
    """Freshness stats and system state disagree on the snapshot epoch."""


class AccessPath(enum.Enum):
    LOCAL = "local"
    REMOTE = "remote"
    SPLIT = "split"


@dataclass(frozen=True)
class Predicate:
    """Conjunction of closed-interval conditions, one per column.

    conditions: tuple of (column, lo, hi); None bounds are open ends.
    An empty conjunction keeps every row (100% selectivity).
    """

    conditions: tuple = ()

    def columns(self):
        return [c for c, _, _ in self.conditions]

    def mask(self, arrays):
        """Rows every condition keeps, or None when no bound is set."""
        bounds = []
        for col, lo, hi in self.conditions:
            v = arrays[col]
            if lo is not None:
                bounds.append(v >= lo)
            if hi is not None:
                bounds.append(v <= hi)
        if not bounds:
            return None
        out = bounds[0]
        for m in bounds[1:]:
            out &= m
        return out


@dataclass(frozen=True)
class Join:
    fact_table: str
    dim_table: str
    fact_key: str
    dim_key: str


@dataclass
class QueryPlan:
    """One of three fixed query shapes over scanned columns.

    scans: list of (table, columns, Predicate or None).
    aggregates: list of (column, op).
    """

    name: str
    shape: str
    scans: list
    aggregates: list
    groupby_keys: tuple = ()
    join: Join = None

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise PlanError("unknown shape %r" % self.shape)
        scanned = {}
        for table, columns, pred in self.scans:
            scanned.setdefault(table, set()).update(columns)
            if pred is not None:
                missing = set(pred.columns()) - set(columns)
                if missing:
                    raise PlanError("predicate columns %r not scanned" % sorted(missing))
        all_scanned = set()
        for cols in scanned.values():
            all_scanned |= cols
        for col, op in self.aggregates:
            if op not in AGG_OPS:
                raise PlanError("unknown aggregate op %r" % op)
            if col not in all_scanned:
                raise PlanError("aggregate column %r not scanned" % col)
        for key in self.groupby_keys:
            if key not in all_scanned:
                raise PlanError("groupby key %r not scanned" % key)
        if self.shape == "fact-dimension-join":
            if self.join is None:
                raise PlanError("join shape needs a join clause")
            if self.join.fact_key not in scanned.get(self.join.fact_table, ()):
                raise PlanError("fact key not scanned")
            if self.join.dim_key not in scanned.get(self.join.dim_table, ()):
                raise PlanError("dim key not scanned")
        elif self.join is not None:
            raise PlanError("join clause on a non-join shape")
        if self.shape == "scan-filter-groupby" and not self.groupby_keys:
            raise PlanError("groupby shape needs keys")
        if self.shape != "scan-filter-groupby" and self.groupby_keys:
            raise PlanError("groupby keys on a non-groupby shape")

    def scanned_columns(self):
        """Distinct (table, column) pairs this plan touches."""
        out = []
        seen = set()
        for table, columns, _ in self.scans:
            for col in columns:
                if (table, col) not in seen:
                    seen.add((table, col))
                    out.append((table, col))
        return out

    def scan_for(self, table):
        for entry in self.scans:
            if entry[0] == table:
                return entry
        raise PlanError("no scan for table %r" % table)

    @property
    def fact_table(self):
        if self.join is not None:
            return self.join.fact_table
        return self.scans[0][0]


class OlapInstance:
    """Private analytical copy: per-table columns valid below a watermark."""

    def __init__(self):
        self.columns = {}      # table -> {name: ChunkedColumn}
        self.schema = {}       # table -> tuple of ColumnSchema
        self.watermark = {}    # table -> rows valid
        self.epoch_synced = -1

    def ensure_table(self, name, schema):
        if name not in self.columns:
            self.schema[name] = tuple(schema)
            self.columns[name] = {c.name: ChunkedColumn(c.dtype()) for c in schema}
            self.watermark[name] = 0

    def column(self, table, name):
        return self.columns[table][name]

    def append_from(self, table, frozen, stop):
        """Copy the insert tail [watermark, stop) from a frozen handle.

        Returns bytes copied (every column advances together).
        """
        self.ensure_table(table, frozen.schema)
        start = self.watermark[table]
        if stop < start:
            raise OlapError("watermark cannot move backwards")
        copied = 0
        for cs in self.schema[table]:
            dst = self.columns[table][cs.name]
            for off, view in frozen.blocks(cs.name, start, stop):
                dst.write_range(off, view)
            copied += (stop - start) * cs.byte_width
        self.watermark[table] = stop
        return copied

    def overwrite_from(self, table, frozen, column, rows):
        """Re-copy updated cells of one column from a frozen handle."""
        width = next(c.byte_width for c in self.schema[table] if c.name == column)
        self.columns[table][column].copy_rows_from(frozen.column(column), rows)
        return len(rows) * width


@dataclass
class AccessPathPlan:
    """Per-column path choices plus the rows each table contributes."""

    per_column: dict           # (table, column) -> AccessPath
    table_rows: dict           # table -> (watermark, oltp_count)
    execution_cpus: frozenset
    epoch: int = None

    def split_ranges(self, table):
        wm, cc = self.table_rows[table]
        return (0, wm), (wm, cc)

    def path(self, table, column):
        return self.per_column[(table, column)]


def choose_access_paths(plan, stats, state):
    """Assign LOCAL/REMOTE/SPLIT per scanned column from freshness stats.

    REMOTE whenever the column carries updates the analytical copy has
    not absorbed; SPLIT for insert-only tails; LOCAL only at freshness
    rate 1. Raises EpochMismatchError when the stats were taken for a
    different snapshot than the state describes.
    """
    if state.epoch != stats.epoch:
        raise EpochMismatchError("stats epoch %d vs state epoch %d"
                                 % (stats.epoch, state.epoch))
    per_column = {}
    table_rows = {}
    for table, col in plan.scanned_columns():
        wm = stats.watermark(table)
        cc = stats.oltp_count(table)
        table_rows[table] = (wm, cc)
        tail = cc - wm
        if stats.updated_rows(table, col) > 0:
            per_column[(table, col)] = AccessPath.REMOTE
        elif tail > 0:
            per_column[(table, col)] = AccessPath.SPLIT
        else:
            per_column[(table, col)] = AccessPath.LOCAL
    return AccessPathPlan(
        per_column=per_column,
        table_rows=table_rows,
        execution_cpus=frozenset(state.olap_cpus),
        epoch=stats.epoch,
    )


def fresh_bytes_for_query(plan, stats):
    """N_fq: bytes of fresh data among the columns this plan scans.

    Each physical cell counts once: tail rows in full, updated rows
    only below the watermark (tail rows already cover themselves).
    """
    total = 0
    for table, col in plan.scanned_columns():
        tail = stats.oltp_count(table) - stats.watermark(table)
        upd = stats.updated_rows(table, col)
        total += (tail + upd) * stats.column_width(table, col)
    return total


# -- execution ------------------------------------------------------------


@dataclass
class ResultSet:
    columns: tuple
    rows: list

    def scalar(self, label):
        return self.rows[0][self.columns.index(label)]


class _LocalityQueue:
    """Blocks bucketed by home socket; workers prefer their own, then steal."""

    def __init__(self):
        self._buckets = {}
        self._mu = threading.Lock()

    def push(self, socket, item):
        self._buckets.setdefault(socket, deque()).append(item)

    def pop(self, socket):
        with self._mu:
            bucket = self._buckets.get(socket)
            if bucket:
                return bucket.popleft()
            for other in sorted(self._buckets):
                if self._buckets[other]:
                    return self._buckets[other].popleft()
        return None


def _range_array(column, start, stop):
    pieces = [v for _, v in column.blocks(start, stop)]
    if not pieces:
        return np.empty(0, dtype=column.dtype)
    if len(pieces) == 1:
        return pieces[0]
    return np.concatenate(pieces)


def _read_column_block(table, col, start, stop, path_plan, olap, frozen):
    path = path_plan.path(table, col)
    wm, cc = path_plan.table_rows[table]
    stop = min(stop, cc)
    if path is AccessPath.REMOTE:
        return _range_array(frozen[table].column(col), start, stop)
    if path is AccessPath.LOCAL:
        return _range_array(olap.column(table, col), start, stop)
    # SPLIT: analytical copy below the watermark, frozen tail above
    if stop <= wm:
        return _range_array(olap.column(table, col), start, stop)
    if start >= wm:
        return _range_array(frozen[table].column(col), start, stop)
    low = _range_array(olap.column(table, col), start, wm)
    high = _range_array(frozen[table].column(col), wm, stop)
    return np.concatenate([low, high])


def _read_table(table, columns, path_plan, olap, frozen):
    _, cc = path_plan.table_rows[table]
    return {c: _read_column_block(table, c, 0, cc, path_plan, olap, frozen)
            for c in columns}


def _check_aggregate_kinds(plan, frozen):
    kinds = {}
    for table, _, _ in plan.scans:
        for cs in frozen[table].schema:
            kinds[cs.name] = cs.kind
    for col, op in plan.aggregates:
        if op != "count" and kinds.get(col) == "str":
            raise KindMismatchError("%s() over string column %r" % (op, col))


def _agg_partial(op, values):
    if op == "count":
        return len(values)
    if op == "sum":
        return values.sum().item() if len(values) else 0
    if op == "min":
        return values.min().item() if len(values) else None
    # avg carries (sum, count) until finalize
    return (values.sum().item() if len(values) else 0, len(values))


def _agg_merge(op, a, b):
    if op in ("count", "sum"):
        return a + b
    if op == "min":
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)
    return (a[0] + b[0], a[1] + b[1])


def _agg_final(op, acc):
    if op == "avg":
        s, n = acc
        return s / n if n else None
    return acc


def _block_spans(total):
    return [(start, min(start + BLOCK_ROWS, total))
            for start in range(0, total, BLOCK_ROWS)]


class _DimSide:
    """Dimension side of the join shape: filtered columns plus a key lookup.

    Built once per execute and shared read-only by the workers; misses
    drop the fact row (inner join). A repeated dimension key resolves to
    its first row.
    """

    def __init__(self, plan, path_plan, olap, frozen):
        join = plan.join
        table, columns, pred = plan.scan_for(join.dim_table)
        arrays = _read_table(table, columns, path_plan, olap, frozen)
        keep = pred.mask(arrays) if pred is not None else None
        if keep is not None:
            arrays = {c: v[keep] for c, v in arrays.items()}
        self.arrays = arrays
        self.lookup = KeyLookup(arrays[join.dim_key])


class KeyLookup:
    """Positions of fact keys among a dimension's keys.

    Integer keys whose range is at most DENSE_SPAN_FACTOR times their
    count get a direct-address table, one gather per block. Other keys
    are kept sorted, and each block binary-searches only its distinct
    keys: on numpy 2.4, searching 4,096 unsorted keys took about three
    times as long as sorting them with np.unique and searching the
    distinct ones.
    """

    def __init__(self, keys):
        self.sorted_keys, self.first = np.unique(keys, return_index=True)
        self.table = None
        if len(keys) and keys.dtype.kind == "i":
            lo = int(self.sorted_keys[0])
            span = int(self.sorted_keys[-1]) - lo + 1
            if span <= DENSE_SPAN_FACTOR * len(keys):
                # key k sits at slot k - base; the first and last slots
                # stay -1 and take every key outside the range, clipped
                self.base = lo - 1
                self.table = np.full(span + 2, -1, dtype=np.int64)
                self.table[self.sorted_keys - self.base] = self.first

    def __call__(self, fact_keys):
        """Return (matched mask, dimension row positions) for a block of keys.

        Positions of unmatched keys are meaningless.
        """
        if self.table is not None and fact_keys.dtype.kind == "i":
            pos = self.table.take(fact_keys - self.base, mode="clip")
            return pos >= 0, pos
        if len(self.sorted_keys) == 0:
            return np.zeros(len(fact_keys), dtype=bool), np.zeros(len(fact_keys), dtype=np.int64)
        uniq, inverse = np.unique(fact_keys, return_inverse=True)
        idx = np.minimum(np.searchsorted(self.sorted_keys, uniq), len(self.sorted_keys) - 1)
        matched = self.sorted_keys[idx] == uniq
        return matched[inverse], self.first[idx][inverse]


def _group_sums(code, values, groups):
    """Per-group sums: float columns through bincount, integer columns
    exactly in int64, so integer results stay Python ints."""
    if values.dtype.kind == "f":
        return np.bincount(code, weights=values, minlength=groups).tolist()
    sums = np.zeros(groups, dtype=np.int64)
    np.add.at(sums, code, values)
    return sums.tolist()


def _key_codes(key):
    """(code per row, value per code) for one group-by key column.

    Codes follow key order. An integer key whose span is at most
    DENSE_SPAN_FACTOR times its row count is coded as key - min, with
    no sort; other keys are coded by np.unique. Dense codes may leave
    slots unused, which _dense_groups drops.
    """
    if key.dtype.kind == "i":
        lo, hi = int(key.min()), int(key.max())
        if hi - lo + 1 <= DENSE_SPAN_FACTOR * len(key):
            return key - lo, np.arange(lo, hi + 1, dtype=key.dtype)
    uniq, code = np.unique(key, return_inverse=True)
    return code, uniq


def _dense_groups(code, slots):
    """(used codes ascending, each row's rank among them) for codes in [0, slots)."""
    if slots <= DENSE_SPAN_FACTOR * len(code):
        present = np.zeros(slots, dtype=bool)
        present[code] = True
        rank = np.cumsum(present) - 1
        return np.flatnonzero(present), rank[code]
    return np.unique(code, return_inverse=True)


def _groupby_block(plan, arrays):
    """{key tuple: aggregate partials} for one block's surviving rows.

    Keys are coded one by one and combined into a group code, which is
    made dense again after each key, so it stays below rows times the
    next key's slots. Group codes follow key-tuple order and rows keep
    their order, so every aggregate, one array operation over all
    groups, adds in the same order whatever the coding.
    """
    keys = [arrays[k] for k in plan.groupby_keys]
    n = len(keys[0])
    if n == 0:
        return {}
    code, groups = 0, 1
    key_slots = []   # per key: each group's code in that key's coding
    key_values = []
    for key in keys:
        codes, values = _key_codes(key)
        code = code * len(values) + codes
        used, code = _dense_groups(code, groups * len(values))
        key_slots = [slots[used // len(values)] for slots in key_slots]
        key_slots.append(used % len(values))
        key_values.append(values)
        groups = len(used)
    counts = np.bincount(code, minlength=groups).tolist()
    per_agg = []
    for col, op in plan.aggregates:
        values = arrays[col]
        if op == "count":
            per_agg.append(counts)
        elif op == "min":
            first = np.full(groups, n, dtype=np.int64)
            np.minimum.at(first, code, np.arange(n))
            mins = values[first]
            np.minimum.at(mins, code, values)
            per_agg.append(mins.tolist())
        elif op == "sum":
            per_agg.append(_group_sums(code, values, groups))
        else:   # avg carries (sum, count) until finalize
            per_agg.append(list(zip(_group_sums(code, values, groups), counts)))
    group_keys = zip(*(values[slots].tolist() for values, slots in zip(key_values, key_slots)))
    return dict(zip(group_keys, zip(*per_agg)))


def _eval_block(plan, path_plan, olap, frozen, start, stop, dim):
    fact = plan.fact_table
    _, columns, pred = plan.scan_for(fact)
    arrays = {c: _read_column_block(fact, c, start, stop, path_plan, olap, frozen)
              for c in columns}
    mask = pred.mask(arrays) if pred is not None else None

    if plan.shape == "fact-dimension-join":
        matched, dim_pos = dim.lookup(arrays[plan.join.fact_key])
        mask = matched if mask is None else (mask & matched)
        picked = None   # dimension rows of the kept fact rows, when needed
        out = []
        for col, op in plan.aggregates:
            if col in arrays:
                values = arrays[col][mask]
            else:
                if picked is None:
                    picked = dim_pos[mask]
                values = dim.arrays[col][picked]
            out.append(_agg_partial(op, values))
        return tuple(out)

    if plan.shape == "scan-filter-reduce":
        out = []
        for col, op in plan.aggregates:
            values = arrays[col] if mask is None else arrays[col][mask]
            out.append(_agg_partial(op, values))
        return tuple(out)

    # scan-filter-groupby
    if mask is not None:
        arrays = {c: v[mask] for c, v in arrays.items()}
    return _groupby_block(plan, arrays)


def _merge_partials(plan, partials):
    ops = [op for _, op in plan.aggregates]
    if plan.shape == "scan-filter-groupby":
        acc = {}
        for part in partials:
            for key, vals in part.items():
                if key in acc:
                    acc[key] = tuple(_agg_merge(op, a, b)
                                     for op, a, b in zip(ops, acc[key], vals))
                else:
                    acc[key] = vals
        labels = plan.groupby_keys + tuple("%s(%s)" % (op, col)
                                           for col, op in plan.aggregates)
        rows = [key + tuple(_agg_final(op, v) for op, v in zip(ops, vals))
                for key, vals in sorted(acc.items())]
        return ResultSet(columns=tuple(labels), rows=rows)

    acc = None
    for part in partials:
        if acc is None:
            acc = part
        else:
            acc = tuple(_agg_merge(op, a, b) for op, a, b in zip(ops, acc, part))
    if acc is None:
        acc = tuple(_agg_partial(op, np.empty(0, dtype=np.int64)) for op in ops)
    labels = tuple("%s(%s)" % (op, col) for col, op in plan.aggregates)
    return ResultSet(columns=labels,
                     rows=[tuple(_agg_final(op, v) for op, v in zip(ops, acc))])


def execute(plan, path_plan, olap, frozen, worker_count=None, topology=None):
    """Run the plan over the logical snapshot the path plan describes.

    frozen maps table name to its frozen handle. Partials are reduced
    in block order, so the result is independent of worker count and,
    because every path reads the same logical bytes, of path choice.
    """
    if path_plan.epoch is not None:
        for table, _, _ in plan.scans:
            if frozen[table].epoch != path_plan.epoch:
                raise EpochMismatchError(
                    "frozen handle for %r is epoch %d, plan expects %d"
                    % (table, frozen[table].epoch, path_plan.epoch))
    _check_aggregate_kinds(plan, frozen)

    # rows committed after the freeze wait for the next epoch
    fenced = {t: (wm, min(cc, frozen[t].committed_count))
              for t, (wm, cc) in path_plan.table_rows.items()}
    if fenced != path_plan.table_rows:
        path_plan = replace(path_plan, table_rows=fenced)

    fact = plan.fact_table
    wm, cc = path_plan.table_rows[fact]
    spans = _block_spans(cc)
    if worker_count is None:
        worker_count = max(1, len(path_plan.execution_cpus))
    workers = max(1, min(worker_count, len(spans) or 1))

    def home_socket(start):
        if topology is None:
            return 0
        # tail blocks live in the transactional instance's memory
        return topology.oltp_socket if start >= wm else topology.olap_socket

    queue = _LocalityQueue()
    for i, (start, stop) in enumerate(spans):
        queue.push(home_socket(start), (i, start, stop))

    results = [None] * len(spans)
    failures = []
    dim = (_DimSide(plan, path_plan, olap, frozen)
           if plan.shape == "fact-dimension-join" else None)

    def run(worker_socket):
        try:
            while True:
                item = queue.pop(worker_socket)
                if item is None:
                    return
                i, start, stop = item
                results[i] = _eval_block(plan, path_plan, olap, frozen,
                                         start, stop, dim)
        except BaseException as exc:   # surfaced after join
            failures.append(exc)

    if topology is None:
        sockets = [0] * workers
    else:
        cpus = sorted(path_plan.execution_cpus)
        sockets = [topology.socket_of(cpus[i % len(cpus)]) for i in range(workers)]

    if workers == 1:
        run(sockets[0])
    else:
        threads = [threading.Thread(target=run, args=(s,), name="olap-worker")
                   for s in sockets]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if failures:
        raise failures[0]
    return _merge_partials(plan, [r for r in results if r is not None])
