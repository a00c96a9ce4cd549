"""Twin-instance columnar storage.

Every table keeps two full physical copies of its data. The active copy
takes all transactional writes; the other is handed to the analytical
side as a frozen snapshot. A switch swaps the roles at a quiescent
point, so a snapshot is always a transactionally consistent prefix:
inserts land in both copies but only become visible through the
inactive copy after the next switch, and updates are tracked with
per-row indication bits so the copies can be re-converged cheaply.
"""

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat

import numpy as np

CHUNK_ROWS = 4096   # physical growth unit; also the scan block size
_STRIPES = 64


class StorageError(Exception):
    pass


class SchemaError(StorageError):
    pass


class KeyCollisionError(StorageError):
    pass


_KIND_DTYPES = {
    "int64": np.dtype(np.int64),
    "float64": np.dtype(np.float64),
    "date64": np.dtype(np.int64),   # days since epoch, kept as plain ints
}


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str       # "int64" | "float64" | "date64" | "str"
    width: int = 0  # bytes, fixed-width strings only

    def dtype(self):
        if self.kind == "str":
            if self.width <= 0:
                raise SchemaError("fixed-width string column %r needs a width" % self.name)
            return np.dtype("S%d" % self.width)
        try:
            return _KIND_DTYPES[self.kind]
        except KeyError:
            raise SchemaError("unsupported column kind %r" % self.kind) from None

    @property
    def byte_width(self):
        return self.dtype().itemsize


class ChunkedColumn:
    """Append-only column backed by fixed-size chunks.

    Growth allocates new chunks and never moves existing ones, so a
    reader holding a frozen snapshot can keep scanning while writers
    append above the snapshot fence.
    """

    def __init__(self, dtype, reserve_rows=0):
        self.dtype = dtype
        self.chunks = []
        if reserve_rows:
            self.ensure(reserve_rows)

    def ensure(self, rows):
        while len(self.chunks) * CHUNK_ROWS < rows:
            self.chunks.append(np.zeros(CHUNK_ROWS, dtype=self.dtype))

    def write(self, row_id, value):
        self.chunks[row_id // CHUNK_ROWS][row_id % CHUNK_ROWS] = value

    def read(self, row_id):
        return self.chunks[row_id // CHUNK_ROWS].item(row_id % CHUNK_ROWS)

    def write_range(self, start, values):
        """Bulk-assign values to rows [start, start+len)."""
        self.ensure(start + len(values))
        taken = 0
        while taken < len(values):
            ci, off = divmod(start + taken, CHUNK_ROWS)
            take = min(CHUNK_ROWS - off, len(values) - taken)
            self.chunks[ci][off:off + take] = values[taken:taken + take]
            taken += take

    def copy_rows_from(self, src, rows):
        """Copy the cells of the given rows from a column of the same shape.

        One fancy-index assignment per chunk touched; rows is any
        iterable of row ids, in any order.
        """
        rows = np.fromiter(rows, dtype=np.int64)
        chunk_ids = rows // CHUNK_ROWS
        for ci in np.unique(chunk_ids).tolist():
            offsets = rows[chunk_ids == ci] - ci * CHUNK_ROWS
            self.chunks[ci][offsets] = src.chunks[ci][offsets]

    def blocks(self, start, stop):
        """Yield (row_offset, array view) pieces covering [start, stop)."""
        row = start
        while row < stop:
            ci, off = divmod(row, CHUNK_ROWS)
            take = min(CHUNK_ROWS - off, stop - row)
            yield row, self.chunks[ci][off:off + take]
            row += take

    def slice(self, start, stop):
        parts = [v for _, v in self.blocks(start, stop)]
        if not parts:
            return np.empty(0, dtype=self.dtype)
        if len(parts) == 1:
            return parts[0].copy()
        return np.concatenate(parts)


class Instance:
    """One physical copy of a table."""

    __slots__ = ("id", "epoch", "columns", "committed_count")

    def __init__(self, instance_id, schema, reserve_rows=0):
        self.id = instance_id
        self.epoch = 0
        self.columns = {c.name: ChunkedColumn(c.dtype(), reserve_rows) for c in schema}
        self.committed_count = 0


class UpdateBitmap:
    """One flag byte per row.

    Single-byte loads and stores are indivisible under the interpreter
    lock, so set/test/clear never observe torn state; only growth takes
    a lock. A whole byte per row is deliberate: packed bits would need
    read-modify-write on shared bytes, and a byte array is what numpy
    scans for the set flags in one pass.
    """

    def __init__(self, reserve=0):
        self._flags = bytearray(reserve)
        self._grow_mu = threading.Lock()

    def grow_to(self, rows):
        if len(self._flags) < rows:
            with self._grow_mu:
                if len(self._flags) < rows:
                    self._flags.extend(b"\0" * (rows - len(self._flags)))

    def set(self, row_id):
        self._flags[row_id] = 1

    def clear(self, row_id):
        self._flags[row_id] = 0

    def test(self, row_id):
        return bool(self._flags[row_id])

    def set_rows(self, limit=None):
        """Row ids with the flag set, ascending, scanned up to limit.

        Scans a bytes copy of the flags: while a buffer view of the live
        bytearray exists, growing it raises BufferError, and a commit may
        grow it at any moment.
        """
        n = len(self._flags)
        if limit is not None:
            n = min(n, limit)
        flags = np.frombuffer(bytes(self._flags), dtype=np.uint8, count=n)
        return np.flatnonzero(flags).tolist()


@dataclass
class DeltaVersion:
    row_id: int
    column_values: dict   # prior values of the columns the update touched
    commit_ts: int


@dataclass
class SwitchStats:
    epoch: int
    per_column: dict      # name -> (record_count_at_switch, has_updates)

    @property
    def record_count(self):
        return next(iter(self.per_column.values()))[0]

    def has_updates(self, column):
        return self.per_column[column][1]

    @property
    def any_updates(self):
        return any(flag for _, flag in self.per_column.values())


class FrozenSnapshot:
    """Immutable view of an instance as of one switch instant.

    Rows below committed_count are stable forever: later inserts land
    above the fence and later updates go to the other (active) copy.
    """

    __slots__ = ("instance", "committed_count", "epoch", "schema")

    def __init__(self, instance, committed_count, epoch, schema):
        self.instance = instance
        self.committed_count = committed_count
        self.epoch = epoch
        self.schema = schema

    def column(self, name):
        return self.instance.columns[name]

    def blocks(self, name, start=0, stop=None):
        fence = self.committed_count if stop is None else min(stop, self.committed_count)
        return self.instance.columns[name].blocks(start, fence)

    def read_cell(self, name, row_id):
        return self.instance.columns[name].read(row_id)

    def read_row(self, row_id):
        return tuple(self.instance.columns[c.name].read(row_id) for c in self.schema)


class SwitchGate:
    """Rendezvous between transaction commits and instance switches.

    Two mechanisms share this object:

    * Commit sections. Every transaction applies its buffered writes
      inside a shared section, and a switch runs its flip and its
      freeze inside exclusive sections. The freeze therefore observes
      either all of a transaction's rows or none of them, across every
      table behind the same gate; that is what makes a multi-table
      frozen snapshot transactionally consistent.

    * Epoch pins. A transaction pins the gate epoch current at its
      begin and unpins at commit or abort. After flipping, the switcher
      drains every pin at or below the flipped epoch, so no worker can
      still hold a reference to the newly inactive copy when the
      snapshot is frozen and returned.

    The freeze instant, not the flip, is the switch instant. Stragglers
    that began before the flip finish against the new active copy and
    their rows are counted into the snapshot.
    """

    def __init__(self):
        self._mu = threading.Lock()
        self._cv = threading.Condition(self._mu)
        self._shared = 0
        self._exclusive = False
        self._excl_waiting = 0
        self._epoch = 0
        self._pins = {}   # gate epoch -> live transactions begun there
        self._local = threading.local()

    @property
    def epoch(self):
        return self._epoch

    def pin(self):
        with self._mu:
            e = self._epoch
            self._pins[e] = self._pins.get(e, 0) + 1
            return e

    def unpin(self, epoch):
        with self._cv:
            n = self._pins[epoch] - 1
            if n:
                self._pins[epoch] = n
            else:
                del self._pins[epoch]
            self._cv.notify_all()

    @contextmanager
    def commit_section(self):
        # reentrant per thread, so a transaction's apply loop can call
        # single-row store methods that also gate themselves
        depth = getattr(self._local, "depth", 0)
        if depth:
            self._local.depth = depth + 1
            try:
                yield
            finally:
                self._local.depth -= 1
            return
        with self._cv:
            while self._exclusive or self._excl_waiting:
                self._cv.wait()
            self._shared += 1
        self._local.depth = 1
        try:
            yield
        finally:
            self._local.depth = 0
            with self._cv:
                self._shared -= 1
                self._cv.notify_all()

    @contextmanager
    def exclusive_section(self):
        with self._cv:
            self._excl_waiting += 1
            while self._exclusive or self._shared:
                self._cv.wait()
            self._excl_waiting -= 1
            self._exclusive = True
        try:
            yield
        finally:
            with self._cv:
                self._exclusive = False
                self._cv.notify_all()

    def advance_epoch(self):
        # callers hold an exclusive section around the flip
        self._epoch += 1
        return self._epoch

    def drain(self, up_to_epoch):
        """Block until no transaction pinned at or below up_to_epoch survives."""
        with self._cv:
            while any(e <= up_to_epoch for e in self._pins):
                self._cv.wait()


class TwinStore:
    """One table: two instances, update bits, version chains, key index.

    The index maps a primary key to (row_id, instance id) where the
    instance id names the copy holding the newest committed value.
    Update tracking runs in two generations. The per-row bitmap feeds
    the twin-convergence pass after a switch and is cleared by it. The
    per-column dirty row sets feed analytical freshness accounting and
    are only cleared by an extract step; they are sealed at each switch
    so that rows updated after the snapshot was cut are never mistaken
    for rows the snapshot already covers.

    Writes come in two layers. `insert_committed` and `update_committed`
    check one op, enter a commit section of the gate and apply it; an
    insert also holds `append_lock` from its key check to the append.
    `apply_insert` and `apply_update` are the same writes without the
    check and the gate, for a caller that already holds a commit section
    and has checked the op: a transaction commit checks its whole write
    set once and applies it inside the one section it holds. Beside
    them, `bulk_load` appends a whole batch of rows given by column:
    it checks the batch, then writes it in one commit section, with
    the same result as inserting its rows one by one.
    """

    def __init__(self, schema, capacity_hint=0, key_column=None, name="table",
                 ordinal=0, gate=None, delta_retention=None):
        if not schema:
            raise SchemaError("empty schema")
        names = [c.name for c in schema]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column name")
        for c in schema:
            c.dtype()   # validates kind and width up front
        self.schema = tuple(schema)
        self.name = name
        self.ordinal = ordinal
        self.key_column = key_column or names[0]
        if self.key_column not in names:
            raise SchemaError("key column %r not in schema" % self.key_column)
        self._key_pos = names.index(self.key_column)

        self.gate = gate or SwitchGate()
        self.instances = (Instance(0, schema, capacity_hint),
                          Instance(1, schema, capacity_hint))
        # each instance's columns in schema order, for whole-row access
        self._row_columns = tuple(tuple(inst.columns[n] for n in names)
                                  for inst in self.instances)
        self.active = 0
        self.epoch = 0
        self.committed_rows = 0
        self.bitmap = UpdateBitmap(capacity_hint)
        self.deltas = {}    # row_id -> [DeltaVersion, ...] newest first
        self.index = {}     # key -> (row_id, instance id)
        self.current_frozen = None
        self.delta_retention = delta_retention

        # live: updates since the last switch; sealed: updates covered by
        # the current frozen snapshot but not yet extracted
        self._live_dirty = {n: set() for n in names}
        self._sealed_dirty = {n: set() for n in names}
        self._col_updated = {n: False for n in names}

        # held by every insert from its key check to its append, so a key
        # found absent stays absent until the row lands
        self.append_lock = threading.Lock()
        self._switch_mu = threading.Lock()
        self._stripes = tuple(threading.Lock() for _ in range(_STRIPES))
        self._commit_seq = 0

    # -- row width helpers ------------------------------------------------

    @property
    def row_bytes(self):
        return sum(c.byte_width for c in self.schema)

    def column_schema(self, name):
        for c in self.schema:
            if c.name == name:
                return c
        raise SchemaError("unknown column %r in table %r" % (name, self.name))

    @property
    def inactive(self):
        return self.instances[1 - self.active]

    def stripe(self, row_id):
        return self._stripes[row_id % _STRIPES]

    def _copy_row(self, row_id, src):
        """Copy every cell of a row from instance src onto the active one."""
        ci, off = divmod(row_id, CHUNK_ROWS)
        for dst_col, src_col in zip(self._row_columns[self.active], self._row_columns[src]):
            dst_col.chunks[ci][off] = src_col.chunks[ci][off]

    # -- OLTP write path ---------------------------------------------------

    def check_insert(self, row):
        """Validate a row's arity; returns its primary key."""
        if len(row) != len(self.schema):
            raise SchemaError("row arity %d != schema arity %d" % (len(row), len(self.schema)))
        return row[self._key_pos]

    def check_update(self, row_id, column_deltas):
        """Validate an update's row id and column names."""
        if not (0 <= row_id < self.committed_rows):
            raise StorageError("unknown row_id %d in table %r" % (row_id, self.name))
        for n in column_deltas:
            if n not in self._live_dirty:
                raise SchemaError("unknown column %r in table %r" % (n, self.name))
            if n == self.key_column:
                raise SchemaError("primary key column is immutable")

    def insert_committed(self, row):
        """Append a committed row to both instances; returns its row id.

        Visible immediately through the index, but not through the
        inactive copy until the next switch. Pure inserts set no update
        bit; their freshness travels in the committed-count watermark.
        """
        key = self.check_insert(row)
        with self.gate.commit_section(), self.append_lock:
            if key in self.index:
                raise KeyCollisionError("duplicate key %r in table %r" % (key, self.name))
            return self.apply_insert(row)

    def apply_insert(self, row):
        """insert_committed without its check, gate and lock.

        The caller holds a commit section and `append_lock`, and has
        checked the row's arity and that its key is not in the index.
        """
        row_id = self.committed_rows
        ci, off = divmod(row_id, CHUNK_ROWS)
        need = row_id + 1
        if off == 0:    # the row opens a chunk, which may not exist yet
            for columns in self._row_columns:
                for col in columns:
                    col.ensure(need)
            self.bitmap.grow_to((ci + 1) * CHUNK_ROWS)
        for columns in self._row_columns:
            for col, value in zip(columns, row):
                col.chunks[ci][off] = value
        self.index[row[self._key_pos]] = (row_id, self.active)
        self.committed_rows = need
        return row_id

    def bulk_load(self, columns):
        """Append committed rows given as one sequence per schema column.

        The same state as inserting the rows one by one through
        insert_committed, in order. The whole batch is checked (column
        count, equal lengths, keys unique in the batch and absent from
        the index) and converted to the column dtypes before anything
        lands, so a bad batch raises with nothing applied.
        """
        if len(columns) != len(self.schema):
            raise SchemaError("%d columns given, schema has %d"
                              % (len(columns), len(self.schema)))
        n = len(columns[0])
        if any(len(col) != n for col in columns):
            raise SchemaError("columns of unequal length")
        raw_keys = columns[self._key_pos]
        keys = raw_keys.tolist() if hasattr(raw_keys, "tolist") else list(raw_keys)
        if len(set(keys)) != n:
            raise KeyCollisionError("key repeated in a bulk load of table %r" % self.name)
        arrays = [np.asarray(col, dtype=c.dtype()) for c, col in zip(self.schema, columns)]
        with self.gate.commit_section(), self.append_lock:
            if not self.index.keys().isdisjoint(keys):
                clash = next(k for k in keys if k in self.index)
                raise KeyCollisionError("duplicate key %r in table %r" % (clash, self.name))
            start = self.committed_rows
            end = start + n
            for inst_columns in self._row_columns:
                for col, values in zip(inst_columns, arrays):
                    col.write_range(start, values)
            self.bitmap.grow_to(-(-end // CHUNK_ROWS) * CHUNK_ROWS)
            self.index.update(zip(keys, zip(range(start, end), repeat(self.active))))
            self.committed_rows = end

    def update_committed(self, row_id, column_deltas, commit_ts=None):
        """Apply committed column changes to the active instance.

        If the newest version of the row lives in the other instance
        (first touch after a switch), the whole row is pulled onto the
        active copy before the deltas land, so the active copy never
        holds a mixed-version row. Prior values go to the version chain,
        the update bit is set, and the index is retargeted.
        """
        self.check_update(row_id, column_deltas)
        with self.gate.commit_section():
            self.apply_update(row_id, column_deltas, commit_ts)

    def apply_update(self, row_id, column_deltas, commit_ts=None):
        """update_committed without its check and gate.

        The caller holds a commit section, so the active copy cannot
        flip, and has checked the row id and columns. Takes the row's
        stripe lock.
        """
        ci, off = divmod(row_id, CHUNK_ROWS)
        with self._stripes[row_id % _STRIPES]:
            columns = self.instances[self.active].columns
            key = columns[self.key_column].chunks[ci].item(off)
            _, tag = self.index[key]
            if tag != self.active:
                self._copy_row(row_id, tag)
            if commit_ts is None:
                self._commit_seq += 1
                commit_ts = self._commit_seq
            prior = {}
            for n, value in column_deltas.items():
                chunk = columns[n].chunks[ci]
                prior[n] = chunk.item(off)
                chunk[off] = value
            chain = self.deltas.setdefault(row_id, [])
            chain.insert(0, DeltaVersion(row_id, prior, commit_ts))
            if self.delta_retention is not None and len(chain) > self.delta_retention:
                del chain[self.delta_retention:]
            self.bitmap.set(row_id)
            for n in column_deltas:
                self._col_updated[n] = True
                self._live_dirty[n].add(row_id)
            self.index[key] = (row_id, self.active)

    # -- OLTP read path ----------------------------------------------------

    def read_latest(self, key):
        """Newest committed values for the key, or None when absent."""
        hit = self.index.get(key)
        if hit is None:
            return None
        row_id, _ = hit
        with self._stripes[row_id % _STRIPES]:
            row_id, tag = self.index[key]
            ci, off = divmod(row_id, CHUNK_ROWS)
            return tuple([col.chunks[ci].item(off) for col in self._row_columns[tag]])

    # -- switch protocol ---------------------------------------------------

    def switch(self):
        """Swap active/inactive at a quiescent point; single store form."""
        out = switch_tables([self])
        return out[self.name]

    # -- twin convergence helpers (driven by the exchange layer) -----------

    def sync_row(self, row_id):
        """Converge one updated row onto the active instance.

        The index tag names the copy holding the newest committed value.
        When that is already the active copy (the row was rewritten after
        the switch, or an earlier pass never ran and the roles wrapped
        around), copying from the inactive side would resurrect an older
        value; such rows are skipped and their bit stays set for the next
        pass. Returns True when the copy happened.
        """
        with self.stripe(row_id):
            active = self.instances[self.active]
            key = active.columns[self.key_column].read(row_id)
            _, tag = self.index[key]
            if tag == self.active:
                return False
            self._copy_row(row_id, tag)
            self.bitmap.clear(row_id)
            return True

    # -- extract-side dirty tracking ----------------------------------------

    def sealed_dirty_rows(self, column):
        """Rows of a column updated at or before the last switch and not yet extracted."""
        return self._sealed_dirty[column]

    def live_dirty_rows(self, column):
        """Copy of the rows of a column updated since the last switch.

        Not extractable yet. A copy because committing writers add to the
        live set while readers hold no lock: a set is copied in one step
        under the interpreter lock, while a Python loop over the live set
        can see it change size and fail.
        """
        return self._live_dirty[column].copy()

    def consume_sealed_dirty(self, column, rows):
        self._sealed_dirty[column] -= rows


def switch_tables(stores):
    """Switch every given table behind one shared gate at a single instant.

    Returns {table name: (FrozenSnapshot, SwitchStats)}. The flip bumps
    each store's epoch and seals its live dirty sets; the freeze, taken
    after the pin drain, fixes the committed counts. Stats flags describe
    exactly the epoch that just closed: updates by stragglers during the
    drain belong to the new epoch and stay live.
    """
    if not stores:
        return {}
    gate = stores[0].gate
    for st in stores:
        if st.gate is not gate:
            raise StorageError("tables behind different gates cannot switch together")
    grabbed = []
    try:
        for st in stores:
            if not st._switch_mu.acquire(blocking=False):
                raise StorageError("switch already in flight on table %r" % st.name)
            grabbed.append(st)

        captured = {}
        with gate.exclusive_section():
            fence = gate.epoch
            gate.advance_epoch()
            for st in stores:
                st.active ^= 1
                st.epoch += 1
                st.instances[st.active].epoch = st.epoch
                captured[st.name] = dict(st._col_updated)
                for n in st._col_updated:
                    st._col_updated[n] = False
                for n, rows in st._live_dirty.items():
                    st._sealed_dirty[n] |= rows
                    st._live_dirty[n] = set()

        gate.drain(fence)

        out = {}
        with gate.exclusive_section():
            for st in stores:
                col_flags = captured[st.name]
                count = st.committed_rows
                inact = st.instances[1 - st.active]
                # stragglers commit between flip and freeze: their inserts
                # land in both copies, but their updates hit the new active
                # copy only; fold those cells in here or the snapshot would
                # show a transaction's inserts without its updates
                active = st.instances[st.active]
                for col, rows in st._live_dirty.items():
                    if rows:
                        inact.columns[col].copy_rows_from(active.columns[col], rows)
                inact.committed_count = count
                handle = FrozenSnapshot(inact, count, st.epoch, st.schema)
                st.current_frozen = handle
                stats = SwitchStats(
                    epoch=st.epoch,
                    per_column={c.name: (count, col_flags[c.name]) for c in st.schema},
                )
                out[st.name] = (handle, stats)
        return out
    finally:
        for st in grabbed:
            st._switch_mu.release()


class Database:
    """Tables sharing one switch gate.

    Sharing the gate is what lets a multi-table switch cut every table's
    snapshot at the same instant, so cross-table atomicity (an order and
    its lines) survives into the frozen world.
    """

    def __init__(self):
        self.gate = SwitchGate()
        self.tables = {}

    def create_table(self, name, schema, capacity_hint=0, key_column=None,
                     delta_retention=None):
        if name in self.tables:
            raise SchemaError("table %r already exists" % name)
        store = TwinStore(schema, capacity_hint, key_column=key_column, name=name,
                          ordinal=len(self.tables), gate=self.gate,
                          delta_retention=delta_retention)
        self.tables[name] = store
        return store

    def table(self, name):
        return self.tables[name]

    def switch_all(self):
        return switch_tables(list(self.tables.values()))
