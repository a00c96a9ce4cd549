"""Transaction manager and elastic OLTP worker pool.

Two-phase locking with write locks only. Deadlock avoidance is a
static global lock order: resources are (table ordinal, row id)
tuples, and a transaction that requests a lock below its current
high-water resource aborts immediately instead of waiting, so no
wait-for cycle can form. Writes are buffered in the transaction and
applied to storage in one commit-gate section, which is what makes a
frozen snapshot see all of a transaction or none of it.
"""

import itertools
import random
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from operator import attrgetter

from .storage import KeyCollisionError

# stock primary keys are warehouse * span + item, so item ids must stay below this
STOCK_KEY_SPAN = 1_000_000


class TxnAborted(Exception):
    """Deadlock avoidance fired: lock requested out of global order."""


class UnknownItemError(Exception):
    pass


@dataclass
class TxnContext:
    txn_id: int
    start_ts: int
    pin_epoch: int
    locks_held: set = field(default_factory=set)
    write_set: list = field(default_factory=list)
    max_resource: tuple = None
    status: str = "active"


class LockManager:
    """Exclusive row locks keyed by (table ordinal, row id)."""

    def __init__(self):
        self._mu = threading.Lock()
        self._cv = threading.Condition(self._mu)
        self._owner = {}

    def acquire(self, txn_id, resource):
        with self._cv:
            while self._owner.get(resource, txn_id) != txn_id:
                self._cv.wait()
            self._owner[resource] = txn_id

    def release_all(self, txn_id, resources):
        with self._cv:
            for res in resources:
                if self._owner.get(res) == txn_id:
                    del self._owner[res]
            self._cv.notify_all()


class TransactionManager:
    def __init__(self, db):
        self.db = db
        self.locks = LockManager()
        self._txn_ids = itertools.count(1)
        self._commit_ids = itertools.count(1)
        self._last_commit_ts = 0

    def begin(self):
        return TxnContext(
            txn_id=next(self._txn_ids),
            start_ts=self._last_commit_ts,
            pin_epoch=self.db.gate.pin(),
        )

    def lock(self, ctx, store, row_id):
        """Take the row's write lock, enforcing ascending resource order."""
        resource = (store.ordinal, row_id)
        if resource in ctx.locks_held:
            return
        if ctx.max_resource is not None and resource < ctx.max_resource:
            raise TxnAborted("lock %r requested after %r" % (resource, ctx.max_resource))
        self.locks.acquire(ctx.txn_id, resource)
        ctx.locks_held.add(resource)
        ctx.max_resource = resource

    def read(self, ctx, store, key):
        return store.read_latest(key)

    def buffer_insert(self, ctx, store, row):
        ctx.write_set.append(("insert", store, row))

    def buffer_update(self, ctx, store, row_id, deltas):
        assert (store.ordinal, row_id) in ctx.locks_held, "update without its write lock"
        ctx.write_set.append(("update", store, row_id, deltas))

    def commit(self, ctx):
        """Apply the buffered write set atomically and release everything.

        The whole write set is checked once, before any of it is applied:
        a bad row (wrong arity, unknown row id or column, insert key
        already in the table or repeated in the set) raises with nothing
        applied and the transaction aborted. The commit holds one commit
        section of the gate and, taken in table-ordinal order, the append
        lock of every table it inserts into, from the check through the
        last insert; so of two transactions inserting the same new key,
        the second fails the check. Inside, the ops go to the stores'
        apply methods, which neither check again nor re-enter the gate.
        Locks and the epoch pin are released however the commit ends, so
        a failed commit cannot block a switch.
        """
        write_set = ctx.write_set
        appending = sorted({op[1] for op in write_set if op[0] == "insert"},
                           key=attrgetter("ordinal"))
        try:
            with self.db.gate.commit_section(), ExitStack() as held:
                for store in appending:
                    held.enter_context(store.append_lock)
                self._check_write_set(write_set)
                ts = next(self._commit_ids)
                for op in write_set:
                    if op[0] == "insert":
                        op[1].apply_insert(op[2])
                    else:
                        op[1].apply_update(op[2], op[3], ts)
                self._last_commit_ts = ts
            ctx.status = "committed"
            return ts
        except BaseException:
            ctx.status = "aborted"
            ctx.write_set.clear()
            raise
        finally:
            self._finish(ctx)

    @staticmethod
    def _check_write_set(write_set):
        new_keys = set()
        for op in write_set:
            store = op[1]
            if op[0] == "insert":
                key = store.check_insert(op[2])
                if key in store.index or (store.name, key) in new_keys:
                    raise KeyCollisionError("duplicate key %r in table %r"
                                            % (key, store.name))
                new_keys.add((store.name, key))
            else:
                store.check_update(op[2], op[3])

    def abort(self, ctx):
        ctx.status = "aborted"
        ctx.write_set.clear()
        self._finish(ctx)

    def _finish(self, ctx):
        self.locks.release_all(ctx.txn_id, ctx.locks_held)
        ctx.locks_held = set()
        self.db.gate.unpin(ctx.pin_epoch)


@dataclass
class NewOrderParams:
    warehouse_id: int
    order_id: int
    entry_d: int
    item_ids: list
    quantities: list

    @property
    def order_line_count(self):
        return len(self.item_ids)


def stock_key(warehouse_id, item_id):
    return warehouse_id * STOCK_KEY_SPAN + item_id


def execute_new_order(mgr, ctx, params, db):
    """Run one NewOrder against the engine; returns "commit" or "abort".

    Inserts one Orders row and one OrderLine row per line, and
    decrements the per-line Stock quantities. Stock rows are locked in
    ascending row-id order before any read, so concurrent NewOrders
    serialize per stock row and quantity is conserved exactly.
    """
    orders = db.table("orders")
    orderline = db.table("orderline")
    stock = db.table("stock")
    item = db.table("item")

    need = {}
    for item_id, qty in zip(params.item_ids, params.quantities):
        need[item_id] = need.get(item_id, 0) + qty

    stock_rows = {}
    for item_id in need:
        hit = stock.index.get(stock_key(params.warehouse_id, item_id))
        if hit is None:
            mgr.abort(ctx)
            raise UnknownItemError("no stock for item %d in warehouse %d"
                                   % (item_id, params.warehouse_id))
        stock_rows[item_id] = hit[0]

    try:
        for item_id in sorted(need, key=stock_rows.get):
            mgr.lock(ctx, stock, stock_rows[item_id])
        for item_id, qty in need.items():
            row_id = stock_rows[item_id]
            current = stock.read_latest(stock_key(params.warehouse_id, item_id))
            mgr.buffer_update(ctx, stock, row_id, {"s_quantity": current[1] - qty})
    except TxnAborted:
        mgr.abort(ctx)
        return "abort"

    mgr.buffer_insert(ctx, orders, (params.order_id, params.warehouse_id,
                                    params.entry_d, params.order_line_count))
    for number, (item_id, qty) in enumerate(zip(params.item_ids, params.quantities), start=1):
        price_row = item.read_latest(item_id)
        amount = float(price_row[1]) * qty
        mgr.buffer_insert(ctx, orderline, (
            params.order_id * 16 + number,   # line numbers stay below 16
            params.order_id,
            number,
            item_id,
            qty,
            amount,
            params.entry_d,
        ))
    mgr.commit(ctx)
    return "commit"


class NewOrderGenerator:
    """Deterministic NewOrder stream: warehouse round-robin, seeded items."""

    def __init__(self, seed, worker_id, warehouses, items, min_lines=5, max_lines=15):
        self._rng = random.Random("%d:%d" % (seed, worker_id))
        self.worker_id = worker_id
        self.warehouses = warehouses
        self.items = items
        self.min_lines = min_lines
        self.max_lines = max_lines
        self._seq = 0

    def next(self):
        seq = self._seq
        self._seq += 1
        lines = self._rng.randint(self.min_lines, self.max_lines)
        item_ids = self._rng.sample(range(self.items), min(lines, self.items))
        quantities = [self._rng.randint(1, 10) for _ in item_ids]
        return NewOrderParams(
            warehouse_id=(self.worker_id + seq) % self.warehouses,
            order_id=(self.worker_id << 32) | seq,
            entry_d=7000 + seq % 365,
            item_ids=item_ids,
            quantities=quantities,
        )


class _Worker(threading.Thread):
    def __init__(self, pool, worker_id, cpu_id, txn_budget):
        super().__init__(name="oltp-worker-%d" % worker_id, daemon=True)
        self.pool = pool
        self.worker_id = worker_id
        self.cpu_id = cpu_id        # logical affinity tag from the ledger
        self.txn_budget = txn_budget
        self.committed = 0
        self.aborted = 0
        self.stop_flag = False

    def run(self):
        try:
            self._run()
        except Exception as exc:
            self.pool._record_failure(exc)

    def _run(self):
        pool = self.pool
        gen = NewOrderGenerator(pool.seed, self.worker_id, pool.warehouses, pool.items)
        while not self.stop_flag:
            if self.txn_budget is not None and self.committed >= self.txn_budget:
                break
            params = gen.next()
            while True:
                ctx = pool.mgr.begin()
                outcome = execute_new_order(pool.mgr, ctx, params, pool.db)
                if outcome == "commit":
                    break
                self.aborted += 1
            self.committed += 1
            if pool.on_commit is not None:
                pool.on_commit(params)


class WorkerPool:
    """Elastic set of OLTP workers, one per granted CPU.

    A worker that raises stops; the pool keeps the first such exception
    and re-raises it from wait_budget_done and stop_all.
    """

    def __init__(self, mgr, db, seed=0, warehouses=1, items=100,
                 txn_budget=None, on_commit=None):
        self.mgr = mgr
        self.db = db
        self.seed = seed
        self.warehouses = warehouses
        self.items = items
        self.txn_budget = txn_budget
        self.on_commit = on_commit
        self._workers = {}          # cpu_id -> _Worker
        self._retired_committed = 0
        self._retired_aborted = 0
        self._next_worker_id = itertools.count()
        self._control = threading.Lock()
        self._started = time.monotonic()
        self._failure = None
        self._failure_mu = threading.Lock()

    @property
    def active_count(self):
        return len(self._workers)

    def set_worker_count(self, cpus):
        """Resize to exactly one worker per given CPU; graceful scale-down."""
        if not cpus:
            raise ValueError("the transactional side must keep at least one CPU")
        with self._control:
            wanted = set(cpus)
            for cpu in list(self._workers):
                if cpu not in wanted:
                    w = self._workers.pop(cpu)
                    w.stop_flag = True
                    w.join()
                    self._retired_committed += w.committed
                    self._retired_aborted += w.aborted
            for cpu in sorted(wanted):
                if cpu not in self._workers:
                    w = _Worker(self, next(self._next_worker_id), cpu, self.txn_budget)
                    self._workers[cpu] = w
                    w.start()

    def committed_count(self):
        return self._retired_committed + sum(w.committed for w in self._workers.values())

    def aborted_count(self):
        return self._retired_aborted + sum(w.aborted for w in self._workers.values())

    def throughput_snapshot(self):
        return self.committed_count(), time.monotonic() - self._started

    def _record_failure(self, exc):
        with self._failure_mu:
            if self._failure is None:
                self._failure = exc

    def _raise_failure(self):
        if self._failure is not None:
            raise self._failure

    def wait_budget_done(self, timeout=None):
        """Join workers that run on a fixed transaction budget.

        Returns whether every worker has ended; raises the first
        exception a worker died of.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for w in list(self._workers.values()):
            w.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
        self._raise_failure()
        return all(not w.is_alive() for w in self._workers.values())

    def stop_all(self):
        """Stop and join every worker; raises the first exception a worker died of."""
        with self._control:
            for cpu in list(self._workers):
                w = self._workers.pop(cpu)
                w.stop_flag = True
                w.join()
                self._retired_committed += w.committed
                self._retired_aborted += w.aborted
        self._raise_failure()
