"""CH-benchmark-lite schema, deterministic data generation, and query plans.

A reduced order-entry schema: Warehouse, Item, Stock, Orders, OrderLine.
OrderLine cardinality follows the classic 6,001,215-row line-item count
scaled by scale_factor and shrunk by a desk-scale divisor, so the same
workload definition spans quick in-memory runs and full-scale cost
simulations. The initial load writes 15 lines per order; live NewOrder
traffic writes 5 to 15.
"""

import random
from array import array
from dataclasses import dataclass

import numpy as np

from .olap import Join, Predicate, QueryPlan
from .storage import ColumnSchema, Database
from .txn import STOCK_KEY_SPAN, stock_key

ORDERLINE_BASE_ROWS = 6_001_215
INITIAL_LOAD_LINES_PER_ORDER = 15
INITIAL_ORDER_BASE = 1 << 48    # keeps loader order ids clear of worker ids
INITIAL_STOCK_QUANTITY = 10_000

TABLE_SCHEMAS = {
    "warehouse": [ColumnSchema("w_id", "int64")],
    "item": [ColumnSchema("i_id", "int64"), ColumnSchema("i_price", "float64")],
    "stock": [ColumnSchema("s_id", "int64"), ColumnSchema("s_quantity", "int64")],
    "orders": [
        ColumnSchema("o_id", "int64"),
        ColumnSchema("o_w_id", "int64"),
        ColumnSchema("o_entry_d", "date64"),
        ColumnSchema("o_ol_cnt", "int64"),
    ],
    "orderline": [
        ColumnSchema("ol_id", "int64"),
        ColumnSchema("ol_o_id", "int64"),
        ColumnSchema("ol_number", "int64"),
        ColumnSchema("ol_i_id", "int64"),
        ColumnSchema("ol_quantity", "int64"),
        ColumnSchema("ol_amount", "float64"),
        ColumnSchema("ol_delivery_d", "date64"),
    ],
}


@dataclass
class BenchConfig:
    scale_factor: float = 1.0
    divisor: int = 10_000
    seed: int = 42

    @property
    def warehouses(self):
        return max(1, int(round(self.scale_factor)))

    @property
    def items(self):
        n = int(100_000 * self.scale_factor / self.divisor)
        return max(10, min(n, STOCK_KEY_SPAN - 1))

    @property
    def initial_orderline_rows(self):
        return int(self.scale_factor * ORDERLINE_BASE_ROWS / self.divisor)

    @property
    def initial_orders(self):
        return self.initial_orderline_rows // INITIAL_LOAD_LINES_PER_ORDER


def build_database(cfg):
    db = Database()
    hint = cfg.initial_orderline_rows + 1024
    for name, schema in TABLE_SCHEMAS.items():
        db.create_table(name, schema, capacity_hint=hint if name == "orderline" else 0)
    return db


def load_initial_data(db, cfg):
    """Populate all five tables deterministically from cfg.seed.

    Draws the random values in row order into one typed buffer per
    column, then appends each table with one bulk load.
    """
    rng = random.Random(cfg.seed)
    warehouses, items, orders = cfg.warehouses, cfg.items, cfg.initial_orders
    prices = array("d", [round(rng.uniform(1.0, 100.0), 2) for _ in range(items)])

    item_ids, quantities = array("q"), array("q")
    amounts, delivery = array("d"), array("q")
    randrange, randint = rng.randrange, rng.randint
    for seq in range(orders):
        entry_d = 7000 + seq % 365
        for _ in range(INITIAL_LOAD_LINES_PER_ORDER):
            item_id = randrange(items)
            qty = randint(1, 10)
            item_ids.append(item_id)
            quantities.append(qty)
            amounts.append(round(prices[item_id] * qty, 2))
            delivery.append(entry_d + randint(0, 30))

    w_ids = np.arange(warehouses)
    i_ids = np.arange(items)
    seqs = np.arange(orders)
    o_ids = INITIAL_ORDER_BASE + seqs
    numbers = np.tile(np.arange(1, INITIAL_LOAD_LINES_PER_ORDER + 1), orders)
    ol_o_ids = np.repeat(o_ids, INITIAL_LOAD_LINES_PER_ORDER)

    db.table("warehouse").bulk_load([w_ids])
    db.table("item").bulk_load([i_ids, prices])
    db.table("stock").bulk_load([
        stock_key(np.repeat(w_ids, items), np.tile(i_ids, warehouses)),
        np.full(warehouses * items, INITIAL_STOCK_QUANTITY)])
    db.table("orders").bulk_load([
        o_ids, seqs % warehouses, 7000 + seqs % 365,
        np.full(orders, INITIAL_LOAD_LINES_PER_ORDER)])
    db.table("orderline").bulk_load([
        ol_o_ids * 16 + numbers, ol_o_ids, numbers,
        item_ids, quantities, amounts, delivery])
    return db


def q1_plan(delivery_cutoff=None):
    """Pricing-summary shape: filter on delivery date, group by line number."""
    pred = None
    if delivery_cutoff is not None:
        pred = Predicate(conditions=(("ol_delivery_d", None, delivery_cutoff),))
    return QueryPlan(
        name="q1",
        shape="scan-filter-groupby",
        scans=[("orderline",
                ["ol_number", "ol_quantity", "ol_amount", "ol_delivery_d"],
                pred)],
        aggregates=[("ol_quantity", "sum"), ("ol_amount", "sum"),
                    ("ol_quantity", "avg"), ("ol_amount", "count")],
        groupby_keys=("ol_number",),
    )


def q6_plan(delivery_lo=None, delivery_hi=None, max_quantity=None):
    """Revenue-forecast shape: range filter, single sum."""
    conditions = []
    if delivery_lo is not None or delivery_hi is not None:
        conditions.append(("ol_delivery_d", delivery_lo, delivery_hi))
    if max_quantity is not None:
        conditions.append(("ol_quantity", None, max_quantity))
    pred = Predicate(conditions=tuple(conditions)) if conditions else None
    return QueryPlan(
        name="q6",
        shape="scan-filter-reduce",
        scans=[("orderline",
                ["ol_delivery_d", "ol_quantity", "ol_amount"],
                pred)],
        aggregates=[("ol_amount", "sum")],
    )


def q19_plan(price_lo=None, price_hi=None, quantity_lo=None, quantity_hi=None):
    """Discounted-revenue shape: fact join against the item dimension."""
    fact_conditions = []
    if quantity_lo is not None or quantity_hi is not None:
        fact_conditions.append(("ol_quantity", quantity_lo, quantity_hi))
    fact_pred = Predicate(conditions=tuple(fact_conditions)) if fact_conditions else None
    dim_pred = None
    if price_lo is not None or price_hi is not None:
        dim_pred = Predicate(conditions=(("i_price", price_lo, price_hi),))
    return QueryPlan(
        name="q19",
        shape="fact-dimension-join",
        scans=[("orderline", ["ol_i_id", "ol_quantity", "ol_amount"], fact_pred),
               ("item", ["i_id", "i_price"], dim_pred)],
        aggregates=[("ol_amount", "sum")],
        join=Join(fact_table="orderline", dim_table="item",
                  fact_key="ol_i_id", dim_key="i_id"),
    )


QUERY_BUILDERS = {"q1": q1_plan, "q6": q6_plan, "q19": q19_plan}
