"""Independent checks of what the engine returned and what it stored.

Query answers are recomputed with plain numpy from the plan's own
predicates and aggregates, sharing no code with `htaplite.olap`. The
NewOrder checks count stock and order lines through the transactional
read path and compare them with what the benchmark itself ordered.
"""

import math

import numpy as np

# every value of one answer is compared with this tolerance: the engine
# adds per-block partial sums in block order, numpy sums pairwise
REL_TOL = 1e-9
ABS_TOL = 1e-6


class SnapshotOracle:
    """Answers over prefixes of the final frozen snapshot.

    NewOrder only ever inserts into orderline and never writes item, so
    the rows below an earlier admission's snapshot fence are the same
    rows in the final snapshot; an admission's answer is the oracle's
    answer over that prefix.
    """

    def __init__(self, handles):
        self._columns = {}
        for table, handle in handles.items():
            n = handle.committed_count
            self._columns[table] = {c.name: handle.column(c.name).slice(0, n)
                                    for c in handle.schema}

    def answer(self, plan, fences):
        """Result rows for the plan over each table's first fences[t] rows."""
        arrays = {}
        masks = {}
        for table, columns, pred in plan.scans:
            n = fences[table]
            cols = {c: self._columns[table][c][:n] for c in columns}
            keep = np.ones(n, dtype=bool)
            for col, lo, hi in (pred.conditions if pred is not None else ()):
                if lo is not None:
                    keep &= cols[col] >= lo
                if hi is not None:
                    keep &= cols[col] <= hi
            arrays[table] = cols
            masks[table] = keep

        fact = plan.join.fact_table if plan.join is not None else plan.scans[0][0]
        values = {c: v[masks[fact]] for c, v in arrays[fact].items()}
        if plan.join is not None:
            dim = plan.join.dim_table
            dim_keys = arrays[dim][plan.join.dim_key][masks[dim]]
            fact_keys = values[plan.join.fact_key]
            size = int(max(dim_keys.max(initial=0), fact_keys.max(initial=0))) + 1
            position = np.full(size, -1, dtype=np.int64)
            position[dim_keys] = np.arange(len(dim_keys))
            picked = np.where(fact_keys >= 0, position[np.maximum(fact_keys, 0)], -1)
            hit = picked >= 0
            values = {c: v[hit] for c, v in values.items()}
            for c, v in arrays[dim].items():
                values.setdefault(c, v[masks[dim]][picked[hit]])

        if not plan.groupby_keys:
            return [tuple(_aggregate(op, values[col]) for col, op in plan.aggregates)]
        if len(plan.groupby_keys) != 1:
            raise ValueError("the oracle groups on one key column only")
        groups, inverse = np.unique(values[plan.groupby_keys[0]], return_inverse=True)
        rows = []
        for g, key in enumerate(groups.tolist()):
            member = inverse == g
            rows.append((key,) + tuple(_aggregate(op, values[col][member])
                                       for col, op in plan.aggregates))
        return rows


def _aggregate(op, values):
    if op == "count":
        return len(values)
    if op == "sum":
        return values.sum().item() if len(values) else 0
    if op == "min":
        return values.min().item() if len(values) else None
    if op == "avg":
        return values.mean().item() if len(values) else None
    raise ValueError("unknown aggregate %r" % op)


def same_rows(got, want):
    if len(got) != len(want):
        return False
    for row_got, row_want in zip(got, want):
        if len(row_got) != len(row_want):
            return False
        for a, b in zip(row_got, row_want):
            if a is None or b is None:
                if a is not b:
                    return False
            elif not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return False
    return True


def check_answers(admissions, handles):
    """Problems found comparing each answered admission with the oracle."""
    if not any(result is not None for _, _, _, result in admissions):
        return []
    oracle = SnapshotOracle(handles)
    problems = []
    for i, (plan, _, fences, result) in enumerate(admissions):
        if result is None:
            continue
        want = oracle.answer(plan, fences)
        if not same_rows(result.rows, want):
            problems.append("admission %d (%s): engine %r, oracle %r"
                            % (i, plan.name, result.rows[:3], want[:3]))
    return problems


def stock_total(db):
    """Sum of s_quantity over every stock row, read at its newest version."""
    stock = db.table("stock")
    return sum(stock.read_latest(key)[1] for key in list(stock.index))


def check_new_orders(before, after, ordered_quantity, lines):
    """Stock is conserved and every committed order line landed once.

    before / after: (stock total, orderline committed rows).
    """
    problems = []
    if after[0] != before[0] - ordered_quantity:
        problems.append("stock total %d, expected %d - %d"
                        % (after[0], before[0], ordered_quantity))
    if after[1] != before[1] + lines:
        problems.append("orderline rows %d, expected %d + %d"
                        % (after[1], before[1], lines))
    return problems
