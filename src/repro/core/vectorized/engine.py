"""Tectorwise engine driver: plan -> pull-based operator tree -> result.

``run_plan`` executes a shared physical plan with vector-at-a-time
operators. Group-bys anywhere in the plan are materialized to an
in-memory table and rescanned (pipeline breaker); hash-join build sides
are drained into the shared chaining hash table with the vectorized
build path. ``prebuilt`` lets the Spark morsel driver inject broadcast
hash tables, and ``scan_override`` substitutes a morsel for a base
table.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ...simcpu.model import CostModel, RandAccess
from ..common import costs
from ..common import plan as PL
from ..common.expr import Col
from ..common.hashtable import ChainingHashTable
from ..common.table import Table
from . import operators as O
from . import primitives as P

DEFAULT_VECTOR_SIZE = 1000


def estimate_live_vectors(plan) -> int:
    """Static count of vectors alive in a pipeline — determines the
    cache working set that intermediate materialization cycles through
    (drives the vector-size effects of §4.3)."""
    if isinstance(plan, PL.Scan):
        return len(plan.cols)
    if isinstance(plan, PL.Select):
        return estimate_live_vectors(plan.child) + 2
    if isinstance(plan, PL.Project):
        extra = sum(
            1 if isinstance(e, Col) else 2 for _, e in plan.outputs
        )
        return estimate_live_vectors(plan.child) + extra
    if isinstance(plan, PL.HashJoin):
        return (
            estimate_live_vectors(plan.probe)
            + 3
            + len(plan.payload)
            + len(plan.probe.out_cols())
        )
    if isinstance(plan, PL.HashGroupBy):
        return (
            estimate_live_vectors(plan.child) + len(plan.keys) + len(plan.aggs) + 2
        )
    raise TypeError(type(plan))


def _df_to_table(df: pd.DataFrame) -> Table:
    return Table({c: df[c].to_numpy() for c in df.columns})


class _Runner:
    def __init__(self, tables, cm, vector_size, prebuilt, scan_override):
        self.tables = dict(tables)
        if scan_override:
            self.tables.update(scan_override)
        self.cm = cm
        self.vs = vector_size
        self.prebuilt = prebuilt or {}

    def _ctx(self, pipeline_plan) -> P.Ctx:
        ws = estimate_live_vectors(pipeline_plan) * self.vs * 8
        return P.Ctx(self.cm, float(ws))

    def _dense_df(self, op, out_cols, ctx) -> pd.DataFrame:
        parts: dict[str, list] = {c: [] for c in out_cols}
        while True:
            b = op.next()
            if b is None:
                break
            if b.count == 0:
                continue
            for c in out_cols:
                parts[c].append(P.gather(ctx, b.cols[c], b.sel, c in b.base))
        return pd.DataFrame(
            {
                c: (np.concatenate(v) if v else np.empty(0))
                for c, v in parts.items()
            }
        )

    def build_hashtable(self, join: PL.HashJoin) -> ChainingHashTable:
        """Drain the build side into the shared chaining hash table."""
        ctx = self._ctx(join.build)
        op = self.as_operator(join.build, ctx)
        need = list(dict.fromkeys(list(join.build_keys) + list(join.payload)))
        df = self._dense_df(op, need, ctx)
        ht = ChainingHashTable(
            len(join.build_keys), list(join.payload), hash_fn="murmur"
        )
        keys = [df[k].to_numpy().astype(np.int64) for k in join.build_keys]
        payloads = {p: df[p].to_numpy() for p in join.payload}
        ht.build_bulk(keys, payloads)
        ht.freeze()
        n = ht.n_entries
        if self.cm is not None and n:
            # build primitives: hash per key column, bucket insert, entry store
            for _ in join.build_keys:
                P.charge(ctx, n, costs.HASH_MURMUR, 1, 1)
            P.charge(
                ctx, n, costs.HT_INSERT, len(join.build_keys) + len(join.payload), 0,
                rand=(RandAccess(ht.bucket_bytes(), 1.0, scale=PL.grows(join.build)),),
            )
            self.cm.loop(
                n, 0.0, seq_bytes=ht.entry_bytes() / max(n, 1) * n, stream_ws=None
            )
        return ht

    def groupby_df(self, gb: PL.HashGroupBy, partial: bool) -> pd.DataFrame:
        ctx = self._ctx(gb)
        child = self.as_operator(gb.child, ctx)
        return O.GroupByOp(child, gb.keys, gb.aggs, ctx, partial=partial).next()

    def as_operator(self, plan, ctx: P.Ctx):
        if isinstance(plan, PL.Scan):
            return O.ScanOp(self.tables[plan.table], plan.cols, self.vs)
        if isinstance(plan, PL.Select):
            return O.SelectOp(self.as_operator(plan.child, ctx), plan.conjuncts, ctx)
        if isinstance(plan, PL.Project):
            return O.ProjectOp(self.as_operator(plan.child, ctx), plan.outputs, ctx)
        if isinstance(plan, PL.HashJoin):
            def drain(j=plan):
                if j.name in self.prebuilt:
                    return self.prebuilt[j.name]
                return self.build_hashtable(j)

            return O.HashJoinOp(
                self.as_operator(plan.probe, ctx),
                drain,
                plan.probe_keys,
                plan.payload,
                ctx,
                PL.grows(plan.build),
            )
        if isinstance(plan, PL.HashGroupBy):
            # pipeline breaker: materialize, then rescan
            df = self.groupby_df(plan, partial=False)
            return O.ScanOp(_df_to_table(df), list(df.columns), self.vs)
        raise TypeError(type(plan))


def run_plan(
    plan,
    tables: dict[str, Table],
    cm: CostModel | None = None,
    vector_size: int = DEFAULT_VECTOR_SIZE,
    prebuilt: dict | None = None,
    scan_override: dict | None = None,
    partial: bool = False,
) -> pd.DataFrame:
    """Execute ``plan`` and return the result as a pandas DataFrame.

    ``partial=True`` makes a root group-by emit mergeable partial
    aggregates (the Spark morsel path's per-partition output).
    """
    r = _Runner(tables, cm, vector_size, prebuilt, scan_override)
    if isinstance(plan, PL.HashGroupBy):
        return r.groupby_df(plan, partial=partial)
    ctx = r._ctx(plan)
    op = r.as_operator(plan, ctx)
    return r._dense_df(op, plan.out_cols(), ctx)
