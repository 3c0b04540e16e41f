"""Pull-based vector-at-a-time operators (Tectorwise, §2).

Every operator exposes ``next() -> Batch | None``. A ``Batch`` holds
chunk-sized column vectors plus an optional selection vector; ``base``
names columns that are still zero-copy views of base-table storage
(their first touch is charged as a DRAM stream, not vector traffic).

The hash join is a faithful Figure 2b: probeHash primitives per key
column, tag-filtered candidate fetch, a candidate loop with one
compare-keys primitive per key column per round, then gather primitives
that materialize build payloads into fresh vectors.
"""
from __future__ import annotations

import numpy as np

from ..common import costs
from ..common.aggregate import aggregate_pandas
from ..common.hashtable import ChainingHashTable
from ..common.plan import Agg
from ..common.table import Table
from ...simcpu.model import RandAccess, group_table
from . import primitives as P


class Batch:
    __slots__ = ("cols", "sel", "base")

    def __init__(self, cols: dict, sel, base: set):
        self.cols = cols
        self.sel = sel
        self.base = base

    @property
    def count(self) -> int:
        if self.sel is not None:
            return len(self.sel)
        return len(next(iter(self.cols.values()))) if self.cols else 0


class ScanOp:
    """Parallel-for over the table, yielding zero-copy vector views."""

    def __init__(self, table: Table, cols, vector_size: int):
        self.table = table
        self.cols = list(cols)
        self.vs = vector_size
        self.pos = 0

    def next(self):
        if self.pos >= self.table.n:
            return None
        lo, hi = self.pos, min(self.pos + self.vs, self.table.n)
        self.pos = hi
        return Batch(
            {c: self.table.columns[c][lo:hi] for c in self.cols},
            None,
            set(self.cols),
        )


class SelectOp:
    """One selection primitive per conjunct, refining a selection vector."""

    def __init__(self, child, conjuncts, ctx: P.Ctx):
        self.child = child
        self.conjuncts = conjuncts
        self.ctx = ctx

    def next(self):
        b = self.child.next()
        if b is None:
            return None
        sel = b.sel
        for c in self.conjuncts:
            if sel is not None and len(sel) == 0:
                break
            sel = P.refine_sel(self.ctx, c, b.cols, sel, b.base)
        return Batch(b.cols, sel, b.base)


class ProjectOp:
    """Map primitives; output vectors are dense (selection consumed)."""

    def __init__(self, child, outputs, ctx: P.Ctx):
        self.child = child
        self.outputs = outputs
        self.ctx = ctx

    def next(self):
        b = self.child.next()
        if b is None:
            return None
        out = {}
        from ..common.expr import Col

        for name, e in self.outputs:
            if isinstance(e, Col):
                out[name] = P.gather(
                    self.ctx, b.cols[e.name], b.sel, e.name in b.base
                )
            else:
                out[name] = P.eval_expr(self.ctx, e, b.cols, b.sel, b.base)
        return Batch(out, None, set())


class HashJoinOp:
    """Vectorized probe of a shared chaining hash table (Figure 2b)."""

    def __init__(
        self,
        probe_child,
        build_drain,  # () -> ChainingHashTable, runs the build pipeline
        probe_keys,
        payload,
        ctx: P.Ctx,
        grows: bool,  # whether the hash table grows with SF
    ):
        self.probe = probe_child
        self.build_drain = build_drain
        self.probe_keys = list(probe_keys)
        self.payload = list(payload)
        self.ctx = ctx
        self.grows = grows
        self.ht: ChainingHashTable | None = None

    def _probe_batch(self, b: Batch):
        ht, ctx = self.ht, self.ctx
        m = b.count
        # probeHash: one primitive per key column + combines
        keys = []
        for k in self.probe_keys:
            keys.append(P.gather(ctx, b.cols[k], b.sel, k in b.base))
            P.charge(ctx, m, costs.HASH_MURMUR, 1, 1)
        for _ in self.probe_keys[1:]:
            P.charge(ctx, m, costs.HASH_COMBINE, 2, 1)
        h = ht.hash_vec([k.astype(np.int64) for k in keys])
        # findCandidates: bucket directory lookups, tag-filtered
        P.charge(
            ctx, m, costs.HT_BUCKET, 1, 1,
            rand=(RandAccess(ht.bucket_bytes(), 1.0, scale=self.grows),),
        )
        cand = ht.bucket_heads(h)
        pos = np.nonzero(cand >= 0)[0]
        cand = cand[pos]
        ent_parts, pos_parts = [], []
        while len(cand):
            nc = len(cand)
            # compareKeys: one primitive per key column (constraint (i))
            for _ in self.probe_keys:
                P.charge(
                    ctx, nc, costs.CMP, 2, 1,
                    rand=(RandAccess(ht.entry_bytes(), 1.0, scale=self.grows),),
                )
            eq = ht.compare_keys(cand, [k[pos] for k in keys])
            # extractHits: predicated compaction of matches + survivors;
            # the chain-continuation branch is data-dependent
            hit = float(eq.mean()) if nc else 0.0
            P.charge(
                ctx, nc, costs.SELSTORE + costs.HT_ADVANCE, 2, 2,
                branches=((1.0, min(hit, 1.0 - hit)),),
            )
            if eq.any():
                ent_parts.append(cand[eq])
                pos_parts.append(pos[eq])
            nxt = ht.advance(cand)
            alive = nxt >= 0
            cand, pos = nxt[alive], pos[alive]
        if ent_parts:
            ents = np.concatenate(ent_parts)
            hitpos = np.concatenate(pos_parts)
        else:
            ents = np.empty(0, np.int64)
            hitpos = np.empty(0, np.int64)
        nm = len(ents)
        # buildGather: one primitive per payload column, random access
        out = {}
        chunk_idx = (b.sel if b.sel is not None else np.arange(b.count))[hitpos] if nm else np.empty(0, np.int64)
        for c in b.cols:
            P.charge(ctx, nm, 0, 0 if c in b.base else 1, 1, base_in=1 if c in b.base else 0, sparse=True)
            out[c] = b.cols[c][chunk_idx]
        for pcol in self.payload:
            # buildGather reads entry rows whose lines compareKeys just
            # touched — random within the batch's hot line set, not the
            # whole table (the paper's TW and Typer LLC misses match)
            P.charge(
                ctx, nm, 0, 0, 1,
                rand=(RandAccess(float(nm) * 64.0, 1.0, scale=False),),
            )
            out[pcol] = ht.gather_payload(pcol, ents)
        return Batch(out, None, set())

    def next(self):
        if self.ht is None:
            self.ht = self.build_drain()
        while True:
            b = self.probe.next()
            if b is None:
                return None
            if b.count == 0:
                continue
            out = self._probe_batch(b)
            return out


class GroupByOp:
    """Hash aggregation: find-or-insert groups, then aggregate primitives.

    Accumulates gathered key/input vectors per batch (charging the
    paper's vectorized group-by algorithm: hash, group probe, partition-
    insert of missing groups, per-aggregate update primitives) and
    finalizes through the shared aggregation kernel.
    """

    def __init__(self, child, keys, aggs, ctx: P.Ctx, partial: bool = False):
        self.child = child
        self.keys = list(keys)
        self.aggs = list(aggs)
        self.ctx = ctx
        self.partial = partial
        self.done = False

    def _drain(self):
        ctx = self.ctx
        key_parts = {k: [] for k in self.keys}
        in_parts = {a.out: [] for a in self.aggs if a.fn != "count"}
        total = 0
        while True:
            b = self.child.next()
            if b is None:
                break
            m = b.count
            if m == 0:
                continue
            total += m
            for k in self.keys:
                key_parts[k].append(P.gather(ctx, b.cols[k], b.sel, k in b.base))
                P.charge(ctx, m, costs.HASH_MURMUR, 1, 1)
            for _ in self.keys[1:]:
                P.charge(ctx, m, costs.HASH_COMBINE, 2, 1)
            for a in self.aggs:
                if a.fn != "count":
                    in_parts[a.out].append(
                        P.eval_expr(ctx, a.expr, b.cols, b.sel, b.base)
                    )
        key_arrays = {k: np.concatenate(v) if v else np.empty(0, np.int64) for k, v in key_parts.items()}
        input_arrays = {
            o: np.concatenate(v) if v else np.empty(0) for o, v in in_parts.items()
        }
        result = aggregate_pandas(
            key_arrays, input_arrays, self.aggs, self.keys, self.partial
        )
        # group find-or-insert + aggregate updates. The two-phase
        # pre-aggregation (§3.2) caps the random working set at a
        # cache-friendly partition; spilled groups add sequential
        # partition write+read traffic instead of random misses.
        n_groups = max(len(result), 1)
        width = 8 * (len(self.keys) + 2 * len(self.aggs) + 1)
        row_width = 8 * (len(self.keys) + len(in_parts))
        group_rand = (group_table(n_groups, total, width),) if self.keys else ()
        if self.keys and total:
            # new-group fraction drives both the §2.2 partition shuffle
            # work and the (hard to predict) group-found branch
            p_new = min(1.0, n_groups / total)
            P.charge(
                self.ctx, total,
                costs.HT_BUCKET + costs.CMP + costs.GROUP_PARTITION_EXTRA * p_new,
                1, 1,
                rand=group_rand,
                branches=((1.0, min(p_new, 1.0 - p_new) + 0.02),),
            )
            if self.ctx.cm is not None:
                # spill + re-read of partitioned rows, if the modelled
                # group table outgrows its partition
                self.ctx.cm.spill(total * 2.0 * row_width, group_rand[0])
        for _ in self.aggs:
            P.charge(self.ctx, total, costs.AGG_UPDATE, 1, 0, rand=group_rand)
        return result

    def next(self):
        if self.done:
            return None
        self.done = True
        return self._drain()
