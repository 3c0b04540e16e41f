"""Typer engine driver: compile the plan, execute, charge region costs.

Compilation (our stand-in for LLVM) happens once per plan; its time is
excluded from all measurements, as in the paper (§3). After execution,
observed region counts + structure sizes turn the generator's static
cost annotations into cost-model charges; crucially every region is
charged with the *whole fused-loop body* as its MLP window, which is
what makes Typer's complex loops hide less memory latency than
Tectorwise's primitive loops (§4.1).
"""
from __future__ import annotations

from collections import defaultdict

import pandas as pd

from ...simcpu.model import CostModel, RandAccess, group_table
from ..common import costs
from ..common import plan as PL
from ..common.table import Table
from . import codegen, runtime


class CompiledQuery:
    def __init__(self, plan, partial: bool = False, hash_fn: str = "crc"):
        self.plan = plan
        self.cg = codegen.generate(plan, partial=partial, hash_fn=hash_fn)
        self.source = self.cg.source()
        # whether each join's hash table grows with SF, from its build side
        self._grows = {j.name: PL.grows(j.build) for j in PL.joins(plan)}
        ns: dict = dict(self.cg.objects)
        ns["rt"] = runtime
        exec(compile(self.source, "<typer>", "exec"), ns)
        self._fn = ns["__run"]

    def run(
        self,
        tables: dict[str, Table],
        cm: CostModel | None = None,
        prebuilt: dict | None = None,
        scan_override: dict | None = None,
    ) -> pd.DataFrame:
        t = dict(tables)
        if scan_override:
            t.update(scan_override)
        C: dict = {}
        hts: dict = {}
        result = self._fn(t, runtime, hts, C, prebuilt or {})
        if cm is not None:
            self._charge(cm, C, hts)
        return result

    def _resolve_rand(self, kind_name, C, hts, n_region) -> RandAccess:
        kind, name = kind_name
        if kind == "bucket":
            return RandAccess(hts[name].bucket_bytes(), 1.0, scale=self._grows[name])
        if kind == "entry":
            return RandAccess(hts[name].entry_bytes(), 1.0, scale=self._grows[name])
        if kind == "group":
            nk, na = self.cg.gb_meta[name]
            g = max(C.get(f"groups_{name}", 1), 1)
            return group_table(g, n_region, 8 * (nk + 2 * na + 1))
        raise ValueError(kind)

    def _group_branch(self, r, C, n) -> tuple:
        """Group-found branch of a fused aggregation region."""
        for kind, name in r.rand:
            if kind == "group":
                g = max(C.get(f"groups_{name}", 0), 0)
                p = min(1.0, g / max(n, 1))
                return ((1.0, min(p, 1.0 - p) + 0.02),)
        return ()

    def _charge(self, cm: CostModel, C: dict, hts: dict) -> None:
        by_loop: dict[int, list] = defaultdict(list)
        for r in self.cg.regions:
            by_loop[r.loop_id].append(r)
        counts = {r.key: C.get(r.key, 0) for r in self.cg.regions}
        f = costs.COMPLEX_LOOP_FACTOR
        for loop_id, regions in by_loop.items():
            src_n = counts[regions[0].key]
            if src_n == 0:
                continue
            body = sum(r.instr * f * counts[r.key] / src_n for r in regions)
            for r in regions:
                n = counts[r.key]
                if n == 0:
                    continue
                if r.branch and r.parent and counts.get(r.parent, 0) > 0:
                    # the branch executes once per *parent* iteration
                    np_ = counts[r.parent]
                    p = min(1.0, n / np_)
                    miss = min(p, 1.0 - p) * costs.BRANCH_PREDICTOR_FACTOR
                    cm.loop(np_, 0.0, branches=((1.0, miss),), body_instr=body)
                rand = tuple(self._resolve_rand(k, C, hts, n) for k in r.rand)
                cm.loop(
                    n,
                    r.instr * f,
                    rand=rand,
                    seq_bytes=n * r.seq_bytes,
                    stream_ws=None,
                    branches=self._group_branch(r, C, n),
                    body_instr=body,
                )
                for (kind, name), table in zip(r.rand, rand):
                    if kind == "group":
                        # spill + re-read of partitioned rows, if the
                        # modelled group table outgrows its partition
                        nk, na = self.cg.gb_meta[name]
                        cm.spill(n * 2.0 * 8 * (nk + na), table)


def compile_plan(plan, partial: bool = False, hash_fn: str = "crc") -> CompiledQuery:
    return CompiledQuery(plan, partial=partial, hash_fn=hash_fn)


def run_plan(
    plan,
    tables: dict[str, Table],
    cm: CostModel | None = None,
    prebuilt: dict | None = None,
    scan_override: dict | None = None,
    partial: bool = False,
) -> pd.DataFrame:
    """Compile-and-run convenience wrapper (signature mirrors the
    vectorized engine's ``run_plan``)."""
    q = compile_plan(plan, partial=partial)
    return q.run(tables, cm=cm, prebuilt=prebuilt, scan_override=scan_override)
