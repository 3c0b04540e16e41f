"""In-memory span tracer that wraps the public calls into ``repro`` modules.

The benchmark attaches it only for ``--trace 1``. Every wrapped call
records a span (name, start, end, parent, query, engine); a span's self
time is its duration minus the time its child spans cover. Spans belong
to the root span that was open when they started ("setup", "pass", ...),
so per-layer figures are summed per root and the self times inside one
root add up to that root's duration exactly.

``CostModel.loop`` runs about 330k times per ``sim-tables`` pass, so its
spans are aggregated per parent (count and total seconds) instead of
being kept one by one.
"""
from __future__ import annotations

import contextlib
import json
import os
import statistics
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "root", "start", "end", "query",
                 "engine", "child_s", "self_s", "incl_s", "counts")

    def __init__(self, sid, name, parent, start, query, engine):
        self.id = sid
        self.name = name
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.start = start
        self.end = None
        self.query = query
        self.engine = engine
        self.child_s = 0.0
        if parent is None:
            # per-root totals: self and inclusive seconds by span name, counts
            self.self_s = defaultdict(float)
            self.incl_s = defaultdict(float)
            self.counts = defaultdict(float)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.hot: dict = defaultdict(lambda: [0, 0.0])  # (parent id, name) -> [n, s]
        self.query = None
        self.engine = None
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        s = Span(len(self.spans), name, parent, perf_counter(),
                 self.query, self.engine)
        self.spans.append(s)
        self.stack.append(s)
        return s

    def close(self, s: Span) -> None:
        s.end = perf_counter()
        popped = self.stack.pop()
        if popped is not s:
            raise RuntimeError(f"span {s.name} closed out of order")
        dur = s.end - s.start
        root = s.root
        root.self_s[s.name] += dur - s.child_s
        root.incl_s[s.name] += dur
        if s.parent is not None:
            s.parent.child_s += dur

    @contextlib.contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def count(self, name: str, n: float) -> None:
        if self.stack:
            self.stack[-1].root.counts[name] += n

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name: str, after=None):
        """Return ``fn`` recorded as span ``name``; ``after(result, args,
        kwargs)`` may record counts once the call returns."""
        tracer = self

        def traced(*args, **kw):
            if not tracer.stack:
                return fn(*args, **kw)
            s = tracer.open(name)
            try:
                out = fn(*args, **kw)
            finally:
                tracer.close(s)
            if after is not None:
                after(out, args, kw)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_hot(self, fn, name: str):
        """Like :meth:`wrap` for a leaf called very often: no span objects,
        only a per-parent (count, seconds) aggregate."""
        tracer = self

        def traced(*args, **kw):
            if not tracer.stack:
                return fn(*args, **kw)
            t0 = perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                dt = perf_counter() - t0
                parent = tracer.stack[-1]
                parent.child_s += dt
                root = parent.root
                root.self_s[name] += dt
                root.incl_s[name] += dt
                root.counts[name + ".calls"] += 1
                agg = tracer.hot[(parent.id, name)]
                agg[0] += 1
                agg[1] += dt

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, hot: bool = False, after=None):
        """Replace ``owner.attr`` by its traced version until :meth:`unpatch`."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(orig, classmethod):
            new = classmethod(self.wrap(orig.__func__, name, after))
        elif hot:
            new = self.wrap_hot(orig, name)
        else:
            new = self.wrap(orig, name, after)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def patch_item(self, mapping: dict, key, name: str) -> None:
        orig = mapping[key]
        mapping[key] = self.wrap(orig, name)
        self._undo.append((mapping, key, orig))

    def unpatch(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def write(self, path: str) -> None:
        """Write every span, then the hot aggregates, as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "name": s.name,
                    "parent": None if s.parent is None else s.parent.id,
                    "start": s.start - t0, "end": None if s.end is None else s.end - t0,
                    "query": s.query, "engine": s.engine,
                }) + "\n")
            for (pid, name), (n, sec) in self.hot.items():
                f.write(json.dumps({"aggregate": name, "parent": pid,
                                    "calls": n, "seconds": sec}) + "\n")


# Span name -> per-layer metric of its self time, per traced pass.
PASS_SELF = {
    "compiled.codegen": "compiled.codegen_s",
    "compiled.exec": "compiled.exec_s",
    "vectorized.exec": "vectorized.exec_s",
    "hashtable.build": "hashtable.build_s",
    "simcpu.charge": "simcpu.charge_s",
    "runner.decode": "runner.decode_s",
    "spark_exec.driver_build": "spark_exec.driver_build_s",
    "spark_exec.stage": "spark_exec.stage_s",
}
PASS_COUNTS = {
    "compiled.source_lines": "compiled.source_lines",
    "hashtable.entries": "hashtable.entries",
    "simcpu.charge.calls": "simcpu.loop_calls",
    "spark_exec.broadcast_mb": "spark_exec.broadcast_mb",
    "spark_exec.tasks": "spark_exec.tasks",
    "tables.workload_executions": "tables.workload_executions",
}
HARNESSES = ("table1", "ssb_counters", "table3", "table4", "table5")
SETUP_SELF = {
    "synth_data.gen": "synth_data.gen_s",
    "table.encode": "table.encode_s",
    "oracle.reference": "oracle.reference_s",
}
QUERIES = ("q1", "q6", "q3", "q9", "q18")


class ReproTracer(Tracer):
    """Tracer bound to the layers of ``repro``: :meth:`install` wraps the
    module attributes and methods through which the workloads reach each
    layer, :meth:`uninstall` restores them."""

    def install(self) -> None:
        from pyspark import SparkContext

        from repro import oracle, runner, synth_data
        from repro.core import spark_exec, vectorized
        from repro.core.common import hashtable, plan, table
        from repro.core.compiled import engine as compiled_engine
        from repro.core.vectorized import engine as vectorized_engine
        from repro.simcpu import model

        for gens in (synth_data.TPCH_GENERATORS, synth_data.SSB_GENERATORS):
            for key in gens:
                self.patch_item(gens, key, "synth_data.gen")
        self.patch(table, "to_oracle_pandas", "table.encode")
        self.patch(runner, "to_oracle_pandas", "table.encode")
        self.patch(table.Table, "from_pandas", "table.encode",
                   after=lambda out, a, kw: self.count("table.encoded_mb", out.nbytes() / 1e6))
        self.patch(oracle, "duckdb_result", "oracle.reference")

        cq = compiled_engine.CompiledQuery
        self.patch(cq, "__init__", "compiled.codegen",
                   after=lambda out, a, kw: self.count(
                       "compiled.source_lines", a[0].source.count("\n") + 1))
        self.patch(cq, "run", "compiled.exec")
        self.patch(vectorized, "run_plan", "vectorized.exec")
        self.patch(vectorized_engine, "run_plan", "vectorized.exec")
        ht = hashtable.ChainingHashTable
        self.patch(ht, "build_bulk", "hashtable.build")
        self.patch(ht, "freeze", "hashtable.build",
                   after=lambda out, a, kw: self.count("hashtable.entries", a[0].n_entries))
        self.patch(model.CostModel, "loop", "simcpu.charge", hot=True)
        self.patch(runner, "decode_result", "runner.decode")
        self.patch(plan, "decode_result", "runner.decode")

        self.patch(spark_exec, "run_plan_spark", "spark_exec.stage")
        self.patch(spark_exec, "_materialize", "spark_exec.driver_build")
        self.patch(spark_exec, "_build_ht", "spark_exec.driver_build")
        self.patch(SparkContext, "broadcast", "spark_exec.stage",
                   after=lambda out, a, kw: self.count(
                       "spark_exec.broadcast_mb", os.path.getsize(out._path) / 1e6))

    def uninstall(self) -> None:
        self.unpatch()

    @contextlib.contextmanager
    def root(self, name: str):
        """Open root span ``name`` with every layer wrapped."""
        self.install()
        try:
            with self.span(name) as s:
                yield s
        finally:
            self.uninstall()

    def per_layer(self, plain, traced, cycles: dict) -> tuple[dict, dict]:
        """Per-layer metrics, averaged per set-up repetition and per traced
        pass, and a check that the self times add up to the traced pass."""
        setups, passes = self.roots("setup"), self.roots("pass")

        def mean(roots, field, name):
            return sum(getattr(r, field)[name] for r in roots) / len(roots)

        out = {}
        for span, metric in SETUP_SELF.items():
            out[metric] = mean(setups, "self_s", span)
        out["table.encoded_mb"] = mean(setups, "counts", "table.encoded_mb")
        for span, metric in PASS_SELF.items():
            out[metric] = mean(passes, "self_s", span)
        for count, metric in PASS_COUNTS.items():
            out[metric] = mean(passes, "counts", count)
        for h in HARNESSES:
            out[f"tables.{h}_s"] = mean(passes, "incl_s", f"tables.{h}")
        out["tables.self_s"] = sum(mean(passes, "self_s", f"tables.{h}") for h in HARNESSES)
        out["trace.pass_s"] = sum(r.end - r.start for r in passes) / len(passes)
        out["trace.other_s"] = mean(passes, "self_s", "pass")
        untraced = statistics.median(p.seconds for p in plain)
        out["trace.overhead"] = statistics.median(p.seconds for p in traced) / untraced
        for q in QUERIES:
            for eng in ("typer", "tw"):
                out[f"simcpu.cycles_per_tuple.{q}.{eng}"] = cycles.get((q, eng), 0.0)

        known = set(PASS_SELF) | {f"tables.{h}" for h in HARNESSES} | {"pass"}
        names = set().union(*(r.self_s for r in passes))
        self_sum = sum(mean(passes, "self_s", name) for name in names)
        check = {
            "self_plus_other_s": self_sum,
            "pass_s": out["trace.pass_s"],
            "unreported_spans": sorted(names - known),
        }
        return out, check
