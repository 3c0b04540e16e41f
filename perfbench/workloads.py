"""The benchmark's two workloads.

Each workload has a ``setup`` that the runner repeats (its median is
``setup_s``), a ``clear`` that drops the previous repetition's state
before the next one, outside the clock, an optional one-time
``setup_once``, a list of ops that make up one pass, and a ``check``
that compares a pass's results with references, outside the timed
region.

* ``sim-tables`` regenerates Tables 1, SSB, 3, 4 and 5 with the
  harnesses' defaults (``sf_exec=0.05``, fixed generator seeds, since
  ``runner.prepare_tpch`` takes no seed). Cost-model charging and the
  repeated workload executions of ``tables.common.counters_for``
  dominate it.
* ``spark-morsel`` runs Q6/Q3/Q9/Q18 through ``spark_exec`` on both
  engines, SF 0.1, ``local[4]`` with 4 partitions and cached probe
  tables. Q6 has no build side: the control for driver-side build work.
"""
from __future__ import annotations

import inspect
from time import perf_counter

import pandas as pd

from pyspark import SparkContext

from repro import oracle, runner, synth_data
from repro.core import spark_exec
from repro.core.common import plan as PL
from repro.core.common import table as T
from repro.queries import tpch
from repro.sparkutil import get_spark
from repro.tables import common, ssb_counters, table1, table3, table4, table5

ENGINES = ("typer", "tectorwise")
SHORT = {"typer": "typer", "tectorwise": "tw"}

# Per-table generator seeds are offset by this stride times the workload
# seed, so seed 0 reproduces the generators' own default data.
SEED_STRIDE = 1000

# Table 1's simulated cycles/tuple as EXPERIMENTS.md prints them (one
# decimal). The simulated counters are deterministic, so any change in
# these is a change in the program's output.
TABLE1_CYCLES = {
    ("q1", "Typer"): 31.2, ("q1", "TW"): 70.3,
    ("q6", "Typer"): 6.9, ("q6", "TW"): 7.2,
    ("q3", "Typer"): 25.9, ("q3", "TW"): 24.8,
    ("q9", "Typer"): 66.4, ("q9", "TW"): 55.5,
    ("q18", "Typer"): 32.7, ("q18", "TW"): 48.5,
}


class Op:
    """One timed call of a pass. ``query`` and ``engine`` are set when the
    op runs a single query on a single engine, so its tuples count towards
    that engine's throughput."""

    def __init__(self, label, fn, query=None, engine=None, tuples=0):
        self.label = label
        self.fn = fn
        self.query = query
        self.engine = engine
        self.tuples = tuples


class EngineClock:
    """Per-engine seconds and tuples scanned within one pass."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.seconds = {e: 0.0 for e in ENGINES}
        self.tuples = {e: 0 for e in ENGINES}

    def add(self, engine, seconds, tuples):
        self.seconds[engine] += seconds
        self.tuples[engine] += tuples


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].reset_index(drop=True).copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].round(6)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def same_result(got: pd.DataFrame, expected: pd.DataFrame) -> str | None:
    """None when ``got`` equals DuckDB's ``expected`` up to row order,
    column order, dtype and float rounding; otherwise the difference."""
    if set(got.columns) != set(expected.columns):
        return f"columns {sorted(got.columns)} != {sorted(expected.columns)}"
    try:
        pd.testing.assert_frame_equal(_canon(got), _canon(expected), check_dtype=False)
    except AssertionError as e:
        return str(e).splitlines()[0] if str(e) else "frames differ"
    return None


def generate_tpch(sf: float, seed: int):
    """TPC-H tables built with the calls ``runner._prepare`` makes, with
    each generator's default seed offset by ``SEED_STRIDE * seed``."""
    raw = {}
    for name in synth_data.TPCH_GENERATORS:
        gen = synth_data.TPCH_GENERATORS[name]
        base = inspect.signature(gen).parameters["seed"].default
        raw[name] = gen(sf, base + SEED_STRIDE * seed)
    views = {name: T.to_oracle_pandas(pdf) for name, pdf in raw.items()}
    enc = {name: T.Table.from_pandas(pdf) for name, pdf in raw.items()}
    return views, enc


def references(queries: dict, views: dict) -> dict:
    return {
        name: oracle.duckdb_result(q.sql, **{t: views[t] for t in q.tables})
        for name, q in queries.items()
    }


class SimTables:
    name = "sim-tables"
    SF_EXEC = 0.05
    WARMUP_PASS = False
    HARNESSES = (
        ("table1", table1.rows),
        ("ssb_counters", ssb_counters.rows),
        ("table3", table3.rows),
        ("table4", table4.throughput_rows),
        ("table5", table5.rows),
    )

    def __init__(self, seed: int, tracer=None):
        # The harnesses read runner.prepare_tpch/prepare_ssb, which take
        # no seed: this workload always runs on their fixed default data.
        self.seed = seed
        self.tracer = tracer
        self.clock = EngineClock()
        self.first = {}
        self.cycles = {}  # (query, engine) -> Table 1 cycles/tuple
        self._orig_run_query = common.run_query

    def clear(self):
        runner.prepare_tpch.cache_clear()
        runner.prepare_ssb.cache_clear()

    def setup(self):
        runner.prepare_tpch(self.SF_EXEC)
        runner.prepare_ssb(self.SF_EXEC)

    def setup_once(self):
        # Time each engine execution inside counters_for, for the mtuples
        # metrics; 60 calls per pass, so the wrapper costs nothing visible.
        orig = self._orig_run_query

        def timed_run_query(query, enc, engine, **kw):
            if self.tracer is not None:
                self.tracer.query, self.tracer.engine = query.name, engine
            t0 = perf_counter()
            out = orig(query, enc, engine, **kw)
            self.clock.add(engine, perf_counter() - t0, query.tuples_scanned(enc))
            return out

        common.run_query = timed_run_query

    def begin_pass(self):
        # Without this every pass after the first reads cached counters.
        common.counters_for.cache_clear()

    def end_pass(self) -> dict:
        return {"tables.workload_executions": common.counters_for.cache_info().misses}

    def ops(self):
        if self.tracer is None:
            return [Op(label, fn) for label, fn in self.HARNESSES]
        # the wrapped call records a span only inside a traced pass
        return [Op(label, self.tracer.wrap(fn, f"tables.{label}"))
                for label, fn in self.HARNESSES]

    def check(self, op, result):
        if op.label == "table1":
            self.cycles = {
                (r["query"], "typer" if r["engine"] == "Typer" else "tw"): r["cycles"]
                for r in result
            }
            for r in result:
                want = TABLE1_CYCLES[(r["query"], r["engine"])]
                if f"{r['cycles']:.1f}" != f"{want:.1f}":
                    return (f"table1 {r['query']}/{r['engine']} cycles "
                            f"{r['cycles']:.3f} != {want}")
        if op.label not in self.first:
            self.first[op.label] = result
        elif result != self.first[op.label]:
            return f"{op.label} rows differ from the first pass"
        return None

    def close(self):
        common.run_query = self._orig_run_query


class SparkMorsel:
    """A pass runs every query of ``QUERIES`` once on each engine through
    ``spark_exec``; every result is compared with DuckDB's answer on the
    same data."""

    name = "spark-morsel"
    SF = 0.1
    QUERIES = ("q6", "q3", "q9", "q18")
    PARTITIONS = 4
    # the first pass in a fresh JVM runs about 40% slower
    WARMUP_PASS = True
    cycles: dict = {}

    def __init__(self, seed: int, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.clock = EngineClock()
        self.spark = None
        self.probes = {}
        self.enc = self.queries = self.refs = None

    def clear(self):
        self.enc = self.queries = self.refs = None

    def setup(self):
        views, self.enc = generate_tpch(self.SF, self.seed)
        allq = tpch.all_queries(self.enc)
        self.queries = {n: allq[n] for n in self.QUERIES}
        self.refs = references(self.queries, views)

    def setup_once(self):
        self.spark = get_spark("perfbench")
        for qname, q in self.queries.items():
            self.probes[qname] = spark_exec.cached_probe_df(
                self.spark, q.plan, self.enc, self.PARTITIONS
            )

    def begin_pass(self):
        self._group = f"pass-{perf_counter()}"
        self.spark.sparkContext.setJobGroup(self._group, "perfbench pass")

    def end_pass(self) -> dict:
        tracker = self.spark.sparkContext.statusTracker()
        tasks = 0
        for job in tracker.getJobIdsForGroup(self._group):
            info = tracker.getJobInfo(job)
            for stage in info.stageIds if info else ():
                st = tracker.getStageInfo(stage)
                tasks += st.numCompletedTasks if st else 0
        return {"spark_exec.tasks": tasks}

    def ops(self):
        out = []
        for qname, q in self.queries.items():
            n = q.tuples_scanned(self.enc)
            for eng in ENGINES:
                out.append(Op(f"{qname}/{SHORT[eng]}", self._bind(q, eng), qname, eng, n))
        return out

    def _bind(self, q, eng):
        def run():
            if self.tracer is not None:
                self.tracer.query, self.tracer.engine = q.name, eng
            got = spark_exec.run_plan_spark(
                self.spark, q.plan, self.enc, engine=eng,
                n_partitions=self.PARTITIONS, probe_sdf=self.probes[q.name],
            )
            return PL.decode_result(got, q.plan, self.enc)
        return run

    def check(self, op, result):
        return same_result(result, self.refs[op.query])

    def close(self):
        if self.spark is None:
            return
        for sdf in self.probes.values():
            sdf.unpersist()
        jvm = SparkContext._gateway.proc
        self.spark.stop()
        self.spark = None
        # The JVM exits when its stdin closes. Left to process exit, it
        # outlived this process by about 2 s; close it here and wait, so
        # that no process of the run outlives it.
        jvm.stdin.close()
        jvm.wait(timeout=60)


WORKLOADS = {w.name: w for w in (SimTables, SparkMorsel)}

