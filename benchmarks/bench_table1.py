"""Benchmark regenerating paper Table 1: single-threaded execution of
every TPC-H query on both engines at SF=0.1, with the simulated SF=1
per-tuple counters attached to each benchmark's ``extra_info``.

Wall-clock here measures the Python/NumPy implementations; the paper's
metric (cycles/tuple) is the simulated counter set — recorded in
extra_info and printed by ``jobs/table1_counters.py``.
"""
import pytest

from repro.queries import tpch
from repro.runner import prepare_tpch, run_query
from repro.simcpu import CostModel, SKYLAKE

BENCH_SF = 0.1
QNAMES = ("q1", "q6", "q3", "q9", "q18")


@pytest.fixture(scope="module")
def workload():
    oracle, enc = prepare_tpch(BENCH_SF)
    return enc, tpch.all_queries(enc)


@pytest.mark.parametrize("qname", QNAMES)
@pytest.mark.parametrize("engine", ["typer", "tectorwise"])
def test_table1_query(benchmark, workload, qname, engine):
    enc, queries = workload
    q = queries[qname]

    def run():
        return run_query(q, enc, engine)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result is not None
    cm = CostModel(SKYLAKE, size_scale=1.0 / BENCH_SF)
    run_query(q, enc, engine, cm=cm)
    benchmark.extra_info.update(
        {k: round(v, 3) for k, v in cm.counters.per_tuple(q.tuples_scanned(enc)).items()}
    )
