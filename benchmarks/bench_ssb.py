"""Benchmark regenerating the §4.4 SSB counter table (SF=0.1 execution,
SF=30 simulated counters in ``extra_info``)."""
import pytest

from repro.queries import ssb
from repro.runner import prepare_ssb, run_query
from repro.simcpu import CostModel, SKYLAKE

BENCH_SF = 0.1


@pytest.fixture(scope="module")
def workload():
    oracle, enc = prepare_ssb(BENCH_SF)
    return enc, ssb.all_queries(enc)


@pytest.mark.parametrize("qname", ["q1.1", "q2.1", "q3.1", "q4.1"])
@pytest.mark.parametrize("engine", ["typer", "tectorwise"])
def test_ssb_query(benchmark, workload, qname, engine):
    enc, queries = workload
    q = queries[qname]
    result = benchmark.pedantic(
        lambda: run_query(q, enc, engine), rounds=3, iterations=1, warmup_rounds=1
    )
    assert result is not None
    cm = CostModel(SKYLAKE, size_scale=30.0 / BENCH_SF)
    run_query(q, enc, engine, cm=cm)
    benchmark.extra_info.update(
        {k: round(v, 3) for k, v in cm.counters.per_tuple(q.tuples_scanned(enc)).items()}
    )
