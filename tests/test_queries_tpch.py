"""End-to-end TPC-H correctness: every paper query, both engines,
checked against the DuckDB oracle on identical data."""
import pytest

from repro.oracle import assert_pandas_equivalent
from repro.queries import tpch
from repro.runner import prepare_tpch, run_query

SF = 0.005
QNAMES = ("q1", "q6", "q3", "q9", "q18")


@pytest.fixture(scope="module")
def workload():
    oracle, enc = prepare_tpch(SF)
    queries = tpch.all_queries(enc, q18_threshold=150.0)
    return oracle, enc, queries


@pytest.mark.parametrize("qname", QNAMES)
@pytest.mark.parametrize("engine", ["typer", "tectorwise"])
def test_query_vs_oracle(workload, qname, engine):
    oracle, enc, queries = workload
    q = queries[qname]
    got = run_query(q, enc, engine)
    assert_pandas_equivalent(got, q.sql, **{t: oracle[t] for t in q.tables})


@pytest.mark.parametrize("qname", QNAMES)
def test_engines_agree(workload, qname):
    _, enc, queries = workload
    q = queries[qname]
    a = run_query(q, enc, "typer")
    b = run_query(q, enc, "tectorwise")
    cols = sorted(a.columns)
    a = a[cols].sort_values(cols).reset_index(drop=True)
    b = b[cols].sort_values(cols).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)  # dtypes too: both come from the plan


@pytest.mark.parametrize("vs", [64, 1000, 8192])
def test_vector_size_does_not_change_results(workload, vs):
    oracle, enc, queries = workload
    q = queries["q6"]
    got = run_query(q, enc, "tectorwise", vector_size=vs)
    assert_pandas_equivalent(got, q.sql, **{t: oracle[t] for t in q.tables})


def test_q1_group_count(workload):
    _, enc, queries = workload
    got = run_query(queries["q1"], enc, "typer")
    assert len(got) == 6  # 3 returnflags x 2 linestatuses


def test_q6_single_row(workload):
    _, enc, queries = workload
    got = run_query(queries["q6"], enc, "tectorwise")
    assert len(got) == 1 and got["revenue"][0] > 0


def test_q9_nations_decoded(workload):
    _, enc, queries = workload
    got = run_query(queries["q9"], enc, "typer")
    assert got["nation"].dtype == object  # decoded back to strings
    assert got["o_year"].between(1992, 1998).all()


def test_q18_threshold_monotone(workload):
    _, enc, _ = workload
    lo = run_query(tpch.q18(enc, threshold=120.0), enc, "tectorwise")
    hi = run_query(tpch.q18(enc, threshold=250.0), enc, "tectorwise")
    assert len(hi) <= len(lo)
    assert (lo["total_qty"] > 120.0).all()


def test_another_scale_factor():
    oracle, enc = prepare_tpch(0.01)
    q = tpch.q3(enc)
    got = run_query(q, enc, "typer")
    assert_pandas_equivalent(got, q.sql, **{t: oracle[t] for t in q.tables})


def test_tuples_scanned(workload):
    _, enc, queries = workload
    assert queries["q1"].tuples_scanned(enc) == enc["lineitem"].n
    q3n = queries["q3"].tuples_scanned(enc)
    assert q3n == enc["lineitem"].n + enc["orders"].n + enc["customer"].n
