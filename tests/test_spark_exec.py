"""Morsel-parallel execution inside Spark executors vs the oracle."""
import pandas as pd
import pytest

from repro.core import spark_exec
from repro.core.common.plan import decode_result
from repro.oracle import assert_pandas_equivalent
from repro.queries import ssb, tpch
from repro.runner import prepare_ssb, prepare_tpch

SF = 0.005


@pytest.fixture(scope="module")
def tpch_wl():
    oracle, enc = prepare_tpch(SF)
    return oracle, enc, tpch.all_queries(enc, q18_threshold=150.0)


@pytest.fixture(scope="module")
def ssb_wl():
    oracle, enc = prepare_ssb(SF)
    return oracle, enc, ssb.all_queries(enc)


@pytest.mark.parametrize("qname", ["q1", "q6", "q3", "q9", "q18"])
@pytest.mark.parametrize("engine", ["typer", "tectorwise"])
def test_tpch_parallel_vs_oracle(spark, tpch_wl, qname, engine):
    oracle, enc, queries = tpch_wl
    q = queries[qname]
    got = spark_exec.run_plan_spark(spark, q.plan, enc, engine=engine, n_partitions=4)
    got = decode_result(got, q.plan, enc)
    assert_pandas_equivalent(got, q.sql, **{t: oracle[t] for t in q.tables})


@pytest.mark.parametrize("qname", ["q1.1", "q2.1", "q3.1", "q4.1"])
def test_ssb_parallel_vs_oracle(spark, ssb_wl, qname):
    oracle, enc, queries = ssb_wl
    q = queries[qname]
    got = spark_exec.run_plan_spark(
        spark, q.plan, enc, engine="tectorwise", n_partitions=4
    )
    got = decode_result(got, q.plan, enc)
    assert_pandas_equivalent(got, q.sql, **{t: oracle[t] for t in q.tables})


def test_single_partition_matches_serial(spark, tpch_wl):
    from repro.runner import run_query

    oracle, enc, queries = tpch_wl
    q = queries["q3"]
    par = decode_result(
        spark_exec.run_plan_spark(spark, q.plan, enc, n_partitions=1), q.plan, enc
    )
    ser = run_query(q, enc, "tectorwise")
    cols = sorted(par.columns)
    pd.testing.assert_frame_equal(  # dtypes too: both come from the plan
        par[cols].sort_values(cols).reset_index(drop=True),
        ser[cols].sort_values(cols).reset_index(drop=True),
    )


def test_partition_count_does_not_change_result(spark, tpch_wl):
    _, enc, queries = tpch_wl
    q = queries["q1"]
    a = spark_exec.run_plan_spark(spark, q.plan, enc, n_partitions=2)
    b = spark_exec.run_plan_spark(spark, q.plan, enc, n_partitions=8)
    cols = sorted(a.columns)
    pd.testing.assert_frame_equal(
        a[cols].sort_values(cols).reset_index(drop=True),
        b[cols].sort_values(cols).reset_index(drop=True),
        atol=1e-9,
    )


def test_avg_partials_merge_correctly(spark, tpch_wl):
    """Q1's avg columns decompose into sum/count partials and must be
    exact after the Catalyst merge."""
    oracle, enc, queries = tpch_wl
    q = queries["q1"]
    got = decode_result(
        spark_exec.run_plan_spark(spark, q.plan, enc, n_partitions=8), q.plan, enc
    )
    assert_pandas_equivalent(got, q.sql, lineitem=oracle["lineitem"])


def test_cached_probe_df_path(spark, tpch_wl):
    """The timed-run path (pre-uploaded probe DataFrame) must give the
    same answer as the upload-per-call path."""
    _, enc, queries = tpch_wl
    q = queries["q6"]
    sdf = spark_exec.cached_probe_df(spark, q.plan, enc, 4)
    try:
        a = spark_exec.run_plan_spark(spark, q.plan, enc, probe_sdf=sdf)
        b = spark_exec.run_plan_spark(spark, q.plan, enc, n_partitions=4)
        assert a["revenue"][0] == pytest.approx(b["revenue"][0])
    finally:
        sdf.unpersist()


def test_requires_aggregation_root(spark, tpch_wl):
    from repro.core.common.plan import Scan

    _, enc, _ = tpch_wl
    with pytest.raises(AssertionError):
        spark_exec.run_plan_spark(spark, Scan("lineitem", ("l_orderkey",)), enc)
