"""Result dtypes come from the plan (``plan.output_schema``), never from
the data: empty and non-empty results, both engines, the Spark path."""
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from repro.core import spark_exec
from repro.core.common.expr import Arith, Cmp, Col, Const
from repro.core.common.plan import (
    FLOAT, INT, Agg, Field, HashGroupBy, Scan, Select, decode_result,
    expr_dtype, output_schema,
)
from repro.core.common.table import Table
from repro.oracle import assert_pandas_equivalent
from repro.runner import run_query

_I, _F = Col("i"), Col("f")


@pytest.mark.parametrize("expr,dtype", [
    (_I, INT), (_F, FLOAT), (Const(3), INT), (Const(3.0), FLOAT),
    (Arith("+", _I, Const(1)), INT), (Arith("*", _I, _F), FLOAT),
    (Arith("/", _I, _I), FLOAT), (Arith("//", _I, Const(100)), INT),
    (Cmp("<", _F, Const(1.0)), INT),
])
def test_expr_dtype_rules(expr, dtype):
    assert expr_dtype(expr, {"i": Field(INT), "f": Field(FLOAT)}) == dtype


def _dtypes(plan, tables, partial=False) -> dict:
    return {c: f.dtype for c, f in output_schema(plan, tables, partial).items()}


_T = {"t": Table({"i": np.arange(3, dtype=np.int32), "f": np.arange(3.0),
                  "b": np.array([True, False, True])})}
_AGGS = (Agg("s", "sum", _I), Agg("mn", "min", _I), Agg("c", "count"), Agg("a", "avg", _I))


def test_aggregate_dtype_rules():
    assert output_schema(Scan("t", ("i", "f", "b")), _T) == {
        "i": Field(INT), "f": Field(FLOAT), "b": Field(INT),
    }
    grouped = HashGroupBy(Scan("t", ("i",)), ("i",), _AGGS)
    assert _dtypes(grouped, _T) == {"i": INT, "s": INT, "mn": INT, "c": INT, "a": FLOAT}
    assert _dtypes(grouped, _T, partial=True) == {
        "i": INT, "s": INT, "mn": INT, "c": INT, "a__sum": FLOAT, "a__cnt": INT,
    }
    # NULL rule: every non-count output of a global aggregate is float64
    glob = HashGroupBy(Scan("t", ("i",)), (), _AGGS)
    assert _dtypes(glob, _T) == {"s": FLOAT, "mn": FLOAT, "c": INT, "a": FLOAT}
    # partial applies to the root group-by only
    nested = HashGroupBy(grouped, ("i",), (Agg("m", "max", Col("a")),))
    assert _dtypes(nested, _T, partial=True) == {"i": INT, "m": FLOAT}


# -- empty and narrow results -------------------------------------------------

N = 300


@pytest.fixture(scope="module")
def small():
    """``i`` is a narrow (int32) base column, ``f`` a float, ``s`` coded."""
    rng = np.random.default_rng(7)
    pdf = pd.DataFrame({"i": np.arange(N, dtype=np.int32),
                        "f": rng.integers(0, 5, N) + 0.5,
                        "s": rng.choice(["x", "y", "z"], N)})
    return pdf, {"t": Table.from_pandas(pdf)}


_SCAN = Scan("t", ("i", "f", "s"))
_NONE = Select(_SCAN, (Cmp("<", _I, Const(0)),))  # no row qualifies
_EMPTY_AGGS = (Agg("s_i", "sum", _I), Agg("mx", "max", _F), Agg("c", "count"),
               Agg("a", "avg", _F))
EMPTY = {
    "select": _NONE,
    "groupby": HashGroupBy(_NONE, ("f", "s"), _EMPTY_AGGS),
    "global": HashGroupBy(_NONE, (), _EMPTY_AGGS),
}


def _check(got, plan, tables, kind="rows"):
    assert {c: str(t) for c, t in got.dtypes.items()} == _dtypes(plan, tables)
    if kind == "global":
        assert len(got) == 1 and got["c"][0] == 0
        assert got[["s_i", "mx", "a"]].isna().all(axis=None)
    elif kind != "rows":
        assert len(got) == 0


def _run(plan, tables, engine, vs, decode=False):
    return run_query(SimpleNamespace(plan=plan), tables, engine,
                     vector_size=vs, decode=decode)


ENGINE_RUNS = [("typer", 1000), ("tectorwise", 1), ("tectorwise", 1000)]


@pytest.mark.parametrize("engine,vs", ENGINE_RUNS)
@pytest.mark.parametrize("kind", sorted(EMPTY))
def test_empty_results_have_schema_dtypes(small, kind, engine, vs):
    _, t = small
    _check(_run(EMPTY[kind], t, engine, vs), EMPTY[kind], t, kind)
    _run(EMPTY[kind], t, engine, vs, decode=True)  # decoding an empty result


@pytest.mark.parametrize("engine,vs", ENGINE_RUNS)
def test_narrow_pass_through_is_int64(small, engine, vs):
    _, t = small
    plan = Select(_SCAN, (Cmp("<", _I, Const(10)),))
    got = _run(plan, t, engine, vs)
    assert len(got) == 10
    _check(got, plan, t)


@pytest.mark.parametrize("engine", ["typer", "tectorwise"])
@pytest.mark.parametrize("kind", ["groupby", "global"])
def test_spark_empty_results_have_schema_dtypes(spark, small, kind, engine):
    """Every morsel has rows, but none qualifies."""
    _, t = small
    got = spark_exec.run_plan_spark(spark, EMPTY[kind], t, engine=engine, n_partitions=2)
    _check(got, EMPTY[kind], t, kind)


@pytest.mark.parametrize("engine", ["typer", "tectorwise"])
def test_spark_float_key_behind_selective_filter(spark, small, engine):
    """The first 64 probe rows fail the filter and the group key is a
    float: the partial schema must not depend on which rows come first."""
    pdf, t = small
    plan = HashGroupBy(Select(_SCAN, (Cmp(">=", _I, Const(64)),)), ("f", "s"),
                       (Agg("s_i", "sum", _I), Agg("c", "count"), Agg("a", "avg", _I)))
    got = spark_exec.run_plan_spark(spark, plan, t, engine=engine, n_partitions=2)
    _check(got, plan, t)
    assert_pandas_equivalent(
        decode_result(got, plan, t),
        "SELECT f, s, sum(i) AS s_i, count(*) AS c, avg(i) AS a "
        "FROM t WHERE i >= 64 GROUP BY f, s",
        t=pdf,
    )


@pytest.mark.parametrize("engine", ["typer", "tectorwise"])
@pytest.mark.parametrize("kind", ["groupby", "global"])
def test_spark_empty_probe_table(spark, small, kind, engine):
    """Spark cannot infer a schema from a 0-row probe table."""
    pdf, _ = small
    t = {"t": Table.from_pandas(pdf.iloc[:0])}
    plan = HashGroupBy(_SCAN, ("f", "s") if kind == "groupby" else (), _EMPTY_AGGS)
    got = spark_exec.run_plan_spark(spark, plan, t, engine=engine, n_partitions=2)
    _check(got, plan, t, kind)


def test_cached_probe_df_column_types(spark, small):
    """The probe's Spark types follow its column dtypes (coded ``s`` is int32)."""
    _, t = small
    sdf = spark_exec.cached_probe_df(spark, _SCAN, t, 2)
    assert sdf.dtypes == [("i", "bigint"), ("f", "double"), ("s", "int")]
    sdf.unpersist()
