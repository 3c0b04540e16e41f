"""Plan-tree utilities: scans, joins, leaf resolution, structure scaling,
output schema, normalization, decode, and jobs importability."""
import importlib.util
import pathlib

import numpy as np
import pandas as pd
import pytest

from repro.core.common import plan as PL
from repro.core.common.expr import Cmp, Col, Const
from repro.core.common.plan import (
    Agg, Field, HashGroupBy, HashJoin, Project, Scan, Select,
    decode_result, joins, leaf_scan, output_schema, scans, tuples_scanned,
)
from repro.core.common.table import Table
from repro.queries import ssb, tpch
from repro.runner import prepare_ssb, prepare_tpch


@pytest.fixture(scope="module")
def tpch_plans():
    _, enc = prepare_tpch(0.002)
    return enc, tpch.all_queries(enc)


def _plan():
    j = HashJoin(
        build=Scan("s", ("sk", "pay")),
        probe=Select(Scan("r", ("k", "v")), (Cmp("<", Col("k"), Const(5)),)),
        build_keys=("sk",),
        probe_keys=("k",),
        payload=("pay",),
    )
    return HashGroupBy(j, ("k",), (Agg("t", "sum", Col("pay")),))


def test_scans_order_probe_first():
    s = scans(_plan())
    assert [x.table for x in s] == ["r", "s"]


def test_leaf_scan():
    assert leaf_scan(_plan()).table == "r"


def test_joins_collects_all(tpch_plans):
    _, queries = tpch_plans
    assert len(joins(queries["q9"].plan)) == 5
    assert len(joins(queries["q1"].plan)) == 0
    names = [j.name for j in joins(queries["q18"].plan)]
    assert len(names) == len(set(names))  # unique auto-names


def test_out_cols():
    p = _plan()
    assert p.out_cols() == ["k", "t"]
    assert p.child.out_cols() == ["k", "v", "pay"]


def test_tuples_scanned():
    r = Table({"k": np.arange(10), "v": np.arange(10.0)})
    s = Table({"sk": np.arange(3), "pay": np.arange(3.0)})
    assert tuples_scanned(_plan(), {"r": r, "s": s}) == 13


def _coded_tables():
    r = Table.from_pandas(pd.DataFrame({"k": ["a", "b"], "v": [1.0, 2.0]}))
    s = Table.from_pandas(pd.DataFrame({"sk": [0, 1], "pay": ["x", "y"]}))
    return {"r": r, "s": s}


def test_schema_through_join_and_groupby():
    t = _coded_tables()
    assert output_schema(_plan(), t) == {
        "k": Field("int64", ("r", "k")), "t": Field("int64"),
    }
    child = output_schema(_plan().child, t)
    assert child["pay"] == Field("int64", ("s", "pay"))
    assert child["v"] == Field("float64")


def test_schema_project_renames():
    p = Project(Scan("r", ("k",)), (("kk", Col("k")), ("x", Cmp("<", Col("k"), Const(1)))))
    # a computed column has no dictionary
    assert output_schema(p, _coded_tables()) == {
        "kk": Field("int64", ("r", "k")), "x": Field("int64"),
    }


def test_decode_result():
    pdf = pd.DataFrame({"flag": ["x", "y", "x", "z"]})
    tab = Table.from_pandas(pdf)
    plan = HashGroupBy(Scan("r", ("flag",)), ("flag",), (Agg("c", "count"),))
    res = pd.DataFrame({"flag": [0, 1, 2], "c": [2, 1, 1]})
    out = decode_result(res, plan, {"r": tab})
    assert list(out["flag"]) == ["x", "y", "z"]


def test_query_tables_attr_complete(tpch_plans):
    _, queries = tpch_plans
    for q in queries.values():
        assert {s.table for s in scans(q.plan)} == set(q.tables)


def test_ssb_query_tables_attr_complete():
    _, enc = prepare_ssb(0.002)
    for q in ssb.all_queries(enc).values():
        assert {s.table for s in scans(q.plan)} == set(q.tables)


def test_join_tables_grow_unless_built_from_fixed_dimensions(tpch_plans):
    """The SSB date joins and q9's nation join build hash tables that keep
    their size as the SF grows; every other join's table grows."""
    _, ssb_enc = prepare_ssb(0.002)
    queries = {**tpch_plans[1], **ssb.all_queries(ssb_enc)}
    fixed = {
        (qname, j.build_keys)
        for qname, q in queries.items()
        for j in joins(q.plan)
        if not PL.grows(j.build)
    }
    assert fixed == {
        ("q9", ("n_nationkey",)),
        ("q1.1", ("d_datekey",)),
        ("q2.1", ("d_datekey",)),
        ("q3.1", ("d_datekey",)),
        ("q4.1", ("d_datekey",)),
    }


def test_agg_validation():
    with pytest.raises(AssertionError):
        Agg("x", "median", Col("v"))
    with pytest.raises(AssertionError):
        Agg("x", "sum", None)
    Agg("x", "count")  # ok


@pytest.mark.parametrize(
    "job",
    [
        "table1_counters", "ssb_counters", "table2_production",
        "table3_multicore", "table4_hardware", "table5_ssd", "vector_sizes",
    ],
)
def test_jobs_importable(job):
    path = pathlib.Path(__file__).resolve().parents[1] / "jobs" / f"{job}.py"
    spec = importlib.util.spec_from_file_location(job, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert callable(mod.main)
