"""Generator tests: schemas, determinism, cardinalities, invariants."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd

SF = 0.01


@pytest.mark.parametrize("name,gen", list(sd.TPCH_GENERATORS.items()))
def test_tpch_deterministic(name, gen):
    a, b = gen(SF), gen(SF)
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize("name,gen", list(sd.SSB_GENERATORS.items()))
def test_ssb_deterministic(name, gen):
    a, b = gen(SF), gen(SF)
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize(
    "gen,per_sf",
    [
        (sd.lineitem_pdf, 6_000_000),
        (sd.orders_pdf, 1_500_000),
        (sd.customer_pdf, 150_000),
        (sd.part_pdf, 200_000),
        (sd.supplier_pdf, 10_000),
        (sd.ssb_lineorder_pdf, 6_000_000),
        (sd.ssb_customer_pdf, 30_000),
        (sd.ssb_supplier_pdf, 2_000),
        (sd.ssb_part_pdf, 200_000),
    ],
)
def test_cardinality_scales(gen, per_sf):
    assert len(gen(SF)) == int(per_sf * SF)
    assert len(gen(SF * 2)) == int(per_sf * SF * 2)


def test_seed_changes_data():
    a = sd.lineitem_pdf(SF, seed=0)
    b = sd.lineitem_pdf(SF, seed=1)
    assert not a["l_quantity"].equals(b["l_quantity"])


def test_lineitem_schema():
    li = sd.lineitem_pdf(SF)
    for c in (
        "l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
        "l_extendedprice", "l_discount", "l_tax", "l_returnflag",
        "l_linestatus", "l_shipdate",
    ):
        assert c in li.columns


def test_lineitem_fk_ranges():
    li = sd.lineitem_pdf(SF)
    n_orders = len(sd.orders_pdf(SF))
    n_part = len(sd.part_pdf(SF))
    n_supp = len(sd.supplier_pdf(SF))
    assert li["l_orderkey"].between(1, n_orders).all()
    assert li["l_partkey"].between(1, n_part).all()
    assert li["l_suppkey"].between(1, n_supp).all()


def test_lineitem_partsupp_invariant():
    """Every (l_partkey, l_suppkey) pair exists in partsupp (TPC-H rule,
    required for Q9's composite-key join to be lossless)."""
    li = sd.lineitem_pdf(SF)
    ps = sd.partsupp_pdf(SF)
    pairs = set(zip(ps["ps_partkey"], ps["ps_suppkey"]))
    sample = li[["l_partkey", "l_suppkey"]].drop_duplicates().head(500)
    for p, s in zip(sample["l_partkey"], sample["l_suppkey"]):
        assert (p, s) in pairs


def test_partsupp_rows_per_part():
    ps = sd.partsupp_pdf(SF)
    assert (ps.groupby("ps_partkey").size() == 4).all()


def test_nation_fixed():
    n = sd.nation_pdf()
    assert len(n) == 25
    assert n["n_name"].is_unique
    assert n["n_regionkey"].between(0, 4).all()


def test_part_names_contain_green_sometimes():
    p = sd.part_pdf(0.05)
    frac = p["p_name"].str.contains("green").mean()
    assert 0.01 < frac < 0.4


def test_orders_keys_dense():
    o = sd.orders_pdf(SF)
    assert (o["o_orderkey"].to_numpy() == np.arange(1, len(o) + 1)).all()


def test_value_ranges():
    li = sd.lineitem_pdf(SF)
    assert li["l_quantity"].between(1, 50).all()
    assert li["l_discount"].between(0, 0.1).all()
    assert li["l_tax"].between(0, 0.08).all()
    assert (li["l_extendedprice"] > 0).all()


def test_ssb_date_table():
    d = sd.ssb_date_pdf()
    assert len(d) == 2557
    assert d["d_datekey"].is_unique
    assert d["d_year"].between(1992, 1998).all()
    assert d["d_datekey"].iloc[0] == 19920101
    assert d["d_datekey"].iloc[-1] == 19981231


def test_ssb_lineorder_invariants():
    lo = sd.ssb_lineorder_pdf(SF)
    assert lo["lo_discount"].between(0, 10).all()
    assert lo["lo_quantity"].between(1, 50).all()
    expected = lo["lo_extendedprice"] * (100 - lo["lo_discount"]) // 100
    assert (lo["lo_revenue"] == expected).all()
    dates = set(sd.ssb_date_pdf()["d_datekey"])
    assert lo["lo_orderdate"].isin(dates).all()


def test_ssb_geo_consistency():
    c = sd.ssb_customer_pdf(SF)
    # each nation maps to exactly one region
    m = c.groupby("c_nation")["c_region"].nunique()
    assert (m == 1).all()
    assert set(c["c_region"]).issubset(set(sd._REGIONS))


def test_ssb_part_hierarchy():
    p = sd.ssb_part_pdf(SF)
    # brand determines category determines mfgr
    assert (p["p_brand1"].str[:7] == p["p_category"]).all()
    assert (p["p_category"].str[:6] == p["p_mfgr"]).all()
