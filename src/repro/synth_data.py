"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.

Two families are provided:

* TPC-H-lite — ``lineitem``/``orders``/``customer``/``part`` (provided by
  the scaffold, extended here with ``l_suppkey``, ``o_shippriority`` and
  ``p_name``) plus ``supplier``/``nation``/``partsupp`` so that the paper's
  query subset (Q1, Q6, Q3, Q9, Q18) is fully expressible.
* SSB-lite — ``ssb_lineorder``/``ssb_date``/``ssb_part``/``ssb_supplier``/
  ``ssb_customer`` for the Star Schema Benchmark queries of §4.4.

Every generator is ``<name>_pdf(sf, seed)`` and returns a pandas
DataFrame (what the in-process engines and the DuckDB oracle consume);
``TPCH_GENERATORS`` and ``SSB_GENERATORS`` map table names to them.
"""
import numpy as np
import pandas as pd

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000
_N_SUPPLIER_PER_SF = 10_000
_SUPP_PER_PART = 4  # partsupp rows per part, as in TPC-H

_N_SSB_LINEORDER_PER_SF = 6_000_000
_N_SSB_CUSTOMER_PER_SF = 30_000
_N_SSB_SUPPLIER_PER_SF = 2_000
_N_SSB_PART_PER_SF = 200_000

_COLORS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
    "chiffon", "chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan",
    "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
    "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
]

_NATIONS = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
    "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
]

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
# nation -> region, SSB style (5 nations per region)
_NATION_REGION = np.repeat(np.arange(5), 5)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _n(per_sf: int, sf: float) -> int:
    return max(1, int(per_sf * sf))


# ---------------------------------------------------------------------------
# TPC-H-lite
# ---------------------------------------------------------------------------

def lineitem_pdf(sf: float = 0.01, seed: int = 0) -> pd.DataFrame:
    """Fact table. ``(l_partkey, l_suppkey)`` always exists in partsupp."""
    n = _n(_N_LINEITEM_PER_SF, sf)
    n_orders = _n(_N_ORDERS_PER_SF, sf)
    n_part = _n(_N_PART_PER_SF, sf)
    n_supp = _n(_N_SUPPLIER_PER_SF, sf)
    g = _rng(seed)
    partkey = g.integers(1, n_part + 1, n)
    # pick one of the part's _SUPP_PER_PART suppliers (TPC-H invariant)
    j = g.integers(0, _SUPP_PER_PART, n)
    suppkey = ((partkey + j * (n_supp // _SUPP_PER_PART + 1)) % n_supp) + 1
    return pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": partkey,
            "l_suppkey": suppkey,
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )


def orders_pdf(sf: float = 0.01, seed: int = 1) -> pd.DataFrame:
    n = _n(_N_ORDERS_PER_SF, sf)
    n_cust = _n(_N_CUSTOMER_PER_SF, sf)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
            "o_shippriority": np.zeros(n, dtype="int64"),
        }
    )


def part_pdf(sf: float = 0.01, seed: int = 5) -> pd.DataFrame:
    n = _n(_N_PART_PER_SF, sf)
    g = _rng(seed)
    c1 = g.choice(len(_COLORS), n)
    c2 = g.choice(len(_COLORS), n)
    names = np.array(
        [f"{_COLORS[a]} {_COLORS[b]}" for a, b in zip(c1, c2)], dtype=object
    )
    return pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_name": names,
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice(
                [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n
            ),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )


def customer_pdf(sf: float = 0.01, seed: int = 2) -> pd.DataFrame:
    n = _n(_N_CUSTOMER_PER_SF, sf)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )


def supplier_pdf(sf: float = 0.01, seed: int = 6) -> pd.DataFrame:
    n = _n(_N_SUPPLIER_PER_SF, sf)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n + 1),
            "s_nationkey": g.integers(0, 25, n),
            "s_acctbal": (g.random(n) * 10000 - 1000).round(2),
        }
    )


def nation_pdf(sf: float = 0.01, seed: int = 7) -> pd.DataFrame:
    """25 fixed nations; ``sf``/``seed`` accepted for API uniformity."""
    return pd.DataFrame(
        {
            "n_nationkey": np.arange(25),
            "n_name": np.array(_NATIONS, dtype=object),
            "n_regionkey": _NATION_REGION[np.arange(25) % 25].astype("int64"),
        }
    )


def partsupp_pdf(sf: float = 0.01, seed: int = 8) -> pd.DataFrame:
    """_SUPP_PER_PART rows per part; supplier choice mirrors lineitem_pdf."""
    n_part = _n(_N_PART_PER_SF, sf)
    n_supp = _n(_N_SUPPLIER_PER_SF, sf)
    g = _rng(seed)
    partkey = np.repeat(np.arange(1, n_part + 1), _SUPP_PER_PART)
    j = np.tile(np.arange(_SUPP_PER_PART), n_part)
    suppkey = ((partkey + j * (n_supp // _SUPP_PER_PART + 1)) % n_supp) + 1
    return pd.DataFrame(
        {
            "ps_partkey": partkey,
            "ps_suppkey": suppkey,
            "ps_availqty": g.integers(1, 10000, len(partkey)),
            "ps_supplycost": (g.random(len(partkey)) * 1000 + 1).round(2),
        }
    )


# ---------------------------------------------------------------------------
# SSB-lite (Star Schema Benchmark, §4.4 of the paper)
# ---------------------------------------------------------------------------

def ssb_date_pdf(sf: float = 0.01, seed: int = 10) -> pd.DataFrame:
    """One row per day of 1992-01-01 .. 1998-12-31 (2557 rows, SF-independent)."""
    days = pd.date_range("1992-01-01", "1998-12-31", freq="D")
    return pd.DataFrame(
        {
            "d_datekey": (
                days.year * 10000 + days.month * 100 + days.day
            ).astype("int64"),
            "d_year": days.year.astype("int64"),
            "d_yearmonthnum": (days.year * 100 + days.month).astype("int64"),
            "d_weeknuminyear": days.isocalendar().week.astype("int64").to_numpy(),
        }
    )


def _geo(g: np.random.Generator, n: int, prefix: str) -> pd.DataFrame:
    nationkey = g.integers(0, 25, n)
    region = np.array(_REGIONS, dtype=object)[_NATION_REGION[nationkey]]
    nation = np.array(_NATIONS, dtype=object)[nationkey]
    city = np.array(
        [f"{nat[:9]}{i}" for nat, i in zip(nation, g.integers(0, 10, n))],
        dtype=object,
    )
    return pd.DataFrame(
        {f"{prefix}_city": city, f"{prefix}_nation": nation, f"{prefix}_region": region}
    )


def ssb_customer_pdf(sf: float = 0.01, seed: int = 11) -> pd.DataFrame:
    n = _n(_N_SSB_CUSTOMER_PER_SF, sf)
    g = _rng(seed)
    out = _geo(g, n, "c")
    out.insert(0, "c_custkey", np.arange(1, n + 1))
    return out


def ssb_supplier_pdf(sf: float = 0.01, seed: int = 12) -> pd.DataFrame:
    n = _n(_N_SSB_SUPPLIER_PER_SF, sf)
    g = _rng(seed)
    out = _geo(g, n, "s")
    out.insert(0, "s_suppkey", np.arange(1, n + 1))
    return out


def ssb_part_pdf(sf: float = 0.01, seed: int = 13) -> pd.DataFrame:
    n = _n(_N_SSB_PART_PER_SF, sf)
    g = _rng(seed)
    mfgr = g.integers(1, 6, n)
    cat = g.integers(1, 6, n)
    brand = g.integers(1, 41, n)
    return pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_mfgr": np.array([f"MFGR#{m}" for m in mfgr], dtype=object),
            "p_category": np.array(
                [f"MFGR#{m}{c}" for m, c in zip(mfgr, cat)], dtype=object
            ),
            "p_brand1": np.array(
                [f"MFGR#{m}{c}{b:02d}" for m, c, b in zip(mfgr, cat, brand)],
                dtype=object,
            ),
        }
    )


def ssb_lineorder_pdf(sf: float = 0.01, seed: int = 14) -> pd.DataFrame:
    n = _n(_N_SSB_LINEORDER_PER_SF, sf)
    n_cust = _n(_N_SSB_CUSTOMER_PER_SF, sf)
    n_supp = _n(_N_SSB_SUPPLIER_PER_SF, sf)
    n_part = _n(_N_SSB_PART_PER_SF, sf)
    g = _rng(seed)
    datekeys = ssb_date_pdf()["d_datekey"].to_numpy()
    price = (g.random(n) * 90000 + 900).round(0).astype("int64")
    discount = g.integers(0, 11, n)
    return pd.DataFrame(
        {
            "lo_orderkey": g.integers(1, max(2, n // 4), n),
            "lo_custkey": g.integers(1, n_cust + 1, n),
            "lo_partkey": g.integers(1, n_part + 1, n),
            "lo_suppkey": g.integers(1, n_supp + 1, n),
            "lo_orderdate": g.choice(datekeys, n),
            "lo_quantity": g.integers(1, 51, n),
            "lo_extendedprice": price,
            "lo_discount": discount,
            "lo_revenue": price * (100 - discount) // 100,
            "lo_supplycost": (g.random(n) * 50000 + 500).round(0).astype("int64"),
        }
    )


TPCH_GENERATORS = {
    "lineitem": lineitem_pdf,
    "orders": orders_pdf,
    "customer": customer_pdf,
    "part": part_pdf,
    "supplier": supplier_pdf,
    "nation": nation_pdf,
    "partsupp": partsupp_pdf,
}

SSB_GENERATORS = {
    "lineorder": ssb_lineorder_pdf,
    "date": ssb_date_pdf,
    "part": ssb_part_pdf,
    "supplier": ssb_supplier_pdf,
    "customer": ssb_customer_pdf,
}
