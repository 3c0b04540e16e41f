"""Columnar Table encoding: dates, dictionaries, oracle view."""
import numpy as np
import pandas as pd
import pytest

from repro.core.common.table import Table, date_to_int, dlit, to_oracle_pandas


@pytest.fixture()
def pdf():
    return pd.DataFrame(
        {
            "k": np.array([1, 2, 3, 4], dtype="int64"),
            "price": [1.5, 2.5, 3.5, 4.5],
            "flag": ["A", "B", "A", "C"],
            "day": pd.to_datetime(
                ["1994-01-01", "1994-12-31", "1995-06-15", "1992-02-29"]
            ),
        }
    )


def test_dlit():
    assert dlit("1994-01-01") == 19940101
    assert dlit("1998-09-02") == 19980902


def test_date_to_int(pdf):
    out = date_to_int(pdf["day"])
    assert list(out) == [19940101, 19941231, 19950615, 19920229]
    assert out.dtype == np.int32


def test_from_pandas_types(pdf):
    t = Table.from_pandas(pdf)
    assert t.n == 4
    assert t.columns["k"].dtype == np.int64
    assert t.columns["price"].dtype == np.float64
    assert t.columns["flag"].dtype == np.int32
    assert t.columns["day"].dtype == np.int32
    assert "flag" in t.dicts and "day" not in t.dicts


def test_dict_roundtrip(pdf):
    t = Table.from_pandas(pdf)
    decoded = t.dicts["flag"][t.columns["flag"]]
    assert list(decoded) == list(pdf["flag"])


def test_shared_dicts(pdf):
    t1 = Table.from_pandas(pdf)
    # a partition with a different value order must agree on codes
    part = pdf.iloc[[2, 1]].reset_index(drop=True)
    t2 = Table.from_pandas(part, shared_dicts={"flag": t1.dicts["flag"]})
    assert list(t2.columns["flag"]) == [t1.columns["flag"][2], t1.columns["flag"][1]]


def test_shared_dicts_unknown_value_raises(pdf):
    t1 = Table.from_pandas(pdf)
    bad = pd.DataFrame({"flag": ["ZZZ"]})
    with pytest.raises(ValueError):
        Table.from_pandas(bad, shared_dicts={"flag": t1.dicts["flag"]})


def test_nbytes(pdf):
    t = Table.from_pandas(pdf)
    assert t.nbytes(["k"]) == 4 * 8
    assert t.nbytes() == sum(a.nbytes for a in t.columns.values())


def test_to_oracle_pandas(pdf):
    out = to_oracle_pandas(pdf)
    assert out["day"].iloc[0] == 19940101
    assert list(out["flag"]) == list(pdf["flag"])  # strings untouched
    assert out["price"].dtype == np.float64


def test_empty_table():
    t = Table({})
    assert t.n == 0
