"""Shared aggregation kernel: direct and partial paths, and the merge
of partials by ``partial_columns``."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common.aggregate import aggregate_pandas, partial_columns
from repro.core.common.plan import Agg
from repro.core.common.expr import Col

AGGS = (
    Agg("s", "sum", Col("v")),
    Agg("c", "count"),
    Agg("mn", "min", Col("v")),
    Agg("mx", "max", Col("v")),
    Agg("a", "avg", Col("v")),
)


def _merge(pdf: pd.DataFrame, keys, aggs) -> pd.DataFrame:
    """Merge partial rows the way ``spark_exec`` asks Catalyst to: each
    partial column by its ``partial_columns`` function, then avg as
    ``__sum / __cnt``."""
    spec = {col: fn for a in aggs for col, fn in partial_columns(a)}
    if keys:
        merged = pdf.groupby(list(keys), as_index=False).agg(spec)
    else:
        merged = pd.DataFrame({c: [getattr(pdf[c], fn)()] for c, fn in spec.items()})
    out = merged[list(keys)].copy() if keys else pd.DataFrame(index=[0])
    for a in aggs:
        if a.fn == "avg":
            out[a.out] = merged[f"{a.out}__sum"] / merged[f"{a.out}__cnt"]
        else:
            out[a.out] = merged[a.out]
    return out


def _data(n=500, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 7, n), rng.random(n).round(4)


def test_grouped_direct():
    k, v = _data()
    got = aggregate_pandas({"k": k}, {x.out: v for x in AGGS if x.fn != "count"}, AGGS, ["k"])
    ref = (
        pd.DataFrame({"k": k, "v": v}).groupby("k")
        .agg(s=("v", "sum"), c=("v", "size"), mn=("v", "min"), mx=("v", "max"), a=("v", "mean"))
        .reset_index()
    )
    got = got.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref.sort_values("k").reset_index(drop=True), check_dtype=False)


def test_global_direct():
    _, v = _data()
    got = aggregate_pandas({}, {x.out: v for x in AGGS if x.fn != "count"}, AGGS, [])
    assert got["s"][0] == pytest.approx(v.sum())
    assert got["c"][0] == len(v)
    assert got["a"][0] == pytest.approx(v.mean())


def test_global_empty():
    got = aggregate_pandas({}, {"s": np.empty(0)}, (Agg("s", "sum", Col("v")), Agg("c", "count")), [])
    assert np.isnan(got["s"][0]) and got["c"][0] == 0


def test_partial_columns_spec():
    assert partial_columns(Agg("a", "avg", Col("v"))) == [("a__sum", "sum"), ("a__cnt", "sum")]
    assert partial_columns(Agg("c", "count")) == [("c", "sum")]
    assert partial_columns(Agg("m", "min", Col("v"))) == [("m", "min")]


@pytest.mark.parametrize("n_splits", [1, 2, 5])
def test_partial_then_finalize_equals_direct(n_splits):
    """Morsel split: partial aggregates per chunk + merge == one pass."""
    k, v = _data(600, seed=3)
    direct = aggregate_pandas(
        {"k": k}, {x.out: v for x in AGGS if x.fn != "count"}, AGGS, ["k"]
    ).sort_values("k").reset_index(drop=True)
    parts = []
    for chunk in np.array_split(np.arange(len(k)), n_splits):
        parts.append(
            aggregate_pandas(
                {"k": k[chunk]},
                {x.out: v[chunk] for x in AGGS if x.fn != "count"},
                AGGS, ["k"], partial=True,
            )
        )
    merged = _merge(pd.concat(parts, ignore_index=True), ["k"], AGGS)
    merged = merged.sort_values("k").reset_index(drop=True)[direct.columns]
    pd.testing.assert_frame_equal(merged, direct, check_dtype=False)


def test_partial_then_finalize_global():
    k, v = _data(100, seed=5)
    aggs = (Agg("s", "sum", Col("v")), Agg("a", "avg", Col("v")), Agg("c", "count"))
    parts = []
    for chunk in np.array_split(np.arange(len(v)), 3):
        parts.append(
            aggregate_pandas({}, {"s": v[chunk], "a": v[chunk]}, aggs, [], partial=True)
        )
    merged = _merge(pd.concat(parts, ignore_index=True), [], aggs)
    assert merged["s"][0] == pytest.approx(v.sum())
    assert merged["a"][0] == pytest.approx(v.mean())
    assert merged["c"][0] == len(v)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.floats(-100, 100, allow_nan=False)),
        min_size=1, max_size=60,
    ),
    st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_merge_associativity_hypothesis(rows, n_splits):
    k = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    aggs = (Agg("s", "sum", Col("v")), Agg("mx", "max", Col("v")), Agg("c", "count"))
    direct = aggregate_pandas({"k": k}, {"s": v, "mx": v}, aggs, ["k"])
    parts = [
        aggregate_pandas({"k": k[c]}, {"s": v[c], "mx": v[c]}, aggs, ["k"], partial=True)
        for c in np.array_split(np.arange(len(k)), min(n_splits, len(k)))
        if len(c)
    ]
    merged = _merge(pd.concat(parts, ignore_index=True), ["k"], aggs)
    d = direct.sort_values("k").reset_index(drop=True)
    m = merged.sort_values("k").reset_index(drop=True)[d.columns]
    pd.testing.assert_frame_equal(m, d, check_dtype=False, atol=1e-9)


def test_composite_group_keys():
    rng = np.random.default_rng(9)
    k1, k2 = rng.integers(0, 3, 200), rng.integers(0, 4, 200)
    v = rng.random(200)
    aggs = (Agg("s", "sum", Col("v")),)
    got = aggregate_pandas({"a": k1, "b": k2}, {"s": v}, aggs, ["a", "b"])
    ref = pd.DataFrame({"a": k1, "b": k2, "v": v}).groupby(["a", "b"])["v"].sum().reset_index(name="s")
    got = got.sort_values(["a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref.sort_values(["a", "b"]).reset_index(drop=True), check_dtype=False)
