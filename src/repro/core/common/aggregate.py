"""Shared aggregation finalization.

Both engines accumulate (group-key, aggregate-input) rows and finish the
aggregation here, so results are bit-identical across engines.

Partial mode emits mergeable columns: ``sum``/``min``/``max`` stay
themselves, ``count`` emits a count to be summed, ``avg`` splits into
``<out>__sum`` and ``<out>__cnt`` (finalized as their quotient).
``partial_columns`` names each column's merge function; the Spark morsel
path merges the partials with Catalyst (``spark_exec``).
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def agg_input_col(out: str) -> str:
    return f"__in_{out}"


def partial_columns(agg) -> list:
    """(column, merge_fn) pairs a partial aggregate emits for ``agg``."""
    if agg.fn == "avg":
        return [(f"{agg.out}__sum", "sum"), (f"{agg.out}__cnt", "sum")]
    if agg.fn == "count":
        return [(agg.out, "sum")]
    return [(agg.out, agg.fn)]


def aggregate_pandas(
    key_arrays: dict, input_arrays: dict, aggs, keys, partial: bool = False
) -> pd.DataFrame:
    """Aggregate accumulated rows.

    ``key_arrays`` maps key column -> np array; ``input_arrays`` maps
    aggregate output name -> its input values (absent for count).
    """
    n = (
        len(next(iter(key_arrays.values())))
        if key_arrays
        else (len(next(iter(input_arrays.values()))) if input_arrays else 0)
    )
    data = dict(key_arrays)
    for out, vals in input_arrays.items():
        data[agg_input_col(out)] = vals
    df = pd.DataFrame(data) if data else pd.DataFrame(index=range(n))

    if keys:
        gb = df.groupby(list(keys), sort=False, as_index=False)
        spec = {}
        size_col = keys[0]  # any column works for a 'size' named aggregation
        for a in aggs:
            if partial and a.fn == "avg":
                spec[f"{a.out}__sum"] = (agg_input_col(a.out), "sum")
                spec[f"{a.out}__cnt"] = (agg_input_col(a.out), "size")
            elif a.fn == "count":
                spec[a.out] = (size_col, "size")
            elif a.fn == "avg":
                spec[a.out] = (agg_input_col(a.out), "mean")
            else:
                spec[a.out] = (agg_input_col(a.out), a.fn)
        return gb.agg(**spec)

    row = {}
    for a in aggs:
        v = df[agg_input_col(a.out)] if a.fn != "count" else None
        if partial and a.fn == "avg":
            row[f"{a.out}__sum"] = v.sum() if n else 0.0
            row[f"{a.out}__cnt"] = n
        elif a.fn == "count":
            row[a.out] = n
        elif n == 0:
            row[a.out] = np.nan
        else:
            row[a.out] = getattr(v, "mean" if a.fn == "avg" else a.fn)()
    return pd.DataFrame({k: [v] for k, v in row.items()})
