"""Workload preparation + unified engine dispatch.

``prepare_tpch``/``prepare_ssb`` generate a scale factor's tables once
and return both views the reproduction needs: ``oracle`` (dates as
YYYYMMDD ints, strings intact — registered with DuckDB/Spark SQL) and
``enc`` (fully encoded engine tables). ``run_query`` executes a Query on
either engine, casts the result to the plan's output schema, and decodes
dictionary-coded output columns.
"""
from __future__ import annotations

from functools import lru_cache

import pandas as pd

from . import synth_data
from .core import compiled, vectorized
from .core.common.plan import cast_result, decode_result, output_schema
from .core.common.table import Table, to_oracle_pandas

ENGINES = ("typer", "tectorwise")


def _prepare(generators: dict, sf: float):
    raw = {name: gen(sf) for name, gen in generators.items()}
    oracle = {name: to_oracle_pandas(pdf) for name, pdf in raw.items()}
    enc = {name: Table.from_pandas(pdf) for name, pdf in raw.items()}
    return oracle, enc


@lru_cache(maxsize=8)
def prepare_tpch(sf: float = 0.01):
    return _prepare(synth_data.TPCH_GENERATORS, sf)


@lru_cache(maxsize=8)
def prepare_ssb(sf: float = 0.01):
    gens = dict(synth_data.SSB_GENERATORS)
    gens["ddate"] = gens.pop("date")
    return _prepare(gens, sf)


def run_query(
    query,
    tables_enc: dict,
    engine: str,
    cm=None,
    vector_size: int = 1000,
    decode: bool = True,
    **kw,
) -> pd.DataFrame:
    """Execute ``query.plan`` on the chosen engine, return pandas with
    ``output_schema``'s dtypes, decoded unless ``decode=False``."""
    if engine in ("typer", "compiled"):
        df = compiled.run_plan(query.plan, tables_enc, cm=cm, **kw)
    elif engine in ("tectorwise", "tw", "vectorized"):
        df = vectorized.run_plan(
            query.plan, tables_enc, cm=cm, vector_size=vector_size, **kw
        )
    else:
        raise ValueError(engine)
    df = cast_result(df, output_schema(query.plan, tables_enc))
    return decode_result(df, query.plan, tables_enc) if decode else df
