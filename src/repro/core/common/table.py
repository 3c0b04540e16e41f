"""Columnar in-memory table: NumPy columns + string dictionaries.

Both engines execute over ``Table`` objects. Conversion from pandas
performs the two normalizations documented in DESIGN.md:

* datetime columns become ``int32`` ``YYYYMMDD`` values (comparison- and
  year-exact, and expressible in plain SQL for the DuckDB oracle);
* string columns are dictionary-encoded to ``int32`` codes, with the
  dictionary kept alongside so result columns can be decoded back
  (``plan.decode_result``).

``to_oracle_pandas`` produces the equivalent frame with dates converted
but strings kept, which is what gets registered with DuckDB so that both
sides of every correctness check see identical data.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd


def date_to_int(series: pd.Series) -> np.ndarray:
    """datetime64 series -> int32 YYYYMMDD."""
    dt = pd.DatetimeIndex(series)
    return (dt.year * 10000 + dt.month * 100 + dt.day).to_numpy().astype("int32")


def dlit(s: str) -> int:
    """Date literal for plans/SQL: ``dlit('1994-01-01') == 19940101``."""
    y, m, d = s.split("-")
    return int(y) * 10000 + int(m) * 100 + int(d)


def to_oracle_pandas(pdf: pd.DataFrame) -> pd.DataFrame:
    """Date->int conversion only; registered with DuckDB and Spark SQL."""
    out = {}
    for c in pdf.columns:
        if pd.api.types.is_datetime64_any_dtype(pdf[c]):
            out[c] = date_to_int(pdf[c])
        else:
            out[c] = pdf[c].to_numpy()
    return pd.DataFrame(out)


@dataclass
class Table:
    """Immutable columnar table. ``dicts[col]`` is set iff ``col`` is coded."""

    columns: dict[str, np.ndarray]
    dicts: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def nbytes(self, cols=None) -> int:
        names = self.columns if cols is None else cols
        return int(sum(self.columns[c].nbytes for c in names))

    @classmethod
    def from_pandas(cls, pdf: pd.DataFrame, shared_dicts: dict | None = None) -> "Table":
        """Encode a pandas frame.

        ``shared_dicts`` maps column name -> fixed dictionary (np.ndarray of
        strings). When given (the Spark morsel path, where every partition
        must agree on codes), values are encoded against it; unseen values
        raise. Otherwise dictionaries are built per column by first
        appearance order (deterministic for a deterministic generator).
        """
        columns: dict[str, np.ndarray] = {}
        dicts: dict[str, np.ndarray] = {}
        for c in pdf.columns:
            s = pdf[c]
            if pd.api.types.is_datetime64_any_dtype(s):
                columns[c] = date_to_int(s)
            elif s.dtype == object or pd.api.types.is_string_dtype(s):
                if shared_dicts and c in shared_dicts:
                    cat = pd.Categorical(s, categories=shared_dicts[c])
                    codes = cat.codes
                    if (codes < 0).any():
                        raise ValueError(f"value outside shared dictionary in {c}")
                    columns[c] = codes.astype("int32")
                    dicts[c] = np.asarray(shared_dicts[c], dtype=object)
                else:
                    codes, uniques = pd.factorize(s)
                    columns[c] = codes.astype("int32")
                    dicts[c] = np.asarray(uniques, dtype=object)
            elif pd.api.types.is_float_dtype(s):
                columns[c] = s.to_numpy(dtype="float64")
            else:
                columns[c] = s.to_numpy(dtype="int64")
        return cls(columns, dicts)
