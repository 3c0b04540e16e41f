"""Query = shared physical plan + reference SQL.

The same plan object is executed by both engines (the paper fixes the
physical plan, §3); the SQL string is executed by the DuckDB oracle and
by Spark SQL (it is written in the common dialect subset of both).
"""
from __future__ import annotations

from dataclasses import dataclass

from ..core.common import plan as PL


@dataclass
class Query:
    name: str
    plan: object
    sql: str
    tables: tuple

    def tuples_scanned(self, tables) -> int:
        return PL.tuples_scanned(self.plan, tables)
