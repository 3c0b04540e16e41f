"""Shared physical plan nodes.

Both engines execute the *same* plan objects (the paper fixes physical
plans across engines, §3). Plans are trees of five operators — scan,
select, project (map), hash join, hash group-by — matching §3.2.

Conventions:

* ``Select`` holds a tuple of conjuncts; Tectorwise evaluates each as its
  own selection primitive refining a selection vector (Figure 1b), Typer
  fuses them into one ``if`` (Figure 1a).
* ``HashJoin`` builds on ``build`` and streams ``probe``; output columns
  are the probe child's columns plus ``payload`` columns gathered from
  the build side (payload names must not collide with probe columns).
* ``HashGroupBy`` with ``keys=()`` is a global aggregation. ``avg`` is
  computed as sum/count so it decomposes for partial aggregation in the
  Spark morsel path.

Result types come from the plan, never from the data. ``output_schema``
gives every output column one of the plan's two dtypes, ``int64`` or
``float64``:

* a base column is ``float64`` if it is a float column and ``int64``
  otherwise (integers, bools, dates and dictionary codes);
* ``Col`` passes its input's dtype through and ``Const`` takes its
  literal's; ``Arith`` with ``/`` is ``float64``, its other operators are
  ``float64`` if either side is and ``int64`` otherwise; comparisons and
  boolean connectives are ``int64``;
* ``count`` is ``int64`` and ``avg`` is ``float64``; ``sum``, ``min`` and
  ``max`` of a group-by with keys take their input's dtype. A partial
  ``avg`` splits into ``<out>__sum`` (``float64``) and ``<out>__cnt``
  (``int64``).

NULL rule: a global aggregate (``keys=()``) over empty input returns
NULL for everything but ``count``, so every non-``count`` output of a
global aggregate is ``float64`` (its partials included), with NULL
stored as NaN — whether or not the input turns out to be empty.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .expr import Arith, Col, Const, Expr

_join_counter = itertools.count()

AGG_FNS = ("sum", "count", "min", "max", "avg")
INT, FLOAT = "int64", "float64"

#: tables whose cardinality does not grow with the scale factor
FIXED_TABLES = frozenset({"nation", "ddate"})


@dataclass(frozen=True)
class Agg:
    out: str
    fn: str  # one of AGG_FNS
    expr: Expr | None = None  # None only for count

    def __post_init__(self):
        assert self.fn in AGG_FNS, self.fn
        assert self.expr is not None or self.fn == "count"


@dataclass(frozen=True)
class Scan:
    table: str
    cols: tuple

    def out_cols(self):
        return list(self.cols)


@dataclass(frozen=True)
class Select:
    child: object
    conjuncts: tuple
    # Typer implementation choice (§6.2 footnote): a predicated selection
    # evaluates all conjuncts branch-free with one final branch; the
    # default emits one (mispredictable) branch per conjunct. Tectorwise
    # selection primitives are always predicated.
    predicated: bool = False

    def out_cols(self):
        return self.child.out_cols()


@dataclass(frozen=True)
class Project:
    child: object
    outputs: tuple  # ((name, Expr), ...)

    def out_cols(self):
        return [name for name, _ in self.outputs]


@dataclass(frozen=True)
class HashJoin:
    build: object
    probe: object
    build_keys: tuple
    probe_keys: tuple
    payload: tuple
    name: str = field(default_factory=lambda: f"join_{next(_join_counter)}")

    def out_cols(self):
        return self.probe.out_cols() + list(self.payload)


@dataclass(frozen=True)
class HashGroupBy:
    child: object
    keys: tuple
    aggs: tuple

    def out_cols(self):
        return list(self.keys) + [a.out for a in self.aggs]


def scans(plan) -> list[Scan]:
    """All scans in the plan, probe-side first within joins."""
    if isinstance(plan, Scan):
        return [plan]
    if isinstance(plan, (Select, Project, HashGroupBy)):
        return scans(plan.child)
    if isinstance(plan, HashJoin):
        return scans(plan.probe) + scans(plan.build)
    raise TypeError(type(plan))


def joins(plan) -> list:
    """All HashJoin nodes in the plan."""
    if isinstance(plan, Scan):
        return []
    if isinstance(plan, (Select, Project, HashGroupBy)):
        return joins(plan.child)
    if isinstance(plan, HashJoin):
        return [plan] + joins(plan.probe) + joins(plan.build)
    raise TypeError(type(plan))


def grows(plan) -> bool:
    """Whether a structure built from ``plan`` (a hash table) grows with
    the scale factor: some scan in it reads a table outside
    ``FIXED_TABLES``."""
    return any(s.table not in FIXED_TABLES for s in scans(plan))


def leaf_scan(plan) -> Scan:
    """The scan at the bottom of the root (probe-side) pipeline."""
    if isinstance(plan, Scan):
        return plan
    if isinstance(plan, (Select, Project, HashGroupBy)):
        return leaf_scan(plan.child)
    if isinstance(plan, HashJoin):
        return leaf_scan(plan.probe)
    raise TypeError(type(plan))


def tuples_scanned(plan, tables) -> int:
    """Paper's normalizer: sum of cardinalities of all scanned tables."""
    return sum(tables[s.table].n for s in scans(plan))


class Field(NamedTuple):
    """One output column of a plan: its dtype, and for a coded column
    passed through unchanged, the ``(table, column)`` of its dictionary."""

    dtype: str  # "int64" or "float64"
    dictionary: tuple | None = None


def expr_dtype(e: Expr, schema: dict) -> str:
    """dtype of ``e`` over input columns typed by ``schema``."""
    if isinstance(e, Col):
        return schema[e.name].dtype
    if isinstance(e, Const):
        return FLOAT if isinstance(e.value, float) else INT
    if isinstance(e, Arith):
        if e.op == "/":
            return FLOAT
        sides = (expr_dtype(e.l, schema), expr_dtype(e.r, schema))
        return FLOAT if FLOAT in sides else INT
    return INT  # Cmp, InSet, And, Or, Not: booleans


def _agg_fields(a: Agg, child: dict, global_agg: bool, partial: bool) -> dict:
    if a.fn == "count":
        return {a.out: Field(INT)}
    if a.fn == "avg" and partial:
        return {f"{a.out}__sum": Field(FLOAT), f"{a.out}__cnt": Field(INT)}
    if a.fn == "avg" or global_agg:
        return {a.out: Field(FLOAT)}
    return {a.out: Field(expr_dtype(a.expr, child))}


def output_schema(plan, tables, partial: bool = False) -> dict:
    """Output column name -> :class:`Field`, from the plan and the base
    columns' dtypes alone (see the module docstring for the rules).
    ``partial=True`` types a root group-by's mergeable partial columns."""
    if isinstance(plan, Scan):
        t = tables[plan.table]
        out = {}
        for c in plan.cols:
            kind = t.columns[c].dtype.kind
            if kind not in "iubf":
                raise TypeError(f"{plan.table}.{c}: unsupported dtype {t.columns[c].dtype}")
            src = (plan.table, c) if c in t.dicts else None
            out[c] = Field(FLOAT if kind == "f" else INT, src)
        return out
    if isinstance(plan, Select):
        return output_schema(plan.child, tables)
    if isinstance(plan, Project):
        child = output_schema(plan.child, tables)
        return {
            name: child[e.name] if isinstance(e, Col) else Field(expr_dtype(e, child))
            for name, e in plan.outputs
        }
    if isinstance(plan, HashJoin):
        build = output_schema(plan.build, tables)
        out = output_schema(plan.probe, tables)
        out.update({p: build[p] for p in plan.payload})
        return out
    if isinstance(plan, HashGroupBy):
        child = output_schema(plan.child, tables)
        out = {k: child[k] for k in plan.keys}
        for a in plan.aggs:
            out.update(_agg_fields(a, child, not plan.keys, partial))
        return out
    raise TypeError(type(plan))


def cast_result(pdf, schema: dict):
    """``pdf`` with every column cast to its ``schema`` dtype."""
    wrong = {c: f.dtype for c, f in schema.items() if pdf[c].dtype != f.dtype}
    return pdf.astype(wrong) if wrong else pdf


def decode_result(pdf, plan, tables):
    """Decode coded output columns of a result frame back to strings."""
    out = pdf.copy()
    for col, f in output_schema(plan, tables).items():
        if f.dictionary is not None and col in out.columns:
            tab, src = f.dictionary
            out[col] = tables[tab].dicts[src][out[col].to_numpy().astype("int64")]
    return out
