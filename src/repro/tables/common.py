"""Shared measurement machinery for the table harnesses.

``counters_for`` returns per-(query, engine) counters of a workload's
queries on both engines, executed at a small scale factor and modelled
at the paper's scale factor (DESIGN.md §2). Executions are cached per
(workload, sf_exec, vector_size): each records one cost trace per
(query, engine), which is then evaluated for every (model_sf, hw) the
tables ask for, so Tables 1, 3, 4 and 5 share one TPC-H execution.
``counters_for.cache_clear`` and ``.cache_info`` act on that execution
cache.
"""
from __future__ import annotations

from functools import lru_cache

from ..core.common import plan as PL
from ..queries import ssb, tpch
from ..runner import prepare_ssb, prepare_tpch, run_query
from ..simcpu import CostModel, evaluate
from ..simcpu.hardware import PLATFORMS

ENGINES = (("typer", "Typer"), ("tectorwise", "TW"))


def load_workload(workload: str, sf_exec: float, q18_threshold: float = 300.0):
    if workload == "tpch":
        oracle, enc = prepare_tpch(sf_exec)
        queries = tpch.all_queries(enc, q18_threshold=q18_threshold)
    elif workload == "ssb":
        oracle, enc = prepare_ssb(sf_exec)
        queries = ssb.all_queries(enc)
    else:
        raise ValueError(workload)
    return oracle, enc, queries


@lru_cache(maxsize=32)
def _traces(workload: str, sf_exec: float, vector_size: int) -> dict:
    """Run every query of ``workload`` once on both engines; returns
    ``{(query, engine): (cost Trace, tuples scanned)}`` at ``sf_exec``."""
    _, enc, queries = load_workload(workload, sf_exec)
    out = {}
    for qname, q in queries.items():
        norm = q.tuples_scanned(enc)
        for eng, _label in ENGINES:
            cm = CostModel()
            run_query(q, enc, eng, cm=cm, vector_size=vector_size)
            out[(qname, eng)] = (cm.trace, norm)
    return out


def counters_for(
    workload: str,
    sf_exec: float,
    model_sf: float,
    hw_name: str = "skylake",
    vector_size: int = 1000,
):
    """Counters of every query of ``workload`` on both engines; returns
    ``{(query, engine): (Counters at model_sf totals, norm_tuples at model_sf)}``.
    """
    hw = PLATFORMS[hw_name]
    scale = model_sf / sf_exec
    return {
        key: (evaluate(trace, hw, scale).scaled(scale), norm * model_sf / sf_exec)
        for key, (trace, norm) in _traces(workload, sf_exec, vector_size).items()
    }


counters_for.cache_clear = _traces.cache_clear
counters_for.cache_info = _traces.cache_info


def scanned_bytes(workload: str, sf_exec: float, model_sf: float) -> dict:
    """Bytes of referenced base columns per query, at the modelled SF."""
    _, enc, queries = load_workload(workload, sf_exec)
    out = {}
    for qname, q in queries.items():
        total = 0
        for s in PL.scans(q.plan):
            b = enc[s.table].nbytes(s.cols)
            total += b * model_sf / sf_exec if PL.grows(s) else b
        out[qname] = total
    return out
