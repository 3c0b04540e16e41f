"""Cost parity between the engines: both execute the same plan, so they
must touch the same hash tables and group tables, at the same sizes and
with the same scaling.

Access *counts* per structure differ legitimately (TW compares each key
column in its own primitive), so the test compares the sets of
``(struct_bytes, scale, cap_bytes)`` structures in each engine's trace.
TW also charges its per-batch buildGather reads as fixed-size, uncapped
structures that Typer has no counterpart for; those are the only
structures TW may charge beyond Typer's.
"""
import pytest

from repro.tables import common

SF_EXEC = 0.01
QUERIES = [("tpch", q) for q in ("q1", "q6", "q3", "q9", "q18")] + [
    ("ssb", q) for q in ("q1.1", "q2.1", "q3.1", "q4.1")
]


def _structures(trace) -> set:
    return {
        (r.struct_bytes, r.scale, r.cap_bytes)
        for _instr, rand, _ws, _branches, _body in trace.loops
        for r in rand
    }


@pytest.mark.parametrize("workload,query", QUERIES, ids=[q for _, q in QUERIES])
def test_engines_charge_the_same_structures(workload, query):
    traces = common._traces(workload, SF_EXEC, 1000)
    typer = _structures(traces[(query, "typer")][0])
    tw = _structures(traces[(query, "tectorwise")][0])
    typer_only = typer - tw
    # buildGather: fixed size, no cap
    tw_only = {s for s in tw - typer if s[1] or s[2] is not None}
    assert not typer_only and not tw_only, (
        f"Typer-only {sorted(typer_only)}; TW-only {sorted(tw_only)}"
    )
