"""Cost traces: loops recorded during execution, evaluated afterwards for
any platform and modelled scale factor."""
from dataclasses import fields

import numpy as np
import pandas as pd
import pytest

from repro.core.common import costs
from repro.core.common import expr as E
from repro.core.common.plan import Agg, HashGroupBy, Scan
from repro.core.common.table import Table
from repro.core.compiled import engine as C
from repro.core.vectorized import engine as V
from repro.simcpu import KNL, SKYLAKE, CostModel, Counters, RandAccess, Trace, evaluate

MB = 1024 * 1024


def _same(a: Counters, b: Counters):
    for f in fields(Counters):
        assert getattr(a, f.name) == pytest.approx(getattr(b, f.name), rel=1e-12), f.name


def test_loops_with_equal_parameters_share_one_key():
    cm = CostModel()
    rand = (RandAccess(8 * MB),)
    cm.loop(100, 5.0, rand=rand, seq_bytes=800, stream_ws=64e3, calls=1)
    cm.loop(300, 5.0, rand=(RandAccess(8 * MB),), seq_bytes=2400, stream_ws=64e3, calls=1)
    cm.loop(0, 5.0, rand=rand, calls=1)  # empty loops are not recorded
    assert len(cm.trace.loops) == 1
    assert list(cm.trace.loops.values()) == [[400, 3200, 2]]


def test_evaluation_is_additive_over_loops():
    loops = [
        dict(n=1000, instr_per_iter=8.0, rand=(RandAccess(64 * MB),), body_instr=40.0),
        dict(n=500, instr_per_iter=3.0, seq_bytes=4000.0, stream_ws=None),
        dict(n=700, instr_per_iter=2.0, seq_bytes=5600.0, stream_ws=512e3,
             branches=((1.0, 0.3),), calls=1),
    ]
    whole = CostModel(KNL, size_scale=100.0)
    parts = Counters()
    for kw in loops:
        whole.loop(**kw)
        one = CostModel(KNL, size_scale=100.0)
        one.loop(**kw)
        parts.add(one.counters)
    _same(whole.counters, parts)
    _same(whole.counters, evaluate(whole.trace, KNL, 100.0))


def test_one_trace_serves_every_scale():
    cm = CostModel()
    cm.loop(1000, 5.0, rand=(RandAccess(1 * MB),))
    small, big = evaluate(cm.trace, SKYLAKE, 1.0), evaluate(cm.trace, SKYLAKE, 1000.0)
    assert big.llc_miss > small.llc_miss
    assert big.instr == small.instr


def _groupby_tables(n=3000, groups=1000):
    rng = np.random.default_rng(3)
    df = pd.DataFrame({"k": rng.permutation(np.arange(n) % groups), "v": rng.random(n)})
    return {"r": Table.from_pandas(df)}


@pytest.mark.parametrize("run_plan", [C.run_plan, V.run_plan], ids=["typer", "tectorwise"])
def test_group_spill_is_decided_at_evaluation(run_plan):
    """The group table (1000 groups x 32 B) fits the pre-aggregation
    partition at scale 10 and outgrows it at scale 1000: from the same
    execution, only the larger scale pays the partition write+read."""
    enc = _groupby_tables()
    plan = HashGroupBy(Scan("r", ("k", "v")), ("k",), (Agg("s", "sum", E.Col("v")),))
    cm = CostModel()
    run_plan(plan, enc, cm=cm)
    [table] = cm.trace.spills
    cap = costs.PREAGG_PARTITION_BYTES
    assert table.struct_bytes * 10 < cap < table.struct_bytes * 1000

    no_spill = Trace()
    no_spill.loops = cm.trace.loops
    spilled = {}
    for scale in (10.0, 1000.0):
        full, rest = evaluate(cm.trace, SKYLAKE, scale), evaluate(no_spill, SKYLAKE, scale)
        spilled[scale] = full.dram_bytes - rest.dram_bytes
    assert spilled[10.0] == 0.0
    # 3000 rows of key + input (16 B), written and read back
    assert spilled[1000.0] == pytest.approx(3000 * 2 * 16)
