"""Golden simulated counters: every ``Counters`` field and the norm tuples
behind Table 1, the SSB counters, Tables 3/4/5 and Fig 5, at SF_EXEC 0.01.

The simulated output is deterministic, so any refactor of the engines or
the cost model must reproduce ``tests/golden/sim_counters.json`` to a
relative 1e-9. Re-bless only when a change means to move the counters:

    PYTHONPATH=src python -m tests.test_sim_golden --bless
"""
import json
import math
import os
import sys
from dataclasses import fields

import pytest

from repro.simcpu import Counters
from repro.tables import common, vector_sizes

SF_EXEC = 0.01
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "sim_counters.json")
REL = 1e-9

# (workload, model_sf, hw_name, vector_size): the calls the shape tests make
CALLS = (
    [("tpch", sf, "skylake", 1000) for sf in (1.0, 30.0, 100.0)]
    + [("tpch", 100.0, hw, 1000) for hw in ("threadripper", "knl")]
    + [("ssb", 30.0, "skylake", 1000)]
    + [("tpch", 1.0, "skylake", vs) for vs in vector_sizes.SIZES if vs != 1000]
)
FIELDS = [f.name for f in fields(Counters)]


def _call_key(workload, model_sf, hw, vs) -> str:
    return f"{workload}/sf={model_sf:g}/{hw}/vs={vs}"


def collect() -> dict:
    out = {}
    for workload, model_sf, hw, vs in CALLS:
        data = common.counters_for(workload, SF_EXEC, model_sf, hw, vs)
        out[_call_key(workload, model_sf, hw, vs)] = {
            f"{q}/{eng}": {
                "counters": {f: getattr(c, f) for f in FIELDS},
                "norm": norm,
            }
            for (q, eng), (c, norm) in sorted(data.items())
        }
    return out


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL, abs_tol=1e-12)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("call", CALLS, ids=lambda c: _call_key(*c))
def test_counters_match_golden(golden, call):
    workload, model_sf, hw, vs = call
    want = golden[_call_key(*call)]
    data = common.counters_for(workload, SF_EXEC, model_sf, hw, vs)
    assert sorted(f"{q}/{e}" for q, e in data) == sorted(want)
    bad = []
    for (q, eng), (c, norm) in data.items():
        w = want[f"{q}/{eng}"]
        if not _close(norm, w["norm"]):
            bad.append(f"{q}/{eng} norm {norm!r} != {w['norm']!r}")
        for f in FIELDS:
            if not _close(getattr(c, f), w["counters"][f]):
                bad.append(f"{q}/{eng} {f} {getattr(c, f)!r} != {w['counters'][f]!r}")
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit("usage: python -m tests.test_sim_golden --bless")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as f:
        json.dump(collect(), f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")
