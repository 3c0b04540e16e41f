"""Table harnesses: each produces the expected rows/columns at tiny SF,
with the paper's reference values embedded."""
from collections import Counter

import pytest

from repro.tables import (
    common,
    fmt,
    ssb_counters,
    table1,
    table3,
    table4,
    table5,
    vector_sizes,
)

SF = 0.01


def test_table1_rows():
    rows = table1.rows(SF)
    assert len(rows) == 10  # 5 queries x 2 engines
    r = rows[0]
    for col in ("cycles", "paper_cyc", "IPC", "instr", "L1miss", "LLCmiss"):
        assert col in r
    assert {x["query"] for x in rows} == {"q1", "q6", "q3", "q9", "q18"}


def test_table1_paper_constants():
    assert table1.PAPER[("q1", "typer")][0] == 34
    assert table1.PAPER[("q9", "tectorwise")][2] == 76


def test_ssb_rows():
    rows = ssb_counters.rows(SF)
    assert len(rows) == 8
    assert {x["query"] for x in rows} == {"q1.1", "q2.1", "q3.1", "q4.1"}
    assert ssb_counters.PAPER[("q4.1", "typer")][0] == 78


def test_table3_rows():
    rows = table3.rows(SF)
    assert len(rows) == 15  # 5 queries x 3 thread counts
    one = [r for r in rows if r["thr"] == 1]
    assert all(r["typer_spd"] == 1.0 and r["tw_spd"] == 1.0 for r in one)
    twenty = [r for r in rows if r["thr"] == 20]
    assert all(r["typer_spd"] > 3.0 for r in twenty)


def test_table3_paper_constants():
    assert table3.PAPER[("q9", 1)][0] == 28086
    assert table3.PAPER[("q18", 20)][4] == 0.97


def test_table4_specs():
    rows = table4.spec_rows()
    assert len(rows) == 3
    sk = next(r for r in rows if r["platform"] == "skylake")
    assert sk["price[$]"] == 989


def test_table4_throughput():
    rows = table4.throughput_rows(SF)
    assert len(rows) == 15
    knl = [r for r in rows if r["platform"] == "knl"]
    assert all("tw_simd_qps" in r for r in knl)
    # §7.2: KNL SIMD variant is never slower than scalar TW
    assert all(r["tw_simd_qps"] >= r["tw_qps"] * 0.99 for r in knl)


def test_table5_rows():
    rows = table5.rows(SF)
    assert len(rows) == 5
    assert all(r["io_penalty_ms"] > 0 for r in rows)
    assert table5.PAPER["q1"] == (923, 1184, 0.78)


def test_vector_sizes_rows():
    rows = vector_sizes.rows(SF)
    assert len(rows) == 5
    assert all(r["vs=1000"] == 1.0 for r in rows)


def test_fmt_render():
    out = fmt.render([{"a": 1, "b": 2.5}, {"a": 30, "b": 0.125}], "T")
    lines = out.split("\n")
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert "30" in lines[3]
    assert fmt.render([], "X").startswith("X")


def test_counters_execute_each_query_once(monkeypatch):
    """Every model SF and platform replays one cached execution;
    ``cache_clear`` drops it."""
    runs = Counter()
    run_query = common.run_query

    def counting_run_query(query, enc, engine, **kw):
        runs[(query.name, engine)] += 1
        return run_query(query, enc, engine, **kw)

    monkeypatch.setattr(common, "run_query", counting_run_query)
    common.counters_for.cache_clear()
    one = common.counters_for("tpch", SF, 1.0)
    common.counters_for("tpch", SF, 100.0, hw_name="knl")
    assert set(runs) == set(one)
    assert set(runs.values()) == {1}
    common.counters_for.cache_clear()
    common.counters_for("tpch", SF, 1.0)
    assert set(runs.values()) == {2}


def test_scanned_bytes():
    sb = common.scanned_bytes("tpch", SF, 1.0)
    assert sb["q1"] > 0
    assert sb["q9"] > sb["q6"]  # Q9 scans many more tables


def test_render_functions_return_text():
    assert "Table 1" in table1.render(SF)
    assert "Table 5" in table5.render(SF)
