"""The paper's qualitative findings as executable assertions.

Each test pins one claim of the paper (§4, §6, Table 1/3/5, Fig 4/5) to
the reproduction's cost model, so regressions in calibration fail loudly.
"""
import pytest

from repro.simcpu import SKYLAKE
from repro.simcpu import parallel
from repro.tables import common

SF_EXEC = 0.01


@pytest.fixture(scope="module")
def tpch_counters():
    return common.counters_for("tpch", SF_EXEC, 1.0)


@pytest.fixture(scope="module")
def ssb_counters():
    return common.counters_for("ssb", SF_EXEC, 30.0)


def _cyc(data, q, eng):
    c, n = data[(q, eng)]
    return c.cycles / n


def _instr(data, q, eng):
    c, n = data[(q, eng)]
    return c.instr / n


# -- Table 1 claims ---------------------------------------------------------

@pytest.mark.parametrize("q", ["q1", "q3", "q9", "q18"])
def test_tw_executes_more_instructions(tpch_counters, q):
    """§4.1: TW executes up to ~2.4x more instructions (materialization)."""
    ratio = _instr(tpch_counters, q, "tectorwise") / _instr(tpch_counters, q, "typer")
    assert 1.2 < ratio < 3.5


def test_typer_wins_computational_q1(tpch_counters):
    """§4.1: Typer is much faster on the fixed-point-arithmetic Q1."""
    assert _cyc(tpch_counters, "q1", "typer") < 0.7 * _cyc(tpch_counters, "q1", "tectorwise")


def test_typer_wins_q18(tpch_counters):
    assert _cyc(tpch_counters, "q18", "typer") < 0.9 * _cyc(tpch_counters, "q18", "tectorwise")


def test_q6_is_a_tie(tpch_counters):
    r = _cyc(tpch_counters, "q6", "typer") / _cyc(tpch_counters, "q6", "tectorwise")
    assert 0.8 < r < 1.25


def test_q3_is_close(tpch_counters):
    r = _cyc(tpch_counters, "q3", "typer") / _cyc(tpch_counters, "q3", "tectorwise")
    assert 0.85 < r < 1.3


def test_tw_wins_join_heavy_q9(tpch_counters):
    assert _cyc(tpch_counters, "q9", "tectorwise") < _cyc(tpch_counters, "q9", "typer")


def test_tw_hides_latency_on_q9(tpch_counters):
    """§4.1: same hash table, nearly equal LLC misses, but TW stalls less."""
    ct, nt = tpch_counters[("q9", "typer")]
    cv, nv = tpch_counters[("q9", "tectorwise")]
    assert cv.mem_stall / nv < ct.mem_stall / nt
    llc_t, llc_v = ct.llc_miss / nt, cv.llc_miss / nv
    assert abs(llc_t - llc_v) / max(llc_t, llc_v) < 0.5


def test_tw_more_l1_misses(tpch_counters):
    """§4.1: TW's materialization shows up as extra L1 misses."""
    for q in ("q1", "q9", "q18"):
        ct, nt = tpch_counters[(q, "typer")]
        cv, nv = tpch_counters[(q, "tectorwise")]
        assert cv.l1_miss / nv > ct.l1_miss / nt


def test_ipc_not_a_performance_proxy(tpch_counters):
    """§4.1 caution: TW has the higher IPC on Q1 yet is slower."""
    ct, _ = tpch_counters[("q1", "typer")]
    cv, _ = tpch_counters[("q1", "tectorwise")]
    assert cv.ipc > 0.8 * ct.ipc
    assert cv.cycles > ct.cycles


# -- Figure 4: stalls grow with data size -----------------------------------

def test_memory_stalls_grow_with_sf():
    small = common.counters_for("tpch", SF_EXEC, 1.0)
    big = common.counters_for("tpch", SF_EXEC, 30.0)
    for eng in ("typer", "tectorwise"):
        cs, ns = small[("q9", eng)]
        cb, nb = big[("q9", eng)]
        assert cb.mem_stall / nb > cs.mem_stall / ns


def test_tw_join_advantage_grows_with_sf():
    """§4.1: TW's Q9 advantage grows toward ~40% at larger SFs."""
    small = common.counters_for("tpch", SF_EXEC, 1.0)
    big = common.counters_for("tpch", SF_EXEC, 30.0)

    def adv(d):
        return _cyc(d, "q9", "typer") / _cyc(d, "q9", "tectorwise")

    assert adv(big) >= adv(small) * 0.95
    assert adv(big) > 1.05


# -- SSB (§4.4) -------------------------------------------------------------

@pytest.mark.parametrize("q", ["q2.1", "q3.1", "q4.1"])
def test_ssb_join_queries_favor_tw(ssb_counters, q):
    r = _cyc(ssb_counters, q, "typer") / _cyc(ssb_counters, q, "tectorwise")
    assert r > 0.95


@pytest.mark.parametrize("q", ["q1.1", "q2.1", "q3.1", "q4.1"])
def test_ssb_tw_more_instructions_but_fewer_stalls(ssb_counters, q):
    ct, nt = ssb_counters[(q, "typer")]
    cv, nv = ssb_counters[(q, "tectorwise")]
    if q != "q1.1":
        assert cv.instr / nv > ct.instr / nt
        assert cv.mem_stall / nv < ct.mem_stall / nt


# -- Vector size (Fig 5) ----------------------------------------------------

def test_vector_size_u_shape():
    from repro.tables import vector_sizes

    rows = vector_sizes.rows(SF_EXEC)
    for row in rows:
        assert row["vs=1"] > 1.5          # Volcano-style degeneration
        assert row["vs=1000"] == 1.0
        assert row["vs=1"] > row["vs=256"] >= 0.9
        assert row[f"vs={1 << 20}"] >= 0.98  # full materialization not better


# -- Multi-core (Table 3) ---------------------------------------------------

@pytest.fixture(scope="module")
def sf100():
    return common.counters_for("tpch", SF_EXEC, 100.0)


@pytest.mark.parametrize("q", ["q1", "q3", "q9"])
def test_ten_core_speedup_near_linear(sf100, q):
    for eng in ("typer", "tectorwise"):
        s = parallel.speedup(sf100[(q, eng)][0], SKYLAKE, 10)
        assert 6.0 < s < 10.0


def test_q6_bandwidth_limited(sf100):
    for eng in ("typer", "tectorwise"):
        s = parallel.speedup(sf100[("q6", eng)][0], SKYLAKE, 10)
        assert s < 8.0


def test_hyperthreading_narrows_gap_q1(sf100):
    """§6.2: SMT hides some of the weaker engine's stalls — the TW/Typer
    ratio moves toward 1 from 1 to 20 threads on Q1."""
    def ratio(t):
        return parallel.runtime_ms(sf100[("q1", "typer")][0], SKYLAKE, t) / parallel.runtime_ms(
            sf100[("q1", "tectorwise")][0], SKYLAKE, t
        )

    assert abs(1 - ratio(20)) < abs(1 - ratio(1))


def test_smt_helps_join_queries(sf100):
    for q in ("q3", "q9"):
        for eng in ("typer", "tectorwise"):
            c = sf100[(q, eng)][0]
            assert parallel.runtime_ms(c, SKYLAKE, 20) < parallel.runtime_ms(c, SKYLAKE, 10)


# -- SSD (Table 5) ----------------------------------------------------------

def test_ssd_moves_ratios_toward_one():
    from repro.tables import table3, table5

    mem = {r["query"]: r["ratio"] for r in table3.rows(SF_EXEC) if r["thr"] == 20}
    ssd = {r["query"]: r["ratio"] for r in table5.rows(SF_EXEC)}
    closer = sum(abs(1 - ssd[q]) <= abs(1 - mem[q]) + 0.02 for q in mem)
    assert closer >= 4  # at least 4 of 5 queries move toward parity


def test_ssd_hits_scan_queries_hardest():
    from repro.tables import table5

    rows = {r["query"]: r for r in table5.rows(SF_EXEC)}
    rel_q6 = rows["q6"]["io_penalty_ms"] / rows["q6"]["typer_ms"]
    rel_q9 = rows["q9"]["io_penalty_ms"] / rows["q9"]["typer_ms"]
    assert rel_q6 > rel_q9
