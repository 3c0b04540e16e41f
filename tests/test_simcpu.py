"""Micro-architecture model: cache fractions, MLP, branch model,
counter algebra, parallel/IO scaling, hardware descriptors."""
import numpy as np
import pytest

from repro.simcpu import KNL, SKYLAKE, THREADRIPPER, CostModel, Counters, RandAccess
from repro.simcpu import cache, parallel
from repro.simcpu.hardware import PLATFORMS

KB = 1024
MB = 1024 * KB


# -- cache model ------------------------------------------------------------

@pytest.mark.parametrize("size", [1 * KB, 64 * KB, 4 * MB, 100 * MB, 10_000 * MB])
def test_fractions_sum_to_one(size):
    f = cache.rand_service_fractions(SKYLAKE, size)
    assert abs(sum(f) - 1.0) < 1e-9
    assert all(x >= -1e-12 for x in f)


def test_small_struct_hits_l1():
    f = cache.rand_service_fractions(SKYLAKE, 16 * KB)
    assert f[0] == 1.0


def test_huge_struct_mostly_dram():
    f = cache.rand_service_fractions(SKYLAKE, 10_000 * MB)
    assert f[3] > 0.99


def test_miss_monotone_in_size():
    sizes = [8 * KB, 64 * KB, 1 * MB, 8 * MB, 64 * MB, 512 * MB]
    dram = [cache.rand_service_fractions(SKYLAKE, s)[3] for s in sizes]
    assert dram == sorted(dram)


def test_latency_monotone_in_size():
    lats = [
        cache.rand_extra_latency(SKYLAKE, s)
        for s in (8 * KB, 1 * MB, 32 * MB, 1024 * MB)
    ]
    assert lats == sorted(lats)
    assert lats[0] == 0.0


# -- cost model core --------------------------------------------------------

def test_instr_accounting():
    cm = CostModel(SKYLAKE)
    cm.loop(1000, 10.0, calls=5)
    from repro.core.common import costs

    assert cm.counters.instr == 1000 * 10 + 5 * costs.CALL
    assert cm.counters.compute_cycles > 0


def test_empty_loop_charges_nothing():
    cm = CostModel(SKYLAKE)
    cm.loop(0, 100.0, rand=(RandAccess(1 * MB),))
    assert cm.counters.instr == 0 and cm.counters.cycles == 0


def test_bigger_struct_more_stall():
    small, big = CostModel(SKYLAKE), CostModel(SKYLAKE)
    small.loop(1000, 10.0, rand=(RandAccess(64 * KB),))
    big.loop(1000, 10.0, rand=(RandAccess(256 * MB),))
    assert big.counters.mem_stall > small.counters.mem_stall
    assert big.counters.llc_miss > small.counters.llc_miss


def test_complex_loop_hides_less_latency():
    """The paper's central §4.1 effect: same accesses, bigger loop body
    => fewer outstanding misses => more stall cycles."""
    tight, fused = CostModel(SKYLAKE), CostModel(SKYLAKE)
    tight.loop(1000, 8.0, rand=(RandAccess(256 * MB),), body_instr=8.0)
    fused.loop(1000, 8.0, rand=(RandAccess(256 * MB),), body_instr=80.0)
    assert fused.counters.mem_stall > 1.5 * tight.counters.mem_stall


def test_size_scale_only_affects_scaled_structs():
    a = CostModel(SKYLAKE, size_scale=100.0)
    b = CostModel(SKYLAKE, size_scale=100.0)
    a.loop(1000, 5.0, rand=(RandAccess(1 * MB, scale=True),))
    b.loop(1000, 5.0, rand=(RandAccess(1 * MB, scale=False),))
    assert a.counters.mem_stall > b.counters.mem_stall


def test_cap_bytes_bounds_struct():
    capped = CostModel(SKYLAKE, size_scale=1000.0)
    capped.loop(1000, 5.0, rand=(RandAccess(1 * MB, cap_bytes=2 * MB),))
    free = CostModel(SKYLAKE, size_scale=1000.0)
    free.loop(1000, 5.0, rand=(RandAccess(1 * MB),))
    assert capped.counters.mem_stall < free.counters.mem_stall


def test_base_stream_charges_dram():
    cm = CostModel(SKYLAKE)
    cm.loop(1000, 2.0, seq_bytes=64_000, stream_ws=None)
    assert cm.counters.llc_miss == pytest.approx(1000.0)
    assert cm.counters.dram_bytes == pytest.approx(64_000)


def test_resident_stream_cheaper_than_dram():
    res, dram = CostModel(SKYLAKE), CostModel(SKYLAKE)
    res.loop(1000, 2.0, seq_bytes=64_000, stream_ws=64 * KB)
    dram.loop(1000, 2.0, seq_bytes=64_000, stream_ws=None)
    assert res.counters.mem_stall < dram.counters.mem_stall
    assert res.counters.dram_bytes < dram.counters.dram_bytes


def test_l1_resident_stream_free():
    cm = CostModel(SKYLAKE)
    cm.loop(1000, 2.0, seq_bytes=64_000, stream_ws=8 * KB)
    assert cm.counters.mem_stall == 0.0
    assert cm.counters.l1_miss == 0.0


def test_branch_charges():
    cm = CostModel(SKYLAKE)
    cm.loop(1000, 5.0, branches=((1.0, 0.5),))
    assert cm.counters.branch_miss == pytest.approx(500.0)
    assert cm.counters.branch_stall > 0


def test_branch_discard_grows_with_body():
    small, big = CostModel(SKYLAKE), CostModel(SKYLAKE)
    small.loop(1000, 5.0, branches=((1.0, 0.5),), body_instr=5.0)
    big.loop(1000, 5.0, branches=((1.0, 0.5),), body_instr=200.0)
    assert big.counters.branch_stall > small.counters.branch_stall


def test_counters_algebra():
    a = Counters(instr=10, compute_cycles=5, mem_stall=3)
    b = Counters(instr=2, compute_cycles=1, branch_stall=4)
    a.add(b)
    assert a.instr == 12 and a.cycles == 13
    s = a.scaled(2.0)
    assert s.instr == 24 and a.instr == 12


def test_per_tuple_normalization():
    c = Counters(instr=1000, compute_cycles=500)
    d = c.per_tuple(100)
    assert d["instr"] == 10 and d["cycles"] == 5 and d["IPC"] == 2.0


# -- parallel / IO scaling --------------------------------------------------

def _join_like():
    c = Counters(
        instr=1e9, compute_cycles=4e8, mem_stall=6e8, branch_stall=1e7,
        dram_bytes=2e8,
    )
    return c


def test_speedup_bounded_by_threads():
    c = _join_like()
    for t in (2, 4, 10):
        s = parallel.speedup(c, SKYLAKE, t)
        assert 1.0 < s <= t * (SKYLAKE.clock_all_ghz / SKYLAKE.clock_1t_ghz) * 1.01


def test_speedup_monotone():
    c = _join_like()
    ts = [parallel.runtime_ms(c, SKYLAKE, t) for t in (1, 2, 5, 10, 20)]
    assert ts == sorted(ts, reverse=True)


def test_smt_helps_memory_bound():
    c = _join_like()
    assert parallel.runtime_ms(c, SKYLAKE, 20) < parallel.runtime_ms(c, SKYLAKE, 10)


def test_amd_smt_helps_less():
    """§7.1: AMD's SMT brings little benefit."""
    c = _join_like()
    intel_gain = parallel.runtime_ms(c, SKYLAKE, 10) / parallel.runtime_ms(c, SKYLAKE, 20)
    amd_gain = parallel.runtime_ms(c, THREADRIPPER, 16) / parallel.runtime_ms(c, THREADRIPPER, 32)
    assert intel_gain > amd_gain


def test_bandwidth_ceiling():
    c = Counters(instr=1e8, compute_cycles=4e7, dram_bytes=60e9)
    t10 = parallel.runtime_ms(c, SKYLAKE, 10)
    t20 = parallel.runtime_ms(c, SKYLAKE, 20)
    floor = 60e9 / (SKYLAKE.mem_bw_gbs * 1e9) * 1000
    assert t10 == pytest.approx(floor)
    assert t20 == pytest.approx(floor)  # no SMT gain when BW-bound


def test_io_ceiling():
    c = Counters(instr=1e8, compute_cycles=4e7)
    base = parallel.runtime_ms(c, SKYLAKE, 20)
    with_io = parallel.runtime_ms(c, SKYLAKE, 20, io_gbs=1.4, io_bytes=14e9)
    assert with_io == pytest.approx(10_000.0)
    assert with_io > base


# -- hardware ---------------------------------------------------------------

def test_platform_registry():
    assert set(PLATFORMS) == {"skylake", "threadripper", "knl"}


@pytest.mark.parametrize("hw", [SKYLAKE, THREADRIPPER, KNL])
def test_hardware_sanity(hw):
    assert hw.l1_bytes < hw.l2_bytes < hw.llc_bytes
    assert hw.clock_all_ghz <= hw.clock_1t_ghz
    assert hw.smt_ways >= 2 and hw.cores >= 10
    assert hw.issue_eff == pytest.approx(hw.issue_width * 0.7)


def test_table4_paper_values():
    assert SKYLAKE.cores == 10 and SKYLAKE.list_price_usd == 989
    assert THREADRIPPER.cores == 16 and THREADRIPPER.simd_bits == 128
    assert KNL.cores == 64 and KNL.smt_ways == 4 and KNL.issue_width == 2
    assert KNL.llc_bytes == 16 * 1024 * MB
