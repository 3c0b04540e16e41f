"""Analytic cache hierarchy model.

Working-set based: a random access into a structure of ``S`` bytes hits
level ``k`` (or better) with probability ``min(1, C_k / S)`` — the
steady-state hit rate of a uniformly accessed structure competing for a
capacity-``C_k`` cache. Sequential streams are classified by the working
set they cycle through (hardware prefetchers make their *latency* cheap;
their *misses* and DRAM traffic still count).
"""
from __future__ import annotations

from .hardware import Hardware

LINE = 64


# A randomly probed structure never gets the whole LLC: concurrent
# streams (scans, spills) and the bucket directory thrash it, so only a
# fraction of the nominal capacity is effectively usable.
LLC_EFFECTIVE = 0.5


def rand_service_fractions(hw: Hardware, struct_bytes: float) -> tuple:
    """Fractions of random accesses served by (L1, L2, LLC, DRAM)."""
    s = max(float(struct_bytes), 1.0)
    p1 = min(1.0, hw.l1_bytes / s)
    p2 = min(1.0, hw.l2_bytes / s)
    p3 = min(1.0, hw.llc_bytes * LLC_EFFECTIVE / s)
    p2 = max(p2, p1)
    p3 = max(p3, p2)
    return (p1, p2 - p1, p3 - p2, 1.0 - p3)


def rand_extra_latency(hw: Hardware, struct_bytes: float) -> float:
    """Average load-to-use latency beyond an L1 hit, per access."""
    _, f2, f3, f4 = rand_service_fractions(hw, struct_bytes)
    l1 = 4
    return f2 * (hw.l2_lat - l1) + f3 * (hw.llc_lat - l1) + f4 * (hw.mem_lat - l1)


# per-line stall cycles for prefetched sequential streams, by backing
# level — hardware prefetchers hide almost all of a stream's latency, so
# these are small residuals, not load-to-use latencies
STREAM_STALL = {"l1": 0.0, "l2": 0.5, "llc": 1.5, "dram": 4.0}
