"""Cost model core: record executed loops, then evaluate them into counters.

Both engines funnel every executed loop through ``CostModel.loop``:
Tectorwise once per primitive invocation (tiny body, many calls), Typer
once per fused-loop region (large body, no calls). Recording only adds
the loop to a ``Trace``; ``evaluate`` is the one place that turns a trace
into counters for a hardware platform and a modelled scale factor, so
one execution serves every platform and SF (DESIGN.md §2). Everything the
paper measures — instructions, cycles, IPC, L1/LLC misses, branch misses,
memory stalls — falls out of the same mechanical rules (DESIGN.md §5).

The central latency-hiding rule: a loop's memory-level parallelism is
affine in the iterations its out-of-order window holds,

    MLP = max(1, 0.4 x min(load_buffers, ROB / body_instructions) - 0.8)

so small primitive loops overlap many misses while large fused loops
cannot — the paper's §4.1 out-of-order-window argument, made executable.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from ..core.common import costs
from . import cache
from .hardware import SKYLAKE, Hardware


@dataclass(frozen=True)
class RandAccess:
    """A random access pattern: ``per_iter`` loads into a ``struct_bytes``
    structure each iteration. ``scale=True`` marks data-size-dependent
    structures (hash tables, base tables) that grow with the modelled SF;
    fixed-size structures (TW vectors) use ``scale=False``."""

    struct_bytes: float
    per_iter: float = 1.0
    scale: bool = True
    # cap on the *modelled* structure size: partitioned algorithms (the
    # paper's two-phase pre-aggregation, §3.2) bound their random working
    # set regardless of data size
    cap_bytes: float | None = None


def group_table(n_groups: int, n_in: int, width: int) -> RandAccess:
    """A hash group-by's table: ``n_groups`` rows of ``width`` bytes,
    found from ``n_in`` input rows. It grows with SF only when the group
    count tracks the input; the §3.2 two-phase pre-aggregation caps its
    random working set at one partition."""
    return RandAccess(
        n_groups * width, 1.0, scale=n_groups / max(n_in, 1) > 0.01,
        cap_bytes=costs.PREAGG_PARTITION_BYTES,
    )


@dataclass
class Counters:
    instr: float = 0.0
    compute_cycles: float = 0.0
    mem_stall: float = 0.0
    branch_stall: float = 0.0
    l1_miss: float = 0.0
    l2_miss: float = 0.0
    llc_miss: float = 0.0
    branch_miss: float = 0.0
    dram_bytes: float = 0.0
    calls: float = 0.0

    @property
    def cycles(self) -> float:
        return self.compute_cycles + self.mem_stall + self.branch_stall

    @property
    def ipc(self) -> float:
        return self.instr / self.cycles if self.cycles else 0.0

    def add(self, other: "Counters") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def scaled(self, factor: float) -> "Counters":
        out = Counters()
        for f in fields(self):
            setattr(out, f.name, getattr(self, f.name) * factor)
        return out

    def per_tuple(self, n: int) -> dict:
        """Paper-style normalization by total tuples scanned."""
        n = max(n, 1)
        return {
            "cycles": self.cycles / n,
            "IPC": self.ipc,
            "instr": self.instr / n,
            "L1miss": self.l1_miss / n,
            "LLCmiss": self.llc_miss / n,
            "branchmiss": self.branch_miss / n,
            "memstall": self.mem_stall / n,
        }


class Trace:
    """What one execution charged, aggregated at record time.

    ``loops`` maps every parameter of ``CostModel.loop`` that enters the
    model non-linearly — ``(instr_per_iter, rand, stream_ws, branches,
    body_instr)`` — to the running sums ``[n, seq_bytes, calls]`` of the
    linear ones. ``spills`` maps a capped structure to the sequential
    bytes that spill only if its modelled size exceeds the cap.
    """

    __slots__ = ("loops", "spills")

    def __init__(self):
        self.loops: dict = {}
        self.spills: dict = {}


class CostModel:
    """Records loops into ``trace``; ``counters`` evaluates it at this
    model's ``hw`` and ``size_scale``.

    ``size_scale`` scales every ``RandAccess(scale=True)`` structure, so a
    query *executed* at SF=s can be *modelled* at SF=s*size_scale (exact
    for an analytic model; see DESIGN.md §2). Only evaluation reads it.
    """

    def __init__(self, hw: Hardware = SKYLAKE, size_scale: float = 1.0):
        self.hw = hw
        self.size_scale = size_scale
        self.trace = Trace()

    @property
    def counters(self) -> Counters:
        return evaluate(self.trace, self.hw, self.size_scale)

    def loop(
        self,
        n: float,
        instr_per_iter: float,
        *,
        rand: tuple = (),
        seq_bytes: float = 0.0,
        stream_ws: float | None = None,
        branches: tuple = (),
        calls: float = 0.0,
        body_instr: float | None = None,
    ) -> None:
        """Record one executed loop.

        n               iterations executed
        instr_per_iter  abstract instructions per iteration (incl. loop ovh)
        rand            RandAccess patterns (cache-modelled, latency-bound)
        seq_bytes       total sequential bytes streamed by this loop
        stream_ws       resident working set backing the stream(s); None =
                        non-resident base-table stream (DRAM)
        branches        ((count_per_iter, mispredict_prob), ...)
        calls           function-call overheads (TW primitive dispatch)
        body_instr      MLP window divisor; defaults to instr_per_iter —
                        pass the full fused-loop body size when charging a
                        region of a larger loop
        """
        if n <= 0:
            return
        key = (
            instr_per_iter,
            rand,
            stream_ws,
            branches,
            instr_per_iter if body_instr is None else body_instr,
        )
        acc = self.trace.loops.get(key)
        if acc is None:
            self.trace.loops[key] = [n, seq_bytes, calls]
        else:
            acc[0] += n
            acc[1] += seq_bytes
            acc[2] += calls

    def spill(self, seq_bytes: float, table: RandAccess) -> None:
        """Record partition write+read traffic of a capped structure: it
        is charged as a DRAM stream only when ``table``'s modelled size
        exceeds its ``cap_bytes`` (the §3.2 two-phase pre-aggregation)."""
        spills = self.trace.spills
        spills[table] = spills.get(table, 0.0) + seq_bytes


def _modelled_bytes(r: RandAccess, size_scale: float) -> float:
    """Size of ``r``'s structure at the modelled SF, before any cap."""
    return r.struct_bytes * (size_scale if r.scale else 1.0)


def _dram_stream(c: Counters, seq_bytes: float) -> None:
    """Non-resident sequential stream: always comes from DRAM."""
    lines = seq_bytes / cache.LINE
    c.l1_miss += lines
    c.l2_miss += lines
    c.llc_miss += lines
    c.dram_bytes += seq_bytes
    c.mem_stall += lines * cache.STREAM_STALL["dram"]


def evaluate(trace: Trace, hw: Hardware, size_scale: float) -> Counters:
    """Counters of ``trace`` on ``hw`` with structures at ``size_scale``.

    Per-tuple stream traffic is SF-invariant, so totals for a larger
    modelled SF are obtained by linearly scaling the result (see
    ``Counters.scaled``).
    """
    c = Counters()
    for (instr_per_iter, rand, stream_ws, branches, body), (
        n, seq_bytes, calls
    ) in trace.loops.items():
        instr = n * instr_per_iter + calls * costs.CALL
        c.instr += instr
        c.calls += calls
        c.compute_cycles += instr / hw.issue_eff

        if rand:
            # Within one iteration, accesses are typically *dependent*
            # (bucket -> entry -> next join), so outstanding misses come
            # from independent iterations in the out-of-order window —
            # tiny primitive loops reach the load-buffer cap, complex
            # fused loops do not (§4.1). Affine in the window with a
            # fixed serialization tax (chain-exit branches, TLB walks,
            # fill-buffer contention): lands on the effective MLPs
            # Table 1 implies (~1.6 for a fused probe loop, ~3.2 for a
            # tight primitive loop).
            window_iters = max(1.0, hw.rob_size / max(body, 1.0))
            mlp = max(1.0, 0.4 * min(float(hw.load_buffers), window_iters) - 0.8)
            for r in rand:
                s = _modelled_bytes(r, size_scale)
                if r.cap_bytes is not None:
                    s = min(s, r.cap_bytes)
                f1, f2, f3, f4 = cache.rand_service_fractions(hw, s)
                a = n * r.per_iter
                c.l1_miss += a * (1.0 - f1)
                c.l2_miss += a * (f3 + f4)
                c.llc_miss += a * f4
                c.dram_bytes += a * f4 * cache.LINE
                c.mem_stall += a * cache.rand_extra_latency(hw, s) / mlp

        if seq_bytes > 0:
            if stream_ws is None:
                _dram_stream(c, seq_bytes)
            else:
                # resident stream (e.g. TW vectors): the fraction of the
                # cycled working set that fits each level stays hot there
                lines = seq_bytes / cache.LINE
                f1, f2, f3, f4 = cache.rand_service_fractions(hw, stream_ws)
                c.l1_miss += lines * (1.0 - f1)
                c.l2_miss += lines * (f3 + f4)
                c.llc_miss += lines * f4
                c.dram_bytes += seq_bytes * f4
                c.mem_stall += lines * (
                    f2 * cache.STREAM_STALL["l2"]
                    + f3 * cache.STREAM_STALL["llc"]
                    + f4 * cache.STREAM_STALL["dram"]
                )

        for count_per_iter, p_miss in branches:
            bm = n * count_per_iter * p_miss
            c.branch_miss += bm
            # refill penalty + speculated work discarded, which grows with
            # the loop body held in flight (§4.1: complex loops lose more)
            discard = min(body, hw.rob_size) / (2.0 * hw.issue_eff)
            c.branch_stall += bm * (costs.BRANCH_MISS_PENALTY + discard)

    for table, seq_bytes in trace.spills.items():
        if _modelled_bytes(table, size_scale) > table.cap_bytes:
            _dram_stream(c, seq_bytes)
    return c
