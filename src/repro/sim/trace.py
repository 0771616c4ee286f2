"""Trace-driven cache simulation of the blocked GEMM.

The analytic traffic model (:mod:`repro.sim.memory`) uses closed-form
pass counts; this module validates it by *actually walking* Algorithm 1's
loop nest, emitting every u-vector load and C update as a byte address,
and driving the set-associative :class:`~repro.sim.cache.CacheHierarchy`.
The tests check that the two agree on magnitude and on every qualitative
ordering (narrower data -> less traffic, smaller caches -> more misses).

Address map (one flat physical space):

* packed A at ``A_BASE``, row-major u-vector runs;
* packed B at ``B_BASE``, column-major runs;
* C accumulators at ``C_BASE``, row-major int32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import MixGemmConfig
from repro.core.packing import kc_span

from .cache import CacheHierarchy

A_BASE = 0x0000_0000
B_BASE = 0x1000_0000
C_BASE = 0x2000_0000

WORD_BYTES = 8
ACC_BYTES = 4


@dataclass
class TraceStats:
    """Outcome of one trace-driven run."""

    loads: int
    l1_miss_lines: int
    l2_miss_lines: int
    l2_bytes: float
    dram_bytes: float


def _a_addr(run: int, word: int, words_per_run: int) -> int:
    return A_BASE + (run * words_per_run + word) * WORD_BYTES

def _b_addr(run: int, word: int, words_per_run: int) -> int:
    return B_BASE + (run * words_per_run + word) * WORD_BYTES

def _c_addr(row: int, col: int, n: int) -> int:
    return C_BASE + (row * n + col) * ACC_BYTES


class GemmMemorySystem:
    """Cache-backed memory system for the *functional* GEMM simulator.

    Plugs into :class:`repro.core.gemm.MixGemm` (its ``memory`` hook):
    every u-vector load and C update is charged the latency the
    set-associative hierarchy actually produces, instead of the constant
    ``LOAD_COST``/``C_UPDATE_COST`` of :mod:`repro.core.isa`.  This closes
    the loop between the bit-exact simulator and the cache model: one run
    yields exact values, exact instruction counts, and cache-accurate
    stall cycles.
    """

    def __init__(self, m: int, n: int, k: int, config: MixGemmConfig,
                 hierarchy: CacheHierarchy | None = None) -> None:
        self.hierarchy = hierarchy or CacheHierarchy()
        lay = config.layout
        groups = math.ceil(k / lay.group_elements)
        self._a_words_per_run = groups * lay.kua
        self._b_words_per_run = groups * lay.kub
        self._n = n

    def load_a(self, run: int, word: int) -> int:
        """Latency of loading one A u-vector."""
        return self.hierarchy.load(
            _a_addr(run, word, self._a_words_per_run), WORD_BYTES
        )

    def load_b(self, run: int, word: int) -> int:
        """Latency of loading one B u-vector."""
        return self.hierarchy.load(
            _b_addr(run, word, self._b_words_per_run), WORD_BYTES
        )

    def update_c(self, row: int, col: int) -> int:
        """Latency of the C element read-modify-write (plus the add)."""
        addr = _c_addr(row, col, self._n)
        return (self.hierarchy.load(addr, ACC_BYTES)
                + self.hierarchy.store(addr, ACC_BYTES) + 1)


def trace_gemm(
    m: int,
    n: int,
    k: int,
    config: MixGemmConfig,
    hierarchy: CacheHierarchy | None = None,
) -> TraceStats:
    """Walk Algorithm 1's memory behaviour through the cache simulator.

    Emits, per k-group of each u-kernel, the ``kua*mr`` A and ``kub*nr``
    B u-vector loads (the RF holds them across the inner loops), and per
    k-block the C read-modify-write of the u-panel.
    """
    hierarchy = hierarchy or CacheHierarchy()
    lay = config.layout
    blk = config.blocking
    ge = lay.group_elements
    groups_per_run = math.ceil(k / ge)
    a_words_per_run = groups_per_run * lay.kua
    b_words_per_run = groups_per_run * lay.kub
    kc_elems = kc_span(blk, lay)
    groups_per_block = kc_elems // ge

    loads = 0
    for jc in range(0, n, blk.nc):
        nc = min(blk.nc, n - jc)
        for pc_group in range(0, groups_per_run, groups_per_block):
            block_groups = min(groups_per_block,
                               groups_per_run - pc_group)
            for ic in range(0, m, blk.mc):
                mc = min(blk.mc, m - ic)
                for jr in range(jc, jc + nc, blk.nr):
                    for ir in range(ic, ic + mc, blk.mr):
                        # u-kernel over this k block.
                        for g in range(pc_group, pc_group + block_groups):
                            for j in range(blk.mr):
                                run = min(ir + j, m - 1)
                                for w in range(lay.kua):
                                    hierarchy.load(
                                        _a_addr(run, g * lay.kua + w,
                                                a_words_per_run),
                                        WORD_BYTES,
                                    )
                                    loads += 1
                            for i in range(blk.nr):
                                run = min(jr + i, n - 1)
                                for w in range(lay.kub):
                                    hierarchy.load(
                                        _b_addr(run, g * lay.kub + w,
                                                b_words_per_run),
                                        WORD_BYTES,
                                    )
                                    loads += 1
                        # Collection: C u-panel read-modify-write.
                        for i in range(blk.nr):
                            for j in range(blk.mr):
                                row, col = ir + j, jr + i
                                if row < m and col < n:
                                    addr = _c_addr(row, col, n)
                                    hierarchy.load(addr, ACC_BYTES)
                                    hierarchy.store(addr, ACC_BYTES)
                                    loads += 1
    line = hierarchy.l1.line_bytes
    return TraceStats(
        loads=loads,
        l1_miss_lines=hierarchy.l1.stats.misses,
        l2_miss_lines=hierarchy.l2.stats.misses,
        l2_bytes=hierarchy.l1.stats.misses * line,
        dram_bytes=hierarchy.l2.stats.misses * line,
    )
