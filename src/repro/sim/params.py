"""SoC description and calibrated timing constants.

Hard facts from the paper (Section IV-A, IV-C):

* Sargantana-class RV64G host: 7-stage, in-order, single-issue, 1.2 GHz;
* L1d 32 KB, L2 512 KB (sensitivity study: 16 KB / 64 KB variants);
* bs.set / bs.ip / bs.get issue in a single cycle;
* SoC area 1.96 mm2 in GF 22FDX.

Everything else in this file is a *calibrated constant*: a per-instruction
or per-cache-line cost that cannot be read off the paper directly.  The
calibration procedure (documented in DESIGN.md and EXPERIMENTS.md) fixes
them once against three anchors of Section IV-B -- the steady-state a8-w8
(10.2x), a4-w4 (~16x) and a2-w2 (27.2x) speedups over the DGEMM baseline
-- and never re-tunes them per experiment; every other number the harness
reports is then a prediction of the model.  The Mix-GEMM u-kernel's own
scalar-core costs are not here: they are the ISA cost table of
:mod:`repro.core.isa`, shared with the event engine and the exact cost
model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SocParams:
    """The evaluated SoC (paper Section IV-A)."""

    freq_ghz: float = 1.2
    l1_bytes: int = 32 * 1024
    l2_bytes: int = 512 * 1024
    line_bytes: int = 64
    rf_registers: int = 32
    mul_width: int = 64

    def with_caches(self, l1_bytes: int, l2_bytes: int) -> "SocParams":
        return replace(self, l1_bytes=l1_bytes, l2_bytes=l2_bytes)


#: The PnR'd SoC of Figure 8.
PAPER_SOC = SocParams()

#: The reduced-cache variant of the Section IV-B exploration.
SMALL_CACHE_SOC = PAPER_SOC.with_caches(16 * 1024, 64 * 1024)


@dataclass(frozen=True)
class ScalarCosts:
    """Issue-slot costs (cycles) on the in-order single-issue host.

    ``fp_*`` model the RV64G double-precision path (load-use latency on a
    7-stage in-order pipeline exposes several cycles per dependent load);
    ``int_*`` model the int8 BLIS variant.  Calibrated against the paper's
    DGEMM anchors; see the module docstring.
    """

    # 64-bit DGEMM micro-kernel.
    fp_load: float = 4.0
    fp_mac: float = 2.0          # fmadd.d issue + exposed latency share
    fp_kstep_overhead: float = 3.0
    # int8 scalar micro-kernel (no SIMD: one element per operation).
    int_load: float = 1.0
    int_mac: float = 2.0         # mul + add
    int_kstep_overhead: float = 3.0
    # C write-back per element (load, add, store).
    c_update: float = 3.0


@dataclass(frozen=True)
class MemoryCosts:
    """Stall costs per 64-byte line, by source level.

    In-order cores overlap misses poorly; the penalties below are the
    effective (partially pipelined) per-line stalls.
    """

    l2_line_stall: float = 12.0
    dram_line_stall: float = 80.0
    #: Fraction of a cache's capacity usable by GEMM working sets before
    #: conflict misses defeat the blocking.
    cache_utilization: float = 0.75


DEFAULT_SCALAR_COSTS = ScalarCosts()
DEFAULT_MEMORY_COSTS = MemoryCosts()

#: Accumulator width in bytes: int32 for quantized GEMM, fp64 for DGEMM.
INT_ACC_BYTES = 4
FP_ACC_BYTES = 8
