"""Ablation: u-engine throughput by configuration and design feature.

Not a single paper table, but the design-choice ablations DESIGN.md calls
out: the per-configuration MAC/cycle ladder implied by binary
segmentation (3 -> 7 peak, with DSU boundary losses), the AccMem's
benefit (removing per-element C read-modify-write from the issue
stream), and the functional simulator's raw speed (for harness sizing).
"""

import numpy as np
import pytest

from repro.core.config import BlockingParams, MixGemmConfig
from repro.core.gemm import MixGemm
from repro.core.microengine import effective_macs_per_cycle
from repro.sim.perf import MixGemmPerfModel


def test_mac_per_cycle_ladder(benchmark, save_result):
    def ladder():
        out = {}
        for bw in (8, 6, 4, 3, 2):
            cfg = MixGemmConfig(bw_a=bw, bw_b=bw)
            out[bw] = (cfg.macs_per_cycle,
                       effective_macs_per_cycle(cfg))
        return out

    result = benchmark(ladder)
    save_result("microengine_ladder", "\n".join(
        ["u-engine throughput per configuration (peak / effective):"]
        + [f"  a{b}-w{b}: {peak} / {eff:.2f} MAC/cycle"
           for b, (peak, eff) in result.items()]
    ))
    peaks = [p for p, _ in result.values()]
    assert peaks == sorted(peaks)
    assert peaks[0] == 3 and peaks[-1] == 7


def test_accmem_ablation(benchmark, save_result):
    """Without the AccMem, every accumulation would round-trip through
    the core (modelled as extra C-update issue work); the paper credits
    the AccMem for beating the 8x bound at a8-w8."""
    mix = MixGemmPerfModel()

    def with_and_without():
        cfg = MixGemmConfig(bw_a=8, bw_b=8)
        base = mix.gemm(1024, 1024, 1024, cfg)
        # No AccMem: one get+update per output per k-GROUP, not k-block.
        groups = 1024 // cfg.layout.group_elements
        k_blocks_equiv = groups
        penalty = (base.collection_cycles * k_blocks_equiv
                   / max(1, (1024 // (cfg.blocking.kc * 8))))
        no_accmem_cycles = (max(base.engine_cycles, base.cpu_cycles)
                            + penalty + base.memory_stall_cycles)
        return base.total_cycles, no_accmem_cycles

    with_acc, without_acc = benchmark(with_and_without)
    save_result("microengine_accmem", "\n".join([
        "AccMem ablation (1024^3 GEMM, a8-w8):",
        f"  with AccMem:    {with_acc / 1e6:.1f}M cycles",
        f"  without AccMem: {without_acc / 1e6:.1f}M cycles",
        f"  benefit: {without_acc / with_acc - 1:.1%}",
    ]))
    assert without_acc > with_acc


def test_functional_simulator_throughput(benchmark):
    """Raw event-driven simulator speed on a small exact GEMM."""
    rng = np.random.default_rng(0)
    cfg = MixGemmConfig(bw_a=8, bw_b=8,
                        blocking=BlockingParams(mc=8, nc=8, kc=64))
    a = rng.integers(-128, 128, size=(8, 64))
    b = rng.integers(-128, 128, size=(64, 8))

    def run():
        return MixGemm(cfg, emulate_datapath=False).gemm(a, b)

    result = benchmark(run)
    assert np.array_equal(result.c, a.astype(np.int64) @ b)
