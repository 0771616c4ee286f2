"""``simulate``: a cycle-accurate sweep on the event engine.

``MixGemm(backend="event", emulate_datapath=False)`` runs every
(bw_a, bw_w) pair from 2..8 on the GEMM the repo's own event-engine
sweeps use (``repro.sim.dse.buffer_depth_study``): 16x16x768, signed A
and B, blocking mc = nc = 16, kc = 64.  It is the only workload that
runs ``core.microengine``, ``core.packing`` and ``core.binseg`` -- the
code design-space sweeps and paper figures wait on -- and it touches no
plan or serving code.  Each result is checked twice: C against
``reference_gemm`` and cycles against ``predict_gemm``.

One GEMM of this size takes about half a second, so a pass runs seven
seeded pairs, one row of a seeded Latin square: every bw_a and every
bw_w once.  Seven passes cover all 49 pairs once; the run reports the
median pass.

The event engine is pure Python, whose speed on a shared host drifts
for longer than a run.  ``harness.reference_loop`` is timed before and
after every GEMM, and each pass's rate is scaled to a host on which
that loop takes ``harness.REF_NOMINAL_S``: the reported throughput is
simulated cycles per second at that reference speed.  The unscaled
rate is printed too.
"""

from __future__ import annotations

import contextlib
import itertools
import time

import numpy as np

from harness import Outcome, pct, reference_loop, scaled_rate
from spans import Tracer, patched, span_wrapper

BITWIDTHS = tuple(range(2, 9))
#: (m, n, k) of every GEMM in the sweep, as in ``buffer_depth_study``.
SHAPE = (16, 16, 768)
#: ``BlockingParams`` of ``buffer_depth_study``.
BLOCKING = dict(mc=16, nc=16, kc=64)
PAIRS = tuple((bw_a, bw_w) for bw_a in BITWIDTHS for bw_w in BITWIDTHS)


def pass_pairs(seed: int, pass_index: int) -> list[tuple[int, int]]:
    """The pairs of one pass: row ``pass_index % 7`` of a Latin square
    drawn afresh, from the seed, for every seven passes."""
    sweep, row = divmod(pass_index, len(BITWIDTHS))
    rng = np.random.default_rng([seed, 3, sweep])
    a_order = rng.permutation(BITWIDTHS)
    w_order = rng.permutation(BITWIDTHS)
    shift = int(rng.permutation(len(BITWIDTHS))[row])
    n = len(BITWIDTHS)
    return [(int(a_order[i]), int(w_order[(i + shift) % n]))
            for i in range(n)]


def operands(seed: int, pass_index: int, slot: int,
             pair: tuple[int, int]):
    """Seeded signed operands in range for ``pair``."""
    from repro.core.binseg import value_range

    m, n, k = SHAPE
    rng = np.random.default_rng([seed, 4, pass_index, slot])
    lo, hi = value_range(pair[0], True)
    a = rng.integers(lo, hi + 1, size=(m, k))
    lo, hi = value_range(pair[1], True)
    b = rng.integers(lo, hi + 1, size=(k, n))
    return a, b


class SimulateWorkload:
    """Set-up, measurement and per-layer metrics of ``simulate``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _run(self, pair, a, b, tracer: Tracer | None = None):
        """One GEMM on a fresh executor; ``(result, host seconds)``."""
        from repro.core import MixGemm

        executor = MixGemm(self.configs[pair], backend="event",
                           emulate_datapath=False)
        span = (tracer.span("event.gemm", bw_a=pair[0], bw_w=pair[1])
                if tracer is not None else contextlib.nullcontext())
        with span as sp:
            t = time.perf_counter()
            result = executor.gemm(a, b)
            dt = time.perf_counter() - t
        if sp is not None:
            sp.args["groups"] = result.pmu.groups
        return result, dt

    def _correct(self, pair, a, b, result) -> bool:
        from repro.core import reference_gemm

        return (result.cycles == self.predicted[pair].cycles
                and np.array_equal(result.c, reference_gemm(a, b)))

    def setup(self) -> tuple[float, bool]:
        """Cold start: configs and the cost-oracle predictions every
        check needs (lazy calibration, once per pair), then the first
        simulated GEMM."""
        from repro.analysis.cost import predict_gemm
        from repro.core import MixGemmConfig
        from repro.core.config import BlockingParams

        t0 = time.perf_counter()
        self.configs = {
            (bw_a, bw_w): MixGemmConfig(bw_a=bw_a, bw_b=bw_w,
                                        blocking=BlockingParams(**BLOCKING))
            for bw_a, bw_w in PAIRS}
        self.predicted = {pair: predict_gemm(self.configs[pair], None,
                                             *SHAPE)
                          for pair in PAIRS}
        t1 = time.perf_counter()
        first = pass_pairs(self.seed, 0)[0]
        a, b = operands(self.seed, 0, 0, first)
        result, _ = self._run(first, a, b)
        t2 = time.perf_counter()
        self.compile_s, self.warmup_s = t1 - t0, t2 - t1
        return t2 - t0, self._correct(first, a, b, result)

    def close(self) -> None:
        pass

    def macs_per_cycle(self) -> float:
        """Over the whole sweep.  The predictions are the cycles every
        simulated GEMM is checked against, so they are the simulated
        ones."""
        m, n, k = SHAPE
        return (len(PAIRS) * m * n * k
                / sum(p.cycles for p in self.predicted.values()))

    def measure(self, seconds: float, tracer: Tracer | None = None
                ) -> Outcome:
        """Whole passes until ``seconds`` have gone."""
        import repro.core.gemm as gemm_module

        out = Outcome()
        durations, pass_rates, raw_rates = [], [], []
        cycles = groups = stalls = 0
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                for name in ("pack_matrix_a", "pack_matrix_b"):
                    stack.enter_context(patched(
                        gemm_module, name,
                        span_wrapper(tracer, "event.pack")))
            end = time.perf_counter() + seconds
            for p in itertools.count():
                if p > 0 and time.perf_counter() >= end:
                    break
                pass_cycles = pass_s = 0
                refs = []
                for slot, pair in enumerate(pass_pairs(self.seed, p)):
                    a, b = operands(self.seed, p, slot, pair)
                    refs.append(reference_loop())
                    result, dt = self._run(pair, a, b, tracer)
                    refs.append(reference_loop())
                    durations.append(dt)
                    pass_cycles += result.cycles
                    pass_s += dt
                    groups += result.pmu.groups
                    stalls += (result.pmu.buffer_full_stall_cycles
                               + result.pmu.get_stall_cycles)
                    out.attempted += 1
                    if not self._correct(pair, a, b, result):
                        out.failed += 1
                        out.mismatches += 1
                cycles += pass_cycles
                raw_rates.append(pass_cycles / pass_s)
                pass_rates.append(scaled_rate(pass_cycles, pass_s, refs))
        # Median over passes, so a slow stretch of the host shorter
        # than half the run does not move the result.
        out.metrics = {"throughput_per_s": pct(pass_rates, 50)}
        out.notes = {
            "unscaled_cycles_per_s": round(pct(raw_rates, 50)),
            "gemms": len(durations), "passes": len(pass_rates),
            "gemm_ms_p50": round(pct(durations, 50) * 1000.0, 3),
            "groups_per_gemm": groups / len(durations),
            "stall_cycle_frac": stalls / cycles,
        }
        return out

    def layer_metrics(self, tracer: Tracer, out: Outcome) -> dict:
        from spans import self_times

        gemms = tracer.named("event.gemm")
        packs = tracer.named("event.pack")
        own = self_times(gemms + packs)
        kernel_ns = sum(own[s.span_id] for s in gemms)
        groups = sum(s.args["groups"] for s in gemms)
        return {
            "event.pack_ms": sum(s.dur_ns for s in packs) * 1e-6 / len(gemms),
            "event.kernel_ms": kernel_ns * 1e-6 / len(gemms),
            "event.groups": float(out.notes["groups_per_gemm"]),
            "event.host_ns_per_group": kernel_ns / groups,
            "event.stall_cycle_frac": out.notes["stall_cycle_frac"],
        }
