"""``batch``: offline ``GraphPlan.run`` of resnet18-tiny at a4w4.

One closed-loop caller runs a compiled ``mixgemm`` plan on 32x1x32x32
batches.  GEMMs are large (M of about 32k rows), so both the fast-path
kernel and the non-GEMM conv work (quantize, im2col, epilogue) carry
real weight, and the serving layer is not involved.  It uses the plan
and kernel the opposite way to ``serve``: a thread-budget change that
helps one and costs the other shows up.

``harness.reference_loop`` is timed between plan runs, and each run's
rate is scaled to the reference host speed (see ``harness``); the
reported throughput is the median scaled rate, and the unscaled median
is printed too.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from harness import Outcome, pct, reference_loop, scaled_rate
from layers import plan_metrics
from spans import Tracer, traced_plans

ARCH = "resnet18"
BITS = 4
BATCH_SHAPE = (32, 1, 32, 32)
#: Distinct input batches, run in turn; each has its numpy reference.
POOL = 2


def input_batches(seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 0]).standard_normal(
        (POOL, *BATCH_SHAPE))


class BatchWorkload:
    """Set-up, measurement and per-layer metrics of ``batch``."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs = input_batches(seed)

    def setup(self) -> tuple[float, bool]:
        """Cold start (export, compile, first run) to the first result."""
        from repro.models.builders import build_tiny
        from repro.nn.layers import seed_init
        from repro.runtime import InferenceEngine, compile_graph, export_model

        t0 = time.perf_counter()
        seed_init(self.seed)
        model = build_tiny(ARCH, act_bits=BITS, weight_bits=BITS)
        model.eval()
        graph = export_model(model, name=ARCH)
        self.plan = compile_graph(graph, backend="mixgemm")
        t1 = time.perf_counter()
        first = self.plan.run(self.inputs[0])
        t2 = time.perf_counter()
        self.compile_s, self.warmup_s = t1 - t0, t2 - t1

        reference = InferenceEngine(graph, backend="numpy")
        self.refs = [reference.run(x).output for x in self.inputs]
        self.expected_cycles = self._predicted_cycles(first)
        self.first = first
        ok = (np.array_equal(first.output, self.refs[0])
              and first.total_cycles == self.expected_cycles)
        return t2 - t0, bool(ok)

    def _predicted_cycles(self, result) -> int:
        """``predict_graph_cycles`` at the run's true per-layer M."""
        from repro.analysis.cost import predict_graph_cycles
        from repro.analysis.cost.graph import iter_plan_gemms

        rows = {}
        for label, _, gemms in iter_plan_gemms(self.plan):
            stat = next(s for s in result.layer_stats if s.layer == label)
            rows[label] = stat.macs // (gemms[0].n * gemms[0].k)
        return predict_graph_cycles(self.plan, layer_rows=rows).total_cycles

    def close(self) -> None:
        pass

    def macs_per_cycle(self) -> float:
        return self.first.total_macs / self.first.total_cycles

    def measure(self, seconds: float, tracer: Tracer | None = None
                ) -> Outcome:
        out = Outcome()
        durations, raw, scaled = [], [], []
        ctx = (traced_plans(tracer) if tracer is not None
               else contextlib.nullcontext())
        with ctx:
            run = self.plan.run
            refs = [reference_loop()]
            end = time.perf_counter() + seconds
            i = 0
            while i == 0 or time.perf_counter() < end:
                x = self.inputs[i % POOL]
                t = time.perf_counter()
                result = run(x)
                dt = time.perf_counter() - t
                refs.append(reference_loop())
                durations.append(dt)
                raw.append(BATCH_SHAPE[0] / dt)
                scaled.append(scaled_rate(BATCH_SHAPE[0], dt, refs[-2:]))
                out.attempted += 1
                if (not np.array_equal(result.output, self.refs[i % POOL])
                        or result.total_cycles != self.expected_cycles):
                    out.failed += 1
                    out.mismatches += 1
                i += 1
        # Medians over plan runs, so a slow stretch of the host shorter
        # than half the run does not move the result.
        out.metrics = {"throughput_per_s": pct(scaled, 50)}
        out.notes = {"plan_runs": len(durations),
                     "plan_run_ms_p50": round(pct(durations, 50) * 1000.0, 3),
                     "unscaled_images_per_s": round(pct(raw, 50), 2)}
        return out

    def layer_metrics(self, tracer: Tracer, out: Outcome) -> dict:
        return plan_metrics(tracer, self.plan)

