"""Per-layer metrics derived from the spans of a traced run.

Each metric names the end-to-end metric it should move and on which
workload (``MOVES``).  Names and units are those of ``BENCHMARK.json``.
"Open-loop latency" is the serve latency printed with every untraced
serve run; it is not one of the compared end-to-end metrics.  A
workload reports only the layers it exercises; the others read 0 and
are listed as not exercised.
"""

from __future__ import annotations

from collections import defaultdict

from harness import pct
from spans import Tracer, self_times

_CAPACITY = "throughput_per_s on serve"
_LATENCY = "open-loop latency on serve (printed, not compared)"
_PLAN = "throughput_per_s on batch and serve"
_SIM = "throughput_per_s on simulate"

#: per-layer metric -> the end-to-end metric it should move.
MOVES = {
    "serving.submit_us_p50": _LATENCY,
    "serving.queue_wait_ms_p50": _LATENCY,
    "serving.queue_wait_ms_p99": _LATENCY,
    "serving.batch_size_mean": _CAPACITY,
    "serving.worker_busy_frac": _CAPACITY,
    "serving.shed_total": "ok_frac on serve",
    "loadgen.late_p99_ms": "nothing: checks the load generator",
    "plan.run_ms_p50": _PLAN,
    "plan.steps_per_run": _PLAN,
    "plan.conv_self_ms": _PLAN,
    "plan.linear_self_ms": _PLAN,
    "plan.generic_ms": _PLAN,
    "plan.span_coverage_frac": "nothing: checks the trace",
    "gemm.calls_per_run": _PLAN,
    "gemm.ms_per_run": _PLAN,
    "gemm.ns_per_mac": _PLAN,
    "gemm.bytes_per_run": _PLAN,
    "gemm.host_ns_per_model_cycle": _PLAN,
    "gemm.host_ns_per_model_cycle_max": _PLAN,
    "event.pack_ms": _SIM,
    "event.kernel_ms": _SIM,
    "event.groups": "model.macs_per_cycle on simulate",
    "event.host_ns_per_group": _SIM,
    "event.stall_cycle_frac": "model.macs_per_cycle on simulate",
    "cost.calibrations": "setup_s on every workload",
    "cost.calibrate_s": "setup_s on every workload",
    "compile.s": "setup_s on every workload",
    "warmup.s": "setup_s on every workload",
    "trace.overhead_frac": "nothing: cost of the tracing itself",
}

#: Bytes per operand element in ``gemm.bytes_per_run``: the GEMM
#: contract is int64 A, B and C, so bytes moved are computed from the
#: operand and result sizes at 8 bytes each, not measured.
GEMM_ELEMENT_BYTES = 8

_MS = 1e-6


def plan_metrics(tracer: Tracer, plan) -> dict:
    """``plan.*`` and ``gemm.*`` from the plan-run, step and GEMM spans;
    ``plan`` is one of the traced plans, used for the cycle
    predictions.  Also returns the per-layer predicted-vs-measured
    table under ``"_layers"``."""
    from repro.analysis.cost import predict_graph_cycles

    spans = tracer.spans
    runs = [s for s in spans if s.name == "plan.run"]
    steps = [s for s in spans if s.name == "step"]
    gemms = [s for s in spans if s.name == "gemm"]
    if not runs:
        return {}
    self_ns = self_times(spans)
    n_runs = len(runs)
    kind_ns: dict[str, int] = defaultdict(int)
    for s in steps:
        kind_ns[s.args["kind"]] += self_ns[s.span_id]
    run_ns = sum(s.dur_ns for s in runs)
    step_ns = sum(s.dur_ns for s in steps)
    gemm_ns = sum(s.dur_ns for s in gemms)
    macs = sum(s.args["m"] * s.args["n"] * s.args["k"] for s in gemms)
    moved = sum((s.args["m"] * s.args["k"] + s.args["k"] * s.args["n"]
                 + s.args["m"] * s.args["n"]) * GEMM_ELEMENT_BYTES
                for s in gemms)

    # Predicted cycles per (layer, M): one closed-form evaluation each.
    per_layer_ns: dict[str, int] = defaultdict(int)
    per_layer_cycles: dict[str, int] = defaultdict(int)
    predicted: dict[tuple[str, int], int] = {}
    for s in gemms:
        key = (s.args["layer"], s.args["m"])
        if key not in predicted:
            cost = predict_graph_cycles(plan, layer_rows={key[0]: key[1]})
            predicted[key] = cost.by_label()[key[0]].breakdown.cycles
        per_layer_ns[key[0]] += s.dur_ns
        per_layer_cycles[key[0]] += predicted[key]
    table = {layer: {"host_ms": per_layer_ns[layer] * _MS,
                     "predicted_cycles": per_layer_cycles[layer],
                     "host_ns_per_cycle": (per_layer_ns[layer]
                                           / per_layer_cycles[layer])}
             for layer in sorted(per_layer_ns)}
    total_cycles = sum(per_layer_cycles.values())
    return {
        "plan.run_ms_p50": pct([s.dur_ns * _MS for s in runs], 50),
        "plan.steps_per_run": len(steps) / n_runs,
        "plan.conv_self_ms": kind_ns["ConvStep"] * _MS / n_runs,
        "plan.linear_self_ms": kind_ns["QuantLinearStep"] * _MS / n_runs,
        "plan.generic_ms": kind_ns["GenericStep"] * _MS / n_runs,
        "plan.span_coverage_frac": step_ns / run_ns,
        "gemm.calls_per_run": len(gemms) / n_runs,
        "gemm.ms_per_run": gemm_ns * _MS / n_runs,
        "gemm.ns_per_mac": gemm_ns / macs if macs else 0.0,
        "gemm.bytes_per_run": moved / n_runs,
        "gemm.host_ns_per_model_cycle": (gemm_ns / total_cycles
                                         if total_cycles else 0.0),
        "gemm.host_ns_per_model_cycle_max": max(
            (row["host_ns_per_cycle"] for row in table.values()),
            default=0.0),
        "_layers": table,
    }


def cost_metrics(tracer: Tracer, *, compile_s: float,
                 warmup_s: float) -> dict:
    """``cost.*`` from the calibration spans of the traced set-up."""
    calibrations = tracer.named("cost.calibrate")
    return {
        "cost.calibrations": float(len(calibrations)),
        "cost.calibrate_s": sum(s.dur_ns for s in calibrations) * 1e-9,
        "compile.s": compile_s,
        "warmup.s": warmup_s,
    }
