"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --serve-rps 300 --workload serve \\
        --seed 1 --seconds 12 --trace 0

Workloads (each generated from ``--seed``; see the module docstrings):

* ``serve``    -- ``serve_load.py``: a threaded ``BatchedServer`` at a8w8,
  open loop at ``--serve-rps``, then a closed loop.
* ``batch``    -- ``batch_load.py``: offline ``GraphPlan.run`` at a4w4 on
  32x1x32x32 batches.
* ``simulate`` -- ``sim_load.py``: the event-engine sweep over every
  (bw_a, bw_w) pair from 2..8.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
measured with no instrumentation installed.  Every workload reports
every metric; ``throughput_per_s`` is closed-loop requests per second
(capacity) on ``serve``, images per second on ``batch`` and simulated
cycles per host second on ``simulate``.  Open-loop request latency of
``serve`` (p50, p90, p99) is printed but not part of the result: on a
2-CPU host it moves by more than any allowed bound between runs of the
same code.

``setup_s`` is the median over several cold starts (this process plus
fresh child processes, each with empty cost and tune caches) of the
time to the first correct result.

Times are reported at a reference host speed: on a shared host the
speed of this pure-Python program drifts by up to 2x for seconds to
minutes, so a fixed loop written here (``harness.reference_loop``) is
timed next to every measured piece of work (around each set-up, each
simulated GEMM, each batch plan run, between serve's closed-loop
slices), and each time is scaled to a host on which that loop takes
``harness.REF_NOMINAL_S``.  The unscaled figures are printed too.

``ok_frac`` is the share of attempted operations that succeeded and
were verified (1 - failed_frac).  ``model.macs_per_cycle`` is a
property of the modelled hardware, not of the host; it repeats exactly.

With ``--trace 1`` the workload runs alternately untraced and with spans
recorded from this directory's wrappers (``spans.py``); the last line
carries the per-layer metrics (``layers.py``) and the trace is written
as Chrome trace-event JSON under ``.perfbench_out/``.  Per-layer
metrics of layers a workload does not exercise read 0 and are listed
on stdout.

Host facts (CPU count and model, Python, numpy, BLAS library, version
and live thread count, ``*_NUM_THREADS``) are printed with every
result.  The benchmark reads the BLAS thread settings and never sets
them.

Self-tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from harness import (
    OUT_DIR,
    ROOT,
    isolated_caches,
    rss_peak_mb,
    setup_in_child,
    timed_setup,
)

WORKLOADS = ("serve", "batch", "simulate")

#: Cold starts per run whose median is ``setup_s`` (this process is
#: one of them).  The simulate set-up calibrates 49 tile laws, so it
#: takes fewer, longer samples.
SETUP_SAMPLES = {"serve": 7, "batch": 7, "simulate": 3}

#: Untraced/traced measurement pairs of a traced run; each measures
#: ``--seconds`` / this, so the run measures ``2 x --seconds`` in all.
TRACE_ALTERNATIONS = 2



def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the ``kind`` metrics (``end_to_end`` or
    ``per_layer``) of ``BENCHMARK.json``, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


#: The per-workload names the metrics above go by in prose.
ALIASES = {
    "serve": {"throughput_per_s": "serve.capacity_rps"},
    "batch": {"throughput_per_s": "batch.images_per_s"},
    "simulate": {"throughput_per_s": "sim.cycles_per_s"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serve-rps", type=float, required=True,
                        help="open-loop arrival rate of the serve workload")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it (used by "
                             "the set-up sampling child processes)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.serve_rps <= 0:
        parser.error("--seconds and --serve-rps must be positive")
    return args


def make_workload(args):
    if args.workload == "serve":
        from serve_load import ServeWorkload
        return ServeWorkload(args.seed, args.serve_rps)
    if args.workload == "batch":
        from batch_load import BatchWorkload
        return BatchWorkload(args.seed)
    from sim_load import SimulateWorkload
    return SimulateWorkload(args.seed)


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         units: dict) -> None:
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))


def run_untraced(args, workload) -> int:
    try:
        setup_s, unscaled_s, ok = timed_setup(workload)
        samples, unscaled = [setup_s], [unscaled_s]
        attempted, failed = 1, int(not ok)
        for _ in range(SETUP_SAMPLES[args.workload] - 1):
            child_s, child_unscaled_s, child_ok = setup_in_child(
                args.workload, args.seed,
                ["--serve-rps", repr(args.serve_rps)])
            attempted += 1
            failed += int(child_s is None or not child_ok)
            ok = ok and child_ok
            if child_s is not None:
                samples.append(child_s)
                unscaled.append(child_unscaled_s)
        out = workload.measure(args.seconds)
    finally:
        workload.close()
    attempted += out.attempted
    failed += out.failed
    metrics = dict(out.metrics)
    metrics.update({
        "setup_s": statistics.median(samples),
        "ok_frac": 1.0 - failed / attempted,
        "rss_peak_mb": rss_peak_mb(),
        "model.macs_per_cycle": workload.macs_per_cycle(),
    })
    units = metric_units("end_to_end")
    aliases = ALIASES[args.workload]
    for name, unit in units.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{args.workload}: {name} = {metrics[name]:.6g} {unit}{alias}")
    print(f"{args.workload}: failed_frac = {failed / attempted:.6g} "
          f"({failed}/{attempted}); setup samples "
          f"{[round(s, 4) for s in samples]} (unscaled "
          f"{[round(s, 4) for s in unscaled]}); "
          f"{ {k: v for k, v in out.notes.items() if k != 'phases'} }")
    emit(ok and out.mismatches == 0, attempted, failed, metrics, units)
    return 0


def run_traced(args, workload, facts: dict) -> int:
    import repro.analysis.cost.calibrate as calibrate_module

    from layers import MOVES, cost_metrics
    from spans import Tracer, patched, span_wrapper

    tracer = Tracer()
    outs = {"plain": [], "traced": []}
    try:
        with patched(calibrate_module, "calibrate_tile",
                     span_wrapper(tracer, "cost.calibrate")):
            _, ok = workload.setup()
        # Untraced and traced halves alternate, so drift of the host
        # speed over the run does not read as tracing overhead.
        for _ in range(TRACE_ALTERNATIONS):
            seconds = args.seconds / TRACE_ALTERNATIONS
            outs["plain"].append(workload.measure(seconds))
            outs["traced"].append(workload.measure(seconds, tracer))
    finally:
        workload.close()
    metrics = workload.layer_metrics(tracer, outs["traced"][-1])
    table = metrics.pop("_layers", None)
    metrics.update(cost_metrics(tracer, compile_s=workload.compile_s,
                                warmup_s=workload.warmup_s))
    rate = {kind: statistics.mean(o.metrics["throughput_per_s"]
                                  for o in runs)
            for kind, runs in outs.items()}
    metrics["trace.overhead_frac"] = rate["plain"] / rate["traced"] - 1.0
    units = metric_units("per_layer")
    idle = [name for name in units if name not in metrics]
    for name in idle:
        metrics[name] = 0.0

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_chrome(path, metadata={"host": facts,
                                        "workload": args.workload,
                                        "seed": args.seed})
    if table:
        print(f"{args.workload}: per-layer GEMM time vs predicted cycles")
        for layer, row in table.items():
            print(f"  {layer:>6}  {row['host_ms']:10.3f} ms  "
                  f"{row['predicted_cycles']:>12} cycles  "
                  f"{row['host_ns_per_cycle']:8.4f} ns/cycle")
    for name, unit in units.items():
        print(f"{args.workload}: {name} = {metrics[name]:.6g} {unit}"
              f"  (moves {MOVES[name]})")
    print(f"{args.workload}: not exercised by this workload (reported "
          f"as 0): {', '.join(idle) or 'none'}")
    print(f"{args.workload}: gemm.bytes_per_run is computed from operand "
          f"and result sizes (int64 elements), not measured")
    print(f"{args.workload}: trace written to {path.relative_to(ROOT)} "
          f"({len(tracer.spans)} spans)")
    every = outs["plain"] + outs["traced"]
    attempted = 1 + sum(o.attempted for o in every)
    failed = int(not ok) + sum(o.failed for o in every)
    correct = ok and all(o.mismatches == 0 for o in every)
    emit(correct, attempted, failed, metrics, units)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with isolated_caches():
        workload = make_workload(args)
        if args.setup_only:
            try:
                setup_s, unscaled_s, ok = timed_setup(workload)
            finally:
                workload.close()
            print(json.dumps({"setup_s": setup_s,
                              "unscaled_setup_s": unscaled_s,
                              "correct": ok}))
            return 0
        from hostfacts import host_facts

        facts = host_facts()
        print("host: " + json.dumps(facts, sort_keys=True))
        started = time.perf_counter()
        if args.trace:
            code = run_traced(args, workload, facts)
        else:
            code = run_untraced(args, workload)
        print(f"{args.workload}: wall {time.perf_counter() - started:.1f} s",
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
