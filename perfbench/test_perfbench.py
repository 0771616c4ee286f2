"""Self-tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import harness

sys.path.insert(0, str(harness.ROOT / "src"))

import batch_load  # noqa: E402
import serve_load  # noqa: E402
import sim_load  # noqa: E402
from spans import Span, Tracer, self_times, traced_plans  # noqa: E402


@pytest.fixture(autouse=True)
def _fresh_caches():
    with harness.isolated_caches():
        yield


# -- seeded inputs ------------------------------------------------------------


def test_same_seed_same_inputs():
    assert np.array_equal(serve_load.request_images(3),
                          serve_load.request_images(3))
    assert np.array_equal(serve_load.image_choices(3, 50),
                          serve_load.image_choices(3, 50))
    assert np.array_equal(batch_load.input_batches(3),
                          batch_load.input_batches(3))
    assert sim_load.pass_pairs(3, 2) == sim_load.pass_pairs(3, 2)
    for got, want in zip(sim_load.operands(3, 1, 4, (5, 2)),
                         sim_load.operands(3, 1, 4, (5, 2))):
        assert np.array_equal(got, want)
    assert not np.array_equal(batch_load.input_batches(3),
                              batch_load.input_batches(4))


def test_simulate_passes_form_latin_squares():
    """Every pass runs each bw_a and each bw_w once; seven passes run
    all 49 pairs once."""
    for sweep in range(2):
        seen = []
        for row in range(7):
            pairs = sim_load.pass_pairs(4, sweep * 7 + row)
            assert sorted(a for a, _ in pairs) == list(sim_load.BITWIDTHS)
            assert sorted(w for _, w in pairs) == list(sim_load.BITWIDTHS)
            seen += pairs
        assert sorted(seen) == sorted(sim_load.PAIRS)


def test_same_seed_same_schedule():
    a = serve_load.arrival_schedule(5, 300.0, 3.0)
    b = serve_load.arrival_schedule(5, 300.0, 3.0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, serve_load.arrival_schedule(6, 300.0, 3.0))


def test_schedule_ignores_system_speed(monkeypatch):
    """The schedule never reads a clock: it is the same however slow or
    fast the host is, and its rate is the one asked for."""
    expected = serve_load.arrival_schedule(9, 300.0, 20.0)

    def no_clock():
        raise AssertionError("arrival_schedule read the clock")

    monkeypatch.setattr(time, "perf_counter", no_clock)
    monkeypatch.setattr(time, "monotonic", no_clock)
    monkeypatch.setattr(time, "time", no_clock)
    got = serve_load.arrival_schedule(9, 300.0, 20.0)
    assert np.array_equal(got, expected)
    assert np.all(np.diff(got) > 0) and got[-1] < 20.0
    assert len(got) / 20.0 == pytest.approx(300.0, rel=0.05)


# -- host-speed scaling -------------------------------------------------------


def test_scaling_to_reference_host_speed():
    """Work timed while the reference loop ran at half its nominal speed
    counts as twice as fast; at nominal speed it is unchanged."""
    nominal = harness.REF_NOMINAL_S
    assert harness.scaled_seconds(3.0, [nominal]) == pytest.approx(3.0)
    assert harness.scaled_seconds(3.0, [nominal, 3 * nominal]) == \
        pytest.approx(1.5)
    assert harness.scaled_rate(100, 2.0, [2 * nominal]) == \
        pytest.approx(100.0)
    assert harness.reference_loop() > 0


# -- span arithmetic ----------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        Span("run", 0, 100, 1),
        Span("step", 10, 40, 2, parent_id=1),
        Span("step", 50, 90, 3, parent_id=1),
        Span("gemm", 15, 25, 4, parent_id=2),
        Span("gemm", 27, 35, 5, parent_id=2),
    ]
    own = self_times(spans)
    assert own == {1: 100 - 30 - 40, 2: 30 - 10 - 8, 3: 40, 4: 10, 5: 8}


def test_tracer_nests_and_writes_chrome_trace(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", request_id=7):
        with tracer.span("inner", layer="n1"):
            pass
    inner, outer = tracer.spans
    assert inner.parent_id == outer.span_id and outer.parent_id is None
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns
    path = tmp_path / "trace.json"
    tracer.write_chrome(path, metadata={"seed": 1})
    doc = json.loads(path.read_text())
    names = {e["name"]: e for e in doc["traceEvents"]}
    assert names["inner"]["args"]["parent"] == outer.span_id
    assert names["outer"]["args"]["request_id"] == 7
    assert all(e["ph"] == "X" for e in doc["traceEvents"])


def test_traced_plan_matches_untraced_and_is_restored():
    from repro.models.builders import build_tiny
    from repro.nn.layers import seed_init
    from repro.runtime import compile_graph, export_model

    seed_init(1)
    model = build_tiny("resnet18", act_bits=8, weight_bits=8)
    model.eval()
    plan = compile_graph(export_model(model), backend="mixgemm")
    x = serve_load.request_images(1)[:2]
    steps = list(plan.steps)
    plain = plan.run(x)
    tracer = Tracer()
    with traced_plans(tracer):
        traced = plan.run(x)
    assert np.array_equal(plain.output, traced.output)
    assert plain.total_cycles == traced.total_cycles
    assert plan.steps == steps
    assert len(tracer.named("plan.run")) == 1
    assert len(tracer.named("step")) == len(steps)
    assert len(tracer.named("gemm")) == len(plain.layer_stats)


# -- correctness checks catch a wrong reference -------------------------------


def test_wrong_reference_fails_batch():
    workload = batch_load.BatchWorkload(2)
    _, ok = workload.setup()
    assert ok
    assert workload.measure(0.01).failed == 0
    workload.refs[0] = workload.refs[0] + 1e-9
    out = workload.measure(0.01)
    assert out.failed > 0 and out.mismatches == out.failed


def test_wrong_reference_fails_serve():
    workload = serve_load.ServeWorkload(2, 300.0)
    try:
        _, ok = workload.setup()
        assert ok
        workload.refs = [r + 1e-9 for r in workload.refs]
        out = workload.measure(0.5)
    finally:
        workload.close()
    assert out.attempted > 0 and out.failed == out.attempted


def test_wrong_cycle_prediction_fails_simulate():
    workload = sim_load.SimulateWorkload(2)
    _, ok = workload.setup()
    assert ok
    first = sim_load.pass_pairs(2, 0)[0]
    a, b = sim_load.operands(2, 0, 0, first)
    result, _ = workload._run(first, a, b)
    assert workload._correct(first, a, b, result)
    workload.predicted[first] = dataclasses.replace(
        workload.predicted[first], cycles=result.cycles + 1)
    assert not workload._correct(first, a, b, result)


# -- the command --------------------------------------------------------------


def _run(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--serve-rps", "300",
         "--seed", "1", *extra], cwd=cwd, capture_output=True, text=True,
        timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_result_line(trace):
    proc = _run(harness.ROOT, "--workload", "batch", "--seconds", "0.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_command_fails_without_program(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "serve", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
