"""Cutout extraction: real operands, exact reconstruction, guardrails."""

import numpy as np
import pytest

from repro.core.gemm import reference_gemm
from repro.robustness.faults import demo_graph, demo_input
from repro.runtime.graph import GraphModel, NodeSpec
from repro.runtime.plan import compile_graph
from repro.tuning import TuningError, extract_cutouts


@pytest.fixture(scope="module")
def demo_plan():
    return compile_graph(demo_graph(), backend="mixgemm")


@pytest.fixture(scope="module")
def demo_x():
    return demo_input()


def linear_graph(k, n, *, act_bits=8, weight_bits=8, seed=0):
    rng = np.random.default_rng(seed)
    node = NodeSpec(op="quant_linear", attrs={
        "act_bits": act_bits, "weight_bits": weight_bits,
        "act_signed": True, "act_scale": 0.05})
    node.tensors["weight"] = rng.standard_normal((n, k)) * 0.05
    return GraphModel(nodes=[node], name=f"lin-{k}x{n}")


class TestExtraction:
    def test_one_cutout_per_quantized_layer(self, demo_plan, demo_x):
        cutouts = extract_cutouts(demo_plan, demo_x)
        quantized = [s for s in demo_plan.steps
                     if getattr(s, "gemm", None) is not None
                     or getattr(s, "gemms", [])]
        assert len(cutouts) == len(quantized)
        assert [c.label for c in cutouts] == \
            [s.stats_label for s in quantized]

    def test_operand_shapes_agree(self, demo_plan, demo_x):
        for c in extract_cutouts(demo_plan, demo_x):
            assert c.a.ndim == c.b.ndim == 2
            assert c.a.shape == (c.m, c.k)
            assert c.b.shape == (c.k, c.n)
            assert c.macs == c.m * c.n * c.k
            assert c.config.name in c.describe()

    def test_activations_in_quantized_range(self, demo_plan, demo_x):
        for c in extract_cutouts(demo_plan, demo_x):
            bound = 1 << (c.config.bw_a - 1)
            assert c.a.dtype == np.int64
            assert int(np.abs(c.a).max()) <= bound

    def test_cutout_reproduces_the_plan_layer(self):
        """The simulated GEMM on the cutout operands matches plain
        int64 reference_gemm -- the cutout IS the layer's real work."""
        from repro.core.gemm import MixGemm

        graph = linear_graph(96, 24)
        plan = compile_graph(graph, backend="mixgemm")
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 96))
        (cutout,) = extract_cutouts(plan, x)
        executor = MixGemm(cutout.config, emulate_datapath=False)
        got = executor.gemm(cutout.a, cutout.b).c
        assert np.array_equal(got, reference_gemm(cutout.a, cutout.b))

    def test_weight_reconstruction_matches_event_panel(self):
        """Fast-mode kc-block reassembly equals the event-mode panel."""
        graph = linear_graph(4096, 16)
        x = np.random.default_rng(5).standard_normal((4, 4096))
        fast = compile_graph(graph, backend="mixgemm",
                             gemm_backend="fast")
        event = compile_graph(graph, backend="mixgemm",
                              gemm_backend="event")
        b_fast = fast.steps[0].gemm.weight_operand()
        b_event = event.steps[0].gemm.weight_operand()
        assert b_fast.shape == b_event.shape
        assert np.array_equal(b_fast, b_event)
        (c_fast,) = extract_cutouts(fast, x)
        (c_event,) = extract_cutouts(event, x)
        assert np.array_equal(c_fast.a, c_event.a)


class TestGuardrails:
    def test_numpy_backend_rejected(self, demo_x):
        plan = compile_graph(demo_graph(), backend="numpy")
        with pytest.raises(TuningError, match="mixgemm"):
            extract_cutouts(plan, demo_x)

    def test_no_quantized_layers_rejected(self):
        graph = GraphModel(nodes=[NodeSpec(op="relu")], name="actonly")
        plan = compile_graph(graph, backend="mixgemm")
        with pytest.raises(TuningError, match="no quantized"):
            extract_cutouts(plan, np.ones((2, 4)))

    def test_hook_restored_after_extraction(self, demo_plan, demo_x):
        from repro.runtime.observe import set_range_hook

        sentinel_calls = []
        previous = set_range_hook(
            lambda label, kind, values: sentinel_calls.append(label))
        try:
            extract_cutouts(demo_plan, demo_x)
            n_during = len(sentinel_calls)
            demo_plan.run(demo_x)
            assert len(sentinel_calls) > n_during
        finally:
            set_range_hook(previous)
