"""Cut single GEMM layers out of a compiled plan as tuning units.

dace-style cutout tuning measures each candidate against the *real*
work the deployment performs, not a synthetic proxy: the A operand is
the exact quantized im2col activation matrix the plan produced for a
representative input, and the B operand is the exact weight panel the
plan baked in at compile time.  This module extracts both without
re-deriving any lowering logic -- it runs the plan once with the
:mod:`~repro.runtime.observe` range hook armed (the same tap the range
sanitizer uses) and captures the ``"act"`` array each quantized GEMM
step reports immediately before calling its prepared GEMM, then pairs
it with that GEMM's weight operand
(:meth:`~repro.core.prepared.PreparedGemm.weight_operand`).  Grouped
convolutions contribute their first group: every group shares the
layer's shape, bitwidths and blocking, so one group is the
representative tuning unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.cost.graph import iter_plan_gemms
from repro.core.config import MixGemmConfig
from repro.core.errors import ReproError
from repro.runtime.observe import set_range_hook
from repro.runtime.plan import GraphPlan


class TuningError(ReproError, RuntimeError):
    """Raised on autotuner misuse (wrong backend, no quantized layers)."""


@dataclass
class LayerCutout:
    """One independently runnable tuning unit cut from a plan.

    ``label`` is the step's stable pre-fusion id (``stats_label``), the
    same key per-layer cycle reports use.  ``a`` is the captured
    quantized activation matrix (M x K, int64 codes already in the
    config's range), ``b`` the baked weight panel (K x N, int64).
    """

    label: str
    op: str
    config: MixGemmConfig
    a: np.ndarray
    b: np.ndarray
    groups: int = 1

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def k(self) -> int:
        return self.a.shape[1]

    @property
    def n(self) -> int:
        return self.b.shape[1]

    @property
    def macs(self) -> int:
        return self.m * self.n * self.k

    def describe(self) -> str:
        return (f"{self.label}: {self.op} {self.config.name} "
                f"{self.m}x{self.k}x{self.n}"
                + (f" (x{self.groups} groups)" if self.groups > 1 else ""))


def extract_cutouts(plan: GraphPlan, x: np.ndarray) -> list[LayerCutout]:
    """Run ``plan`` once on ``x`` and cut out every quantized GEMM layer.

    The observe hook fires per GEMM call with the step's stable label;
    the first ``"act"`` capture per label (group 0 of a grouped conv)
    becomes the cutout's A operand.  Requires a ``mixgemm``-backend
    plan -- the numpy backend never reports activations and has no
    bound executors to tune.
    """
    if plan.info.backend != "mixgemm":
        raise TuningError(
            f"cutout extraction needs a mixgemm-backend plan, got "
            f"{plan.info.backend!r}")
    captured: dict[str, np.ndarray] = {}

    def _capture(label: str, kind: str, values: np.ndarray) -> None:
        if kind == "act" and label not in captured:
            captured[label] = np.ascontiguousarray(values,
                                                   dtype=np.int64)

    previous = set_range_hook(_capture)
    try:
        plan.run(x)
    finally:
        set_range_hook(previous)

    cutouts: list[LayerCutout] = []
    for label, op, gemms in iter_plan_gemms(plan):
        a = captured.get(label)
        if a is None:  # pragma: no cover - every prepared gemm observes
            continue
        gemm = gemms[0]
        cutouts.append(LayerCutout(
            label=label, op=op, config=gemm.config, a=a,
            b=gemm.weight_operand(), groups=len(gemms)))
    if not cutouts:
        raise TuningError(
            "plan has no quantized GEMM layers to tune")
    return cutouts


__all__ = [
    "LayerCutout",
    "TuningError",
    "extract_cutouts",
]
