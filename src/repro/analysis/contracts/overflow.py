"""Accumulator-overflow contract (paper Eq. 5 / Section III-B).

The micro-engine accumulates each C u-panel entry in a finite AccMem
register.  Per quantized node, the deepest single-register accumulation
is ``min(K, kc_logical)`` element products, where K is the im2col-lowered
inner dimension and ``kc_logical`` the logical k span of one cache block
(the scalar core folds per-block partials into 64-bit C outside AccMem).
The worst-case magnitude of that sum is

    ``min(K, kc) * max|a| * max|w|  =  min(K, kc) * 2**(ba + bw - 2)``

for signed operands (Eq. 2), and the contract demands it fits the
configured two's-complement AccMem width.  If it does not, there exists
an input on which the dynamic engine silently wraps -- the integration
suite demonstrates exactly that, so the static verdict here is not a
heuristic but matches runtime truth.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic, ERROR, WARNING
from repro.core.binseg import (
    DEFAULT_MUL_WIDTH,
    BinSegError,
    accumulator_bits_required,
    worst_case_inner_product,
)
from repro.core.config import BlockingParams, MixGemmConfig
from repro.core.packing import kc_span

from .packing import check_config

OVERFLOW_RULES: dict[str, str] = {
    "ACC-OVERFLOW": "worst-case accumulation exceeds the AccMem width",
    "ACC-MARGIN": "accumulation has less than one bit of AccMem headroom",
}

_QUANT_OPS = ("quant_conv2d", "quant_linear")


def node_config(node, *, accmem_bits: int, blocking: BlockingParams,
                mul_width: int = DEFAULT_MUL_WIDTH,
                ) -> MixGemmConfig | None:
    """The runtime config the engine would build for one quantized node.

    Returns ``None`` when the node's attrs cannot even produce a config
    (missing/unsupported bitwidths) -- the graph contract reports those.
    """
    act_bits = node.attrs.get("act_bits")
    weight_bits = node.attrs.get("weight_bits")
    if not isinstance(act_bits, int) or not isinstance(weight_bits, int):
        return None
    try:
        return MixGemmConfig(
            bw_a=act_bits, bw_b=weight_bits,
            signed_a=bool(node.attrs.get("act_signed", True)),
            signed_b=True, blocking=blocking, accmem_bits=accmem_bits,
            mul_width=mul_width,
        )
    except (BinSegError, ValueError):
        return None


def check_overflow(graph, *, accmem_bits: int, blocking: BlockingParams,
                   mul_width: int = DEFAULT_MUL_WIDTH,
                   path: str = "") -> list[Diagnostic]:
    """Prove (or refute) no-wrap for every quantized node of a graph."""
    diags: list[Diagnostic] = []
    seen_configs: set[str] = set()
    for label, node in zip(graph.effective_ids(), graph):
        if node.op not in _QUANT_OPS:
            continue
        config = node_config(node, accmem_bits=accmem_bits,
                             blocking=blocking, mul_width=mul_width)
        k = node.gemm_k()
        if config is None or k is None or k == 0:
            continue  # structurally broken; the graph contract reports it
        if config.name not in seen_configs:
            seen_configs.add(config.name)
            diags.extend(check_config(config, node=label, path=path))
        layout = config.layout
        kc_logical = kc_span(blocking, layout)
        k_eff = min(k, kc_logical)
        worst = worst_case_inner_product(
            k_eff, config.bw_a, config.bw_b,
            signed_a=config.signed_a, signed_b=config.signed_b,
        )
        acc_max = config.accmem_range[1]
        need = accumulator_bits_required(
            k_eff, config.bw_a, config.bw_b,
            signed_a=config.signed_a, signed_b=config.signed_b,
        )
        if worst > acc_max:
            diags.append(Diagnostic(
                rule="ACC-OVERFLOW", severity=ERROR,
                message=(
                    f"{node.op} ({config.name}): worst-case accumulation "
                    f"of K={k_eff} products reaches |C| = {worst} but a "
                    f"{config.accmem_bits}-bit AccMem slot holds at most "
                    f"{acc_max}; the engine will wrap"
                ),
                hint=(f"needs accmem_bits >= {need}, or shrink K / the "
                      f"{config.bw_a}x{config.bw_b}-bit operand widths"),
                node=label, path=path,
            ))
        elif 2 * worst > acc_max:
            diags.append(Diagnostic(
                rule="ACC-MARGIN", severity=WARNING,
                message=(
                    f"{node.op} ({config.name}): K={k_eff} leaves less "
                    f"than one spare bit in the {config.accmem_bits}-bit "
                    f"AccMem (worst case {worst} of {acc_max})"
                ),
                hint=f"one extra bit of headroom needs accmem_bits >= "
                     f"{need + 1}",
                node=label, path=path,
            ))
    return diags
