"""Candidate space for one tuning unit: blocking x backend x workers.

The raw cross product of the blocking grids is mostly redundant for a
concrete layer: on the fast path the wall clock depends only on how
``kc`` splits the layer's K span (``mc``/``nc``/``mr``/``nr`` shape
the analytic cycle model, not the numpy work), and every ``kc`` whose
effective span reaches past K produces the identical single-block
execution.  This module prunes exactly that structure: invalid grid
points are dropped via
:func:`~repro.core.config.blocking_problems` (``mr > mc`` and friends
never reach a measurement), fast candidates are deduplicated by their
effective kc split clamped at K, and event-backend candidates are
admitted only under a MAC budget -- the event engine is a
cycle-faithful simulator, and simulating a production-sized layer per
candidate would turn a tuning campaign into a weekend.

The layer's default configuration is always candidate 0, measured like
any other: the winner can therefore never be slower than the default
on the tuning measurements, and a layer whose default is already
optimal tunes to itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.core.config import (
    BlockingParams,
    MixGemmConfig,
    blocking_candidates,
)
from repro.core.fastpath import fastpath_applicable
from repro.core.packing import aligned_kc, kc_span
from repro.core.prepared import backend_capability

#: Worker counts searched by default: single-core only.  Pass
#: ``cores_values=(1, 2, ...)`` to also measure
#: :class:`~repro.core.parallel.ParallelMixGemm` N-slicing.
DEFAULT_CORES_VALUES = (1,)

#: Largest m*n*k an event-backend candidate may have.  Above this the
#: event engine is measured only when the fast path cannot serve the
#: layer at all (there is no alternative to compare against).
DEFAULT_EVENT_MAC_LIMIT = 1 << 16


@dataclass(frozen=True)
class Candidate:
    """One measurable point: blocking + execution backend + cores."""

    blocking: BlockingParams
    backend: str            # "event" | "fast"
    cores: int = 1

    def describe(self) -> str:
        b = self.blocking
        core = f" cores={self.cores}" if self.cores > 1 else ""
        return (f"{self.backend} mc={b.mc} nc={b.nc} kc={b.kc} "
                f"mr={b.mr} nr={b.nr}{core}")

    def as_dict(self) -> dict:
        b = self.blocking
        return {"blocking": [b.mc, b.nc, b.kc, b.mr, b.nr],
                "backend": self.backend, "cores": self.cores}


def effective_kc_split(config: MixGemmConfig, blocking: BlockingParams,
                       k: int) -> int:
    """The kc span (in logical k elements) one blocking actually uses.

    ``kc`` counts 64-bit u-vectors; the logical span grows with the
    compression factor and is aligned to whole accumulation groups.
    Clamped at the group-aligned K so every blocking that covers the
    layer in one block maps to the same split -- they execute
    identically on the fast path (same matmuls, same wrap points).
    """
    lay = config.layout
    kc_eff = kc_span(blocking, lay)
    k_aligned = aligned_kc(max(k, 1), lay.group_elements)
    return min(kc_eff, k_aligned)


def default_candidate(config: MixGemmConfig, k: int,
                      gemm_backend: str = "auto") -> Candidate:
    """The point the un-tuned plan runs at (always candidate 0)."""
    backend = ("fast" if backend_capability(config, k, gemm_backend)
               else "event")
    return Candidate(blocking=config.blocking, backend=backend, cores=1)


def candidate_space(
    config: MixGemmConfig, m: int, n: int, k: int, *,
    gemm_backend: str = "auto",
    blockings: Optional[Sequence[BlockingParams]] = None,
    cores_values: Sequence[int] = DEFAULT_CORES_VALUES,
    event_mac_limit: int = DEFAULT_EVENT_MAC_LIMIT,
) -> list[Candidate]:
    """Deterministic, pruned candidate list for one layer.

    ``blockings`` defaults to the full
    :func:`~repro.core.config.blocking_candidates` grid (already
    filtered of unbuildable points).  The default configuration leads
    the list; fast candidates are deduplicated by effective kc split;
    event candidates obey ``event_mac_limit`` (see module docstring).
    """
    if blockings is None:
        blockings = blocking_candidates()
    default = default_candidate(config, k, gemm_backend)
    candidates: list[Candidate] = [default]
    seen: set[tuple] = {(default.backend,
                         effective_kc_split(config, default.blocking, k)
                         if default.backend == "fast"
                         else default.blocking, default.cores)}
    fast_ok = backend_capability(config, k, gemm_backend)
    macs = m * n * max(k, 1)
    for cores in cores_values:
        if cores < 1:
            continue
        for blocking in blockings:
            if fast_ok:
                trial = replace(config, blocking=blocking)
                if fastpath_applicable(trial, k) is None:
                    split = effective_kc_split(config, blocking, k)
                    key = ("fast", split, cores)
                    if key not in seen:
                        seen.add(key)
                        candidates.append(Candidate(
                            blocking=blocking, backend="fast",
                            cores=cores))
            if macs <= event_mac_limit or not fast_ok:
                key = ("event", blocking, cores)
                if key not in seen:
                    seen.add(key)
                    candidates.append(Candidate(
                        blocking=blocking, backend="event", cores=cores))
    return candidates


def analytic_score(config: MixGemmConfig, candidate: Candidate,
                   m: int, n: int, k: int) -> tuple[int, int]:
    """Closed-form rank of one candidate: (backend rank, predicted cycles).

    Scores come from the calibrated cost model
    (:func:`repro.analysis.cost.model.predict_gemm`) -- O(1) per
    candidate once the one tile calibration for this bitwidth pair is
    warm, no engine execution.  The fast backend ranks ahead of the
    event backend whenever both are present: on the host the fast path
    is numpy while the event backend simulates every cycle, so
    predicted u-engine cycles only order candidates *within* a backend.
    Multi-core candidates are scored on their widest N slice plus the
    barrier, mirroring ``ParallelMixGemm`` timing.
    """
    from math import ceil

    from repro.analysis.cost.model import predict_gemm
    from repro.core.parallel import DEFAULT_BARRIER_CYCLES

    cfg = replace(config, blocking=candidate.blocking)
    n_eff = max(n, 1)
    barrier = 0
    if candidate.cores > 1:
        nr = candidate.blocking.nr
        chunk = ceil(n_eff / candidate.cores)
        chunk = max(nr, ceil(chunk / nr) * nr)
        n_eff = min(n_eff, chunk)
        barrier = DEFAULT_BARRIER_CYCLES
    breakdown = predict_gemm(cfg, None, max(m, 1), n_eff, max(k, 1))
    backend_rank = 0 if candidate.backend == "fast" else 1
    return (backend_rank, breakdown.cycles + barrier)


def prefilter_candidates(
    config: MixGemmConfig, candidates: Sequence[Candidate],
    m: int, n: int, k: int,
) -> tuple[list[Candidate], int]:
    """Analytically score the full space; keep the promising half.

    Returns ``(kept, scored)`` where ``scored`` is the size of the
    space the cost model ranked.  The kept list preserves the original
    candidate order and always retains candidate 0 (the default
    configuration): the measurement sweep's invariants -- default
    leads, winner never slower than default, bit-exactness gate --
    are untouched; the prefilter only decides who gets wall-clock time.
    Spaces of three or fewer candidates pass through unfiltered.
    """
    candidates = list(candidates)
    if len(candidates) <= 3:
        return candidates, len(candidates)
    scores = [analytic_score(config, cand, m, n, k)
              for cand in candidates]
    target = max(2, len(candidates) // 2)
    order = sorted(range(len(candidates)), key=lambda i: (scores[i], i))
    keep = set(order[:target])
    if 0 not in keep:
        worst = max(keep, key=lambda i: (scores[i], i))
        keep.remove(worst)
        keep.add(0)
    kept = [candidates[i] for i in sorted(keep)]
    return kept, len(candidates)


__all__ = [
    "Candidate",
    "DEFAULT_CORES_VALUES",
    "DEFAULT_EVENT_MAC_LIMIT",
    "analytic_score",
    "candidate_space",
    "default_candidate",
    "effective_kc_split",
    "prefilter_candidates",
]
