"""Persistent per-layer autotuner (dace-style cutout tuning).

The compiled-plan serving stack runs every quantized GEMM at the
simulator's default blocking.  This package makes deployments
self-optimizing: each graph layer is cut out of a compiled plan with
its *real* operands (:mod:`~repro.tuning.cutout`), a pruned candidate
space of blocking / execution backend / worker counts is measured
against a wall-clock objective with a bit-exactness gate
(:mod:`~repro.tuning.space`, :mod:`~repro.tuning.measure`), and the
winners persist in an on-disk, atomically written result cache keyed
by layer-shape content hash (:mod:`~repro.tuning.cache`).  Plan
compilation consults that cache -- ``compile_graph(..., tuned=True)``
and ``repro serve --tuned`` transparently run each layer at its tuned
blocking; ``repro tune`` runs, inspects and clears campaigns
(:mod:`~repro.tuning.tuner`).
"""

from .cache import (
    TUNE_CACHE_ENV,
    TUNE_SCHEMA_VERSION,
    TuneCache,
    TuneEntry,
    TuneKey,
    default_cache_dir,
    shape_digest,
)
from .cutout import LayerCutout, TuningError, extract_cutouts
from .measure import (
    MeasureResult,
    fan_out_measurements,
    measure_candidate,
    measure_serial,
    reference_digest,
)
from .space import (
    Candidate,
    DEFAULT_CORES_VALUES,
    DEFAULT_EVENT_MAC_LIMIT,
    candidate_space,
    default_candidate,
    effective_kc_split,
)
from .tuner import LayerOutcome, TuneReport, tune_cutout, tune_graph

__all__ = [
    "Candidate",
    "DEFAULT_CORES_VALUES",
    "DEFAULT_EVENT_MAC_LIMIT",
    "LayerCutout",
    "LayerOutcome",
    "MeasureResult",
    "TUNE_CACHE_ENV",
    "TUNE_SCHEMA_VERSION",
    "TuneCache",
    "TuneEntry",
    "TuneKey",
    "TuneReport",
    "TuningError",
    "candidate_space",
    "default_cache_dir",
    "default_candidate",
    "effective_kc_split",
    "extract_cutouts",
    "fan_out_measurements",
    "measure_candidate",
    "measure_serial",
    "reference_digest",
    "shape_digest",
    "tune_cutout",
    "tune_graph",
]
