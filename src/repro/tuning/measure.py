"""Measured-wall-clock objective with per-candidate exactness gating.

Each candidate runs the cutout's real operands under a steady-state
protocol: ``warmup`` executions are discarded (they absorb one-time
costs -- the fast path's memoized micro-kernel oracle, numpy buffer
warm-up, the event engine's packing-cache fill), then ``repeats``
timed executions produce a median.  The median, not the mean, is the
objective: scheduler preemption contaminates individual samples with a
heavy right tail, and the median of a handful of repeats is the
cheapest robust estimator of steady-state cost.

Before a candidate is eligible to win it must be **bit-exact** against
the default-configuration reference.  This gate is substantive, not
ceremonial: with a sub-container AccMem the kc-block boundaries move
the wrap points, so a different ``kc`` can legitimately change the
produced values -- such a candidate may well be faster, but it does
not compute the deployment's function and is rejected.

Candidate measurement fans out across worker processes reusing the
zero-copy shared-memory distribution from the serving stack: the
cutout's operands are exported once into a single
``multiprocessing.shared_memory`` segment (fingerprint-verified on
attach, like plan sharing), so measuring N candidates never copies the
panels N times.  Any environment that cannot spawn workers degrades to
in-process measurement with a structured
:class:`~repro.robustness.errors.ReliabilityWarning` -- same results,
just slower.
"""

from __future__ import annotations

import multiprocessing as mp
import statistics
import time
import warnings
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Optional, Sequence

import numpy as np

from repro.core.config import MixGemmConfig
from repro.core.fastpath import FastPathFallback
from repro.core.packcache import PackingCache
from repro.core.parallel import ParallelMixGemm
from repro.core.prepared import PreparedGemm
from repro.robustness.errors import ReliabilityWarning

from .space import Candidate

#: Alignment of each operand inside the measurement segment (matches
#: the plan exporter's cache-line alignment).
_SHM_ALIGN = 64


@dataclass(frozen=True)
class MeasureResult:
    """Outcome of measuring one candidate on one cutout."""

    candidate: Candidate
    median_s: float
    exact: bool
    error: str = ""

    @property
    def eligible(self) -> bool:
        """Whether this candidate may win (ran and reproduced the
        reference bit for bit)."""
        return self.exact and not self.error


def reference_digest(config: MixGemmConfig, a: np.ndarray,
                     b: np.ndarray) -> str:
    """Fingerprint of the default-configuration result.

    Computed once per cutout on the exact path the compiled plan runs
    (fast when applicable, event otherwise); every candidate's output
    is compared against it.
    """
    c, _ = PreparedGemm(b, config, "fast")(a)
    return PackingCache.fingerprint(c)


def _run_candidate(config: MixGemmConfig, candidate: Candidate,
                   a: np.ndarray, b: np.ndarray,
                   state: dict) -> np.ndarray:
    """One execution of the cutout under ``candidate``; returns C.

    ``state`` carries per-candidate reusable executors across the
    warmup/repeat runs so construction cost (engine setup, executor
    banks, weight-panel casting) stays out of the timed region after
    warmup.  Single-core candidates run the *deployed* executor -- the
    :class:`~repro.core.prepared.PreparedGemm` a compiled plan binds,
    weight blocks pre-cast once -- not a per-call ``run_fastpath``: the
    per-call path re-splits and re-casts the B panel every execution, a
    cost the compiled plan never pays, and timing it skews the
    objective toward small ``kc``.
    """
    cfg = replace(config, blocking=candidate.blocking,
                  backend=candidate.backend)
    if candidate.cores > 1:
        bank = state.get("bank")
        if bank is None:
            bank = ParallelMixGemm(cfg, cores=candidate.cores,
                                   emulate_datapath=False,
                                   backend=candidate.backend)
            state["bank"] = bank
        return bank.gemm(a, b, cores=candidate.cores).c
    prepared = state.get("prepared")
    if prepared is None:
        prepared = PreparedGemm(b, cfg, candidate.backend, PackingCache())
        if prepared.mode != candidate.backend:
            raise FastPathFallback(
                f"candidate requests the {candidate.backend} backend "
                f"but the prepared GEMM resolved {prepared.mode}")
        state["prepared"] = prepared
    return prepared(a)[0]


def measure_candidate(config: MixGemmConfig, candidate: Candidate,
                      a: np.ndarray, b: np.ndarray, *,
                      repeats: int = 3, warmup: int = 1,
                      expected_digest: str) -> MeasureResult:
    """Median-of-``repeats`` wall clock with the exactness gate."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    state: dict = {}
    try:
        c = _run_candidate(config, candidate, a, b, state)
        exact = PackingCache.fingerprint(c) == expected_digest
        for _ in range(max(warmup - 1, 0)):
            _run_candidate(config, candidate, a, b, state)
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _run_candidate(config, candidate, a, b, state)
            samples.append(time.perf_counter() - t0)
        return MeasureResult(candidate=candidate,
                             median_s=statistics.median(samples),
                             exact=exact)
    except FastPathFallback as exc:
        return MeasureResult(candidate=candidate, median_s=float("inf"),
                             exact=False,
                             error=f"fast path refused: {exc}")
    except Exception as exc:  # a broken candidate must not kill the sweep
        return MeasureResult(candidate=candidate, median_s=float("inf"),
                             exact=False,
                             error=f"{type(exc).__name__}: {exc}")


def measure_serial(config: MixGemmConfig,
                   candidates: Sequence[Candidate],
                   a: np.ndarray, b: np.ndarray, *,
                   repeats: int = 3, warmup: int = 1,
                   expected_digest: str) -> list[MeasureResult]:
    """Measure every candidate in this process (the fallback path)."""
    return [measure_candidate(config, cand, a, b, repeats=repeats,
                              warmup=warmup,
                              expected_digest=expected_digest)
            for cand in candidates]


# -- zero-copy operand distribution -------------------------------------------


@dataclass(frozen=True)
class _OperandSpec:
    """Manifest entry for one operand inside the segment."""

    offset: int
    shape: tuple[int, ...]
    dtype: str
    digest: str


@dataclass(frozen=True)
class CutoutHandle:
    """Picklable ticket for attaching the cutout's operands."""

    segment: str
    a: _OperandSpec
    b: _OperandSpec
    total_bytes: int


def _operand_view(shm: shared_memory.SharedMemory,
                  spec: _OperandSpec) -> np.ndarray:
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                      buffer=shm.buf, offset=spec.offset)
    view.flags.writeable = False
    return view


def export_cutout_operands(a: np.ndarray, b: np.ndarray
                           ) -> tuple[shared_memory.SharedMemory,
                                      CutoutHandle]:
    """Copy the operands into one shared segment, once.

    The caller owns the returned segment: ``close()`` **and**
    ``unlink()`` it when the sweep is done.  Workers attach by handle
    and verify each operand against its fingerprint before measuring.
    """
    specs = []
    offset = 0
    for arr in (a, b):
        offset = -(-offset // _SHM_ALIGN) * _SHM_ALIGN
        specs.append(_OperandSpec(
            offset=offset, shape=tuple(arr.shape), dtype=arr.dtype.str,
            digest=PackingCache.fingerprint(arr)))
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    try:
        for spec, arr in zip(specs, (a, b)):
            view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                              buffer=shm.buf, offset=spec.offset)
            view[...] = arr
        handle = CutoutHandle(segment=shm.name, a=specs[0], b=specs[1],
                              total_bytes=offset)
        return shm, handle
    except BaseException:
        shm.close()
        shm.unlink()
        raise


def _measure_worker(conn, handle: CutoutHandle, config: MixGemmConfig,
                    candidates: list[Candidate], repeats: int,
                    warmup: int, expected_digest: str) -> None:
    """Worker entry point (``spawn``): attach, verify, measure, reply."""
    shm = None
    try:
        try:
            shm = shared_memory.SharedMemory(name=handle.segment)
            a = _operand_view(shm, handle.a)
            b = _operand_view(shm, handle.b)
            for name, arr, spec in (("A", a, handle.a),
                                    ("B", b, handle.b)):
                if PackingCache.fingerprint(arr) != spec.digest:
                    raise ValueError(
                        f"shared {name} operand does not match its "
                        f"manifest fingerprint")
        except Exception as exc:
            conn.send(("failed", f"{type(exc).__name__}: {exc}"))
            return
        results = measure_serial(config, candidates, a, b,
                                 repeats=repeats, warmup=warmup,
                                 expected_digest=expected_digest)
        conn.send(("ok", results))
    except (EOFError, OSError, KeyboardInterrupt):
        return  # dispatcher gone: exit quietly
    finally:
        if shm is not None:
            shm.close()
        conn.close()


def fan_out_measurements(
    config: MixGemmConfig, candidates: Sequence[Candidate],
    a: np.ndarray, b: np.ndarray, *,
    processes: int = 0, repeats: int = 3, warmup: int = 1,
    expected_digest: str, start_method: str = "spawn",
) -> list[MeasureResult]:
    """Measure the candidate sweep, fanned across worker processes.

    ``processes <= 1`` (the default) measures in-process.  Otherwise
    the operands are exported once to shared memory and the candidate
    list is split into contiguous chunks, one worker process each --
    N candidates, one copy of the panels.  Results come back in
    candidate order.  Environments that cannot spawn (or a worker that
    dies) degrade to in-process measurement of the affected chunk with
    a :class:`~repro.robustness.errors.ReliabilityWarning`.
    """
    candidates = list(candidates)
    workers = min(int(processes), len(candidates))
    if workers <= 1:
        return measure_serial(config, candidates, a, b, repeats=repeats,
                              warmup=warmup,
                              expected_digest=expected_digest)
    try:
        ctx = mp.get_context(start_method)
        shm, handle = export_cutout_operands(np.ascontiguousarray(a),
                                             np.ascontiguousarray(b))
    except (ValueError, OSError) as exc:
        warnings.warn(ReliabilityWarning(
            f"candidate fan-out unavailable ({exc}); measuring "
            f"in-process"), stacklevel=2)
        return measure_serial(config, candidates, a, b, repeats=repeats,
                              warmup=warmup,
                              expected_digest=expected_digest)
    chunks: list[list[Candidate]] = [[] for _ in range(workers)]
    for i, cand in enumerate(candidates):
        chunks[i % workers].append(cand)
    jobs = []
    try:
        for chunk in chunks:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_measure_worker,
                args=(child, handle, config, chunk, repeats, warmup,
                      expected_digest),
                daemon=True)
            try:
                proc.start()
            except (OSError, ValueError) as exc:
                parent.close()
                child.close()
                warnings.warn(ReliabilityWarning(
                    f"cannot start measurement worker ({exc}); "
                    f"measuring its chunk in-process"), stacklevel=2)
                jobs.append((None, None, chunk))
                continue
            child.close()
            jobs.append((proc, parent, chunk))
        by_candidate: dict[Candidate, MeasureResult] = {}
        for proc, parent, chunk in jobs:
            rows: Optional[list[MeasureResult]] = None
            if proc is not None:
                try:
                    status, payload = parent.recv()
                    if status == "ok":
                        rows = payload
                    else:
                        warnings.warn(ReliabilityWarning(
                            f"measurement worker failed ({payload}); "
                            f"measuring its chunk in-process"),
                            stacklevel=2)
                except (EOFError, OSError) as exc:
                    warnings.warn(ReliabilityWarning(
                        f"measurement worker died "
                        f"({type(exc).__name__}); measuring its chunk "
                        f"in-process"), stacklevel=2)
                finally:
                    parent.close()
                    proc.join(timeout=10.0)
                    if proc.is_alive():
                        proc.terminate()
                        proc.join(timeout=10.0)
            if rows is None:
                rows = measure_serial(
                    config, chunk, a, b, repeats=repeats, warmup=warmup,
                    expected_digest=expected_digest)
            for row in rows:
                by_candidate[row.candidate] = row
        return [by_candidate[cand] for cand in candidates]
    finally:
        shm.close()
        shm.unlink()


__all__ = [
    "CutoutHandle",
    "MeasureResult",
    "export_cutout_operands",
    "fan_out_measurements",
    "measure_candidate",
    "measure_serial",
    "reference_digest",
]
