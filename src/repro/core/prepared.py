"""Prepared GEMMs: one weight operand, decided and held once.

The BLIS-derived Mix-GEMM library prepares each layer's weight operand
once and afterwards only streams activations through it.
:class:`PreparedGemm` is that preparation and the only code that decides
and holds a weight operand's format:

* **fast mode** -- B is validated and split into kc-blocks; a block is
  pre-cast to float64 when every partial sum it can produce stays below
  ``2**53`` (so it rides the BLAS dgemm exactly), otherwise it stays
  int64.  Each call reproduces the event backend bit for bit with one
  wrap per kc-block (see :mod:`repro.core.fastpath`), and its cycles
  come from the memoized :func:`~repro.core.fastpath.fastpath_timing`
  oracle, looked up once per distinct M.
* **event mode** -- one reusable :class:`~repro.core.gemm.MixGemm` with
  B prewarmed into a :class:`~repro.core.packcache.PackingCache`.
  Per-call cycles are the engine clock *delta*, which equals a fresh
  executor's count because the micro-kernel timing is translation
  invariant.

Compiled plans bind one instance per (layer, group);
:func:`~repro.core.fastpath.run_fastpath` is the one-shot fast form;
the autotuner measures its candidates through the same objects.
"""

from __future__ import annotations

import numpy as np

from .backend import resolve_backend
from .binseg import BinSegError
from .config import ACCMEM_CONTAINER_BITS, MixGemmConfig
from .fastpath import (
    fastpath_applicable,
    fastpath_timing,
    operand_bound,
    wrap_signed_array,
)
from .gemm import MixGemm
from .packcache import PackingCache
from .packing import _check_matrix, kc_span

#: Largest magnitude whose integer arithmetic is exact in a float64.
_FLOAT64_EXACT = 1 << 53


def backend_capability(config: MixGemmConfig, k: int,
                       gemm_backend: str) -> bool:
    """Whether a guard-free GEMM with inner dimension ``k`` runs fast.

    The one mode rule: :class:`PreparedGemm` picks its mode with it and
    the tuner keys its cache and candidate space on it, so compilation
    and tuning agree on every layer.
    """
    decision = resolve_backend(gemm_backend, config,
                               emulate_datapath=False)
    return decision.is_fast and fastpath_applicable(config, k) is None


class PreparedGemm:
    """One GEMM's weight operand B, prepared once; ``(a) -> (C, cycles)``.

    ``weights`` holds the stored arrays: one per kc-block in fast mode
    (``spans[i]`` is the row range of B it covers), the whole K x N
    panel in event mode.  Rebinding an entry to an equal array -- the
    shared-memory exporter does this -- leaves the GEMM unchanged;
    :meth:`weight_operand` reassembles the int64 panel.
    """

    def __init__(self, b: np.ndarray, config: MixGemmConfig,
                 gemm_backend: str,
                 pack_cache: PackingCache | None = None) -> None:
        b64 = _check_matrix(b, config.bw_b, config.signed_b, "B")
        self.k, self.n = b64.shape
        if self.k == 0 and self.n > 0:
            raise BinSegError("cannot pack an empty k vector")
        self.config = config
        self.mode = ("fast" if backend_capability(config, self.k,
                                                  gemm_backend)
                     else "event")
        self.prepacked = False
        if self.mode == "event":
            self.weights = [b64]
            self._executor = MixGemm(config, emulate_datapath=False,
                                     backend="event",
                                     pack_cache=pack_cache)
            if pack_cache is not None:
                self.prepacked = pack_cache.prewarm("B", b64, config)
            return
        self.kc_eff = kc_span(config.blocking, config.layout)
        bound = operand_bound(config)
        self.spans = [slice(pc, min(pc + self.kc_eff, self.k))
                      for pc in range(0, self.k, self.kc_eff)]
        self._exact = [(sl.stop - sl.start) * bound < _FLOAT64_EXACT
                       for sl in self.spans]
        self.weights = [b64[sl].astype(np.float64) if exact else b64[sl]
                        for sl, exact in zip(self.spans, self._exact)]
        self._single = len(self.spans) == 1
        self._cycles_by_m: dict[int, int] = {}

    def weight_operand(self) -> np.ndarray:
        """The int64 K x N weight operand this GEMM multiplies by.

        Fast-mode blocks are cast to float64 only when every product in
        them is exactly representable, so the cast back is lossless.
        """
        return np.concatenate([np.asarray(w, dtype=np.int64)
                               for w in self.weights])

    def __call__(self, a: np.ndarray) -> tuple[np.ndarray, int]:
        """``(C, cycles)`` for int64 ``a`` already in the config's range.

        A is not re-validated: callers either quantized it into exactly
        the ``(bw_a, signed_a)`` range this config declares or checked
        it themselves (:func:`~repro.core.fastpath.run_fastpath`).
        """
        if self.mode == "event":
            engine = self._executor.engine
            before = engine.now
            res = self._executor.gemm(a, self.weights[0])
            return res.c, res.cycles - before
        m = a.shape[0]
        cycles = self._cycles_by_m.get(m)
        if cycles is None:
            cycles = fastpath_timing(self.config, m, self.n,
                                     self.k).cycles
            self._cycles_by_m[m] = cycles
        bits = self.config.accmem_bits
        if self._single:
            b_blk = self.weights[0]
            if self._exact[0]:
                c = (a.astype(np.float64) @ b_blk).astype(np.int64)
            else:
                c = a @ b_blk
            if bits < ACCMEM_CONTAINER_BITS:
                c = wrap_signed_array(c, bits)
            return c, cycles
        c = np.zeros((m, self.n), dtype=np.int64)
        for sl, b_blk, exact in zip(self.spans, self.weights, self._exact):
            a_blk = a[:, sl]
            if exact:
                partial = (a_blk.astype(np.float64)
                           @ b_blk).astype(np.int64)
            else:
                partial = a_blk @ b_blk
            if bits < ACCMEM_CONTAINER_BITS:
                partial = wrap_signed_array(partial, bits)
            c += partial
        return c, cycles


__all__ = ["PreparedGemm", "backend_capability"]
