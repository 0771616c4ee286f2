"""Persistent tuning-result cache: one JSON file per tuned layer shape.

The autotuner's winners outlive the process in a small on-disk cache
(``~/.cache/repro/tune`` by default, overridable via the
``REPRO_TUNE_CACHE`` environment variable or an explicit path).  Each
entry is one file named by the **full digest** of its
:class:`TuneKey` -- a content hash over everything that changes which
candidate wins: the GEMM shape (M, N, K), the operand bitwidths and
signedness, the AccMem width, whether the plan compiled with fusion,
the requested gemm backend and whether the fast path can serve the
layer at all (the "backend capabilities" axis).  Duplicate layers --
within one model or across models -- share a digest and therefore tune
exactly once.

Plan compilation cannot know M (the batch- and geometry-dependent row
count of the im2col lowering), so every entry also records a **shape
digest** over the same fields minus M; ``compile_graph(...,
tuned=True)`` looks layers up by shape digest and applies the winning
blocking.  Two M values that tuned to different winners both match at
compile time; the most recently written entry wins, which is the right
bias for a cache that a fresh campaign refreshes in one pass.

File I/O goes through :class:`repro.store.JsonStore`: writes publish
atomically, so a concurrent reader (or a crash mid-write) sees either
the old entry or the new one, never a torn file, and corrupt or
version-skewed entries are reported as a structured
:class:`~repro.robustness.errors.ReliabilityWarning` and skipped:
cache damage degrades to default blocking, never to a failed compile.
"""

from __future__ import annotations

import os
import pathlib
import warnings
from dataclasses import dataclass
from typing import Optional

from repro.core.config import BlockingParams, MixGemmConfig
from repro.core.prepared import backend_capability
from repro.robustness.errors import ReliabilityWarning
from repro.store import JsonStore, cache_dir, digest

#: Version of the on-disk entry schema.  Bump on any layout change;
#: readers skip (with a warning) entries written by a different
#: version instead of guessing at their meaning.
TUNE_SCHEMA_VERSION = 1

#: Environment variable naming an alternative cache directory.
TUNE_CACHE_ENV = "REPRO_TUNE_CACHE"


def default_cache_dir() -> pathlib.Path:
    """The cache directory: ``$REPRO_TUNE_CACHE`` or ``~/.cache/repro/tune``."""
    return cache_dir(None, TUNE_CACHE_ENV, "tune")


def shape_digest(*, n: int, k: int, bw_a: int, bw_w: int, signed_a: bool,
                 accmem_bits: int, fuse: bool, gemm_backend: str,
                 fast_ok: bool) -> str:
    """The M-free digest plan compilation looks layers up by."""
    return digest({
        "n": n, "k": k, "bw_a": bw_a, "bw_w": bw_w,
        "signed_a": signed_a, "accmem_bits": accmem_bits,
        "fuse": fuse, "gemm_backend": gemm_backend, "fast_ok": fast_ok,
    })


@dataclass(frozen=True)
class TuneKey:
    """Everything that changes which candidate wins, hashed two ways."""

    m: int
    n: int
    k: int
    bw_a: int
    bw_w: int
    signed_a: bool
    accmem_bits: int
    fuse: bool
    gemm_backend: str
    fast_ok: bool

    @classmethod
    def from_config(cls, config: MixGemmConfig, m: int, n: int, k: int, *,
                    fuse: bool, gemm_backend: str) -> "TuneKey":
        return cls(m=m, n=n, k=k, bw_a=config.bw_a, bw_w=config.bw_b,
                   signed_a=config.signed_a,
                   accmem_bits=config.accmem_bits, fuse=fuse,
                   gemm_backend=gemm_backend,
                   fast_ok=backend_capability(config, k, gemm_backend))

    def digest(self) -> str:
        """Full content hash (M included): the tuning-dedup identity."""
        return digest({
            "m": self.m, "n": self.n, "k": self.k,
            "bw_a": self.bw_a, "bw_w": self.bw_w,
            "signed_a": self.signed_a, "accmem_bits": self.accmem_bits,
            "fuse": self.fuse, "gemm_backend": self.gemm_backend,
            "fast_ok": self.fast_ok,
        })

    def shape_digest(self) -> str:
        """The M-free digest (see :func:`shape_digest`)."""
        return shape_digest(
            n=self.n, k=self.k, bw_a=self.bw_a, bw_w=self.bw_w,
            signed_a=self.signed_a, accmem_bits=self.accmem_bits,
            fuse=self.fuse, gemm_backend=self.gemm_backend,
            fast_ok=self.fast_ok)

    def as_dict(self) -> dict:
        return {
            "m": self.m, "n": self.n, "k": self.k,
            "bw_a": self.bw_a, "bw_w": self.bw_w,
            "signed_a": self.signed_a, "accmem_bits": self.accmem_bits,
            "fuse": self.fuse, "gemm_backend": self.gemm_backend,
            "fast_ok": self.fast_ok,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TuneKey":
        return cls(
            m=int(payload["m"]), n=int(payload["n"]), k=int(payload["k"]),
            bw_a=int(payload["bw_a"]), bw_w=int(payload["bw_w"]),
            signed_a=bool(payload["signed_a"]),
            accmem_bits=int(payload["accmem_bits"]),
            fuse=bool(payload["fuse"]),
            gemm_backend=str(payload["gemm_backend"]),
            fast_ok=bool(payload["fast_ok"]))


@dataclass(frozen=True)
class TuneEntry:
    """One persisted winner: the key plus what won and by how much."""

    key: TuneKey
    blocking: tuple[int, int, int, int, int]   # (mc, nc, kc, mr, nr)
    backend: str                                # "event" | "fast"
    cores: int
    median_s: float
    default_median_s: float
    candidates: int

    @property
    def speedup(self) -> float:
        """Default-blocking median over the winner's median."""
        return (self.default_median_s / self.median_s
                if self.median_s > 0 else 1.0)

    def blocking_params(self) -> BlockingParams:
        mc, nc, kc, mr, nr = self.blocking
        return BlockingParams(mc=mc, nc=nc, kc=kc, mr=mr, nr=nr)

    def as_dict(self) -> dict:
        return {
            "schema": TUNE_SCHEMA_VERSION,
            "key": self.key.as_dict(),
            "shape_digest": self.key.shape_digest(),
            "blocking": list(self.blocking),
            "backend": self.backend,
            "cores": self.cores,
            "median_s": self.median_s,
            "default_median_s": self.default_median_s,
            "speedup": self.speedup,
            "candidates": self.candidates,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TuneEntry":
        schema = payload.get("schema")
        if schema != TUNE_SCHEMA_VERSION:
            raise ValueError(
                f"schema {schema!r} != supported {TUNE_SCHEMA_VERSION}")
        blocking = tuple(int(v) for v in payload["blocking"])
        if len(blocking) != 5:
            raise ValueError(f"blocking has {len(blocking)} fields, not 5")
        entry = cls(
            key=TuneKey.from_dict(payload["key"]),
            blocking=blocking,
            backend=str(payload["backend"]),
            cores=int(payload["cores"]),
            median_s=float(payload["median_s"]),
            default_median_s=float(payload["default_median_s"]),
            candidates=int(payload["candidates"]))
        entry.blocking_params()   # reject unbuildable persisted blockings
        return entry


class TuneCache:
    """Directory of :class:`TuneEntry` files, one per full-key digest.

    ``hits``/``misses`` count full-key :meth:`get` lookups -- the
    tuner's dedup accounting ("did this layer shape tune before?").
    Compile-time :meth:`lookup_shape` consultation is deliberately not
    counted there: it is a consumer, not a campaign.
    """

    def __init__(self, path: Optional[os.PathLike] = None) -> None:
        self._store = JsonStore(path, env=TUNE_CACHE_ENV, subdir="tune",
                                label="tune-cache")
        self.hits = 0
        self.misses = 0
        self._shape_index: Optional[dict[str, TuneEntry]] = None

    @property
    def path(self) -> pathlib.Path:
        """The cache directory."""
        return self._store.path

    # -- reading ------------------------------------------------------

    def get(self, key: TuneKey) -> Optional[TuneEntry]:
        """Full-digest lookup; counts toward ``hits``/``misses``."""
        name = f"{key.digest()}.json"
        entry = self._store.load(name, TuneEntry.from_dict)
        if entry is not None and entry.key != key:
            warnings.warn(ReliabilityWarning(
                f"tune-cache entry {name} does not match its own "
                f"digest (hash collision or tampering); ignoring it"),
                stacklevel=2)
            entry = None
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def entries(self) -> list[TuneEntry]:
        """Every readable entry, sorted by file name (deterministic)."""
        loaded = (self._store.load(name, TuneEntry.from_dict)
                  for name in self._store.names())
        return [entry for entry in loaded if entry is not None]

    def lookup_shape(self, digest: str) -> Optional[TuneEntry]:
        """M-free lookup used by ``compile_graph(..., tuned=True)``.

        The first consultation scans the directory once and indexes by
        shape digest (later files win, i.e. the newest campaign);
        :meth:`put` and :meth:`clear` invalidate the index.
        """
        if self._shape_index is None:
            self._shape_index = {e.key.shape_digest(): e
                                 for e in self.entries()}
        return self._shape_index.get(digest)

    # -- writing ------------------------------------------------------

    def put(self, entry: TuneEntry) -> pathlib.Path:
        """Persist ``entry`` atomically; returns the published path."""
        final = self._store.write(f"{entry.key.digest()}.json",
                                  entry.as_dict())
        self._shape_index = None
        return final

    def clear(self) -> int:
        """Delete every entry file; returns how many were removed."""
        self._shape_index = None
        return self._store.clear()


__all__ = [
    "TUNE_CACHE_ENV",
    "TUNE_SCHEMA_VERSION",
    "TuneCache",
    "TuneEntry",
    "TuneKey",
    "default_cache_dir",
    "shape_digest",
]
