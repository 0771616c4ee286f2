"""One on-disk store: content-keyed JSON entries, published atomically.

The persistent caches -- the autotuner's winners
(:class:`repro.tuning.cache.TuneCache`) and the cost model's tile
calibrations (:class:`repro.analysis.cost.calibrate.CostCache`) -- are
directories of small JSON files that live serving processes read while
a tuning campaign or a calibration writes them.  This module is the only
code that touches those files:

* the directory is an explicit path, else the cache's environment
  variable, else ``~/.cache/repro/<subdir>``;
* entry names derive from :func:`digest`, a sha256 prefix over the
  canonical JSON of the fields that identify an entry;
* :meth:`JsonStore.write` serializes to a temporary file in the same
  directory and publishes it with :func:`os.replace` (lint rule
  REP012), so a concurrent reader -- or a crash mid-write -- sees the
  old entry or the new one, never a torn file;
* :meth:`JsonStore.load` reports a damaged or unparsable entry as a
  :class:`~repro.robustness.errors.ReliabilityWarning` and reads it as
  absent: cache damage degrades to recomputation, never to a crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
import warnings
from typing import Callable, Optional, TypeVar

from repro.robustness.errors import ReliabilityWarning

T = TypeVar("T")


def cache_dir(path: Optional[os.PathLike], env: str,
              subdir: str) -> pathlib.Path:
    """``path``, else ``$env``, else ``~/.cache/repro/<subdir>``."""
    if path is not None:
        return pathlib.Path(path)
    override = os.environ.get(env, "").strip()
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro" / subdir


def digest(fields: dict) -> str:
    """Content hash of ``fields``: sha256 of canonical JSON, 20 hex chars."""
    payload = json.dumps(fields, sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:20]


class JsonStore:
    """A directory of ``*.json`` entries; ``label`` names it in warnings."""

    def __init__(self, path: Optional[os.PathLike], *, env: str,
                 subdir: str, label: str) -> None:
        self.path = cache_dir(path, env, subdir)
        self.label = label

    def load(self, name: str, parse: Callable[[dict], T]) -> Optional[T]:
        """``parse`` of entry ``name``; ``None`` if absent or unreadable."""
        path = self.path / name
        if not path.is_file():
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                return parse(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            warnings.warn(ReliabilityWarning(
                f"ignoring {self.label} entry {name}: "
                f"{type(exc).__name__}: {exc}"), stacklevel=3)
            return None

    def names(self) -> list[str]:
        """Every entry name, sorted (deterministic scans)."""
        if not self.path.is_dir():
            return []
        return sorted(path.name for path in self.path.glob("*.json"))

    def write(self, name: str, payload: dict) -> pathlib.Path:
        """Publish ``payload`` as entry ``name`` atomically.

        The temporary file is private to the writing thread: threads of
        one process calibrating the same tile on a cold cache (a
        threaded ``ParallelMixGemm``) all write the same entry at once.
        """
        self.path.mkdir(parents=True, exist_ok=True)
        final = self.path / name
        tmp = self.path / f"{name}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, final)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return final

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for name in self.names():
            try:
                os.unlink(self.path / name)
                removed += 1
            except OSError:
                continue
        return removed


__all__ = ["JsonStore", "cache_dir", "digest"]
