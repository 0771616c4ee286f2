"""Shared pieces of the benchmark: the result record, cache isolation,
set-up sampling in fresh processes, the host-speed reference loop and
small statistics helpers."""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Scratch area inside the checkout: per-run cache directories and
#: trace files.  Listed in the root ``.gitignore``.
OUT_DIR = ROOT / ".perfbench_out"

#: Environment variables naming the program's on-disk caches.
CACHE_VARS = {"REPRO_COST_CACHE": "cost", "REPRO_TUNE_CACHE": "tune"}

#: Longest a set-up child may take before it counts as failed.
SETUP_CHILD_TIMEOUT_S = 120


#: 64-bit words unpacked by one ``reference_loop`` call.
REF_WORDS = 24000
#: Seconds ``reference_loop`` takes on the host scaled rates refer to
#: (what a quiet 2-vCPU Xeon VM takes).
REF_NOMINAL_S = 0.02


@dataclass
class Outcome:
    """What one measured phase of a workload produced.

    ``attempted``/``failed`` count operations (requests, plan runs or
    GEMMs); ``mismatches`` counts the failed ones whose output or cycle
    count was wrong, as opposed to refused or errored.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    notes: dict = field(default_factory=dict)


def pct(values, q: float) -> float:
    """``q``-th percentile (linear interpolation); 0.0 for no values."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop like the event engine's
    inner one: unpack signed 8-bit fields from 64-bit words into a list.

    On a shared host the speed of pure-Python code drifts by up to 2x
    for seconds to minutes at a time, often longer than a run.  Timing
    this loop next to the measured work gives the host's speed at that
    moment; the loop is benchmark code, so no change to the program
    moves it.
    """
    t = time.perf_counter()
    out = []
    for word in range(0x0123456789ABCDEF, 0x0123456789ABCDEF + REF_WORDS):
        for i in range(8):
            v = (word >> (i * 8)) & 0xFF
            if v & 0x80:
                v -= 0x100
            out.append(v)
    return time.perf_counter() - t


def speed_factor(ref_seconds: list[float]) -> float:
    """How many times slower than the reference host this host ran,
    from ``reference_loop`` timings taken around the measured work."""
    return sum(ref_seconds) / len(ref_seconds) / REF_NOMINAL_S


def scaled_seconds(seconds: float, ref_seconds: list[float]) -> float:
    """``seconds`` at the reference host speed."""
    return seconds / speed_factor(ref_seconds)


def scaled_rate(count: float, seconds: float, ref_seconds: list[float]
                ) -> float:
    """``count / seconds`` at the reference host speed."""
    return count / seconds * speed_factor(ref_seconds)


def host_speed() -> float:
    """Median seconds of three ``reference_loop`` calls."""
    return statistics.median(reference_loop() for _ in range(3))


def timed_setup(workload) -> tuple[float, float, bool]:
    """``(seconds at reference host speed, seconds, correct)`` of
    ``workload.setup()``, with ``host_speed`` timed around it."""
    before = host_speed()
    seconds, ok = workload.setup()
    after = host_speed()
    return scaled_seconds(seconds, [before, after]), seconds, ok


def rss_peak_mb() -> float:
    """Peak resident set of this process (children excluded), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def isolated_caches():
    """Point the program's cost and tune caches at a fresh directory.

    Cold calibration then happens in every run, nothing from the user's
    ``~/.cache/repro`` leaks into a number, and nothing is written
    there.  The directory is removed on exit.
    """
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="caches-", dir=OUT_DIR)
    saved = {name: os.environ.get(name) for name in CACHE_VARS}
    try:
        for name, sub in CACHE_VARS.items():
            os.environ[name] = os.path.join(tmp, sub)
        yield pathlib.Path(tmp)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        shutil.rmtree(tmp, ignore_errors=True)


def setup_in_child(workload: str, seed: int, extra_args: list[str]
                   ) -> tuple[float | None, bool]:
    """Time one cold set-up in a fresh interpreter.

    A fresh process is the only way to get every in-process memo of the
    program empty again.  Returns ``(setup_s, unscaled setup_s,
    correct)`` as ``timed_setup`` gives them; the times are ``None``
    when the child failed.
    """
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           *extra_args, "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, False
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None, None, False
    try:
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        return (float(last["setup_s"]), float(last["unscaled_setup_s"]),
                bool(last["correct"]))
    except (IndexError, KeyError, ValueError):
        return None, None, False
