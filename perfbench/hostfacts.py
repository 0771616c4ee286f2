"""Facts about the host a result was measured on.

Everything here is read, never set: in particular the BLAS thread count
is whatever the process inherited, because choosing it is the program's
job, and pinning it in the benchmark would hide that choice.
"""

from __future__ import annotations

import ctypes
import os
import platform

#: Environment variables that size the BLAS/OpenMP thread pools.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Thread-count getters exported by the OpenBLAS builds numpy ships with
#: (the scipy-openblas wheels suffix every symbol).
_GETTERS = ("scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_blas_path() -> str | None:
    """Path of the OpenBLAS shared object numpy has loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    return path
    except OSError:
        pass
    return None


def blas_threads() -> tuple[int | None, str]:
    """``(threads, how)``: the live OpenBLAS thread count via ``ctypes``.

    ``dlopen`` of an already-loaded library returns the same handle, so
    this reads numpy's own pool size.  ``None`` when no getter is found.
    """
    path = _loaded_blas_path()
    if path is None:
        return None, "no OpenBLAS library loaded"
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        return None, f"cannot open {os.path.basename(path)}: {exc}"
    for name in _GETTERS:
        fn = getattr(lib, name, None)
        if fn is None:
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn()), name
    return None, "no thread-count getter exported"


def host_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = blas.get("name", "unknown")
        blas_version = blas.get("version", "unknown")
    except (KeyError, TypeError, ValueError):
        blas_name = blas_version = "unknown"
    threads, getter = blas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": threads,
        "blas_threads_source": getter,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }
