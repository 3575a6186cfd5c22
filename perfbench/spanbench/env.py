"""Thread pinning and the environment record of one benchmark run.

The BLAS and OpenMP thread counts are fixed through environment variables,
which the libraries read only when they are loaded, so ``pin_threads`` must
run before numpy is imported. ``threads_in_effect`` then asks the loaded
OpenBLAS for its thread count, so a pin that did not take fails the run
instead of letting it time unpinned.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
import time

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# getter names across OpenBLAS builds: numpy's bundled scipy-openblas, then a system one
_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


class PinError(RuntimeError):
    """The one-thread pin cannot be confirmed."""


def pin_threads():
    if "numpy" in sys.modules:
        raise PinError("numpy was imported before the thread pin was set")
    for var in PIN_VARS:
        os.environ[var] = "1"


def _loaded_openblas():
    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    return sorted(p for p in paths if p.startswith("/"))


def threads_in_effect():
    """(library path, thread count) of the OpenBLAS this process loaded."""
    import numpy  # noqa: F401  (loads the BLAS)

    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        for name in _GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return path, int(getter())
    raise PinError("no OpenBLAS thread-count getter found; cannot confirm the one-thread pin")


def require_pin():
    path, threads = threads_in_effect()
    if threads != 1:
        raise PinError(f"{os.path.basename(path)} runs {threads} threads despite the pin")
    return path, threads


def environment(workload, seed, blas_path, threads):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": os.path.basename(blas_path),
        "blas_threads": threads,
        "threads_pinned": threads == 1,
        "pin_vars": {var: os.environ.get(var) for var in PIN_VARS},
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }


def seconds_since_process_start():
    """Wall time since the kernel started this process (10 ms resolution)."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of stat(5); the split drops pid and comm
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
