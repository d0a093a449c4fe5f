"""The machine a number was measured on: cores, CPU, Python, numpy and BLAS.

``pin_blas_threads`` must run before numpy is imported, because the BLAS
library sizes its thread pool when it loads.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def nproc() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def pin_blas_threads(threads: int) -> None:
    """Run BLAS with ``threads`` threads unless the caller chose a count."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, str(threads))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads(numpy_dir: str):
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    for path in glob.glob(os.path.join(numpy_dir, os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe() -> dict:
    """Environment record attached to every benchmark output."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _openblas_threads(os.path.dirname(np.__file__))
    if threads is None:
        env = os.environ.get("OPENBLAS_NUM_THREADS")
        threads = int(env) if env and env.isdigit() else None
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


def check(env: dict) -> None:
    """Refuse to measure with more BLAS threads than usable cores."""
    threads = env["blas_threads"]
    if threads is not None and threads > env["nproc"]:
        raise RuntimeError(
            f"BLAS uses {threads} threads on {env['nproc']} cores; "
            "set OPENBLAS_NUM_THREADS to at most the core count"
        )
