"""Machine and library record, including proof that the BLAS pin took effect."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

from setup_probe import BLAS_THREAD_VARS

# Symbol names of openblas_get_num_threads / openblas_get_config in the
# OpenBLAS builds bundled with numpy (64-bit ints) and scipy.
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")


def _first_symbol(lib, names):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def blas_libraries() -> list:
    """[{package, library, threads, config}] for each bundled OpenBLAS."""
    import numpy
    import scipy

    out = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            threads = _first_symbol(lib, _THREAD_SYMBOLS)
            config = _first_symbol(lib, _CONFIG_SYMBOLS)
            if config is not None:
                config.restype = ctypes.c_char_p
            out.append({
                "package": pkg.__name__,
                "library": os.path.basename(path),
                "threads": int(threads()) if threads is not None else None,
                "config": config().decode() if config is not None else None,
            })
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def record(root: str) -> dict:
    import numpy
    import scipy

    libs = blas_libraries()
    threads = [lib["threads"] for lib in libs if lib["threads"] is not None]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas": libs,
        # None: no OpenBLAS thread count could be read to confirm the pin.
        "blas_pinned": (all(t == 1 for t in threads) if threads else None),
        "git_commit": _git_commit(root),
        "phys_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
    }
