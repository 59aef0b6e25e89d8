"""What a result needs beside its numbers to be compared with another:
CPU, load, BLAS library and threads, library versions and commit."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

_OPENBLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                            "scipy_openblas_get_num_threads",
                            "openblas_get_num_threads64_",
                            "openblas_get_num_threads")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                return int(query())
    return None


def blas_library() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def git_commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git without running git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path) -> dict:
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {**blas_library(), "threads": blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                 "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
    }
