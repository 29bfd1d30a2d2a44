"""Facts about the host a run was measured on, and a fixed-work speed probe."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
import sys
from time import perf_counter

import numpy as np


def _blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def blas_threads():
    """Thread count the bundled OpenBLAS is using, or None if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_sha(root) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def facts(root) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_info(),
        "blas_threads": blas_threads(),
        "git_sha": git_sha(root),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def calibration_probe(reps: int = 9) -> float:
    """Median seconds of a fixed mix of BLAS and interpreter work.

    The work never changes with the program under test, so a shift in
    this number between runs is host speed, not a code change.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 128))
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        m = a
        for _ in range(40):
            m = np.tanh(m @ a * 0.01)
        acc = 0
        for i in range(200_000):
            acc += i & 7
        times.append(perf_counter() - t0)
    return statistics.median(times)
