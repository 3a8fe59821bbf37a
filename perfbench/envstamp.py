"""Environment stamp printed with every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from typing import Dict, Optional


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit(root: str) -> Optional[str]:
    """HEAD of the checkout, or None unless ``root`` is a git work tree's
    top level."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def _source_digest(root: str) -> str:
    """SHA-256 over ``src/repro``'s Python sources (identifies the code
    measured when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for path in sorted(glob.glob(os.path.join(src, "repro", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def _blas_threads() -> Optional[int]:
    """Threads the BLAS numpy loaded will use (OpenBLAS builds only)."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(root: str) -> Dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(root),
        "source": _source_digest(root),
        "blas_threads": _blas_threads(),
    }
