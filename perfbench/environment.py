"""The environment stamp and the package's static size counts.

Runs that differ in any stamped setting are not comparable; the stamp
records the settings and pins none of them.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.metadata
import os
import platform
import tomllib
from pathlib import Path


def _blas() -> dict:
    import numpy as np

    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": _openblas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _openblas_threads(np) -> int | None:
    """Thread count of the OpenBLAS numpy bundles, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def stamp() -> dict:
    import numpy as np

    from feedback_centrality import _kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def package_counts(root: Path) -> dict[str, int]:
    """Non-blank source lines, names in ``__all__``, declared runtime deps."""
    import feedback_centrality

    lines = sum(
        1
        for path in sorted((root / "src" / "feedback_centrality").glob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )
    with open(root / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"].get("dependencies", [])
    return {
        "package.src_lines": lines,
        "package.public_names": len(feedback_centrality.__all__),
        "package.runtime_deps": len(deps),
    }
