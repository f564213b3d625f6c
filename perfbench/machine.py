"""Machine and build record printed with every result.

``host`` needs only the standard library and runs in the parent;
``libraries`` runs in a worker after numpy and scipy are loaded, and
reads the BLAS thread count in effect without changing it.
"""

import ctypes
import os
import platform
import subprocess


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """HEAD of the repository at ``root``, or None when root is not a git checkout."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_lines(root):
    total = 0
    for base, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def host(root):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
        "src_lines": src_lines(root),
    }


def _openblas_libraries():
    """Paths of the OpenBLAS builds mapped into this process."""
    paths = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        pass
    return sorted(paths)


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def libraries():
    import numpy
    import scipy

    blas = []
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        stem = "scipy_openblas" if "scipy_openblas" in path else "openblas"
        suffixes = ("64_", "") if "64" in os.path.basename(path) else ("",)
        config = _call(lib, [f"{stem}_get_config{s}" for s in suffixes], ctypes.c_char_p)
        threads = _call(lib, [f"{stem}_get_num_threads{s}" for s in suffixes], ctypes.c_int)
        blas.append({
            "library": os.path.basename(path),
            "config": config.decode() if config else None,
            "threads": threads,
        })
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                if k in os.environ},
    }
