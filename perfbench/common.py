"""Shared helpers: run isolation, statistics, memory, host fingerprint,
validity checks and the result record every workload returns."""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .spec import ROOT

SRC = os.path.join(ROOT, "src")
#: Scratch space of the benchmark inside the checkout (git-ignored).
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: Environment variables that would change what a run measures: fault
#: injection, a forced start method, a log level that floods stderr.
_ISOLATED_VARS = ("REPRO_CHAOS", "REPRO_CHAOS_DIR", "REPRO_MP_CONTEXT",
                  "REPRO_LOG_LEVEL")


def src_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def isolate(run_dir: str) -> None:
    """Point the program at a fresh cache and strip fault injection.

    Must run before ``repro`` is imported: the cache root and the chaos
    switch are read from the environment.  Pool workers inherit it.
    """
    for name in _ISOLATED_VARS:
        os.environ.pop(name, None)
    cache_dir = os.path.join(run_dir, "cache")
    os.makedirs(cache_dir, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    # Worker processes started with "spawn" import repro afresh.
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC if not path else f"{SRC}{os.pathsep}{path}"


def make_run_dir(label: str) -> str:
    path = os.path.join(WORK_DIR, f"{label}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(np.percentile(values, q))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with at least 10
    samples beyond it; the maximum (percentile 100) for 10 samples or
    fewer."""
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= 10:
        return max(values), 100.0, n
    q = math.floor(100.0 * (n - 10) / n)
    return percentile(values, q), float(q), n


def p50(values: Sequence[float]) -> float:
    """Median, smoothed: the mean of the samples between the 40th and 60th
    percentiles (the plain median when none lie strictly inside).

    Cold-solve latencies cluster by circuit size, and a plain median sits
    in the gap between two clusters and jumps across it from run to run;
    averaging the middle fifth of the samples does not.
    """
    if not values:
        return 0.0
    lo, hi = percentile(values, 40), percentile(values, 60)
    middle = [v for v in values if lo <= v <= hi]
    return statistics.fmean(middle) if middle else median(values)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Max RSS of this process and of its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


# ---------------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------------

def _openblas() -> Dict[str, Any]:
    """Version string and thread count of the OpenBLAS numpy loaded."""
    import ctypes

    info: Dict[str, Any] = {"config": None, "threads": None}
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return info
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                info["config"] = get_config().decode("utf-8", "replace").strip()
                info["threads"] = int(get_threads())
                return info
    return info


def host_fingerprint() -> Dict[str, Any]:
    """Numbers only compare within one host class: say which this is."""
    from repro.obs.bench import git_sha

    blas = _openblas()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas["config"],
        "blas_threads": blas["threads"],
        "REPRO_NN_DTYPE": os.environ.get("REPRO_NN_DTYPE", "float32"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        # A checkout without .git must not report an enclosing repository.
        "git_sha": (git_sha(cwd=ROOT) if os.path.exists(os.path.join(ROOT, ".git"))
                    else None) or "unknown",
    }


# ---------------------------------------------------------------------------
# Validity
# ---------------------------------------------------------------------------

def placement_errors(rects: Sequence[Any], num_blocks: int) -> List[str]:
    """Every block placed exactly once, and no two placed blocks overlap.

    ``rects`` are :class:`PlacedRect` objects or their dict encoding.
    Touching edges are allowed; overlap is a positive-area intersection.
    """
    def get(rect, name):
        return rect[name] if isinstance(rect, dict) else getattr(rect, name)

    errors: List[str] = []
    indices = sorted(int(get(r, "index")) for r in rects)
    if indices != list(range(num_blocks)):
        errors.append(f"placed blocks {indices}, expected 0..{num_blocks - 1} once each")
    boxes = [(get(r, "x"), get(r, "y"), get(r, "x") + get(r, "width"),
              get(r, "y") + get(r, "height"), int(get(r, "index"))) for r in rects]
    eps = 1e-9
    for i in range(len(boxes)):
        ax0, ay0, ax1, ay1, a = boxes[i]
        for j in range(i + 1, len(boxes)):
            bx0, by0, bx1, by1, b = boxes[j]
            if min(ax1, bx1) - max(ax0, bx0) > eps and min(ay1, by1) - max(ay0, by0) > eps:
                errors.append(f"blocks {a} and {b} overlap")
    return errors


# ---------------------------------------------------------------------------
# Result record
# ---------------------------------------------------------------------------

@dataclass
class WorkloadResult:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    #: End-to-end metrics except ``setup_s``/``peak_rss_mb``/``ok_ratio``,
    #: which ``run.py`` adds.
    metrics: Dict[str, float]
    #: Per-layer metrics the workload measured directly (not from spans).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the result (quality read-outs,
    #: sample counts, failures).
    notes: List[str] = field(default_factory=list)
    #: ``(start, end)`` perf_counter bounds of the timed window.
    window: Tuple[float, float] = (0.0, 0.0)
    #: Program-reported timings of work done in pool processes, as
    #: workload-specific tuples that ``layers`` turns into spans.
    synthetic_spans: List[Tuple] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def fmt_tail(label: str, values: Sequence[float]) -> str:
    if not values:
        return f"{label}: no samples"
    value, q, n = tail(values)
    return (f"{label}: p50 {p50(values):.2f} ms, tail p{q:g} "
            f"{value:.2f} ms (n={n})")


def optional_float(value: Optional[float]) -> float:
    return 0.0 if value is None or (isinstance(value, float) and math.isnan(value)) else float(value)
