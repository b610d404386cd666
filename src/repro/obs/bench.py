"""``repro.obs.bench`` — the perf-regression ledger.

Four PRs produce ``BENCH_*.json`` result files, but each run overwrites
the last in place: the repo measures speedups yet cannot *see*
regressions.  This module turns those one-shot files into an append-only
trajectory:

* :func:`record_bench` (``repro bench record``) appends one JSONL entry
  per ``BENCH_*.json`` to ``results/bench_history.jsonl``, stamped with
  the git sha, the NN compute dtype, a host fingerprint, and the
  wall-clock time — plus the extracted headline metrics and the full
  payload.
* :func:`render_bench` (``repro report --bench``) renders the per-metric
  trajectory (first / previous / last, delta vs previous) and flags any
  metric that dropped below ``threshold`` x its previous value.  All
  tracked metrics are higher-is-better by construction (speedups,
  throughputs, hit rates), so a drop is a regression.

CI appends to and uploads the ledger and *fails soft* — regressions
become ``::warning`` annotations (``--annotate``), never errors, so the
absolute floors (``$REPRO_*_FLOOR``) stay the hard gate and the ledger
stays the trend monitor.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import subprocess
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Default ledger location, relative to the working directory.
DEFAULT_HISTORY = os.path.join("results", "bench_history.jsonl")

#: Default BENCH-file glob for ``repro bench record`` with no paths.
DEFAULT_GLOB = "BENCH_*.json"

#: A numeric leaf is a tracked metric when its dotted path contains one
#: of these tokens (and none of the excluded ones): all higher-is-better.
METRIC_TOKENS = ("speedup", "per_sec", "per_second", "hit_rate",
                 "steps_per_sec", "requests_per_second")
#: ...except configuration values that merely *look* like metrics.
EXCLUDE_TOKENS = ("floor",)

#: Regression threshold: flag when ``last < threshold * previous``.
DEFAULT_THRESHOLD = 0.9


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Current commit sha (short), or ``$GITHUB_SHA``, or ``None``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    env = os.environ.get("GITHUB_SHA")
    return env[:12] if env else None


def host_fingerprint() -> Dict[str, Any]:
    """Coarse host identity: perf numbers only compare within one class.

    The BLAS library and this process's BLAS thread count are part of it,
    so rows recorded under different thread policies are told apart.
    """
    # Imported here: repro.engine imports repro.obs at module load.
    from ..engine.blas import blas_library, blas_threads

    library = blas_library()
    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "blas": None if library is None else os.path.basename(library),
        "blas_threads": blas_threads(),
    }


def _numeric_leaves(payload: Any, prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts/lists into dotted-path -> float leaves."""
    leaves: Dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            leaves.update(_numeric_leaves(value, path))
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            # Prefer a human label for list elements that carry one
            # (e.g. serving phases, batched-collect sizes).
            tag = None
            if isinstance(value, dict):
                tag = value.get("label") or value.get("num_envs")
            path = f"{prefix}[{tag if tag is not None else i}]"
            leaves.update(_numeric_leaves(value, path))
    elif isinstance(payload, bool):
        pass
    elif isinstance(payload, (int, float)):
        leaves[prefix] = float(payload)
    return leaves


def extract_metrics(payload: Any) -> Dict[str, float]:
    """Headline (higher-is-better) metrics of one BENCH payload."""
    metrics: Dict[str, float] = {}
    for path, value in _numeric_leaves(payload).items():
        lowered = path.lower()
        if any(tok in lowered for tok in EXCLUDE_TOKENS):
            continue
        if any(tok in lowered for tok in METRIC_TOKENS):
            metrics[path] = value
    return metrics


def bench_name(path: str) -> str:
    """``BENCH_policy.json`` -> ``policy``."""
    base = os.path.splitext(os.path.basename(path))[0]
    return base[len("BENCH_"):] if base.startswith("BENCH_") else base


def record_bench(
    paths: Optional[Sequence[str]] = None,
    history_path: str = DEFAULT_HISTORY,
    note: Optional[str] = None,
    now: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Append one ledger entry per BENCH file; returns the new entries."""
    if not paths:
        paths = sorted(glob.glob(DEFAULT_GLOB))
    entries: List[Dict[str, Any]] = []
    sha = git_sha()
    host = host_fingerprint()
    stamp = time.time() if now is None else float(now)
    for path in paths:
        with open(path) as handle:
            payload = json.load(handle)
        entry: Dict[str, Any] = {
            "bench": bench_name(path),
            "recorded": stamp,
            "sha": sha,
            "dtype": os.environ.get("REPRO_NN_DTYPE", "float32"),
            "host": host,
            "metrics": extract_metrics(payload),
            "payload": payload,
        }
        if note:
            entry["note"] = note
        entries.append(entry)
    if entries:
        directory = os.path.dirname(os.path.abspath(history_path))
        os.makedirs(directory, exist_ok=True)
        with open(history_path, "a") as handle:
            for entry in entries:
                handle.write(json.dumps(entry) + "\n")
    return entries


def load_history(path: str) -> List[Dict[str, Any]]:
    """Parse the ledger; malformed lines are skipped, not fatal."""
    entries: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "bench" in entry:
                entries.append(entry)
    return entries


def regressions(
    entries: Iterable[Dict[str, Any]], threshold: float = DEFAULT_THRESHOLD
) -> List[Dict[str, Any]]:
    """Metrics whose latest value dropped below ``threshold`` x previous."""
    series = _series(entries)
    flagged: List[Dict[str, Any]] = []
    for (bench, metric), values in sorted(series.items()):
        if len(values) < 2:
            continue
        prev, last = values[-2][1], values[-1][1]
        if prev > 0 and last < threshold * prev:
            flagged.append({
                "bench": bench,
                "metric": metric,
                "previous": prev,
                "last": last,
                "ratio": last / prev,
                "sha": values[-1][0],
            })
    return flagged


def _series(
    entries: Iterable[Dict[str, Any]]
) -> Dict[Tuple[str, str], List[Tuple[Optional[str], float]]]:
    """(bench, metric) -> [(sha, value), ...] in record order."""
    series: Dict[Tuple[str, str], List[Tuple[Optional[str], float]]] = {}
    for entry in entries:
        bench = entry.get("bench", "?")
        for metric, value in (entry.get("metrics") or {}).items():
            series.setdefault((bench, metric), []).append(
                (entry.get("sha"), float(value))
            )
    return series


def render_bench(
    entries: List[Dict[str, Any]], threshold: float = DEFAULT_THRESHOLD
) -> str:
    """Human-readable trajectory table plus the regression verdicts."""
    from .report import _rows  # shared fixed-width table helper

    if not entries:
        return "(empty bench ledger)"
    series = _series(entries)
    rows: List[List[str]] = []
    for (bench, metric), values in sorted(series.items()):
        first = values[0][1]
        last = values[-1][1]
        prev = values[-2][1] if len(values) > 1 else None
        if prev is not None and prev > 0:
            delta = f"{100.0 * (last - prev) / prev:+.1f}%"
            flag = "REGRESSION" if last < threshold * prev else ""
        else:
            delta, flag = "-", ""
        rows.append([
            bench, metric, f"{len(values)}", f"{first:g}",
            f"{prev:g}" if prev is not None else "-", f"{last:g}", delta, flag,
        ])
    header = ["bench", "metric", "n", "first", "prev", "last",
              "d(prev)", ""]
    lines = [f"== bench trajectory ({len(entries)} entries, "
             f"threshold {threshold:g}x) =="]
    lines.extend(_rows(header, rows))
    flagged = regressions(entries, threshold)
    if flagged:
        lines.append("")
        for item in flagged:
            lines.append(
                f"REGRESSION {item['bench']}:{item['metric']} "
                f"{item['previous']:g} -> {item['last']:g} "
                f"({100.0 * item['ratio']:.1f}% of previous)"
            )
    else:
        lines.append("")
        lines.append("no regressions beyond threshold")
    return "\n".join(lines)


def annotation_lines(
    flagged: Iterable[Dict[str, Any]]
) -> List[str]:
    """GitHub Actions ``::warning`` annotations for flagged regressions."""
    return [
        f"::warning title=bench regression::{item['bench']}:{item['metric']} "
        f"dropped to {100.0 * item['ratio']:.1f}% of previous "
        f"({item['previous']:g} -> {item['last']:g})"
        for item in flagged
    ]
