"""The repository benchmark.

    python3 perfbench/run.py --workload {train,serve,pipeline} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The workload's inputs come from ``--seed``
only.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the
layer entry points are wrapped (see ``perfbench/tracing.py``), spans are
written to ``.perfbench/trace-<workload>-<seed>.jsonl`` and the last line
carries the per-layer metrics instead.  Lines before it are for people:
host fingerprint, sample counts, quality read-outs and failures.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
import traceback
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import spec  # noqa: E402
from perfbench.common import (WORK_DIR, isolate, make_run_dir, median,  # noqa: E402
                              peak_rss_mb, src_present)

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120


def measure_setup(workload: str, seed: int, run_dir: str) -> List[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh interpreters."""
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(run_dir, f"probe{i}")
        os.makedirs(probe_dir)
        out = subprocess.run(
            [sys.executable, "-m", "perfbench.probe", workload, str(seed), probe_dir],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def reap_children(timeout: float = 60.0) -> None:
    """Wait for every pool worker this process started to exit."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.1, deadline - time.monotonic()))
        if child.is_alive():
            child.terminate()
            child.join(5.0)


def _run_workload(name: str, seed: int, seconds: float, run_dir: str, recorder):
    if name == "train":
        from perfbench import train

        return train.run(seed, seconds, recorder)
    if name == "serve":
        from perfbench import serve

        return serve.run(seed, seconds, run_dir, recorder)
    from perfbench import pipeline

    return pipeline.run(seed, seconds, recorder)


def _finite(metrics: Dict[str, float], errors: List[str]) -> Dict[str, float]:
    clean = {}
    for name, value in metrics.items():
        value = float(value)
        if not math.isfinite(value):
            errors.append(f"metric {name} is {value}")
            value = 0.0
        clean[name] = value
    return clean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not src_present():
        print("perfbench: src/repro not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    bench = spec.load_benchmark_json()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    run_dir = make_run_dir(f"{args.workload}-{args.seed}")
    try:
        isolate(run_dir)
        from perfbench.common import host_fingerprint

        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("host " + json.dumps(host_fingerprint(), sort_keys=True))
        recorder = None
        if args.trace:
            from perfbench import tracing

            recorder = tracing.Recorder()
            tracing.install(recorder)
        try:
            result = _run_workload(args.workload, args.seed, args.seconds,
                                   os.path.join(run_dir, "main"), recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
        reap_children()
        # Read before the set-up probes run: they are reaped children too.
        rss_mb = peak_rss_mb()
        setup_samples = ([] if args.trace
                         else measure_setup(args.workload, args.seed, run_dir))

        errors = list(result.errors)
        if args.trace:
            from perfbench.layers import per_layer_metrics

            trace_path = os.path.join(WORK_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
            metrics, lines = per_layer_metrics(args.workload, result, recorder, trace_path)
            names = spec.per_layer_names()
        else:
            metrics = dict(result.metrics)
            metrics["setup_s"] = median(setup_samples)
            metrics["peak_rss_mb"] = rss_mb
            metrics["ok_ratio"] = 1.0 - result.failed / result.attempted
            names = list(spec.END_TO_END)
            lines = [f"setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup_samples)]
        metrics = _finite(metrics, errors)
        if sorted(metrics) != sorted(names):
            errors.append(f"printed metrics {sorted(set(metrics) ^ set(names))} "
                          "do not match BENCHMARK.json")

        for line in result.notes + lines:
            print(line)
        for error in errors[:20]:
            print(f"FAILED: {error}")
        if len(errors) > 20:
            print(f"... and {len(errors) - 20} more failures")
        for name in names:
            if name in metrics:
                print(f"  {name:<36} {metrics[name]:>14.6g} {units.get(name, '')}")
        print(json.dumps({
            "correct": not errors and result.failed == 0,
            "attempted": int(result.attempted),
            "failed": int(result.failed),
            "metrics": {name: {"value": metrics[name], "unit": units.get(name, "")}
                        for name in names if name in metrics},
        }))
        return 0
    except Exception:  # noqa: BLE001 — a crashed run prints no result
        traceback.print_exc()
        return 1
    finally:
        reap_children(10.0)
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
