"""What the benchmark measures: workloads, metric names, and how they relate.

``BENCHMARK.json`` at the repository root is the machine-readable summary
(workloads, end-to-end metrics with bounds, per-layer metrics).  This module
holds what that file has no room for:

* the meaning of each end-to-end metric on each workload.  Every workload
  prints every end-to-end metric, so the metric names are generic and
  their operation is defined per workload below;
* the per-layer -> end-to-end map: which end-to-end metric a layer metric
  should move, on which workload, and where that layer is idle;
* the metric names of the originating design that are printed under
  another name or in the other tier, or dropped, with the reason.

The tests in ``perfbench/tests`` check this module against
``BENCHMARK.json`` and against what the workloads print.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS: Tuple[str, ...] = ("train", "serve", "pipeline")

#: Layers, named after the ``repro`` subpackages they time.
LAYERS: Tuple[str, ...] = (
    "nn", "rl", "gnn", "floorplan", "baselines", "routing", "layout",
    "engine", "serve",
)

#: End-to-end metric -> per-workload definition.  ``attempted`` counts PPO
#: iterations (train), requests (serve) and pipeline tasks (pipeline).
END_TO_END: Dict[str, Dict[str, str]] = {
    "setup_s": {
        "all": "median of 3 fresh interpreters importing repro and bringing "
               "the workload up: agent + vec-env (train); agent, server, "
               "baseline pool and one warm solve per path (serve); "
               "executor (pipeline)",
    },
    "peak_rss_mb": {
        "all": "max RSS of the benchmark process and of its largest "
               "reaped child (ru_maxrss of SELF and CHILDREN)",
    },
    "ok_ratio": {
        "all": "1 - failed / attempted; an output failing a validity check "
               "counts as failed",
    },
    "throughput_per_s": {
        "train": "env steps collected and trained on per second",
        "serve": "completed requests per second (2 closed-loop connections)",
        "pipeline": "pipeline tasks completed per second",
    },
    "p50_ms": {
        "all": "median, smoothed: mean of the samples between the 40th and "
               "60th percentiles (common.p50)",
        "train": "PPO iteration time",
        "serve": "median client latency of cold solves, RL and baseline "
                 "(not cache hits)",
        "pipeline": "median wall time of one 10-task batch",
    },
    "tail_ms": {
        "all": "highest percentile with at least 10 samples beyond it; the "
               "maximum when a run has 10 samples or fewer (train: the one "
               "iteration; pipeline: its batches). Printed with its "
               "percentile and sample count",
    },
}

#: Per-layer metric -> (end-to-end metric it should move, on which
#: workload; workloads where the layer is idle, so the prediction there
#: is no change).  Layer metrics whose workload is idle read 0.
LAYER_MAP: Dict[str, Tuple[str, str]] = {
    "nn.forward_ms": ("throughput_per_s on train; p50_ms on serve", "pipeline"),
    "nn.forward_ms_b1": ("p50_ms on serve", "train, pipeline"),
    "nn.forward_ms_b2": ("p50_ms on serve", "train, pipeline"),
    "nn.forward_ms_b4": ("throughput_per_s on train (collect)", "serve, pipeline"),
    "nn.forward_ms_b64": ("throughput_per_s on train (update)", "serve, pipeline"),
    "nn.conv_fwd_ms": ("throughput_per_s on train; p50_ms on serve", "pipeline"),
    "nn.deconv_fwd_ms": ("throughput_per_s on train; p50_ms on serve", "pipeline"),
    "nn.backward_ms": ("throughput_per_s on train", "serve, pipeline"),
    "nn.adam_step_ms": ("throughput_per_s on train", "serve, pipeline"),
    "nn.forward_gflop": ("reference: computed from layer shapes, per sample", "pipeline"),
    "rl.collect_s": ("throughput_per_s on train", "serve, pipeline"),
    "rl.collect_steps_per_s": ("throughput_per_s on train", "serve, pipeline"),
    "rl.update_s": ("throughput_per_s on train", "serve, pipeline"),
    "rl.minibatches": ("throughput_per_s on train", "serve, pipeline"),
    "rl.update_rss_growth_mb": ("peak_rss_mb on train", "serve, pipeline"),
    "rl.act_ms": ("p50_ms on serve", "train, pipeline"),
    "rl.solve_attempts_mean": ("tail_ms on serve", "train, pipeline"),
    "rl.dead_end_ratio": ("tail_ms on serve", "train, pipeline"),
    "rl.episode_reward_mean": ("quality read-out on train, no bound", "serve, pipeline"),
    "rl.dead_space_mean": ("quality read-out on serve, no bound", "train, pipeline"),
    "rl.hpwl_mean": ("quality read-out on serve, no bound", "train, pipeline"),
    "gnn.encode_ms": ("setup_s and tail_ms on serve", "pipeline"),
    "gnn.encode_calls": ("setup_s and tail_ms on serve", "pipeline"),
    "gnn.embedding_hit_ratio": ("p50_ms on serve", "pipeline"),
    "floorplan.env_step_us": ("p50_ms on serve (large share); throughput_per_s on train (small share)", "pipeline"),
    "floorplan.env_steps": ("p50_ms on serve; throughput_per_s on train", "pipeline"),
    "floorplan.masks_us": ("p50_ms on serve; throughput_per_s on train", "pipeline"),
    "floorplan.vecenv_step_ms": ("throughput_per_s on train", "serve, pipeline"),
    "baselines.sa_s": ("throughput_per_s on serve; p50_ms on pipeline (small share)", "train"),
    "baselines.ga_s": ("throughput_per_s on serve", "train, pipeline"),
    "baselines.pso_s": ("throughput_per_s on serve", "train, pipeline"),
    "baselines.rl_sa_s": ("throughput_per_s on serve", "train, pipeline"),
    "baselines.rl_sp_s": ("throughput_per_s on serve", "train, pipeline"),
    "baselines.dead_space_mean": ("quality read-out on serve, no bound", "train, pipeline"),
    "baselines.hpwl_mean": ("quality read-out on serve, no bound", "train, pipeline"),
    "routing.global_route_s": ("p50_ms and throughput_per_s on pipeline", "train, serve"),
    "routing.global_route_s.ota1": ("p50_ms on pipeline", "train, serve"),
    "routing.global_route_s.ota2": ("p50_ms on pipeline", "train, serve"),
    "routing.global_route_s.bias1": ("p50_ms on pipeline", "train, serve"),
    "routing.global_route_s.rs_latch": ("p50_ms on pipeline", "train, serve"),
    "routing.global_route_s.driver": ("p50_ms on pipeline", "train, serve"),
    "routing.channels_s": ("p50_ms on pipeline", "train, serve"),
    "routing.detailed_route_s": ("p50_ms on pipeline", "train, serve"),
    "routing.wirelength_um": ("quality read-out on pipeline, no bound", "train, serve"),
    "layout.generate_s": ("p50_ms on pipeline", "train, serve"),
    "layout.signoff_s": ("p50_ms on pipeline", "train, serve"),
    "layout.signoff_violations": ("quality read-out on pipeline, no bound", "train, serve"),
    "layout.signoff_clean_tasks": ("quality read-out on pipeline, no bound", "train, serve"),
    "engine.task_s": ("p50_ms on pipeline; throughput_per_s on serve", "train"),
    "engine.queue_wait_s": ("p50_ms on pipeline", "train, serve"),
    "engine.parallel_efficiency": ("p50_ms and throughput_per_s on pipeline", "train, serve"),
    "engine.pool_start_s": ("setup_s on serve; p50_ms on pipeline", "train"),
    "engine.retries": ("ok_ratio", "train"),
    "engine.pool_rebuilds": ("ok_ratio", "train"),
    "engine.cache_get_ms": ("serve.hit_p50_ms on serve", "train, pipeline"),
    "engine.cache_put_ms": ("p50_ms on serve", "train, pipeline"),
    "engine.cache_hit_ratio": ("throughput_per_s on serve", "train, pipeline"),
    "serve.rl_p50_ms": ("p50_ms on serve", "train, pipeline"),
    "serve.rl_tail_ms": ("tail_ms on serve", "train, pipeline"),
    "serve.baseline_p50_ms": ("p50_ms and throughput_per_s on serve", "train, pipeline"),
    "serve.baseline_tail_ms": ("throughput_per_s on serve", "train, pipeline"),
    "serve.hit_p50_ms": ("throughput_per_s on serve", "train, pipeline"),
    "serve.batch_size_mean": ("throughput_per_s on serve", "train, pipeline"),
    "serve.coalesced_ratio": ("throughput_per_s on serve", "train, pipeline"),
    "serve.overhead_ms": ("p50_ms and serve.hit_p50_ms on serve", "train, pipeline"),
    "serve.shed": ("ok_ratio on serve", "train, pipeline"),
    "serve.deadline_exceeded": ("ok_ratio on serve", "train, pipeline"),
    "serve.errors": ("ok_ratio on serve", "train, pipeline"),
}

#: Trace bookkeeping printed by every traced run.
TRACE_METRICS: Tuple[str, ...] = (
    "trace.spans", "trace.overhead_pct", "trace.throughput_per_s",
)


def layer_time_metrics() -> List[str]:
    """``<layer>.calls``, ``<layer>.busy_s`` and ``<layer>.self_s``."""
    return [f"{layer}.{kind}" for layer in LAYERS
            for kind in ("calls", "busy_s", "self_s")]


def per_layer_names() -> List[str]:
    return list(LAYER_MAP) + layer_time_metrics() + list(TRACE_METRICS)


#: Metric names of the originating design that the benchmark does not
#: print under the same name, or prints in the other tier.  Every other
#: design name is printed as it is.  A value names what is printed (on the
#: given workload); a value starting with "dropped:" gives the reason.
DESIGN_NAMES: Dict[str, str] = {
    "failed_ratio": "ok_ratio (= 1 - failed_ratio; a metric that reads 0 "
                    "on every good run cannot carry a relative bound)",
    "train.samples_per_s": "throughput_per_s on train",
    "serve.rps": "throughput_per_s on serve",
    "serve.rl_p50_ms": "serve.rl_p50_ms (per-layer; every end-to-end metric "
                       "must exist on every workload, so p50_ms on serve "
                       "covers all cold solves)",
    "serve.rl_tail_ms": "serve.rl_tail_ms (per-layer, as above)",
    "serve.baseline_p50_ms": "serve.baseline_p50_ms (per-layer, as above)",
    "serve.baseline_tail_ms": "serve.baseline_tail_ms (per-layer, as above)",
    "serve.hit_p50_ms": "serve.hit_p50_ms (per-layer, as above)",
    "pipeline.wall_s": "p50_ms on pipeline (batch wall time) and "
                       "throughput_per_s on pipeline",
    "pipeline.signoff_violations": "layout.signoff_violations (per-layer: "
                                   "it varies with the seeded inputs by more "
                                   "than any allowed bound)",
    "pipeline.wirelength_um": "routing.wirelength_um (per-layer, as above)",
}


def load_benchmark_json(path: str = BENCHMARK_JSON) -> dict:
    with open(path) as handle:
        return json.load(handle)
