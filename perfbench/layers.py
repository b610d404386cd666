"""Per-layer metrics of a traced run, from its spans and the workload's
own read-outs.  A layer idle on the workload reads 0."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from . import spec
from .common import mean, median
from .pipeline import STAGE_SPANS
from .tracing import Recorder, Span, in_window, layer_times, self_time_table, span_cost_s

#: Policy batch sizes the workloads use: serve coalesces at most two
#: sessions, train collects over 4 envs and updates in minibatches of 64.
FORWARD_BATCHES = (1, 2, 4, 64)


def _synthetic_pipeline(recorder: Recorder, result) -> None:
    """Rebuild worker-side task and stage spans from reported timings."""
    maps = [s for s in recorder.spans if s.name == "engine.map_tasks"]
    lanes: List[float] = []
    for circuit, seed, began, ran, timings in sorted(result.synthetic_spans,
                                                     key=lambda t: t[2]):
        lane = next((i for i, free in enumerate(lanes) if free <= began + 1e-6),
                    len(lanes))
        if lane == len(lanes):
            lanes.append(0.0)
        lanes[lane] = began + ran
        parent = next((m.sid for m in maps if m.start <= began <= m.end), None)
        tid = -1 - lane
        task = recorder.add("engine.task", "engine", began, began + ran,
                            parent=parent, tid=tid,
                            args={"circuit": circuit, "seed": seed, "synthetic": True})
        cursor = began
        for stage, (name, layer) in STAGE_SPANS.items():
            seconds = timings.get(stage, 0.0)
            recorder.add(name, layer, cursor, cursor + seconds, parent=task,
                         tid=tid, args={"synthetic": True})
            cursor += seconds


def _synthetic_serve(recorder: Recorder, result) -> None:
    """Baseline solves ran in the server's pool: place each inside its
    server-side request span, ending with it."""
    solves = {s.request: s for s in recorder.spans if s.name == "serve.solve"}
    for request_id, method, seconds in result.synthetic_spans:
        solve = solves.get(request_id)
        if solve is None:
            continue
        recorder.add(f"baselines.{method}", "baselines",
                     max(solve.start, solve.end - seconds), solve.end,
                     parent=solve.sid, request=request_id, tid=solve.tid,
                     args={"synthetic": True})


def _forward_gflop(spans: List[Span]) -> float:
    """FLOPs of one policy forward per sample, summed over the conv,
    deconv and linear layers it called (computed from their shapes)."""
    flops: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.args and "flops" in s.args and s.parent is not None:
            flops[s.parent] += s.args["flops"]
    per_sample = [flops[s.sid] / s.args["batch"] for s in spans
                  if s.name == "nn.ActorCritic" and flops.get(s.sid)]
    return median(per_sample) / 1e9


def per_layer_metrics(workload: str, result, recorder: Recorder,
                      trace_path: str) -> Tuple[Dict[str, float], List[str]]:
    recorded = len(in_window(recorder.spans, result.window))
    if workload == "pipeline":
        _synthetic_pipeline(recorder, result)
    elif workload == "serve":
        _synthetic_serve(recorder, result)
    spans = in_window(recorder.spans, result.window)
    named: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def durations(name: str, scale: float) -> List[float]:
        return [s.dur * scale for s in named[name]]

    metrics: Dict[str, float] = {name: 0.0 for name in spec.per_layer_names()}
    forwards = named["nn.ActorCritic"]
    metrics["nn.forward_ms"] = median(durations("nn.ActorCritic", 1e3))
    for batch in FORWARD_BATCHES:
        metrics[f"nn.forward_ms_b{batch}"] = median(
            [s.dur * 1e3 for s in forwards if s.args["batch"] == batch])
    metrics["nn.conv_fwd_ms"] = mean(durations("nn.Conv2d", 1e3))
    metrics["nn.deconv_fwd_ms"] = mean(durations("nn.ConvTranspose2d", 1e3))
    metrics["nn.backward_ms"] = mean(durations("nn.backward", 1e3))
    steps = len(named["nn.adam_step"])
    if steps:
        metrics["nn.adam_step_ms"] = 1e3 * (
            sum(durations("nn.adam_step", 1.0))
            + sum(durations("nn.clip_grad_norm", 1.0))) / steps
    metrics["nn.forward_gflop"] = _forward_gflop(spans)

    collects, updates = named["rl.collect"], named["rl.update"]
    metrics["rl.collect_s"] = mean(durations("rl.collect", 1.0))
    if collects:
        metrics["rl.collect_steps_per_s"] = (
            sum(s.args["env_steps"] for s in collects) / sum(s.dur for s in collects))
    metrics["rl.update_s"] = mean(durations("rl.update", 1.0))
    if updates:
        metrics["rl.minibatches"] = steps / len(updates)
        metrics["rl.update_rss_growth_mb"] = mean(
            [s.args["rss_after_mb"] - s.args["rss_before_mb"] for s in updates])
    metrics["rl.act_ms"] = mean(durations("rl.act", 1e3))

    encodes = named["gnn.encode_batch"]
    metrics["gnn.encode_ms"] = mean(durations("gnn.encode_batch", 1e3))
    metrics["gnn.encode_calls"] = float(len(encodes))
    rows = (sum(s.args["rows"] for s in collects)
            + sum(s.args["rows"] for s in named["rl.act"]))
    if rows:
        metrics["gnn.embedding_hit_ratio"] = 1.0 - sum(
            s.args["graphs"] for s in encodes) / rows

    metrics["floorplan.env_step_us"] = mean(durations("floorplan.env_step", 1e6))
    metrics["floorplan.env_steps"] = float(len(named["floorplan.env_step"]))
    metrics["floorplan.masks_us"] = mean(durations("floorplan.observation_masks", 1e6))
    metrics["floorplan.vecenv_step_ms"] = mean(durations("floorplan.vecenv_step", 1e3))

    metrics["engine.cache_get_ms"] = mean(durations("engine.cache_get", 1e3))
    metrics["engine.cache_put_ms"] = mean(durations("engine.cache_put", 1e3))

    # Read-outs the workload measured from program results and stats.
    metrics.update(result.layer)

    times = layer_times(spans, spec.LAYERS)
    metrics.update(times)
    cost = span_cost_s()
    window = max(1e-9, result.window[1] - result.window[0])
    metrics["trace.spans"] = float(recorded)
    metrics["trace.overhead_pct"] = 100.0 * recorded * cost / window
    metrics["trace.throughput_per_s"] = result.metrics["throughput_per_s"]

    events = recorder.write_jsonl(trace_path)
    lines = self_time_table(times, spec.LAYERS) + [
        f"tracing: {recorded} spans recorded in the window, {cost * 1e6:.2f} us "
        f"per span measured -> ~{metrics['trace.overhead_pct']:.2f}% of "
        f"{window:.2f} s; compare trace.throughput_per_s with the untraced "
        "run's throughput_per_s",
        f"trace: {events} events -> {trace_path} "
        "(render: repro report --trace FILE [--trace-out perfetto.json])",
    ]
    return metrics, lines
