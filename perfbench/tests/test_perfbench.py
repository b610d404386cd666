"""Tests of the benchmark itself: BENCHMARK.json, its metric names,
its generated inputs and its bookkeeping.  They run no workload."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import common, run, serve, spec, tracing

sys.path.insert(0, common.SRC)

from perfbench import pipeline as pipeline_workload
from perfbench.common import WorkloadResult, p50, percentile, placement_errors, tail
from perfbench.tracing import Span, layer_times

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

#: The end-to-end metrics the benchmark was designed around.
DESIGN_END_TO_END = (
    "setup_s", "peak_rss_mb", "failed_ratio", "train.samples_per_s",
    "serve.rps", "serve.rl_p50_ms", "serve.rl_tail_ms",
    "serve.baseline_p50_ms", "serve.baseline_tail_ms", "serve.hit_p50_ms",
    "pipeline.wall_s", "pipeline.signoff_violations", "pipeline.wirelength_um",
)

#: The per-layer metrics the benchmark was designed around.
DESIGN_PER_LAYER = (
    "nn.forward_ms", "nn.conv_fwd_ms", "nn.deconv_fwd_ms", "nn.backward_ms",
    "nn.adam_step_ms", "nn.forward_gflop",
    "rl.collect_s", "rl.collect_steps_per_s", "rl.update_s", "rl.minibatches",
    "rl.update_rss_growth_mb", "rl.act_ms", "rl.solve_attempts_mean",
    "rl.dead_end_ratio",
    "gnn.encode_ms", "gnn.encode_calls", "gnn.embedding_hit_ratio",
    "floorplan.env_step_us", "floorplan.env_steps", "floorplan.masks_us",
    "floorplan.vecenv_step_ms",
    "baselines.sa_s", "baselines.ga_s", "baselines.pso_s", "baselines.rl_sa_s",
    "baselines.rl_sp_s",
    "routing.global_route_s", "routing.channels_s", "routing.detailed_route_s",
    "layout.generate_s", "layout.signoff_s",
    "engine.task_s", "engine.queue_wait_s", "engine.parallel_efficiency",
    "engine.pool_start_s", "engine.retries", "engine.pool_rebuilds",
    "engine.cache_get_ms", "engine.cache_put_ms", "engine.cache_hit_ratio",
    "serve.batch_size_mean", "serve.coalesced_ratio", "serve.overhead_ms",
    "serve.shed", "serve.deadline_exceeded", "serve.errors",
) + tuple(f"{layer}.self_s" for layer in spec.LAYERS) + ("trace.overhead_pct",)


@pytest.fixture(scope="module")
def bench_json():
    return spec.load_benchmark_json()


def test_benchmark_json_shape(bench_json):
    assert set(bench_json) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert bench_json["command"] == ["python3", "perfbench/run.py"]
    assert bench_json["paths"] == ["perfbench"]
    assert isinstance(bench_json["run_seconds"], int) and 1 <= bench_json["run_seconds"] <= 60
    assert os.path.getsize(spec.BENCHMARK_JSON) <= 64 * 1024
    workloads = bench_json["workloads"]
    assert 2 <= len(workloads) <= 8
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [w["name"] for w in workloads]
    names += [m["name"] for m in bench_json["end_to_end"] + bench_json["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in bench_json["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench_json["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in bench_json["end_to_end"] + bench_json["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in bench_json["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench_json["end_to_end"])


def test_benchmark_json_matches_spec(bench_json):
    assert tuple(w["name"] for w in bench_json["workloads"]) == spec.WORKLOADS
    assert [m["name"] for m in bench_json["end_to_end"]] == list(spec.END_TO_END)
    assert [m["name"] for m in bench_json["per_layer"]] == spec.per_layer_names()


def test_every_design_metric_is_printed_or_dropped(bench_json):
    printed = {m["name"] for m in bench_json["end_to_end"] + bench_json["per_layer"]}
    design = DESIGN_END_TO_END + DESIGN_PER_LAYER
    assert set(spec.DESIGN_NAMES) <= set(design)
    for name in design:
        target = spec.DESIGN_NAMES.get(name, name)
        if target.startswith("dropped:"):
            assert len(target) > len("dropped: "), name
        else:
            assert re.split(r"[\s,]+", target)[0] in printed, f"{name} -> {target}"


def test_printed_metric_names_match_benchmark_json(monkeypatch, tmp_path, capsys, bench_json):
    """Drive run.main with a stub workload: the last line carries exactly
    the metrics BENCHMARK.json names, in both modes."""
    monkeypatch.setattr(common, "WORK_DIR", str(tmp_path))
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path))
    monkeypatch.setattr(run, "isolate", lambda run_dir: None)
    monkeypatch.setattr(run, "measure_setup", lambda *a: [0.5, 0.4, 0.6])
    monkeypatch.setattr(tracing, "install", lambda recorder: None)
    stub = WorkloadResult(attempted=3, failed=0,
                          metrics={"throughput_per_s": 2.0, "p50_ms": 5.0, "tail_ms": 9.0},
                          window=(0.0, 1.0))
    monkeypatch.setattr(run, "_run_workload", lambda *a: stub)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "serve", "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)]) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert list(last["metrics"]) == [m["name"] for m in bench_json[section]]
        assert last["correct"] is True and last["attempted"] == 3
        for metric in bench_json[section]:
            assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert last["metrics"]["trace.throughput_per_s"]["value"] == 2.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(spec.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.dirname(spec.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_serve_requests_are_a_function_of_the_seed():
    first = serve.requests(7, 400)
    assert first == serve.requests(7, 400)
    assert serve.requests(7, 100) == first[:100]
    assert first != serve.requests(8, 400)
    roles = [r["role"] for r in first]
    assert abs(roles.count("rl") / len(roles) - 0.5) < 0.05
    assert abs(roles.count("baseline") / len(roles) - 0.25) < 0.05
    assert abs(roles.count("repeat") / len(roles) - 0.25) < 0.05
    cold = [(r["circuit"], r["method"], r["seed"]) for r in first if r["role"] != "repeat"]
    assert len(cold) == len(set(cold))
    by_id = {r["id"]: r for r in first}
    for request in first:
        if request["role"] == "repeat":
            original = by_id[request["repeat_of"]]
            assert request["id"] - original["id"] >= serve.REPEAT_LAG
            assert serve.wire(request) == {**serve.wire(original), "id": request["id"]}
    # Every stretch of the list draws each circuit and method equally often.
    rl = [r["circuit"] for r in first if r["role"] == "rl"]
    methods = [r["method"] for r in first if r["role"] == "baseline"]
    for start in range(0, len(rl) - 8, 8):
        assert sorted(rl[start:start + 8]) == sorted(
            ["ota_small", "ota1", "ota2", "bias_small", "bias1", "bias2",
             "rs_latch", "driver"])
    for start in range(0, len(methods) - 5, 5):
        assert sorted(methods[start:start + 5]) == sorted(serve.BASELINE_METHODS)


def test_pipeline_batches_are_a_function_of_the_seed():
    first = pipeline_workload.batches(5, 3)
    assert first == pipeline_workload.batches(5, 3)
    assert first != pipeline_workload.batches(6, 3)
    for batch in first:
        assert len(batch) == len(pipeline_workload.CIRCUITS) * 2
        assert [i["seed"] for i in batch if i["circuit"] == "driver"] == [0, 1]
    assert first[0] != first[1]


def test_percentiles_and_tail():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    value, q, n = tail(values)
    assert (q, n) == (90.0, 100) and value == pytest.approx(90.1)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert p50([4.0]) == 4.0 and p50([1.0, 3.0]) == 2.0
    # Two clusters of equal size: the plain median jumps with one sample,
    # the smoothed one moves by a fraction of the gap.
    low, high = [100.0 + i for i in range(10)], [200.0 + i for i in range(10)]
    assert abs(p50(low + high + [99.0]) - p50(low + high + [210.0])) < 30


def test_layer_self_time_subtracts_covered_child_time():
    spans = [
        Span(1, None, "rl.update", "rl", 0.0, 10.0, 0),
        Span(2, 1, "nn.backward", "nn", 2.0, 5.0, 0),
        Span(3, 1, "nn.adam_step", "nn", 4.0, 8.0, 0),
        Span(4, 2, "nn.Conv2d", "nn", 2.5, 3.0, 0),
    ]
    times = layer_times(spans, ("rl", "nn"))
    assert times["rl.self_s"] == pytest.approx(4.0)      # 10 - |[2, 8]|
    assert times["rl.calls"] == 1 and times["nn.calls"] == 2
    assert times["nn.busy_s"] == pytest.approx(7.0)      # nested conv not recounted
    assert times["nn.self_s"] == pytest.approx(2.5 + 4.0 + 0.5)


def test_wrappers_record_and_uninstall():
    import numpy as np
    from repro.nn import Tensor
    from repro.rl.policy import ActorCritic

    original = ActorCritic.__dict__.get("__call__")
    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        policy = ActorCritic(rng=np.random.default_rng(0))
        policy(Tensor(np.zeros((2, 6, 32, 32), np.float32)),
               Tensor(np.zeros((2, 32), np.float32)),
               Tensor(np.zeros((2, 32), np.float32)))
    finally:
        recorder.uninstall()
    assert ActorCritic.__dict__.get("__call__") is original
    forward = [s for s in recorder.spans if s.name == "nn.ActorCritic"]
    assert len(forward) == 1 and forward[0].args == {"batch": 2}
    convs = [s for s in recorder.spans if s.name == "nn.Conv2d"]
    assert convs and all(s.parent == forward[0].sid for s in convs)
    from perfbench.layers import _forward_gflop

    # ~1.5 GFLOP per forward at batch 64.
    assert 0.02 < _forward_gflop(recorder.spans) < 0.03


def test_placement_errors_find_missing_and_overlapping_blocks():
    rect = lambda i, x, y: {"index": i, "x": x, "y": y, "width": 2.0, "height": 2.0}
    assert placement_errors([rect(0, 0, 0), rect(1, 2, 0)], 2) == []
    assert placement_errors([rect(0, 0, 0), rect(1, 1, 1)], 2) == ["blocks 0 and 1 overlap"]
    assert placement_errors([rect(0, 0, 0)], 2)
