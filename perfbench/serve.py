"""``serve`` workload: closed-loop load on an in-process ``SolveServer``.

The server runs with its defaults (artifact cache on, in a fresh directory;
a baseline process pool of ``nproc`` workers).  Two closed-loop connections
stand for layout engineers who wait for their floorplan; each sends the
next request of a fixed seed-generated list as soon as its previous one
is answered.  Latency is reported over cold solves, RL and baseline
together: what a caller waiting for a fresh floorplan sees.  Two waiting clients build no queue, so this workload says
nothing about queueing.

Per round of eight requests: four cold stochastic RL solves cycling over
all library circuits, two cold baseline solves cycling over
(sa, ga, pso, rl-sa, rl-sp) and over the Table I circuits, and two exact
repeats of requests at least four places earlier (cache hits, or coalesced
when the original is still running).  This covers policy forward at batch <= 2,
env stepping, cache reads beside cache writes, the micro-batcher and the
baseline pool; ``nn`` backward does no work here.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from .common import (WorkloadResult, fmt_tail, mean, median, p50,
                     placement_errors, tail)

#: Methods and circuits the request generator draws from.
BASELINE_METHODS = ("sa", "ga", "pso", "rl-sa", "rl-sp")
ROUND = ("rl", "rl", "rl", "rl", "baseline", "baseline", "repeat", "repeat")
#: A repeat copies a request at least this many places earlier, so the
#: original has usually completed and the repeat reads the cache.
REPEAT_LAG = 4
#: Warm-up requests use a seed the generator never draws.
WARM_SEED = 2**31 - 1
WARM_CIRCUIT = "ota_small"
#: Served RL results recomputed offline with ``FloorplanAgent.solve``.
OFFLINE_SAMPLE = 4
REQUEST_TIMEOUT_S = 120.0


def connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def requests(seed: int, count: int) -> List[Dict[str, Any]]:
    """The seed's request list; a shorter list is a prefix of a longer one."""
    from repro.circuits.library import (TABLE1_SEEN, TABLE1_UNSEEN,
                                        available_circuits)

    rng = np.random.default_rng(seed)
    library = sorted(available_circuits())
    table1 = TABLE1_SEEN + TABLE1_UNSEEN
    used = set()
    # Each cycle is a seeded permutation, so every circuit and method comes
    # up equally often in any stretch of the list: latency differs up to
    # 10x between circuits and 6x between methods, and a run that drew
    # more slow ones would measure its draw, not the server.
    cycles: Dict[str, List[str]] = {}

    def next_in_cycle(name: str, items) -> str:
        if not cycles.get(name):
            cycles[name] = [items[i] for i in rng.permutation(len(items))]
        return cycles[name].pop()
    cold: List[Dict[str, Any]] = []
    out: List[Dict[str, Any]] = []

    def fresh_seed() -> int:
        while True:
            value = int(rng.integers(0, WARM_SEED))
            if value not in used:
                used.add(value)
                return value

    while len(out) < count:
        for role in rng.permutation(ROUND):
            index = len(out)
            eligible = [r for r in cold if r["id"] <= index - REPEAT_LAG]
            if role == "repeat" and eligible:
                source = eligible[int(rng.integers(len(eligible)))]
                out.append({**source, "id": index, "role": "repeat",
                            "repeat_of": source["id"]})
                continue
            if role == "baseline":
                request = {"id": index, "role": "baseline",
                           "circuit": next_in_cycle("table1", table1),
                           "method": next_in_cycle("method", BASELINE_METHODS),
                           "seed": fresh_seed()}
            else:
                request = {"id": index, "role": "rl",
                           "circuit": next_in_cycle("library", library),
                           "method": "rl", "seed": fresh_seed(),
                           "deterministic": False}
            out.append(request)
            cold.append(request)
    return out[:count]


def wire(request: Dict[str, Any]) -> Dict[str, Any]:
    payload = {"op": "solve", "id": request["id"], "circuit": request["circuit"],
               "method": request["method"], "seed": request["seed"]}
    if "deterministic" in request:
        payload["deterministic"] = request["deterministic"]
    return payload


def setup(run_dir: str):
    """Server up, baseline pool started, one warm solve per path.

    Returns ``(handle, pool_start_s)``: the first pooled solve's round trip
    includes spawning the pool."""
    from repro.serve import ServeConfig, ServerThread, SolveClient

    handle = ServerThread(ServeConfig(cache_dir=os.path.join(run_dir, "cache")))
    try:
        with SolveClient(handle.address, timeout=REQUEST_TIMEOUT_S) as client:
            start = time.perf_counter()
            client.solve(WARM_CIRCUIT, method="sa", seed=WARM_SEED)
            pool_start = time.perf_counter() - start
            client.solve(WARM_CIRCUIT, method="rl", seed=WARM_SEED)
    except BaseException:
        handle.stop()
        raise
    return handle, pool_start


def _load(address, plan, deadline, recorder) -> Tuple[List[tuple], List[str]]:
    """Closed loop: each connection sends the next request when answered."""
    from repro.serve import SolveClient
    from .tracing import Span

    lock = threading.Lock()
    cursor = [0]
    records: List[tuple] = []
    problems: List[str] = []

    def loop() -> None:
        try:
            client = SolveClient(address, timeout=REQUEST_TIMEOUT_S)
        except OSError as exc:
            problems.append(f"connect failed: {exc}")
            return
        with client:
            while True:
                with lock:
                    if time.perf_counter() >= deadline or cursor[0] >= len(plan):
                        return
                    request = plan[cursor[0]]
                    cursor[0] += 1
                sid = None
                if recorder is not None:
                    sid = recorder.next_id()
                    recorder.request_parents[request["id"]] = sid
                start = time.perf_counter()
                try:
                    response, error = client.request(wire(request)), None
                except (OSError, ValueError) as exc:
                    response, error = None, f"{type(exc).__name__}: {exc}"
                end = time.perf_counter()
                if recorder is not None:
                    recorder.spans.append(Span(
                        sid, None, "serve.request", "serve", start, end,
                        threading.get_ident(), request["id"],
                        {"role": request["role"], "method": request["method"]}))
                records.append((request, start, end, response, error))
                if error is not None:
                    return

    threads = [threading.Thread(target=loop, name=f"perfbench-conn{i}")
               for i in range(connections())]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(REQUEST_TIMEOUT_S + max(0.0, deadline - time.perf_counter()))
        if thread.is_alive():
            problems.append(f"{thread.name} did not finish")
    return records, problems


def _same_result(served: Dict[str, Any], offline: Dict[str, Any]) -> bool:
    keys = ("circuit_name", "method", "rects", "area", "hpwl", "dead_space",
            "reward", "extra")
    return all(served.get(k) == offline.get(k) for k in keys)


def run(seed: int, seconds: float, run_dir: str, recorder=None) -> WorkloadResult:
    from repro.circuits.library import get_circuit
    from repro.engine.cache import floorplan_result_to_dict
    from repro.floorplan.metrics import hpwl_lower_bound
    from repro.serve import SolveClient

    handle, pool_start = setup(run_dir)
    try:
        with SolveClient(handle.address) as client:
            before = client.stats()
        # Enough requests that the list never runs out at any plausible rate.
        plan = requests(seed, max(512, int(60 * seconds)))
        window_start = time.perf_counter()
        records, problems = _load(handle.address, plan,
                                  window_start + seconds, recorder)
        window_end = max([r[2] for r in records], default=time.perf_counter())
        with SolveClient(handle.address) as client:
            after = client.stats()

        errors = list(problems)
        failed = 0
        served: Dict[int, Dict[str, Any]] = {}
        classes: Dict[str, List[float]] = {"rl": [], "baseline": [], "hit": []}
        overhead: List[float] = []
        by_method: Dict[str, List[float]] = {}
        rl_by_circuit: Dict[str, List[float]] = {}
        quality: Dict[str, List[Tuple[float, float]]] = {"rl": [], "baseline": []}
        attempts: List[int] = []
        coalesced = 0
        for request, start, end, response, error in records:
            latency_ms = (end - start) * 1e3
            if error is not None or not response.get("ok"):
                failed += 1
                errors.append(f"request {request['id']}: "
                              f"{error or response.get('error')}")
                continue
            result = response["result"]
            bad = placement_errors(result["rects"],
                                   get_circuit(request["circuit"]).num_blocks)
            if bad:
                failed += 1
                errors.append(f"request {request['id']}: {'; '.join(bad)}")
                continue
            served[request["id"]] = result
            coalesced += bool(response.get("coalesced"))
            if request["role"] == "repeat":
                if response.get("cached"):
                    classes["hit"].append(latency_ms)
                continue
            if response.get("cached") or response.get("coalesced"):
                continue
            role = request["role"]
            classes[role].append(latency_ms)
            if role == "rl":
                rl_by_circuit.setdefault(request["circuit"], []).append(latency_ms)
            overhead.append(latency_ms - response["seconds"] * 1e3)
            quality[role].append((result["dead_space"], result["hpwl"]))
            if role == "rl":
                attempts.append(int(result["extra"]["attempts"]))
            else:
                by_method.setdefault(request["method"], []).append(response["seconds"])

        # Repeats must replay exactly what the original request was served.
        for request, _, _, _, _ in records:
            original = request.get("repeat_of")
            if (request["role"] == "repeat" and request["id"] in served
                    and original in served
                    and served[request["id"]] != served[original]):
                failed += 1
                errors.append(f"request {request['id']}: repeat differs "
                              f"from request {original}")

        # Served == offline: FloorplanAgent.solve on the same request.
        sample = [r for r, *_ in records
                  if r["role"] == "rl" and r["id"] in served][:OFFLINE_SAMPLE]
        agent = handle.server.agent
        for request in sample:
            circuit = get_circuit(request["circuit"])
            offline = agent.solve(
                circuit, hpwl_min=hpwl_lower_bound(circuit),
                deterministic=request["deterministic"],
                rng=np.random.default_rng(request["seed"]))
            if not _same_result(served[request["id"]],
                                floorplan_result_to_dict(offline)):
                failed += 1
                errors.append(f"request {request['id']}: served result "
                              "differs from FloorplanAgent.solve")
    finally:
        handle.stop()

    completed = len(records) - failed
    elapsed = window_end - window_start
    cold_ms = classes["rl"] + classes["baseline"]
    if not classes["rl"] or not classes["baseline"]:
        errors.append("no cold RL or no cold baseline solve completed in the window")
    delta = {k: after.get(k, 0) - before.get(k, 0)
             for k in ("batches", "batched_steps", "shed", "deadline_exceeded",
                       "errors", "cache_hits", "cache_misses")}
    lookups = delta["cache_hits"] + delta["cache_misses"]
    layer = {
        "serve.rl_p50_ms": p50(classes["rl"]),
        "serve.rl_tail_ms": tail(classes["rl"])[0] if classes["rl"] else 0.0,
        "serve.baseline_p50_ms": p50(classes["baseline"]),
        "serve.baseline_tail_ms": (tail(classes["baseline"])[0]
                                   if classes["baseline"] else 0.0),
        "serve.hit_p50_ms": p50(classes["hit"]),
        "serve.batch_size_mean": (delta["batched_steps"] / delta["batches"]
                                  if delta["batches"] else 0.0),
        "serve.coalesced_ratio": coalesced / max(1, completed),
        "serve.overhead_ms": median(overhead),
        "serve.shed": float(delta["shed"]),
        "serve.deadline_exceeded": float(delta["deadline_exceeded"]),
        "serve.errors": float(delta["errors"]),
        "rl.solve_attempts_mean": mean(attempts),
        "rl.dead_end_ratio": (sum(a - 1 for a in attempts) / sum(attempts)
                              if attempts else 0.0),
        "rl.dead_space_mean": mean([q[0] for q in quality["rl"]]),
        "rl.hpwl_mean": mean([q[1] for q in quality["rl"]]),
        "baselines.dead_space_mean": mean([q[0] for q in quality["baseline"]]),
        "baselines.hpwl_mean": mean([q[1] for q in quality["baseline"]]),
        "engine.pool_start_s": pool_start,
        "engine.pool_rebuilds": float(after.get("pool_restarts", 0)),
        "engine.cache_hit_ratio": delta["cache_hits"] / lookups if lookups else 0.0,
    }
    for method in BASELINE_METHODS:
        layer[f"baselines.{method.replace('-', '_')}_s"] = mean(by_method.get(method, []))
    notes = [
        f"serve: {connections()} closed-loop connections, {len(records)} "
        f"requests in {elapsed:.2f} s, {failed} failed",
        fmt_tail("cold solve (RL and baseline)", cold_ms),
        fmt_tail("cold RL", classes["rl"]),
        "cold RL p50 by circuit: " + ", ".join(
            f"{c} {median(v):.1f} ms (n={len(v)})"
            for c, v in sorted(rl_by_circuit.items(), key=lambda kv: median(kv[1]))),
        fmt_tail("cold baseline", classes["baseline"]),
        fmt_tail("cache hit", classes["hit"]),
        f"quality (no bound): RL dead space {layer['rl.dead_space_mean']:.4f}, "
        f"HPWL {layer['rl.hpwl_mean']:.2f} um; baseline dead space "
        f"{layer['baselines.dead_space_mean']:.4f}, HPWL "
        f"{layer['baselines.hpwl_mean']:.2f} um",
        f"served == offline checked on {len(sample)} RL results",
    ]
    return WorkloadResult(
        attempted=max(1, len(records)),
        failed=failed if records else 1,
        metrics={
            "throughput_per_s": completed / elapsed if elapsed > 0 else 0.0,
            "p50_ms": p50(cold_ms),
            "tail_ms": tail(cold_ms)[0] if cold_ms else 0.0,
        },
        layer=layer,
        notes=notes,
        window=(window_start, window_end),
        synthetic_spans=[
            (request["id"], request["method"], response["seconds"])
            for request, _, _, response, error in records
            if error is None and response.get("ok") and request["role"] == "baseline"
            and not response.get("cached") and not response.get("coalesced")
        ],
        errors=errors,
    )
