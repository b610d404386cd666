"""Fault injection across the two process boundaries — engine pools and
the solve service — plus the killed-sweep-then-rerun regression.

Every fault is injected from the test side, with no hook in ``src/``:
a registered task that kills its own worker, a cache file overwritten
with garbage, a server whose ``_dispatch`` drops the first connection,
and a sweep subprocess that kills itself from its ``progress`` callback.
Each injection is deterministic, so these tests never depend on timing
luck.
"""

import asyncio
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.config import TrainConfig
from repro.engine import (
    ArtifactCache,
    Executor,
    SweepSpec,
    TaskSpec,
    register_task,
    run_sweep,
)
from repro.rl import FloorplanAgent
from repro.serve import ServeConfig, ServerThread, SolveClient

#: Exit status of a deliberately killed worker or sweep process.
KILL_EXIT_CODE = 43


@pytest.fixture
def fork_ctx(monkeypatch):
    if "fork" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("fork start method unavailable")
    monkeypatch.setenv("REPRO_MP_CONTEXT", "fork")


def small_agent(seed: int = 0) -> FloorplanAgent:
    return FloorplanAgent(config=TrainConfig(
        num_envs=2, rollout_steps=16, ppo_epochs=1, minibatch_size=8,
        seed=seed,
    ))


@register_task("fault_echo")
def _fault_echo(params, seed, context):
    return seed * 7


@register_task("fault_kill_once")
def _fault_kill_once(params, seed, context):
    """Dies hard on the victim's first run, succeeds after that."""
    marker = params["marker"]
    if params["victim"] and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(KILL_EXIT_CODE)
    return seed * 7


def drop_first_connection(server) -> None:
    """Make ``server`` hang up on the first request it reads, unanswered.

    The connection handler treats ``CancelledError`` as "this connection
    is over" and closes the socket — the worst spot for a client, which
    must reconnect and resend (safe: answers are content-addressed).
    """
    dispatch = server._dispatch
    dropped = []

    async def dropping_dispatch(line: bytes) -> bytes:
        if not dropped:
            dropped.append(line)
            raise asyncio.CancelledError
        return await dispatch(line)

    server._dispatch = dropping_dispatch


# ---------------------------------------------------------------------------
# Engine under injected faults
# ---------------------------------------------------------------------------

class TestEngineChaos:
    @pytest.mark.parametrize("leg", range(3))
    def test_kill_worker_matrix_ordered_results_survive(self, leg, tmp_path,
                                                        fork_ctx):
        """A worker killed at the first, a middle or the last grid
        position: the pool is rebuilt and results come back complete and
        in submission order."""
        n = 8
        victim = (0, n // 2, n - 1)[leg]
        marker = str(tmp_path / "killed")
        specs = [TaskSpec(fn="fault_kill_once", seed=s,
                          params={"marker": marker, "victim": s == victim})
                 for s in range(n)]
        ex = Executor(backend="process", workers=2)
        results = ex.map_tasks(specs)
        assert [r.value for r in results] == [s * 7 for s in range(n)]
        assert os.path.exists(marker)  # the victim really died once
        assert ex.stats.pool_rebuilds >= 1
        assert ex.stats.retries >= 1
        assert ex.stats.computed == n

    def test_corrupt_cache_entry_evicted_and_recomputed(self, tmp_path):
        spec = TaskSpec(fn="fault_echo", seed=4)
        root = tmp_path / "cache"
        warm = Executor(backend="serial", cache=ArtifactCache(root=root))
        warm.map_tasks([spec])
        assert ArtifactCache(root=root).get(spec) is not None

        meta_path = next(root.rglob("*.json"))
        meta_path.write_text("{not json")
        cache = ArtifactCache(root=root)
        ex = Executor(backend="serial", cache=cache)
        results = ex.map_tasks([spec])
        assert results[0].value == 28   # recomputed, not poisoned
        assert cache.corrupt == 1
        assert ex.stats.cache_hits == 0
        assert ex.stats.computed == 1

        # The entry was rewritten: the next read is a clean hit.
        again = Executor(backend="serial", cache=ArtifactCache(root=root))
        again.map_tasks([spec])
        assert again.stats.cache_hits == 1


# ---------------------------------------------------------------------------
# Serving under injected faults & overload
# ---------------------------------------------------------------------------

class TestServeChaos:
    def test_drop_conn_recovered_by_client_retry(self, tmp_path):
        config = ServeConfig(backend="serial", cache=True,
                             cache_dir=str(tmp_path / "cache"))
        with ServerThread(config, agent=small_agent()) as handle:
            drop_first_connection(handle.server)
            with SolveClient(handle.address, retries=1) as client:
                # The first send is dropped unanswered; the client
                # reconnects and resends the identical line.
                response = client.solve("ota_small", seed=0)
                assert response["result"]["area"] > 0

    def test_drop_conn_without_retries_surfaces(self):
        config = ServeConfig(backend="serial", cache=False)
        with ServerThread(config, agent=small_agent()) as handle:
            drop_first_connection(handle.server)
            with SolveClient(handle.address, retries=0) as client:
                with pytest.raises(OSError):
                    client.solve("ota_small", seed=0)

    def test_admission_control_sheds_past_max_inflight(self):
        config = ServeConfig(backend="serial", cache=False, max_inflight=1)
        with ServerThread(config, agent=small_agent()) as handle:
            handle.server._admitted = 1  # one solve already admitted
            with SolveClient(handle.address) as client:
                response = client.request(
                    {"op": "solve", "circuit": "ota_small", "seed": 0})
                assert response["ok"] is False
                assert response["shed"] is True
                stats = client.stats()
                assert stats["shed"] == 1
            handle.server._admitted = 0
            with SolveClient(handle.address) as client:
                assert client.solve("ota_small", seed=0)["result"]["area"] > 0

    def test_deadline_exceeded_does_not_poison_the_compute(self, tmp_path):
        config = ServeConfig(backend="serial", cache=True,
                             cache_dir=str(tmp_path / "cache"))
        with ServerThread(config, agent=small_agent()) as handle:
            with SolveClient(handle.address) as client:
                hurried = client.request(
                    {"op": "solve", "circuit": "ota_small", "seed": 1,
                     "deadline_ms": 0.01})
                assert hurried["ok"] is False
                assert hurried["deadline_exceeded"] is True
                # The shielded compute kept running and filled the
                # cache; an unhurried ask gets the real answer.
                patient = client.solve("ota_small", seed=1)
                assert patient["result"]["area"] > 0
                stats = client.stats()
                assert stats["deadline_exceeded"] == 1

    def test_invalid_deadline_rejected(self):
        config = ServeConfig(backend="serial", cache=False)
        with ServerThread(config, agent=small_agent()) as handle:
            with SolveClient(handle.address) as client:
                response = client.request(
                    {"op": "solve", "circuit": "ota_small",
                     "deadline_ms": -5})
                assert response["ok"] is False

    def test_shutdown_drains_inflight_solve(self):
        config = ServeConfig(backend="serial", cache=False,
                             drain_timeout=30.0)
        results = []
        with ServerThread(config, agent=small_agent()) as handle:
            def work():
                with SolveClient(handle.address) as client:
                    results.append(client.solve("ota_small", seed=9))

            worker = threading.Thread(target=work)
            worker.start()
            time.sleep(0.2)  # let the request get in flight
        worker.join(timeout=60.0)
        assert not worker.is_alive()
        assert results and results[0]["result"]["area"] > 0

    def test_stats_exposes_resilience_counters(self):
        config = ServeConfig(backend="serial", cache=False)
        with ServerThread(config, agent=small_agent()) as handle:
            with SolveClient(handle.address) as client:
                stats = client.stats()
        for key in ("queue_depth", "shed", "deadline_exceeded",
                    "pool_restarts"):
            assert key in stats


# ---------------------------------------------------------------------------
# Killed sweep, re-run on the same cache: bit-identical, tail recomputed
# ---------------------------------------------------------------------------

_SWEEP_SCRIPT = textwrap.dedent(f"""
    import os, sys
    from repro.engine import ArtifactCache, Executor, SweepSpec, run_sweep

    def die_after_two(done, total, result):
        if done == 2:
            os._exit({KILL_EXIT_CODE})

    spec = SweepSpec(methods=["sa"], circuits=["ota_small"],
                     seeds=range(4), config={{"moves_per_temperature": 4}})
    ex = Executor(backend="serial", cache=ArtifactCache(root=sys.argv[1]),
                  progress=die_after_two)
    run_sweep(spec, executor=ex)
    print("completed-without-kill")
""")


class TestSweepResume:
    def _spec(self):
        return SweepSpec(methods=["sa"], circuits=["ota_small"],
                         seeds=range(4),
                         config={"moves_per_temperature": 4})

    def test_mid_sweep_kill_then_resume_is_bit_identical(self, tmp_path):
        spec = self._spec()
        cache_dir = str(tmp_path / "cache")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", _SWEEP_SCRIPT, cache_dir],
            env=env, capture_output=True, text=True, timeout=300,
        )
        # The sweep process dies after its second cell completes; each
        # cell's artifact is cached before the callback fires.
        assert proc.returncode == KILL_EXIT_CODE, proc.stderr
        assert "completed-without-kill" not in proc.stdout

        # Re-run on the same cache: the two finished cells replay, only
        # the unfinished tail is computed.
        ex = Executor(backend="serial", cache=ArtifactCache(root=cache_dir))
        resumed = run_sweep(spec, executor=ex)
        assert ex.stats.cache_hits == 2
        assert ex.stats.computed == 2

        # Bit-identical to an uninterrupted run on a fresh cache: every
        # deterministic per-run metric matches exactly.
        ref_ex = Executor(backend="serial",
                          cache=ArtifactCache(root=str(tmp_path / "ref")))
        reference = run_sweep(spec, executor=ref_ex)
        resumed_runs = [(r.value.hpwl, r.value.dead_space, r.value.reward)
                        for r in resumed.results]
        reference_runs = [(r.value.hpwl, r.value.dead_space, r.value.reward)
                          for r in reference.results]
        assert resumed_runs == reference_runs
        assert (resumed.summary().split(" in ")[0]
                == "4 cells (2 from cache)")

        # A third run finds every cell cached: nothing computed.
        ex2 = Executor(backend="serial", cache=ArtifactCache(root=cache_dir))
        run_sweep(spec, executor=ex2)
        assert ex2.stats.computed == 0
        assert ex2.stats.cache_hits == 4
