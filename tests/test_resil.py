"""Fault handling the system keeps: executor pool rebuild, fail-fast
task errors, and the bounded micro-batch queue.

Every fault is injected from the test side — a registered task that
kills its own worker — so no hook in ``src/`` exists only to be tested.
Kills use the sentinel ``KILL_EXIT_CODE`` so a real crash can never
masquerade as an injected one.  CI runs this module with ``--timeout``
as a hang backstop.
"""

import asyncio
import concurrent.futures
import multiprocessing
import os
import time

import pytest

from repro.engine import Executor, PoolRebuildLimitError, TaskSpec, register_task
from repro.serve import MicroBatcher
from repro.serve.batcher import QueueFullError

#: Exit status of a deliberately killed worker.
KILL_EXIT_CODE = 43


# ---------------------------------------------------------------------------
# Executor crash paths (process-pool kill, task failure)
# ---------------------------------------------------------------------------

@register_task("resil_kill_once")
def _kill_once(params, seed, context):
    """Victim task: dies hard on its first run, succeeds after that."""
    marker = params["marker"]
    if params.get("victim") and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(KILL_EXIT_CODE)
    return seed * 7


@register_task("resil_sleep")
def _sleep(params, seed, context):
    time.sleep(params["seconds"])
    return seed


@register_task("resil_flaky")
def _flaky(params, seed, context):
    """Fails ``params['failures']`` times, then succeeds (file counter,
    so the count survives process-backend attempts under fork)."""
    path = params["counter"]
    n = int(open(path).read()) if os.path.exists(path) else 0
    with open(path, "w") as handle:
        handle.write(str(n + 1))
    if n < params["failures"]:
        raise RuntimeError(f"flaky failure {n}")
    return seed + 100


@pytest.fixture
def fork_ctx(monkeypatch):
    """Process-backend tests need fork so test-registered tasks exist in
    workers (spawn would re-import only the library registry)."""
    if "fork" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("fork start method unavailable")
    monkeypatch.setenv("REPRO_MP_CONTEXT", "fork")


class TestExecutorCrashPaths:
    def test_broken_pool_rebuilds_and_preserves_order(self, tmp_path,
                                                      fork_ctx):
        marker = str(tmp_path / "killed")
        specs = [
            TaskSpec(fn="resil_kill_once", seed=s,
                     params={"marker": marker, "victim": s == 2})
            for s in range(6)
        ]
        ex = Executor(backend="process", workers=2)
        results = ex.map_tasks(specs)
        assert [r.value for r in results] == [s * 7 for s in range(6)]
        assert ex.stats.pool_rebuilds >= 1
        assert ex.stats.computed == 6
        # `retries` counts the tasks resubmitted after a rebuild: at
        # least the victim, never more than the grid.
        assert 1 <= ex.stats.retries <= 6
        assert "pool rebuild" in ex.stats.summary()

    def test_rebuild_limit_raises_typed_error(self, tmp_path, fork_ctx):
        # No marker check: the victim dies on *every* attempt, so the
        # pool breaks until the rebuild cap trips.
        @register_task("resil_kill_always")
        def _kill_always(params, seed, context):  # noqa: F811
            os._exit(KILL_EXIT_CODE)

        specs = [TaskSpec(fn="resil_kill_always", seed=s) for s in range(2)]
        ex = Executor(backend="process", workers=2, max_pool_rebuilds=2)
        with pytest.raises(PoolRebuildLimitError, match="2"):
            ex.map_tasks(specs)
        assert ex.stats.pool_rebuilds == 3  # the limit-tripping attempt

    def test_default_policy_unchanged_failure_semantics(self, tmp_path,
                                                        fork_ctx):
        counter = str(tmp_path / "count-default")
        spec = TaskSpec(fn="resil_flaky",
                        params={"counter": counter, "failures": 1})
        ex = Executor(backend="serial")
        with pytest.raises(RuntimeError, match="flaky failure 0"):
            ex.map_tasks([spec])
        assert ex.stats.retries == 0

        # Process backend: the task's own exception propagates (not
        # BrokenProcessPool), promptly while a sibling still sleeps, and
        # the torn-down pool leaves no live children behind.
        specs = [
            TaskSpec(fn="resil_sleep", params={"seconds": 60.0}),
            TaskSpec(fn="resil_flaky", seed=1,
                     params={"counter": str(tmp_path / "count-process"),
                             "failures": 1}),
        ]
        before = set(multiprocessing.active_children())
        ex = Executor(backend="process", workers=2)
        began = time.perf_counter()
        with pytest.raises(RuntimeError, match="flaky failure 0") as info:
            ex.map_tasks(specs)
        assert not isinstance(info.value, concurrent.futures.BrokenExecutor)
        assert time.perf_counter() - began < 30.0  # not 60: sibling killed
        assert ex.stats.retries == 0
        deadline = time.monotonic() + 10.0
        while (set(multiprocessing.active_children()) - before
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert set(multiprocessing.active_children()) - before == set()


# ---------------------------------------------------------------------------
# Bounded micro-batch queue
# ---------------------------------------------------------------------------

class TestMicroBatcherBound:
    def test_overflow_raises_queue_full(self):
        async def run():
            release = asyncio.Event()

            async def handler(items):
                await release.wait()
                return [item for item in items]

            batcher = MicroBatcher(handler, max_batch=1, max_wait=0.001,
                                   maxsize=2)
            batcher.start()
            try:
                # First item is pulled into the (blocked) batch; the next
                # two fill the queue; the fourth must be refused loudly.
                tasks = [asyncio.ensure_future(batcher.submit(0))]
                await asyncio.sleep(0.05)  # consumer now blocked in handler
                tasks += [asyncio.ensure_future(batcher.submit(i))
                          for i in (1, 2)]
                await asyncio.sleep(0.05)
                assert batcher.queue_depth == 2
                with pytest.raises(QueueFullError, match="micro-batch"):
                    await batcher.submit(99)
                release.set()
                assert await asyncio.gather(*tasks) == [0, 1, 2]
            finally:
                release.set()
                await batcher.stop()

        asyncio.run(run())

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda items: items, maxsize=0)
