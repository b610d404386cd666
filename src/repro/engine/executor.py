"""Pluggable task executors: serial, thread pool, process pool.

One API — :meth:`Executor.map_tasks` — fans a list of
:class:`~repro.engine.task.TaskSpec` out over the chosen backend and
returns :class:`~repro.engine.task.TaskResult` objects **in submission
order**, regardless of completion order.  Results are bit-identical
across backends because every source of randomness travels inside the
spec (the seed) and each task builds its own generators from it.

Cache integration: when an :class:`~repro.engine.cache.ArtifactCache` is
attached, hits are served without dispatching and misses are persisted
as they complete, so a re-run of the same grid is pure cache replay.

The optional ``context`` argument to :meth:`map_tasks` ships one live
object (e.g. a trained :class:`~repro.rl.agent.FloorplanAgent`) to every
task; under the process backend it is pickled once per worker via the
pool initializer rather than once per task.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs import (
    OBS,
    adopt_trace,
    drain_worker,
    get_logger,
    merge_worker,
    set_gauge,
    trace_context,
)
from .blas import set_blas_threads
from .cache import ArtifactCache
from .task import TaskResult, TaskSpec, run_task

BACKENDS = ("serial", "thread", "process")

logger = get_logger("engine")

def default_start_method() -> str:
    """Multiprocessing start method: ``$REPRO_MP_CONTEXT``, else fork/spawn."""
    return os.environ.get("REPRO_MP_CONTEXT") or (
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )


#: Per-worker shared context under the process backend (set by initializer).
_WORKER_CONTEXT: Any = None


def cap_blas_threads(n: int) -> Optional[int]:
    """Cap this process's BLAS pool at ``n`` threads; returns the previous
    count.  Records the ``blas.threads`` gauge when telemetry is on."""
    previous = set_blas_threads(n)
    if previous is not None:
        set_gauge("blas.threads", max(1, n))
    return previous


def _init_worker(
    context: Any, obs_enabled: bool = False, trace_ctx: Any = None
) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context
    # Telemetry state does not survive a spawn (and a forked child holds a
    # copy of the parent's registry *and trace buffer*): (re)arm recording
    # explicitly when the parent had it on, clear both sinks, and join the
    # parent's trace so worker spans land on the same logical timeline.
    OBS.enabled = obs_enabled
    if obs_enabled:
        OBS.registry.reset()
        OBS.tracer.reset()
        adopt_trace(trace_ctx)
    # Workers run beside each other (and their parent) on the same cores:
    # one BLAS thread each, or idle OpenBLAS threads busy-wait on cores
    # the other workers need.
    cap_blas_threads(1)
    # Populate the task registry in spawned workers up front.
    from . import tasks  # noqa: F401


def _process_run(spec: TaskSpec, flow_id: Optional[str] = None) -> TaskResult:
    if not OBS.enabled:
        return run_task(spec, _WORKER_CONTEXT)
    # Ship this task's telemetry delta to the parent: tasks run serially
    # within a worker, so reset-before / drain-after is exactly the delta.
    OBS.registry.reset()
    if flow_id is not None:
        # Close the parent's dispatch flow arrow at task pickup.
        OBS.tracer.flow_end("engine.task", flow_id)
    began = time.perf_counter()
    result = run_task(spec, _WORKER_CONTEXT)
    OBS.tracer.add_complete(
        "engine.task.worker", began, time.perf_counter(),
        {"label": spec.label},
    )
    result.obs = drain_worker()
    return result


#: Progress callback signature: (completed_count, total, latest_result).
ProgressFn = Callable[[int, int, TaskResult], None]


@dataclass
class ExecutorStats:
    """Bookkeeping for the most recent :meth:`Executor.map_tasks` call."""

    total: int = 0
    cache_hits: int = 0
    computed: int = 0
    wall_seconds: float = 0.0
    task_seconds: float = 0.0   # sum of per-task compute time
    retries: int = 0            # tasks resubmitted after a pool rebuild
    pool_rebuilds: int = 0      # worker pools torn down and rebuilt

    def summary(self) -> str:
        base = (
            f"{self.total} tasks: {self.computed} computed, "
            f"{self.cache_hits} cache hits, wall {self.wall_seconds:.2f} s, "
            f"cpu {self.task_seconds:.2f} s"
        )
        if self.pool_rebuilds:
            base += (f" ({self.pool_rebuilds} pool rebuilds, "
                     f"{self.retries} tasks resubmitted)")
        return base


class PoolRebuildLimitError(RuntimeError):
    """The executor's worker pool crashed more times than allowed."""

    def __init__(self, rebuilds: int, limit: int):
        self.rebuilds = rebuilds
        self.limit = limit
        super().__init__(
            f"process pool crashed {rebuilds} times "
            f"(max_pool_rebuilds={limit}); giving up"
        )


class Executor:
    """Maps task specs over a backend with ordered results and caching.

    Parameters
    ----------
    backend:
        ``"serial"`` (in-process loop, the default), ``"thread"``
        (:class:`~concurrent.futures.ThreadPoolExecutor` — useful when
        tasks block on I/O), or ``"process"``
        (:class:`~concurrent.futures.ProcessPoolExecutor` — true
        multi-core scaling for the CPU-bound solvers).
    workers:
        Pool size for thread/process backends; defaults to
        ``os.cpu_count()``.
    cache:
        Optional :class:`ArtifactCache`; pass ``None`` to always compute.
    progress:
        Optional callback invoked in the parent process as each task
        finishes (cache hits included).
    max_pool_rebuilds:
        How many times a crashed worker pool (``BrokenProcessPool`` — an
        OOM-killed or segfaulted worker) is rebuilt before
        :class:`PoolRebuildLimitError` is raised.  A rebuild resubmits
        only the unfinished tasks.
    """

    def __init__(
        self,
        backend: str = "serial",
        workers: Optional[int] = None,
        cache: Optional[ArtifactCache] = None,
        progress: Optional[ProgressFn] = None,
        max_pool_rebuilds: int = 5,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.backend = backend
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.cache = cache
        self.progress = progress
        if max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        self.max_pool_rebuilds = max_pool_rebuilds
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------
    def map_tasks(
        self, specs: Sequence[TaskSpec], context: Any = None
    ) -> List[TaskResult]:
        """Run every spec; returns results aligned with ``specs`` order."""
        specs = list(specs)
        start = time.perf_counter()
        self.stats = ExecutorStats(total=len(specs))
        results: List[Optional[TaskResult]] = [None] * len(specs)
        done = 0
        # Cache hit accounting is read back from the cache's own metrics
        # registry (the single counting site) as a per-call delta.
        hits_before = self.cache.hits if self.cache is not None else 0
        telemetry = OBS.enabled
        if telemetry:
            OBS.registry.inc("engine.map_tasks")
            OBS.registry.inc("engine.tasks.total", len(specs))

        # Serve cache hits first so only misses hit the pool.
        pending: List[int] = []
        for i, spec in enumerate(specs):
            hit = self.cache.get(spec) if self.cache is not None else None
            if hit is not None:
                results[i] = hit
                done += 1
                if self.progress is not None:
                    self.progress(done, len(specs), hit)
            else:
                pending.append(i)
        self.stats.cache_hits = (self.cache.hits - hits_before
                                 if self.cache is not None else 0)

        #: submission perf_counter per pending index (queue-time metric).
        submitted: Dict[int, float] = {}

        def finish(index: int, result: TaskResult) -> None:
            nonlocal done
            results[index] = result
            self.stats.computed += 1
            self.stats.task_seconds += result.seconds
            if self.cache is not None:
                self.cache.put(result)
            if telemetry:
                now = time.perf_counter()
                began = submitted.get(index, now - result.seconds)
                reg = OBS.registry
                reg.inc("engine.tasks.computed")
                reg.observe("engine.task.run_seconds", result.seconds)
                # Queue time: waiting for a pool slot (plus result
                # shipping); zero-ish on the serial backend.
                reg.observe("engine.task.queue_seconds",
                            max(0.0, now - began - result.seconds))
                OBS.tracer.add_complete(
                    "engine.task", began, now,
                    {"label": result.spec.label, "backend": self.backend,
                     "run_s": round(result.seconds, 6)},
                )
                if result.obs is not None:
                    merge_worker(result.obs, label="engine-worker")
                    result.obs = None
            done += 1
            if self.progress is not None:
                self.progress(done, len(specs), result)

        if self.backend == "serial" or len(pending) <= 1:
            for i in pending:
                submitted[i] = time.perf_counter()
                finish(i, run_task(specs[i], context))
        else:
            self._run_pool(specs, pending, context, finish, submitted,
                           telemetry)

        self.stats.wall_seconds = time.perf_counter() - start
        if telemetry:
            OBS.tracer.add_complete(
                "engine.map_tasks", start, time.perf_counter(),
                {"backend": self.backend, "tasks": len(specs),
                 "cache_hits": self.stats.cache_hits},
            )
        logger.debug("map_tasks: %s", self.stats.summary())
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _make_pool(self, context: Any, telemetry: bool, n_pending: int):
        if self.backend == "thread":
            return concurrent.futures.ThreadPoolExecutor(self.workers)
        ctx = multiprocessing.get_context(default_start_method())
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, max(1, n_pending)), mp_context=ctx,
            initializer=_init_worker,
            initargs=(context, telemetry, trace_context()),
        )

    def _teardown_pool(self, pool) -> None:
        """Shut a pool down without waiting, killing workers still running.

        After a task error or a crash, sibling workers may be mid-task;
        terminate them so shutdown never joins a process that is busy.
        """
        if isinstance(pool, concurrent.futures.ProcessPoolExecutor):
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.terminate()
                except Exception:
                    pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _run_pool(
        self,
        specs: Sequence[TaskSpec],
        pending: List[int],
        context: Any,
        finish: Callable[[int, TaskResult], None],
        submitted: Dict[int, float],
        telemetry: bool,
    ) -> None:
        """Pool backends: submit every task, collect them as they finish.

        A broken pool (a worker died) is rebuilt and only the unfinished
        tasks are resubmitted, up to ``max_pool_rebuilds`` times.  The
        first task that raises tears the pool down and propagates its own
        exception.  ``finish`` delivers results into their
        submission-order slots, so ordering is unaffected.
        """
        is_process = self.backend == "process"
        unfinished = list(pending)
        rebuilds = 0
        while True:
            pool = self._make_pool(context, telemetry, len(unfinished))
            inflight: Dict[concurrent.futures.Future, int] = {}
            finished = set()
            broken = False
            try:
                for i in unfinished:
                    submitted[i] = time.perf_counter()
                    if is_process:
                        flow_id = (OBS.tracer.flow_start("engine.task")
                                   if telemetry else None)
                        future = pool.submit(_process_run, specs[i], flow_id)
                    else:
                        future = pool.submit(run_task, specs[i], context)
                    inflight[future] = i
                while inflight:
                    done, _ = concurrent.futures.wait(
                        inflight, return_when=concurrent.futures.FIRST_COMPLETED)
                    for future in done:
                        i = inflight.pop(future)
                        try:
                            result = future.result()
                        except concurrent.futures.BrokenExecutor:
                            broken = True  # the pool died under this task
                        else:
                            finish(i, result)
                            finished.add(i)
            except concurrent.futures.BrokenExecutor:
                broken = True  # the pool died while tasks were submitted
            except BaseException:
                self._teardown_pool(pool)
                raise
            if not broken:
                pool.shutdown(wait=True)
                return
            self._teardown_pool(pool)
            rebuilds += 1
            self.stats.pool_rebuilds += 1
            if telemetry:
                OBS.registry.inc("engine.pool_rebuilds")
            if rebuilds > self.max_pool_rebuilds:
                raise PoolRebuildLimitError(rebuilds, self.max_pool_rebuilds)
            unfinished = [i for i in unfinished if i not in finished]
            self.stats.retries += len(unfinished)
            logger.warning(
                "worker pool broke with %d unfinished tasks; rebuilding (%d/%d)",
                len(unfinished), rebuilds, self.max_pool_rebuilds)
