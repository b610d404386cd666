"""BLAS contention bench: does a full process pool slow each task down?

``os.cpu_count()`` process workers, set up by the engine pool's own
initializer (:func:`repro.engine.executor._init_worker`, which caps each
worker at one BLAS thread), each time a B=64 ``ActorCritic``
forward+backward at the same moment.  Their median per-task time is
compared with the same task timed in a worker running alone.

With every worker keeping a machine-sized OpenBLAS pool, idle BLAS
threads busy-wait on the cores the other workers need and the pool runs
several times slower per task than one worker alone; with one thread per
worker the ratio stays near 1.  The bench fails when the contended
median exceeds ``$REPRO_BLAS_CONTENTION_CEIL`` x solo (default 1.5).
For scale it also times the pool with each worker's BLAS pool restored to
the parent's size (reported, not gated).

Results go to ``results/blas_contention.txt`` and the machine-readable
``BENCH_blas.json`` at the repo root.
"""

import concurrent.futures
import json
import multiprocessing
import os
import statistics
import time

import numpy as np

from _util import RESULTS_DIR, check, save_artifact

from repro.config import EMBEDDING_DIM
from repro.engine.blas import blas_library, blas_threads, set_blas_threads
from repro.engine.executor import _init_worker, default_start_method
from repro.nn import Tensor
from repro.rl.policy import ActorCritic

CONTENTION_CEIL = float(os.environ.get("REPRO_BLAS_CONTENTION_CEIL", "1.5"))
BENCH_JSON = os.path.join(os.path.dirname(RESULTS_DIR), "BENCH_blas.json")

BATCH = 64
#: Untimed passes first: they also absorb the skew in worker start-up, so
#: the timed passes of all workers overlap.
WARMUP = 2
REPEATS = 5
UNCAPPED_REPEATS = 3


def _fwd_bwd_times(repeats: int) -> tuple:
    """(BLAS threads, per-pass seconds) of a B=64 ActorCritic
    forward+backward in this worker."""
    rng = np.random.default_rng(0)
    policy = ActorCritic(rng=np.random.default_rng(1))
    dtype = policy.dtype
    masks = rng.random((BATCH, 6, 32, 32)).astype(dtype)
    node_emb = rng.normal(size=(BATCH, EMBEDDING_DIM)).astype(dtype)
    graph_emb = rng.normal(size=(BATCH, EMBEDDING_DIM)).astype(dtype)
    times = []
    for i in range(WARMUP + repeats):
        policy.zero_grad()
        t0 = time.perf_counter()
        logits, values = policy(Tensor(masks), Tensor(node_emb), Tensor(graph_emb))
        (logits.mean() + values.mean()).backward()
        if i >= WARMUP:
            times.append(time.perf_counter() - t0)
    return blas_threads(), times


def _init_uncapped_worker(threads: int) -> None:
    _init_worker(None)
    set_blas_threads(threads)


def _pool_times(workers: int, repeats: int, initializer=_init_worker,
                initargs=(None,)) -> tuple:
    """(BLAS threads per worker, median per-pass seconds) of ``workers``
    workers timing at once."""
    ctx = multiprocessing.get_context(default_start_method())
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=ctx,
        initializer=initializer, initargs=initargs,
    ) as pool:
        futures = [pool.submit(_fwd_bwd_times, repeats) for _ in range(workers)]
        results = [future.result() for future in futures]
    threads = {n for n, _ in results}
    return (threads.pop() if len(threads) == 1 else sorted(threads),
            statistics.median(t for _, times in results for t in times))


def test_blas_contention(benchmark):
    def body():
        workers = os.cpu_count() or 1
        solo_threads, solo = _pool_times(1, REPEATS)
        threads, contended = _pool_times(workers, REPEATS)
        ratio = contended / solo
        parent_threads = blas_threads()
        uncapped = None
        if parent_threads is not None and parent_threads > 1:
            _, uncapped = _pool_times(workers, UNCAPPED_REPEATS,
                                      _init_uncapped_worker, (parent_threads,))

        library = blas_library()
        rows = [
            (f"1 worker, {solo_threads} BLAS thread(s)", solo, "solo"),
            (f"{workers} workers, {threads} BLAS thread(s) each", contended,
             f"{ratio:.2f}x solo, ceiling {CONTENTION_CEIL}x"),
        ]
        if uncapped is not None:
            rows.append((f"{workers} workers, {parent_threads} BLAS thread(s) each",
                         uncapped, f"{uncapped / solo:.2f}x solo, not gated"))
        lines = [
            f"BLAS contention: {workers} process workers x B={BATCH} "
            f"ActorCritic forward+backward (median of {REPEATS} passes each)",
            f"BLAS: {os.path.basename(library) if library else 'not found'}, "
            f"{parent_threads} threads in the parent",
            "",
        ] + [f"{label:<36} {seconds * 1000:8.1f} ms  ({note})"
             for label, seconds, note in rows]
        text = "\n".join(lines)
        print("\n" + text)
        save_artifact("blas_contention", text)

        with open(BENCH_JSON, "w") as handle:
            json.dump({
                "workers": workers,
                "batch": BATCH,
                "blas": os.path.basename(library) if library else None,
                "parent_blas_threads": parent_threads,
                "worker_blas_threads": threads,
                "solo_ms": solo * 1000,
                "contended_ms": contended * 1000,
                "contention_ratio": ratio,
                "contention_ceiling": CONTENTION_CEIL,
                "uncapped_ms": None if uncapped is None else uncapped * 1000,
                "uncapped_ratio": None if uncapped is None else uncapped / solo,
                "pool_fwd_bwd_per_sec": workers / contended,
            }, handle, indent=2)
            handle.write("\n")

        assert ratio <= CONTENTION_CEIL, (
            f"pool workers contend: median per-task time {ratio:.2f}x solo "
            f"> {CONTENTION_CEIL}x ceiling"
        )

    check(benchmark, body)
