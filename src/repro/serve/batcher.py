"""Asyncio micro-batcher: coalesce concurrent awaits into one call.

The serving hot loop is policy inference; one forward over a batch of B
observations costs far less than B forwards over single observations
(PR 7's batched R-GCN path).  :class:`MicroBatcher` is the generic
coalescing primitive behind that win: producers ``await submit(item)``,
a single consumer task gathers items until either ``max_batch`` is
reached or ``max_wait`` seconds elapse since the first queued item, then
invokes the handler once with the whole batch and fans results back out
to the per-item futures.

Latency/throughput knobs:

* ``max_batch`` — cap on items per handler call (default 8).
* ``max_wait`` — how long the first item in a batch may wait for
  company (default 5 ms).  Batch-of-one flushes after ``max_wait`` even
  under no load, so an idle service stays low-latency.

Failure semantics: a handler exception rejects every future of that
batch (callers see the error); items whose future was cancelled in the
meantime (client disconnected mid-flight) are silently dropped — the
handler still runs for the remaining items and the consumer loop never
dies.

Backpressure: the queue is bounded (``maxsize``, default 1024 — generous
for the ~max_batch×sessions depth a healthy service sees).  When the
consumer cannot keep up, :meth:`submit` fails fast with
:class:`QueueFullError` instead of letting the queue grow
without limit; the server maps that onto an explicit load-shed response.
Depth is published as the ``serve.queue_depth`` gauge when telemetry is
on.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Generic, List, Sequence, Tuple, TypeVar

from ..obs import OBS

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Handler signature: a batch of items -> one result per item, aligned.
BatchHandler = Callable[[List[ItemT]], Awaitable[Sequence[ResultT]]]


class QueueFullError(RuntimeError):
    """A bounded queue rejected an item (backpressure, not a crash)."""

    def __init__(self, depth: int, maxsize: int, what: str = "queue"):
        self.depth = depth
        self.maxsize = maxsize
        super().__init__(
            f"{what} is full ({depth}/{maxsize} pending); shedding load"
        )


class MicroBatcher(Generic[ItemT, ResultT]):
    """Single-consumer batching queue with a max-size / max-wait policy."""

    def __init__(
        self,
        handler: BatchHandler,
        max_batch: int = 8,
        max_wait: float = 0.005,
        maxsize: int = 1024,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self._handler = handler
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.maxsize = maxsize
        self._queue: "asyncio.Queue[Tuple[ItemT, asyncio.Future]]" = (
            asyncio.Queue(maxsize=maxsize)
        )
        self._task: "asyncio.Task | None" = None
        #: Batch sizes actually dispatched (read by server telemetry).
        self.batches_dispatched = 0
        self.items_dispatched = 0

    @property
    def queue_depth(self) -> int:
        """Items currently waiting for a batch slot."""
        return self._queue.qsize()

    def _publish_depth(self) -> None:
        if OBS.enabled:
            OBS.registry.set_gauge("serve.queue_depth", self._queue.qsize())

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the consumer task on the running loop (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Cancel the consumer; pending submissions are rejected."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while not self._queue.empty():
            _, future = self._queue.get_nowait()
            if not future.done():
                future.set_exception(RuntimeError("micro-batcher stopped"))

    async def submit(self, item: ItemT) -> ResultT:
        """Enqueue ``item`` and await its result from a batched call.

        Raises :class:`QueueFullError` when the bounded
        queue is at capacity — fail fast so the caller can shed load,
        rather than queueing into unbounded memory and latency.
        """
        if self._task is None or self._task.done():
            raise RuntimeError("micro-batcher is not running (call start())")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((item, future))
        except asyncio.QueueFull:
            raise QueueFullError(self._queue.qsize(), self.maxsize,
                                 what="micro-batch queue") from None
        self._publish_depth()
        return await future

    # ------------------------------------------------------------------
    async def _gather(self) -> List[Tuple[ItemT, asyncio.Future]]:
        """Block for the first item, then batch up to the policy limits."""
        batch = [await self._queue.get()]
        deadline = asyncio.get_running_loop().time() + self.max_wait
        while len(batch) < self.max_batch:
            timeout = deadline - asyncio.get_running_loop().time()
            if timeout <= 0:
                break
            try:
                batch.append(
                    await asyncio.wait_for(self._queue.get(), timeout)
                )
            except asyncio.TimeoutError:
                break
        self._publish_depth()
        return batch

    async def _run(self) -> None:
        while True:
            batch = await self._gather()
            # Drop entries whose awaiter vanished (disconnect mid-flight).
            live = [(item, fut) for item, fut in batch if not fut.done()]
            if not live:
                continue
            self.batches_dispatched += 1
            self.items_dispatched += len(live)
            try:
                results = await self._handler([item for item, _ in live])
            except asyncio.CancelledError:
                for _, fut in live:
                    if not fut.done():
                        fut.set_exception(RuntimeError("micro-batcher stopped"))
                raise
            except Exception as exc:  # noqa: BLE001 — fan out to callers
                for _, fut in live:
                    if not fut.done():
                        fut.set_exception(exc)
                continue
            if len(results) != len(live):
                mismatch = RuntimeError(
                    f"batch handler returned {len(results)} results "
                    f"for {len(live)} items"
                )
                for _, fut in live:
                    if not fut.done():
                        fut.set_exception(mismatch)
                continue
            for (_, fut), result in zip(live, results):
                if not fut.done():
                    fut.set_result(result)
