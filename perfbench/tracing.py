"""In-memory span recording around the public entry points of each layer.

A traced run (``--trace 1``) patches the entry points listed in
:func:`install` with wrappers that record one span per call: name, layer,
start, end, parent span, request id, thread and a few call facts (batch
size, FLOPs, cache hit).  The program's code is not changed; the wrappers
live here and are removed again by :meth:`Recorder.uninstall`.

Parents and request ids travel in :mod:`contextvars`, so nesting is right
on threads and in asyncio tasks alike (``asyncio.to_thread`` and
``create_task`` copy the context).  Work that runs in pool processes is not
patched; its spans are rebuilt from the timings the program reports
(``TaskResult.seconds``, ``PipelineResult.timings``, response ``seconds``)
and marked ``synthetic``.

At exit the spans are written as Chrome-trace JSONL in the format of
``repro.obs`` (``ph: "X"`` events, microsecond ``ts``/``dur``), so
``repro report --trace FILE [--trace-out perfetto.json]`` renders them.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .common import current_rss_mb, median

#: Request id of the request the current code works for.
REQUEST: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    name: str
    layer: str
    start: float
    end: float
    tid: int
    request: Any = None
    args: Optional[Dict[str, Any]] = None

    @property
    def dur(self) -> float:
        return self.end - self.start


InfoFn = Callable[[tuple, Any], Optional[Dict[str, Any]]]


class Recorder:
    """Span buffer plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        #: request id -> client-side span id, so the server-side span of
        #: the same request can name it as parent across threads.
        self.request_parents: Dict[Any, int] = {}
        self.epoch = time.perf_counter()

    # -- recording -------------------------------------------------------
    def next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Optional[int] = None, request: Any = None,
            args: Optional[Dict[str, Any]] = None,
            tid: Optional[int] = None) -> int:
        sid = self.next_id()
        self.spans.append(Span(sid, parent, name, layer, start, end,
                               threading.get_ident() if tid is None else tid,
                               request, args))
        return sid

    # -- patching --------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, layer: str,
             info: Optional[InfoFn] = None,
             pre: Optional[Callable[[tuple], Dict[str, Any]]] = None) -> None:
        """Replace the function ``owner.attr`` by a recording wrapper;
        ``pre(args)`` and ``info(args, result)`` add facts to the span."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        spans = self.spans
        next_id = self.next_id

        def wrapper(*args, **kwargs):
            sid = next_id()
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            before = pre(args) if pre is not None else None
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                extra = info(args, result) if info is not None else None
                if before:
                    extra = {**before, **(extra or {})}
                spans.append(Span(sid, parent, name, layer, start, end,
                                  threading.get_ident(), REQUEST.get(), extra))

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def wrap_request_entry(self, owner: Any, attr: str, name: str,
                           layer: str) -> None:
        """Wrap an ``async def f(self, request, ...)`` server entry: the
        span takes ``request.request_id`` as its request id and the
        client-side span of that request as its parent."""
        original = getattr(owner, attr)
        own = attr in vars(owner)
        spans = self.spans
        next_id = self.next_id
        parents = self.request_parents

        async def wrapper(server, request, *args, **kwargs):
            rid = request.request_id
            sid = next_id()
            parent = parents.get(rid, _CURRENT.get())
            request_token = REQUEST.set(rid)
            token = _CURRENT.set(sid)
            start = time.perf_counter()
            try:
                return await original(server, request, *args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
                REQUEST.reset(request_token)
                spans.append(Span(sid, parent, name, layer, start, end,
                                  threading.get_ident(), rid,
                                  {"method": request.method}))

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- output ----------------------------------------------------------
    def write_jsonl(self, path: str) -> int:
        """Chrome-trace JSONL in ``repro.obs`` format; returns event count.

        The spans go into a private :class:`repro.obs.trace.Tracer`, whose
        writer adds the process metadata; ``repro.obs`` stays off.
        """
        from repro.obs.trace import Tracer

        tracer = Tracer()
        pid = os.getpid()
        lanes: Dict[int, int] = {threading.main_thread().ident: 0}
        for span in sorted(self.spans, key=lambda s: s.start):
            lane = lanes.setdefault(span.tid, len(lanes))
            args: Dict[str, Any] = {"layer": span.layer, "id": span.sid,
                                    "parent": span.parent}
            if span.request is not None:
                args["request"] = span.request
            if span.args:
                args.update(span.args)
            tracer.events.append({
                "name": span.name, "ph": "X", "cat": "perfbench",
                "ts": round((span.start - self.epoch) * 1e6, 3),
                "dur": round(span.dur * 1e6, 3),
                "pid": pid, "tid": lane, "args": args,
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tracer.write_jsonl(path)
        return len(tracer.metadata_events()) + len(tracer.events)


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------

def _conv_flops(args: tuple, result: Any) -> Optional[Dict[str, Any]]:
    if result is None:
        return None
    weight = args[0].weight.data.shape          # (Cout, Cin, k, k)
    out = result.data.shape                     # (B, Cout, Ho, Wo)
    return {"flops": 2 * out[0] * out[1] * out[2] * out[3]
            * weight[1] * weight[2] * weight[3]}


def _deconv_flops(args: tuple, result: Any) -> Optional[Dict[str, Any]]:
    weight = args[0].weight.data.shape          # (Cin, Cout, k, k)
    x = args[1].data.shape                      # (B, Cin, Hi, Wi)
    return {"flops": 2 * x[0] * x[1] * x[2] * x[3]
            * weight[1] * weight[2] * weight[3]}


def _linear_flops(args: tuple, result: Any) -> Optional[Dict[str, Any]]:
    weight = args[0].weight.data.shape          # (out, in)
    rows = args[1].data.size // weight[1]
    return {"flops": 2 * rows * weight[0] * weight[1]}


def install(recorder: Recorder) -> None:
    """Wrap the public entry point of every layer."""
    from repro.engine.cache import ArtifactCache
    from repro.engine.executor import Executor
    from repro.floorplan import env as env_module
    from repro.floorplan.env import FloorplanEnv
    from repro.floorplan.vecenv import VecEnv
    from repro.gnn.rgcn import RGCNEncoder
    from repro.nn import Adam, Tensor
    from repro.nn.layers import Conv2d, ConvTranspose2d, Linear
    from repro.rl.policy import ActorCritic
    from repro.rl.ppo import MaskedPPO
    from repro.serve.server import SolveServer

    w = recorder.wrap
    w(ActorCritic, "__call__", "nn.ActorCritic", "nn",
      info=lambda a, r: {"batch": int(a[1].data.shape[0])})
    w(Conv2d, "forward", "nn.Conv2d", "nn", info=_conv_flops)
    w(ConvTranspose2d, "forward", "nn.ConvTranspose2d", "nn", info=_deconv_flops)
    w(Linear, "forward", "nn.Linear", "nn", info=_linear_flops)
    w(Tensor, "backward", "nn.backward", "nn")
    w(Adam, "step", "nn.adam_step", "nn")
    w(Adam, "clip_grad_norm", "nn.clip_grad_norm", "nn")

    def collect_rows(args, result):
        ppo, vec = args[0], args[1]
        steps = args[4] if len(args) > 4 and args[4] is not None else ppo.config.rollout_steps
        return {"rows": (steps + 1) * vec.num_envs,
                "env_steps": steps * vec.num_envs}

    w(MaskedPPO, "collect", "rl.collect", "rl", info=collect_rows)
    w(MaskedPPO, "update", "rl.update", "rl",
      pre=lambda a: {"rss_before_mb": current_rss_mb()},
      info=lambda a, r: {"rss_after_mb": current_rss_mb()})
    w(MaskedPPO, "act", "rl.act", "rl", info=lambda a, r: {"rows": len(a[1])})
    w(RGCNEncoder, "encode_batch_numpy", "gnn.encode_batch", "gnn",
      info=lambda a, r: {"graphs": len(r) if r is not None else 0})
    w(FloorplanEnv, "step", "floorplan.env_step", "floorplan")
    w(env_module, "observation_masks", "floorplan.observation_masks", "floorplan")
    w(VecEnv, "step_stacked", "floorplan.vecenv_step", "floorplan")
    w(Executor, "map_tasks", "engine.map_tasks", "engine")
    w(ArtifactCache, "get", "engine.cache_get", "engine",
      info=lambda a, r: {"hit": r is not None})
    w(ArtifactCache, "put", "engine.cache_put", "engine")
    recorder.wrap_request_entry(SolveServer, "_solve", "serve.solve", "serve")


def span_cost_s(trials: int = 3, calls: int = 20000) -> float:
    """Measured cost of one recorded span over a plain call (seconds)."""

    class Probe:
        def call(self, x):
            return x

    costs = []
    for _ in range(trials):
        probe = Probe()
        start = time.perf_counter()
        for i in range(calls):
            probe.call(i)
        plain = time.perf_counter() - start
        recorder = Recorder()
        recorder.wrap(Probe, "call", "probe", "probe")
        try:
            start = time.perf_counter()
            for i in range(calls):
                probe.call(i)
            wrapped = time.perf_counter() - start
        finally:
            recorder.uninstall()
        costs.append(max(0.0, wrapped - plain) / calls)
    return median(costs)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def in_window(spans: Iterable[Span], window: Tuple[float, float]) -> List[Span]:
    lo, hi = window
    return [s for s in spans if lo <= s.start <= hi]


def layer_times(spans: List[Span], layers: Iterable[str]) -> Dict[str, float]:
    """``<layer>.calls``, ``.busy_s`` and ``.self_s`` for every layer.

    A span's self time is its duration minus the part of it that its
    child spans cover.  Busy time and calls count only a layer's outermost
    spans (parent in another layer, or none), so nesting within a layer
    is not counted twice.
    """
    by_id = {s.sid: s for s in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: Dict[str, float] = {}
    for layer in layers:
        out[f"{layer}.calls"] = 0.0
        out[f"{layer}.busy_s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    for s in spans:
        if f"{s.layer}.calls" not in out:
            continue
        covered = _covered(children.get(s.sid, ()), s.start, s.end)
        out[f"{s.layer}.self_s"] += max(0.0, s.dur - covered)
        parent = by_id.get(s.parent) if s.parent is not None else None
        if parent is None or parent.layer != s.layer:
            out[f"{s.layer}.calls"] += 1
            out[f"{s.layer}.busy_s"] += s.dur
    return out


def self_time_table(times: Dict[str, float], layers: Iterable[str]) -> List[str]:
    lines = ["layer        calls     busy_s     self_s"]
    for layer in layers:
        lines.append(f"{layer:<10} {times[layer + '.calls']:>7.0f} "
                     f"{times[layer + '.busy_s']:>10.3f} {times[layer + '.self_s']:>10.3f}")
    return lines
