"""Command-line interface for the reproduction.

Subcommands::

    python -m repro.cli circuits                     # list benchmark circuits
    python -m repro.cli floorplan ota1 --method sa   # one floorplan run
    python -m repro.cli pipeline bias1               # full Fig. 1 flow
    python -m repro.cli pipeline ota1 ota2 --workers 4 --backend process
    python -m repro.cli train --episodes 8 --out /tmp/agent   # HCL training
    python -m repro.cli solve ota2 --agent /tmp/agent          # inference
    python -m repro.cli table1 --repeats 2 --workers 4 --backend process
    python -m repro.cli table2                       # regenerate Table II
    python -m repro.cli sweep --methods sa,ga --circuits ota1,ota2 --seeds 5
    python -m repro.cli serve --port 8951 --max-batch 8   # solve service

Engine flags (``pipeline`` / ``table1`` / ``sweep``): ``--workers N`` and
``--backend {serial,thread,process}`` pick the execution backend;
``--cache`` / ``--no-cache`` toggle the content-addressed artifact cache
(default on for ``sweep`` and ``table1``; location ``~/.cache/repro``,
override with ``--cache-dir`` or ``$REPRO_CACHE_DIR``).

Observability flags (every subcommand): ``--metrics PATH`` / ``--trace
PATH`` enable ``repro.obs`` telemetry and write metrics / Chrome-trace
JSONL on exit (the trace covers engine process workers and serve pool
workers on one wall-clock axis); ``--profile
PATH`` runs the sampling profiler and writes collapsed flamegraph
stacks; ``--log-level LEVEL`` (or ``$REPRO_LOG_LEVEL``) and
``-q/--quiet`` control diagnostic verbosity.  ``repro report`` renders
the written files back into summary tables (``--trace-out`` converts a
trace to a Perfetto-loadable JSON file); ``repro bench record`` appends
``BENCH_*.json`` results to the perf ledger that ``repro report
--bench`` renders as a regression-flagged trajectory.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import obs
from .baselines import (
    GAConfig,
    PSOConfig,
    RLSAConfig,
    RLSPConfig,
    SAConfig,
    genetic_algorithm,
    particle_swarm,
    rl_sequence_pair,
    rl_simulated_annealing,
    simulated_annealing,
)
from .circuits import TRAINING_SET, available_circuits, get_circuit
from .config import TrainConfig
from .rl import FloorplanAgent

logger = obs.get_logger("cli")

_BASELINES = {
    "sa": (simulated_annealing, SAConfig),
    "ga": (genetic_algorithm, GAConfig),
    "pso": (particle_swarm, PSOConfig),
    "rl-sa": (rl_simulated_annealing, RLSAConfig),
    "rl-sp": (rl_sequence_pair, RLSPConfig),
}


def _executor_from_args(args, default_cache: bool = False):
    """Build an :class:`~repro.engine.executor.Executor` from engine flags."""
    from .engine import ArtifactCache, Executor

    use_cache = getattr(args, "cache", None)
    if use_cache is None:
        use_cache = default_cache
    cache = ArtifactCache(root=args.cache_dir) if use_cache else None
    return Executor(backend=args.backend, workers=args.workers, cache=cache)


def _print_engine_stats(executor) -> None:
    # Diagnostics, not results: routed through logging so `-q` (or
    # REPRO_LOG_LEVEL=WARNING) silences them in sweep scripts.
    logger.info("engine: %s", executor.stats.summary())
    if executor.cache is not None:
        logger.info("cache: %s", executor.cache.stats())


def _circuit_or_exit(name: str):
    if name not in available_circuits():
        print(f"unknown circuit {name!r}; available: {', '.join(available_circuits())}",
              file=sys.stderr)
        raise SystemExit(2)
    return get_circuit(name)


def cmd_circuits(_args) -> int:
    for name in available_circuits():
        print(f"{name:<12} {get_circuit(name).summary()}")
    return 0


def cmd_floorplan(args) -> int:
    circuit = _circuit_or_exit(args.circuit)
    runner, config_cls = _BASELINES[args.method]
    result = runner(circuit, config_cls(seed=args.seed))
    print(result.summary())
    if args.verbose:
        for rect in sorted(result.rects, key=lambda r: r.index):
            block = circuit.blocks[rect.index]
            print(f"  {block.name:<8} ({rect.x:8.2f}, {rect.y:8.2f}) "
                  f"{rect.width:6.2f} x {rect.height:6.2f}")
    return 0


def cmd_pipeline(args) -> int:
    from .pipeline import run_pipeline_batch

    for name in args.circuits:
        _circuit_or_exit(name)
    # One code path regardless of flags: the engine's "pipeline" task with
    # the classic default floorplanner budget, so --backend/--workers/--cache
    # change execution strategy but never the result.
    executor = _executor_from_args(args)
    results = run_pipeline_batch(
        args.circuits, config={"moves_per_temperature": 25},
        seed=args.seed, executor=executor,
    )
    engine_engaged = (args.backend != "serial" or executor.cache is not None
                      or len(args.circuits) > 1)
    if engine_engaged:
        _print_engine_stats(executor)
    for result in results:
        print(result.summary())
        for stage, seconds in result.timings.items():
            print(f"  {stage:<15} {seconds * 1000:8.1f} ms")
    return 0 if all(r.signoff_clean for r in results) else 1


def cmd_train(args) -> int:
    config = TrainConfig(num_envs=args.envs, rollout_steps=args.rollout,
                         seed=args.seed)
    agent = FloorplanAgent(config=config)
    circuits = [get_circuit(n) for n in (args.circuits or TRAINING_SET)]
    print(f"HCL training on: {', '.join(c.name for c in circuits)}")
    record = agent.train_hcl(circuits, episodes_per_circuit=args.episodes)
    curve = record.history.reward_curve()
    print(f"{len(curve)} iterations; reward {curve[0]:.2f} -> {curve[-1]:.2f}")
    if args.out:
        agent.save(args.out)
        print(f"saved to {args.out}_policy.npz / {args.out}_encoder.npz")
    return 0


def cmd_solve(args) -> int:
    circuit = _circuit_or_exit(args.circuit)
    agent = FloorplanAgent(config=TrainConfig(seed=args.seed))
    if args.agent:
        agent.load(args.agent)
    if args.fine_tune:
        agent.fine_tune(circuit, episodes=args.fine_tune)
    result = agent.solve(circuit)
    print(result.summary())
    return 0


def cmd_table1(args) -> int:
    from .experiments.table1 import Table1Scale, format_table1, run_table1

    scale = Table1Scale(repeats=args.repeats, hcl_episodes=args.episodes)
    executor = _executor_from_args(args, default_cache=True)
    cells = run_table1(scale=scale, executor=executor)
    print(format_table1(cells))
    _print_engine_stats(executor)
    return 0


def cmd_table2(_args) -> int:
    from .experiments.table2 import format_table2, run_table2

    print(format_table2(run_table2()))
    return 0


def _parse_overrides(pairs: List[str]) -> dict:
    """``key=value`` strings -> config overrides (numbers parsed)."""
    import ast

    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            overrides[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            overrides[key] = raw
    return overrides


def cmd_sweep(args) -> int:
    """Run a (method x circuit x seed) grid through the engine."""
    from .engine import SweepSpec, run_sweep

    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    circuits = [c.strip() for c in args.circuits.split(",") if c.strip()]
    for name in circuits:
        _circuit_or_exit(name)
    unknown = [m for m in methods if m not in _BASELINES]
    if unknown:
        print(f"unknown method(s) {unknown}; available: {', '.join(sorted(_BASELINES))}",
              file=sys.stderr)
        raise SystemExit(2)

    spec = SweepSpec(
        methods=methods,
        circuits=circuits,
        seeds=list(range(args.seeds)),
        config=_parse_overrides(args.set or []),
        unconstrained=args.unconstrained,
    )
    executor = _executor_from_args(args, default_cache=True)
    result = run_sweep(spec, executor=executor)
    print(result.table())
    print(f"\n{result.summary()}")
    _print_engine_stats(executor)
    return 0


def cmd_svg(args) -> int:
    """Floorplan (and optionally route) a circuit and write an SVG."""
    from .layout.svg import floorplan_svg
    from .routing.global_router import route_circuit

    circuit = _circuit_or_exit(args.circuit)
    runner, config_cls = _BASELINES[args.method]
    result = runner(circuit, config_cls(seed=args.seed))
    route = route_circuit(circuit, result.rects) if args.route else None
    svg = floorplan_svg(circuit, result.rects, route=route)
    with open(args.out, "w") as handle:
        handle.write(svg)
    print(f"{result.summary()}\nwrote {args.out}")
    return 0


def cmd_serve(args) -> int:
    """Run the floorplan solve service until interrupted."""
    import asyncio

    from .serve import ServeConfig, SolveServer

    use_cache = args.cache if args.cache is not None else True
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        workers=args.workers,
        backend=args.backend,
        cache=use_cache,
        cache_dir=args.cache_dir,
        agent_prefix=args.agent,
        agent_seed=args.seed,
        max_inflight=args.max_inflight,
        deadline_ms=args.deadline_ms,
        queue_size=args.queue_size,
        drain_timeout=args.drain_timeout,
    )
    server = SolveServer(config=config)

    async def _run() -> None:
        await server.start()
        print(f"repro serve listening on {server.endpoint}", flush=True)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        logger.info("serve: interrupted, shutting down")
    return 0


def cmd_report(args) -> int:
    """Render metrics/trace/profile/bench files into a summary."""
    if not (args.metrics or args.trace or args.profile or args.bench):
        print("repro report: pass --metrics, --trace, --profile and/or "
              "--bench", file=sys.stderr)
        raise SystemExit(2)
    if args.trace_out and not args.trace:
        print("repro report: --trace-out needs --trace", file=sys.stderr)
        raise SystemExit(2)
    try:
        print(obs.render_report(
            metrics_path=args.metrics,
            trace_path=args.trace,
            profile_path=args.profile,
            bench_path=args.bench,
            bench_threshold=args.bench_threshold,
        ))
        if args.trace_out:
            events = obs.load_jsonl(args.trace)
            with open(args.trace_out, "w") as handle:
                handle.write(obs.perfetto_json(events))
            print(f"wrote Perfetto trace to {args.trace_out}")
        if args.annotate and args.bench:
            from .obs.bench import annotation_lines, regressions

            flagged = regressions(obs.load_history(args.bench),
                                  args.bench_threshold)
            for line in annotation_lines(flagged):
                print(line)
    except FileNotFoundError as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return 0


def cmd_bench(args) -> int:
    """Maintain the perf-regression ledger (``repro bench record``)."""
    from .obs import bench as bench_mod

    # argparse restricts `action` to the known choices.
    entries = bench_mod.record_bench(
        paths=args.paths or None,
        history_path=args.history,
        note=args.note,
    )
    if not entries:
        print("repro bench record: no BENCH_*.json files found",
              file=sys.stderr)
        return 1
    for entry in entries:
        print(f"recorded {entry['bench']}: {len(entry['metrics'])} metrics "
              f"(sha {entry['sha'] or '?'}) -> {args.history}")
    return 0


def _int_at_least(minimum: int):
    def parse(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _engine_flags() -> argparse.ArgumentParser:
    """Shared parallel-execution / caching flags (pipeline, table1, sweep)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("engine")
    group.add_argument("--workers", type=_positive_int, default=None, metavar="N",
                       help="pool size for thread/process backends (default: CPU count)")
    group.add_argument("--backend", choices=["serial", "thread", "process"],
                       default="serial", help="task execution backend")
    group.add_argument("--cache", action=argparse.BooleanOptionalAction, default=None,
                       help="serve identical cells from the artifact cache "
                            "(--no-cache to always recompute)")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache root (default ~/.cache/repro or $REPRO_CACHE_DIR)")
    return parent


def _obs_flags() -> argparse.ArgumentParser:
    """Shared observability flags (every subcommand except ``report``)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument("--metrics", default=None, metavar="PATH",
                       help="enable telemetry; write metrics JSONL here on exit")
    group.add_argument("--trace", default=None, metavar="PATH",
                       help="enable telemetry; write Chrome-trace JSONL here on exit")
    group.add_argument("--profile", default=None, metavar="PATH",
                       help="run the sampling profiler; write collapsed "
                            "flamegraph stacks here on exit")
    group.add_argument("--profile-hz", type=float, default=None, metavar="HZ",
                       help="profiler sampling rate (default 97)")
    group.add_argument("--log-level", default=None, metavar="LEVEL",
                       help="diagnostic verbosity (DEBUG/INFO/WARNING/ERROR; "
                            "default $REPRO_LOG_LEVEL or INFO)")
    group.add_argument("-q", "--quiet", action="store_true",
                       help="only warnings and errors on stderr")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    engine_flags = _engine_flags()
    obs_flags = _obs_flags()

    p = sub.add_parser("circuits", parents=[obs_flags], help="list benchmark circuits")
    p.set_defaults(fn=cmd_circuits)

    p = sub.add_parser("floorplan", parents=[obs_flags],
                       help="run one floorplanning baseline")
    p.add_argument("circuit")
    p.add_argument("--method", choices=sorted(_BASELINES), default="sa")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_floorplan)

    p = sub.add_parser("pipeline", parents=[engine_flags, obs_flags],
                       help="full layout pipeline on one or more circuits")
    p.add_argument("circuits", nargs="+", metavar="circuit")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("train", parents=[obs_flags], help="HCL-train the RL agent")
    p.add_argument("--episodes", type=int, default=8)
    p.add_argument("--envs", type=int, default=2)
    p.add_argument("--rollout", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--circuits", nargs="*", default=None)
    p.add_argument("--out", default=None, help="checkpoint path prefix")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("solve", parents=[obs_flags],
                       help="floorplan a circuit with the RL agent")
    p.add_argument("circuit")
    p.add_argument("--agent", default=None, help="checkpoint path prefix")
    p.add_argument("--fine-tune", type=int, default=0, metavar="EPISODES")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("table1", parents=[engine_flags, obs_flags],
                       help="regenerate paper Table I")
    p.add_argument("--repeats", type=_positive_int, default=3)
    p.add_argument("--episodes", type=_int_at_least(2), default=10,
                   help="HCL episodes per circuit (curriculum needs >= 2)")
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("table2", parents=[obs_flags], help="regenerate paper Table II")
    p.set_defaults(fn=cmd_table2)

    p = sub.add_parser("sweep", parents=[engine_flags, obs_flags],
                       help="run a (method x circuit x seed) grid via repro.engine")
    p.add_argument("--methods", default="sa",
                   help="comma-separated baseline methods (sa,ga,pso,rl-sa,rl-sp)")
    p.add_argument("--circuits", default="ota1",
                   help="comma-separated circuit names")
    p.add_argument("--seeds", type=_positive_int, default=3, metavar="N",
                   help="run seeds 0..N-1 per cell")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                   help="config override applied to every method that has KEY "
                        "(repeatable), e.g. --set moves_per_temperature=20")
    p.add_argument("--unconstrained", action="store_true",
                   help="drop placement constraints (as in Table I)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("svg", parents=[obs_flags],
                       help="render a floorplan (and routing) to SVG")
    p.add_argument("circuit")
    p.add_argument("--out", default="floorplan.svg")
    p.add_argument("--method", choices=sorted(_BASELINES), default="sa")
    p.add_argument("--route", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_svg)

    # Fresh engine-flag instance: argparse parents share Action objects,
    # so set_defaults(backend=...) below would otherwise leak the serve
    # default into every other subcommand.
    p = sub.add_parser("serve", parents=[_engine_flags(), obs_flags],
                       help="run the floorplan solve service (line-delimited "
                            "JSON over TCP)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8951,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--max-batch", type=_positive_int, default=8, metavar="N",
                   help="micro-batch size cap for coalesced policy steps")
    p.add_argument("--max-wait-ms", type=float, default=5.0, metavar="MS",
                   help="max time the first request of a batch waits for company")
    p.add_argument("--agent", default=None, metavar="PREFIX",
                   help="agent checkpoint path prefix (default: fresh agent)")
    p.add_argument("--seed", type=int, default=0,
                   help="init seed for a fresh agent (no --agent)")
    p.add_argument("--max-inflight", type=_positive_int, default=64,
                   metavar="N",
                   help="admitted solves before new ones are shed (default 64)")
    p.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                   help="default per-request deadline; requests may still set "
                        "their own deadline_ms (default: none)")
    p.add_argument("--queue-size", type=_positive_int, default=1024,
                   metavar="N",
                   help="bound on the micro-batch queue before backpressure "
                        "errors (default 1024)")
    p.add_argument("--drain-timeout", type=float, default=5.0, metavar="SEC",
                   help="grace period for in-flight solves on shutdown")
    # Engine flags are reused with serving defaults: cold baseline solves
    # shard to a process pool, and the artifact cache is on unless
    # --no-cache.
    p.set_defaults(fn=cmd_serve, backend="process")

    p = sub.add_parser("bench", parents=[obs_flags],
                       help="maintain the perf-regression ledger")
    p.add_argument("action", choices=["record"],
                   help="record: append BENCH_*.json results to the ledger")
    p.add_argument("paths", nargs="*", metavar="BENCH_FILE",
                   help="BENCH_*.json files (default: glob the working dir)")
    p.add_argument("--history", default=None, metavar="PATH",
                   help="ledger path (default results/bench_history.jsonl)")
    p.add_argument("--note", default=None,
                   help="free-form note stored with each entry")
    from .obs.bench import DEFAULT_HISTORY, DEFAULT_THRESHOLD
    p.set_defaults(fn=cmd_bench, history=DEFAULT_HISTORY)

    # `report` reads metrics/trace/profile files; its --metrics/--trace
    # are inputs, so it deliberately does not share the obs parent parser.
    p = sub.add_parser("report",
                       help="summarize metrics/trace/profile/bench files")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="metrics JSONL written by --metrics")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="trace JSONL written by --trace")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="also convert --trace into a Perfetto-loadable "
                        "JSON file")
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="collapsed stacks written by --profile")
    p.add_argument("--bench", default=None, metavar="PATH",
                   help="perf ledger written by `repro bench record`")
    p.add_argument("--bench-threshold", type=float, default=DEFAULT_THRESHOLD,
                   metavar="RATIO",
                   help="flag metrics below RATIO x previous (default 0.9)")
    p.add_argument("--annotate", action="store_true",
                   help="emit GitHub ::warning annotations for regressions")
    p.add_argument("--log-level", default=None, help=argparse.SUPPRESS)
    p.add_argument("-q", "--quiet", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    obs.setup_logging(level=getattr(args, "log_level", None),
                      quiet=getattr(args, "quiet", False))
    telemetry = args.command != "report" and bool(
        getattr(args, "metrics", None) or getattr(args, "trace", None)
    )
    profiling = args.command != "report" and getattr(args, "profile", None)
    if not telemetry and not profiling:
        return args.fn(args)
    # Telemetry run: enable the registry/tracer (and/or the sampling
    # profiler) for the whole command and write the requested files even
    # if the command fails.
    if telemetry:
        obs.reset()
        obs.enable()
    if profiling:
        obs.start_profiler(hz=getattr(args, "profile_hz", None))
    try:
        return args.fn(args)
    finally:
        if profiling:
            prof = obs.stop_profiler()
            if prof is not None:
                prof.write_collapsed(args.profile)
                logger.info("wrote profile (%d samples) to %s",
                            prof.sample_count, args.profile)
        if telemetry:
            if args.metrics:
                obs.write_metrics(args.metrics)
                logger.info("wrote metrics to %s", args.metrics)
            if args.trace:
                obs.write_trace(args.trace)
                logger.info("wrote trace to %s", args.trace)
            obs.disable()


if __name__ == "__main__":
    raise SystemExit(main())
