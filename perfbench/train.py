"""``train`` workload: one default-config PPO iteration over the training set.

A fresh ``FloorplanAgent`` with ``TrainConfig(seed=seed)`` (4 envs x 256
rollout steps, 4 epochs, minibatch 64) and a ``VecEnv`` cycling the five
``TRAINING_SET`` circuits run one ``MaskedPPO.collect`` + ``MaskedPPO.update``
exactly as ``FloorplanAgent.train_hcl`` drives them.  The work is fixed, so
the run takes as long as the iteration does, whatever ``--seconds`` says.

Two runs of the same code with the same seed must give bit-identical
losses.  Repeating the measured iteration would double the run, so the
check replays a short iteration twice with the same shapes: 4 envs
stepping, and minibatches of 64.

This is the only workload where ``nn`` backward and ``Adam.step`` work, and
update dominates it, so kernel and memory changes show here.
"""

from __future__ import annotations

import math
import time
from typing import Tuple

from .common import WorkloadResult, optional_float

#: The determinism replay: 32 steps x 4 envs = 2 minibatches of 64, over 2
#: epochs, so later minibatches run on weights Adam has already updated.
REPLAY = {"rollout_steps": 32, "ppo_epochs": 2}


def setup(seed: int, **overrides):
    """Agent + vec-env ready for the first collect."""
    from repro.circuits.library import TRAINING_SET, get_circuit
    from repro.config import TrainConfig
    from repro.floorplan.env import FloorplanEnv
    from repro.floorplan.vecenv import VecEnv
    from repro.rl.agent import FloorplanAgent

    agent = FloorplanAgent(config=TrainConfig(seed=seed, **overrides))
    circuits = [get_circuit(name) for name in TRAINING_SET]
    envs = [FloorplanEnv(circuits[i % len(circuits)])
            for i in range(agent.config.num_envs)]
    vec = VecEnv(envs)
    cursor = [agent.config.num_envs]

    def next_circuit(index, env) -> None:
        env.set_circuit(circuits[cursor[0] % len(circuits)])
        cursor[0] += 1

    vec.reset_hook = next_circuit
    observations = vec.reset()
    return agent, vec, observations


def iteration(seed: int, **overrides) -> Tuple[float, int, dict, float]:
    """One PPO iteration; returns (seconds, samples, losses, reward)."""
    agent, vec, observations = setup(seed, **overrides)
    start = time.perf_counter()
    buffer, observations, _ = agent.ppo.collect(vec, observations)
    stats = agent.ppo.update(buffer)
    seconds = time.perf_counter() - start
    samples = agent.config.rollout_steps * vec.num_envs
    return seconds, samples, stats, agent.ppo.episode_reward_mean


def run(seed: int, seconds: float, recorder=None) -> WorkloadResult:
    window_start = time.perf_counter()
    unit_s, samples, stats, reward = iteration(seed)
    window = (window_start, time.perf_counter())

    errors = []
    bad = [k for k, v in stats.items() if not math.isfinite(v)]
    if bad:
        errors.append(f"non-finite losses {bad}")
    first, second = (iteration(seed, **REPLAY)[2] for _ in range(2))
    if first != second:
        errors.append(f"same seed, different losses: {first} vs {second}")

    notes = [
        f"train: 1 PPO iteration x {samples} samples, default "
        f"TrainConfig(seed={seed}): {unit_s * 1e3:.2f} ms (n=1)",
        f"quality (no bound): policy_loss {stats['policy_loss']:.6f}, "
        f"value_loss {stats['value_loss']:.4f}, entropy {stats['entropy']:.4f}, "
        f"mean episode reward {reward:.4f}",
        f"determinism replay ({REPLAY}): losses {first} twice"
        if first == second else
        "determinism replay: losses differ",
    ]
    return WorkloadResult(
        attempted=1,
        failed=1 if errors else 0,
        metrics={
            "throughput_per_s": samples / unit_s,
            "p50_ms": unit_s * 1e3,
            "tail_ms": unit_s * 1e3,
        },
        layer={"rl.episode_reward_mean": optional_float(reward)},
        notes=notes,
        window=window,
        errors=errors,
    )
