"""High-level floorplanning agent: HCL training, fine-tuning, inference.

``FloorplanAgent`` glues together the pre-trained R-GCN encoder, the
actor-critic policy and masked PPO.  It exposes the three usage modes the
paper evaluates in Table I:

* ``train_hcl``   — hybrid-curriculum training over the 5-circuit set;
* ``fine_tune``   — k-shot refinement on one circuit (1/100/1000-shot);
* ``solve``       — zero-shot (or post-fine-tune) floorplan generation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.common import FloorplanResult, PlacedRect, evaluate_placement
from ..circuits.netlist import Circuit
from ..config import TrainConfig
from ..floorplan.curriculum import HybridCurriculum
from ..floorplan.env import FloorplanEnv
from ..floorplan.metrics import hpwl_lower_bound
from ..floorplan.vecenv import VecEnv, stack_observations
from ..gnn.rgcn import RGCNEncoder
from ..graph.features import FEATURE_DIM
from ..nn import load_module, save_module
from ..obs import get_logger, profile_scope, span
from .policy import ActorCritic
from .ppo import MaskedPPO, TrainHistory, publish_iteration

logger = get_logger("rl.agent")


@dataclass
class HCLRecord:
    """Fig. 6 artifacts: curves plus curriculum phase markers."""

    history: TrainHistory
    stage_starts: List[int] = field(default_factory=list)  # iteration indices
    sampling_start: Optional[int] = None                   # first random-sampling iteration


class FloorplanAgent:
    """The paper's R-GCN + RL floorplanner."""

    def __init__(
        self,
        encoder: Optional[RGCNEncoder] = None,
        policy: Optional[ActorCritic] = None,
        config: Optional[TrainConfig] = None,
    ):
        self.config = config or TrainConfig()
        rng = np.random.default_rng(self.config.seed)
        self.encoder = encoder or RGCNEncoder(FEATURE_DIM, rng=rng)
        self.policy = policy or ActorCritic(rng=rng)
        self.ppo = MaskedPPO(self.policy, self.encoder, self.config)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_hcl(
        self,
        circuits: Sequence[Circuit],
        episodes_per_circuit: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> HCLRecord:
        """Hybrid curriculum learning over the training circuits (Sec. IV-D5).

        Environments draw their next circuit from the curriculum whenever
        an episode ends; PPO iterations continue until the curriculum's
        episode budget is exhausted.
        """
        cfg = self.config
        episodes = episodes_per_circuit or cfg.episodes_per_circuit
        curriculum = HybridCurriculum(
            list(circuits), episodes_per_circuit=episodes,
            rng=rng or np.random.default_rng(cfg.seed),
        )
        first = curriculum.circuits[0]
        envs = [FloorplanEnv(first) for _ in range(cfg.num_envs)]
        vec = VecEnv(envs)

        def assign_task(index: int, env: FloorplanEnv) -> None:
            if curriculum.finished:
                return
            circuit, _ = curriculum.next_task()
            env.set_circuit(circuit)

        vec.reset_hook = assign_task

        record = HCLRecord(history=TrainHistory())
        seen_stages = {0}
        record.stage_starts.append(0)
        half = episodes // 2
        observations = vec.reset()
        while not curriculum.finished:
            buffer, observations, _ = self.ppo.collect(vec, observations)
            stats = self.ppo.update(buffer)
            from .ppo import IterationStats

            iteration = len(record.history.iterations)
            record.history.iterations.append(IterationStats(
                iteration=iteration,
                episode_reward_mean=self.ppo.episode_reward_mean,
                approx_kl=stats["approx_kl"],
                policy_loss=stats["policy_loss"],
                value_loss=stats["value_loss"],
                entropy=stats["entropy"],
                episodes_completed=curriculum.episode,
                clip_fraction=stats["clip_fraction"],
            ))
            publish_iteration(record.history.iterations[-1])
            stage = curriculum.stage
            if stage not in seen_stages:
                seen_stages.add(stage)
                record.stage_starts.append(iteration)
            if record.sampling_start is None and (curriculum.episode % episodes) >= half:
                record.sampling_start = iteration
        return record

    def fine_tune(self, circuit: Circuit, episodes: int) -> TrainHistory:
        """k-shot refinement on one circuit (paper's 1/100/1000-shot).

        Trains until approximately ``episodes`` episodes complete on the
        target circuit (at least one PPO iteration).
        """
        if episodes < 1:
            raise ValueError("episodes must be >= 1")
        cfg = self.config
        envs = [FloorplanEnv(circuit) for _ in range(cfg.num_envs)]
        vec = VecEnv(envs)
        history = TrainHistory()
        observations = vec.reset()
        done_episodes = 0
        # Size rollouts to the episode budget so k-shot effort (and hence
        # runtime, as in Table I) scales with k instead of being dominated
        # by a fixed rollout length.
        steps_needed = max(1, episodes * circuit.num_blocks // cfg.num_envs)
        rollout_steps = int(np.clip(steps_needed, 8, cfg.rollout_steps))
        while done_episodes < episodes:
            buffer, observations, finished = self.ppo.collect(
                vec, observations, rollout_steps=rollout_steps
            )
            stats = self.ppo.update(buffer)
            done_episodes += finished
            from .ppo import IterationStats

            history.iterations.append(IterationStats(
                iteration=len(history.iterations),
                episode_reward_mean=self.ppo.episode_reward_mean,
                approx_kl=stats["approx_kl"],
                policy_loss=stats["policy_loss"],
                value_loss=stats["value_loss"],
                entropy=stats["entropy"],
                episodes_completed=finished,
                clip_fraction=stats["clip_fraction"],
            ))
            publish_iteration(history.iterations[-1])
        return history

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def solve(
        self,
        circuit: Circuit,
        hpwl_min: Optional[float] = None,
        target_aspect: Optional[float] = None,
        deterministic: bool = True,
        attempts: int = 8,
        method_name: str = "R-GCN RL",
        rng: Optional[np.random.Generator] = None,
    ) -> FloorplanResult:
        """Generate a floorplan with the current policy.

        The first attempt is greedy (mode of the masked policy); if it dead
        -ends on constraints, stochastic retries follow, sampling from
        ``rng`` (default: a fresh generator seeded with ``config.seed``) so
        repeated calls are reproducible independent of any training the
        agent ran beforehand.  Raises ``RuntimeError`` if no clean
        floorplan is found in ``attempts``.
        """
        rng = rng or np.random.default_rng(self.config.seed)
        hmin = hpwl_min if hpwl_min is not None else hpwl_lower_bound(circuit)
        env = FloorplanEnv(circuit, hpwl_min=hmin, target_aspect=target_aspect)
        start = time.perf_counter()
        with profile_scope("agent.solve"):
            for attempt in range(attempts):
                obs = env.reset()
                use_mode = deterministic and attempt == 0
                done = False
                info: Dict = {}
                while not done:
                    actions, _, _ = self.ppo.act(
                        stack_observations([obs]), deterministic=use_mode, rng=rng
                    )
                    obs, _, done, info = env.step(int(actions[0]))
                if not info.get("violation"):
                    rects = [
                        PlacedRect(p.index, p.shape_index, p.x, p.y, p.width, p.height)
                        for p in env.state.placed.values()
                    ]
                    area, wirelength, ds, reward = evaluate_placement(
                        circuit, rects, hpwl_min=hmin, target_aspect=target_aspect
                    )
                    return FloorplanResult(
                        circuit_name=circuit.name,
                        method=method_name,
                        rects=rects,
                        area=area,
                        hpwl=wirelength,
                        dead_space=ds,
                        reward=reward,
                        runtime=time.perf_counter() - start,
                        extra={"attempts": attempt + 1},
                    )
        raise RuntimeError(
            f"no constraint-clean floorplan for {circuit.name} in {attempts} attempts"
        )

    def clone(self) -> "FloorplanAgent":
        """Independent copy (own optimizer state) for per-circuit fine-tuning.

        The config is copied as well: ``fine_tune`` temporarily rewrites
        ``rollout_steps`` on its config, and clones fine-tuning
        concurrently (e.g. Table I cells on the engine's thread backend)
        must not race on one shared ``TrainConfig``.
        """
        twin = FloorplanAgent(config=replace(self.config))
        twin.policy.load_state_dict(self.policy.state_dict())
        twin.encoder.load_state_dict(self.encoder.state_dict())
        twin.ppo.invalidate_cache()
        return twin

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, prefix: str) -> None:
        """Write ``{prefix}_policy.npz`` and ``{prefix}_encoder.npz``."""
        save_module(self.policy, f"{prefix}_policy.npz")
        save_module(self.encoder, f"{prefix}_encoder.npz")

    def load(self, prefix: str) -> None:
        load_module(self.policy, f"{prefix}_policy.npz")
        load_module(self.encoder, f"{prefix}_encoder.npz")
        self.ppo.invalidate_cache()
