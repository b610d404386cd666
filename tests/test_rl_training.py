"""Integration tests: PPO training loop, HCL schedule, agent inference.

Kept deliberately small (tiny rollouts, few iterations) — these verify the
machinery end to end, not convergence; the benchmarks exercise longer runs.
"""

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.config import TrainConfig
from repro.floorplan import FloorplanEnv, VecEnv
from repro.rl import FloorplanAgent, MaskedPPO, TrainHistory


def tiny_config(**overrides):
    defaults = dict(
        num_envs=2, rollout_steps=16, ppo_epochs=1, minibatch_size=16,
        learning_rate=3e-4, seed=0, episodes_per_circuit=4,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def trained_agent():
    """One tiny agent shared across inference tests (training is slow)."""
    agent = FloorplanAgent(config=tiny_config())
    vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
    agent.ppo.train(vec, iterations=2)
    return agent


class TestPPOLoop:
    def test_collect_fills_buffer_and_counts_episodes(self):
        agent = FloorplanAgent(config=tiny_config())
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
        obs = vec.reset()
        buffer, next_obs, episodes = agent.ppo.collect(vec, obs)
        assert buffer.full
        assert episodes > 0
        assert len(next_obs) == 2

    def test_update_returns_stats(self):
        agent = FloorplanAgent(config=tiny_config())
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
        obs = vec.reset()
        buffer, _, _ = agent.ppo.collect(vec, obs)
        stats = agent.ppo.update(buffer)
        for key in ("policy_loss", "value_loss", "entropy", "approx_kl", "clip_fraction"):
            assert np.isfinite(stats[key]), key

    def test_train_records_history(self, trained_agent):
        # trained_agent fixture ran 2 iterations
        assert trained_agent.ppo.episodes_total > 0
        assert np.isfinite(trained_agent.ppo.episode_reward_mean)

    def test_episode_end_callback(self):
        agent = FloorplanAgent(config=tiny_config())
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
        obs = vec.reset()
        seen = []
        agent.ppo.collect(vec, obs, on_episode_end=lambda i, ret, info: seen.append(ret))
        assert len(seen) > 0
        assert all(np.isfinite(r) for r in seen)

    def test_update_changes_parameters(self):
        agent = FloorplanAgent(config=tiny_config())
        vec = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
        obs = vec.reset()
        before = {n: p.data.copy() for n, p in agent.policy.named_parameters()}
        buffer, _, _ = agent.ppo.collect(vec, obs)
        agent.ppo.update(buffer)
        changed = any(
            not np.allclose(before[n], p.data) for n, p in agent.policy.named_parameters()
        )
        assert changed

    def test_episode_returns_do_not_leak_across_vecenvs(self):
        """Regression: partial returns of vec-env A used to be added to the
        first episodes of a freshly reset vec-env B of the same width."""
        agent = FloorplanAgent(config=tiny_config())
        vec_a = VecEnv([FloorplanEnv(get_circuit("bias1")) for _ in range(2)])
        buffer_a, _, episodes_a = agent.ppo.collect(
            vec_a, vec_a.reset(), rollout_steps=5
        )
        assert episodes_a == 0  # A stops mid-episode, returns still open
        assert np.all(buffer_a.rewards.sum(axis=0) != 0.0)

        vec_b = VecEnv([FloorplanEnv(get_circuit("ota_small")) for _ in range(2)])
        first = {}
        buffer_b, _, _ = agent.ppo.collect(
            vec_b, vec_b.reset(), rollout_steps=8,
            on_episode_end=lambda i, ret, info: first.setdefault(i, ret),
        )
        assert sorted(first) == [0, 1]
        for i, reported in first.items():
            end = int(np.argmax(buffer_b.dones[:, i]))
            expected = float(buffer_b.rewards[: end + 1, i].sum())
            assert reported == pytest.approx(expected, rel=1e-5)
            assert reported in agent.ppo._episode_returns


class TestHCL:
    def test_train_hcl_advances_through_circuits(self):
        agent = FloorplanAgent(config=tiny_config(rollout_steps=12))
        circuits = [get_circuit("ota_small"), get_circuit("bias_small")]
        record = agent.train_hcl(circuits, episodes_per_circuit=4)
        assert len(record.history.iterations) >= 1
        assert record.stage_starts[0] == 0
        curve = record.history.reward_curve()
        assert np.isfinite(curve).all()

    def test_kl_curve_available(self):
        agent = FloorplanAgent(config=tiny_config(rollout_steps=12))
        record = agent.train_hcl([get_circuit("ota_small")], episodes_per_circuit=4)
        kl = record.history.kl_curve()
        assert (kl >= 0).all()


class TestAgentInference:
    def test_solve_produces_valid_floorplan(self, trained_agent):
        result = trained_agent.solve(get_circuit("ota_small"), method_name="test")
        assert len(result.rects) == 3
        assert result.area > 0
        assert 0 <= result.dead_space < 1
        assert result.method == "test"

    def test_solve_zero_shot_on_unseen_circuit(self, trained_agent):
        """Transfer: the policy must emit legal floorplans for circuits it
        never saw (different node counts) — the R-GCN makes this possible."""
        result = trained_agent.solve(get_circuit("rs_latch"))
        assert len(result.rects) == 7

    def test_solve_respects_constraints(self, trained_agent):
        circuit = get_circuit("rs_latch")  # has symmetry pairs
        result = trained_agent.solve(circuit)
        # reconstruct rows for the symmetric pairs: same y within a cell
        rows = {r.index: r.y for r in result.rects}
        for c in circuit.constraints:
            if len(c.blocks) == 2 and c.kind.value == "sym_v":
                a, b = c.blocks
                assert abs(rows[a] - rows[b]) < 1e-6

    def test_fine_tune_runs(self, trained_agent):
        history = trained_agent.fine_tune(get_circuit("ota_small"), episodes=2)
        assert len(history.iterations) >= 1

    def test_fine_tune_rejects_zero_episodes(self, trained_agent):
        with pytest.raises(ValueError):
            trained_agent.fine_tune(get_circuit("ota_small"), episodes=0)

    def test_save_load_roundtrip(self, trained_agent, tmp_path):
        prefix = str(tmp_path / "agent")
        trained_agent.save(prefix)
        fresh = FloorplanAgent(config=tiny_config(seed=123))
        fresh.load(prefix)
        ckt = get_circuit("ota_small")
        a = trained_agent.solve(ckt)
        b = fresh.solve(ckt)
        assert a.reward == pytest.approx(b.reward)
        assert [(r.x, r.y) for r in a.rects] == [(r.x, r.y) for r in b.rects]
