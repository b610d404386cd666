"""Tests for the BLAS thread policy (repro.engine.blas and its callers).

Pool workers run one BLAS thread each, whichever start method made them;
a process-backend ``SolveServer`` caps its own process at the cores its
workers leave free and restores the previous count on close; without a
loadable OpenBLAS every entry point is a no-op.
"""

import concurrent.futures
import multiprocessing
import os

import pytest

from repro import obs
from repro.config import TrainConfig
from repro.engine import blas
from repro.engine.blas import blas_threads, set_blas_threads
from repro.engine.executor import _init_worker, cap_blas_threads
from repro.obs.bench import host_fingerprint
from repro.rl import FloorplanAgent
from repro.serve import ServeConfig, ServerThread, SolveClient

requires_openblas = pytest.mark.skipif(
    blas_threads() is None, reason="no OpenBLAS mapped into this process")


@pytest.fixture(autouse=True)
def restore_threads():
    """Every test leaves this process's BLAS thread count as it found it."""
    before = blas_threads()
    yield
    if before is not None:
        set_blas_threads(before)
    obs.disable()
    obs.reset()


@requires_openblas
def test_set_returns_previous_and_reads_back():
    before = blas_threads()
    assert set_blas_threads(1) == before
    assert blas_threads() == 1
    assert set_blas_threads(before) == 1
    assert blas_threads() == before


@requires_openblas
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_pool_workers_run_one_blas_thread(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{method} start method unavailable")
    ctx = multiprocessing.get_context(method)
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=1, mp_context=ctx, initializer=_init_worker,
        initargs=(None,),
    ) as pool:
        assert pool.submit(blas_threads).result(timeout=120) == 1


@requires_openblas
def test_process_server_caps_itself_and_restores_on_close():
    before = blas_threads()
    agent = FloorplanAgent(config=TrainConfig(
        num_envs=2, rollout_steps=16, ppo_epochs=1, minibatch_size=8, seed=0))
    config = ServeConfig(backend="process", workers=1, cache=False)
    with ServerThread(config, agent=agent) as handle:
        assert blas_threads() == before  # no pool yet, no cap
        with SolveClient(handle.address) as client:
            client.solve("ota_small", method="sa", seed=0,
                         config={"moves_per_temperature": 4})
        assert blas_threads() == max(1, (os.cpu_count() or 1) - 1)
    assert blas_threads() == before


@requires_openblas
def test_gauge_records_the_cap_when_telemetry_is_on():
    cap_blas_threads(1)
    assert "blas.threads" not in obs.OBS.registry.gauges
    obs.enable()
    cap_blas_threads(1)
    assert obs.OBS.registry.gauges["blas.threads"] == 1.0


def test_no_library_makes_every_entry_point_a_no_op(monkeypatch):
    monkeypatch.setattr(blas, "_library", lambda: None)
    obs.enable()
    assert blas_threads() is None
    assert blas.blas_library() is None
    assert set_blas_threads(1) is None
    assert cap_blas_threads(1) is None
    assert "blas.threads" not in obs.OBS.registry.gauges
    host = host_fingerprint()
    assert host["blas"] is None and host["blas_threads"] is None


@requires_openblas
def test_host_fingerprint_carries_the_thread_policy():
    set_blas_threads(1)
    host = host_fingerprint()
    assert "openblas" in host["blas"].lower()
    assert host["blas_threads"] == 1
