"""Telemetry hooks: fastsim kernels, parallel/batch executors.

Two invariants matter everywhere:

* recording must not change any simulation result (bit-identity with
  telemetry on vs off);
* with telemetry disabled, the instrumented paths must record nothing.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro import telemetry
from repro.net.delays import ExponentialDelay
from repro.sim.batch import run_crash_runs_batched
from repro.sim.engine import Simulator
from repro.sim.fastsim import (
    simulate_nfde_fast,
    simulate_nfds_fast,
    simulate_nfdu_fast,
    simulate_sfd_fast,
)
from repro.sim.parallel import parallel_map
from repro.sim.runner import SimulationConfig

FAST_KWARGS = dict(
    eta=1.0,
    loss_probability=0.05,
    delay=ExponentialDelay(0.1),
    seed=3,
    target_mistakes=10**9,
    max_heartbeats=4_000,
    chunk_size=1_000,
)

#: one run of each fastsim kernel, by its ``algorithm`` label
KERNELS = {
    "nfd-s": partial(simulate_nfds_fast, delta=1.0, **FAST_KWARGS),
    "nfd-u": partial(simulate_nfdu_fast, alpha=0.5, **FAST_KWARGS),
    "nfd-e": partial(simulate_nfde_fast, alpha=0.5, window=8, **FAST_KWARGS),
    "sfd": partial(simulate_sfd_fast, timeout=1.2, **FAST_KWARGS),
}


class TestSimulatorTelemetry:
    """The simulator's own event accounting: what it fired, and what it
    still holds (``pending``)."""

    def test_counts_scheduled_and_fired(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: fired.append(sim.now))
        assert sim.pending == 3
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert sim.pending == 0

    def test_cancelled_events_not_fired(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append(1.0))
        sim.schedule_at(2.0, lambda: fired.append(2.0))
        handle.cancel()
        assert sim.pending == 1
        sim.run_until(10.0)
        assert fired == [2.0]


@pytest.mark.parametrize("algorithm", sorted(KERNELS))
class TestFastsimTelemetry:
    def test_records_per_kernel_call(self, algorithm):
        with telemetry.enabled() as reg:
            result = KERNELS[algorithm]()
        labels = {"algorithm": algorithm}
        assert reg.counter("fastsim_runs_total", labels=labels).value == 1
        assert (
            reg.counter("fastsim_heartbeats_total", labels=labels).value
            == result.n_heartbeats
        )
        assert (
            reg.counter("fastsim_mistakes_total", labels=labels).value
            == result.n_mistakes
        )
        hist = reg.histogram("fastsim_run_seconds", labels=labels)
        assert hist.count == 1
        assert hist.sum > 0.0

    def test_results_identical_on_and_off(self, algorithm):
        off = KERNELS[algorithm]()
        with telemetry.enabled():
            on = KERNELS[algorithm]()
        assert np.array_equal(off.s_transition_times, on.s_transition_times)
        assert np.array_equal(off.mistake_durations, on.mistake_durations)
        assert off.suspect_time == on.suspect_time

    def test_disabled_records_nothing(self, algorithm):
        reg = telemetry.MetricsRegistry()
        assert telemetry.active() is None
        KERNELS[algorithm]()
        assert len(reg) == 0


class TestExecutorTelemetry:
    def test_parallel_map_chunk_stats(self):
        with telemetry.enabled() as reg:
            out = parallel_map(lambda x: x * x, list(range(10)), jobs=1)
        assert out == [x * x for x in range(10)]
        assert reg.counter("parallel_items_total").value == 10
        assert reg.counter("parallel_chunks_total").value >= 1
        assert reg.histogram("parallel_chunk_seconds").count >= 1
        assert reg.histogram("parallel_wall_seconds").count == 1

    def test_batched_crash_runs(self, monkeypatch):
        from repro.core.nfd_s import NFDS
        from repro.sim import batch as batch_mod

        config = SimulationConfig(
            eta=1.0,
            delay=ExponentialDelay(0.02),
            loss_probability=0.01,
            horizon=40.0,
            seed=11,
        )
        monkeypatch.setattr(batch_mod, "_BATCH", 4)
        with telemetry.enabled() as reg:
            run_crash_runs_batched(
                lambda: NFDS(eta=1.0, delta=1.0),
                config,
                n_runs=6,
                settle_time=20.0,
            )
        labels = {"kernel": "nfds"}
        assert (
            reg.counter("batch_crash_runs_total", labels=labels).value == 6
        )
        assert (
            reg.counter("batch_crash_batches_total", labels=labels).value
            == 2
        )


class TestRuntimeSwitch:
    def test_enabled_restores_prior_state(self):
        assert telemetry.active() is None
        with telemetry.enabled() as reg:
            assert telemetry.active() is reg
            with telemetry.enabled() as inner:
                assert telemetry.active() is inner
            assert telemetry.active() is reg
        assert telemetry.active() is None

    def test_enable_disable(self):
        reg = telemetry.enable()
        try:
            assert telemetry.active() is reg
            assert telemetry.enable() is reg  # idempotent with no arg
        finally:
            telemetry.disable()
        assert telemetry.active() is None
