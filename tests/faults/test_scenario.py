"""The fault-scenario engine: determinism, passthrough, and behaviour."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.errors import InvalidParameterError
from repro.faults import (
    ClockJump,
    DriftOnset,
    Duplication,
    FaultScenario,
    LossRegime,
    Partition,
    Reordering,
    ScenarioEngine,
    Stall,
    windowed_suspicion,
)
from repro.metrics.transitions import SUSPECT
from repro.net.delays import ExponentialDelay
from repro.sim.batch import run_crash_runs_batched
from repro.sim.runner import (
    SimulationConfig,
    run_crash_runs,
    run_failure_free,
    run_failure_free_parallel,
)
from repro.telemetry import runtime

ETA = 1.0
DELTA = 0.6


def config(horizon=400.0, seed=11, loss=0.05, scenario=None):
    return SimulationConfig(
        eta=ETA,
        delay=ExponentialDelay(0.02),
        loss_probability=loss,
        horizon=horizon,
        warmup=DELTA + ETA,
        seed=seed,
        scenario=scenario,
    )


def nfds():
    return NFDS(eta=ETA, delta=DELTA)


EVENTS = [
    Partition(start=60.0, duration=10.0),
    Stall(start=100.0, duration=5.0),
    Duplication(start=140.0, duration=40.0, probability=0.4, lag=0.5,
                jitter=0.3),
    Reordering(start=200.0, duration=40.0, probability=0.3, extra_delay=2.0),
    LossRegime(time=260.0, loss_probability=0.2),
    LossRegime(time=300.0, loss_probability=0.05),
    ClockJump(time=340.0, offset=0.2, target="sender"),
    DriftOnset(time=360.0, drift=1e-4, target="sender"),
]


def trace_fingerprint(result):
    return [
        (t.time, t.kind.new_output) for t in result.trace.transitions
    ]


class TestFaultFreePassthrough:
    def test_none_scenario_bit_identical_to_plain_runner(self):
        """An empty scenario wraps the link and installs an engine but
        changes no draw: the one runner gives the ``scenario=None`` run."""
        plain = run_failure_free(nfds, config(), run_index=2)
        empty = run_failure_free(
            nfds, config(scenario=FaultScenario(())), run_index=2
        )
        assert empty.heartbeats_sent == plain.heartbeats_sent
        assert empty.heartbeats_delivered == plain.heartbeats_delivered
        assert trace_fingerprint(empty) == trace_fingerprint(plain)
        assert np.array_equal(
            empty.accuracy.tmr_samples, plain.accuracy.tmr_samples
        )
        assert np.array_equal(
            empty.accuracy.tm_samples, plain.accuracy.tm_samples
        )
        assert empty.accuracy.query_accuracy == plain.accuracy.query_accuracy
        for result in (plain, empty):
            assert result.fault_windows == ()
            assert result.partition_dropped == 0
            assert result.duplicated == result.reordered == 0
        crashes = [
            run_crash_runs(
                nfds, config(scenario=scenario), n_runs=4, settle_time=10.0
            )
            for scenario in (None, FaultScenario(()))
        ]
        assert np.array_equal(
            crashes[0].detection_times, crashes[1].detection_times
        )


class TestDeterminism:
    @given(
        order=st.permutations(list(range(len(EVENTS)))),
    )
    @settings(max_examples=8, deadline=None)
    def test_event_interleaving_is_irrelevant(self, order):
        """Same seed + same event *set* ⇒ bit-identical trace, whatever
        order the script listed the events in."""
        canonical = FaultScenario(EVENTS)
        permuted = FaultScenario([EVENTS[i] for i in order])
        assert permuted.events == canonical.events
        a = run_failure_free(nfds, config(scenario=canonical))
        b = run_failure_free(nfds, config(scenario=permuted))
        assert trace_fingerprint(a) == trace_fingerprint(b)
        assert a.duplicated == b.duplicated
        assert a.reordered == b.reordered
        assert a.fault_windows == b.fault_windows

    def test_replay_is_bit_identical(self):
        scenario = FaultScenario(EVENTS)
        a = run_failure_free(nfds, config(scenario=scenario))
        b = run_failure_free(nfds, config(scenario=scenario))
        assert trace_fingerprint(a) == trace_fingerprint(b)
        assert np.array_equal(
            a.accuracy.tmr_samples, b.accuracy.tmr_samples
        )

    def test_parallel_fanout_matches_serial(self):
        scenario = FaultScenario(EVENTS)
        serial = run_failure_free_parallel(
            nfds, config(scenario=scenario), 5, jobs=1
        )
        fanned = run_failure_free_parallel(
            nfds, config(scenario=scenario), 5, jobs=3, chunk_size=1
        )
        for a, b in zip(serial, fanned):
            assert trace_fingerprint(a) == trace_fingerprint(b)
            assert np.array_equal(
                a.accuracy.tmr_samples, b.accuracy.tmr_samples
            )
            assert a.duplicated == b.duplicated
            assert a.reordered == b.reordered

    def test_faults_only_perturb_fault_draws(self):
        """A duplication window must not shift the base link's
        loss/delay stream: heartbeat fates outside the window match the
        fault-free run exactly."""
        scenario = FaultScenario(
            [Duplication(start=50.0, duration=20.0, probability=1.0,
                         lag=0.1)]
        )
        plain = run_failure_free(nfds, config(), run_index=0)
        faulted = run_failure_free(
            nfds, config(scenario=scenario), run_index=0
        )
        # Same number of heartbeats offered; extra deliveries are the
        # duplicates only.
        assert faulted.heartbeats_sent == plain.heartbeats_sent
        assert faulted.duplicated > 0
        assert (
            faulted.heartbeats_delivered
            == plain.heartbeats_delivered + faulted.duplicated
        )


class TestBehaviour:
    def test_partition_forces_suspicion(self):
        scenario = FaultScenario([Partition(start=100.0, duration=20.0)])
        result = run_failure_free(nfds, config(scenario=scenario))
        [(window, fraction)] = windowed_suspicion(
            result.trace, result.fault_windows
        )
        assert window.kind == "partition"
        # Detection lag is at most T_D^U = delta + eta, so at least
        # (duration - 1.6)/duration of the window is spent suspecting.
        assert fraction >= (20.0 - DELTA - ETA) / 20.0 - 1e-9
        assert result.partition_dropped == 20

    def test_crash_runs_honour_the_scenario(self):
        """A scenario on the config reaches crash runs too: a partition
        across the whole crash window has the detector suspecting when
        the crash lands (``T_D`` clamps to 0), where the plain runs
        detect after it; the batched entry point takes the event path."""
        partition = FaultScenario([Partition(start=180.0, duration=30.0)])
        cfg = config(scenario=partition)  # crashes in [200, 201)
        plain = run_crash_runs(nfds, config(), n_runs=6, settle_time=10.0)
        faulted = run_crash_runs(nfds, cfg, n_runs=6, settle_time=10.0)
        assert np.array_equal(faulted.crash_times, plain.crash_times)
        assert np.all(plain.detection_times > 0.0)
        assert np.all(faulted.detection_times == 0.0)
        batched = run_crash_runs_batched(nfds, cfg, n_runs=6, settle_time=10.0)
        assert np.array_equal(
            batched.detection_times, faulted.detection_times
        )

    def test_stall_longer_than_bound_causes_suspicion(self):
        scenario = FaultScenario([Stall(start=100.0, duration=6.0)])
        result = run_failure_free(nfds, config(scenario=scenario))
        [(_, fraction)] = windowed_suspicion(
            result.trace, result.fault_windows
        )
        assert fraction > 0.5
        # The deferred slot fires at the window end; later slots are
        # back on schedule, so the detector recovers.
        assert result.trace.output_at(110.0) != SUSPECT

    def test_backward_sender_jump_breaks_nfds_but_not_nfde(self):
        """A sender clock step larger than delta permanently violates
        NFD-S's synchronized-clock assumption; NFD-E's arrival-time
        estimator re-converges."""
        scenario = FaultScenario(
            [ClockJump(time=200.0, offset=-3.0, target="sender")]
        )
        broken = run_failure_free(nfds, config(scenario=scenario))
        assert broken.trace.output_at(390.0) == SUSPECT
        adaptive = run_failure_free(
            lambda: NFDE(eta=ETA, alpha=DELTA - 0.02, window=32),
            config(scenario=scenario),
        )
        assert adaptive.trace.output_at(390.0) != SUSPECT

    def test_loss_regime_shift_opens_link_epoch(self):
        from repro.faults.links import FaultyLink
        from repro.net.link import LossyLink
        from repro.sim.engine import Simulator

        sim = Simulator()
        base = LossyLink(
            ExponentialDelay(0.02), loss_probability=0.0,
            rng=np.random.default_rng(3),
        )
        link = FaultyLink(base, np.random.default_rng(4))
        scenario = FaultScenario(
            [LossRegime(time=10.0, loss_probability=0.9)]
        )
        ScenarioEngine(sim, scenario, link).install()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda t=t: link.transmit(0, t))
        post = [11.0, 12.0, 13.0, 14.0]
        for t in post:
            sim.schedule_at(t, lambda t=t: link.transmit(0, t))
        sim.run_until(20.0)
        # The regime shift opens a fresh LinkStats epoch: the current
        # rate reflects only post-shift traffic (all drops happened
        # there), the lifetime totals span both regimes.
        dropped = base.stats.dropped
        assert base.loss_probability == pytest.approx(0.9)
        assert base.stats.empirical_loss_rate == pytest.approx(
            dropped / len(post)
        )
        assert base.stats.offered == 3 + len(post)

    def test_telemetry_emits_fault_series(self):
        scenario = FaultScenario(
            [Partition(start=50.0, duration=10.0)], name="tele"
        )
        with runtime.enabled() as registry:
            run_failure_free(nfds, config(scenario=scenario))
            snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert any(
            key.startswith("fault_events_total")
            and 'kind="partition"' in key
            and 'scenario="tele"' in key
            for key in counters
        )
        assert any(
            key.startswith("fault_active") for key in snapshot["gauges"]
        )


class TestEngineValidation:
    def test_clock_fault_requires_faultable_clock(self):
        from repro.net.clocks import PerfectClock
        from repro.sim.engine import Simulator

        scenario = FaultScenario(
            [ClockJump(time=10.0, offset=1.0, target="sender")]
        )
        with pytest.raises(InvalidParameterError):
            ScenarioEngine(
                Simulator(), scenario, link=None,
                sender_clock=PerfectClock(),
            )

    def test_install_rejects_past_events(self):
        from repro.faults.links import FaultyLink
        from repro.net.link import LossyLink
        from repro.sim.engine import Simulator

        sim = Simulator()
        sim.schedule_at(50.0, lambda: None)
        sim.run_until(50.0)
        link = FaultyLink(
            LossyLink(ExponentialDelay(0.02), rng=np.random.default_rng(0)),
            np.random.default_rng(1),
        )
        scenario = FaultScenario(
            [LossRegime(time=10.0, loss_probability=0.5)]
        )
        engine = ScenarioEngine(sim, scenario, link)
        with pytest.raises(InvalidParameterError):
            engine.install()

    def test_event_validation(self):
        with pytest.raises(InvalidParameterError):
            Partition(start=-1.0, duration=5.0)
        with pytest.raises(InvalidParameterError):
            Partition(start=0.0, duration=0.0)
        with pytest.raises(InvalidParameterError):
            Duplication(start=0.0, duration=1.0, probability=1.5)
        with pytest.raises(InvalidParameterError):
            ClockJump(time=1.0, offset=1.0, target="p")
        with pytest.raises(InvalidParameterError):
            DriftOnset(time=1.0, drift=-1.0)
        with pytest.raises(InvalidParameterError):
            LossRegime(time=math.inf, loss_probability=0.1)
        with pytest.raises(InvalidParameterError):
            FaultScenario(["not an event"])


class TestServiceWiring:
    def test_monitor_service_scenario_isolated_per_process(self):
        from repro.service.monitor_service import MonitorService
        from repro.sim.engine import Simulator

        sim = Simulator()
        service = MonitorService(sim, seed=5)
        scenario = FaultScenario([Partition(start=40.0, duration=15.0)])
        service.add_process(
            "faulty", nfds(), eta=ETA, delay=ExponentialDelay(0.02),
            loss_probability=0.05, scenario=scenario,
        )
        service.add_process(
            "healthy", nfds(), eta=ETA, delay=ExponentialDelay(0.02),
            loss_probability=0.05,
        )
        service.start()
        sim.run_until(100.0)
        faulty = service.process("faulty")
        assert faulty.scenario_engine is not None
        windows = faulty.scenario_engine.timeline.windows
        assert [w.kind for w in windows] == ["partition"]
        traces = service.finish()
        [(w, fraction)] = windowed_suspicion(
            traces[("faulty", 0)], windows
        )
        assert fraction > 0.8
        [(_, healthy_fraction)] = windowed_suspicion(
            traces[("healthy", 0)], windows
        )
        assert healthy_fraction < 0.2
