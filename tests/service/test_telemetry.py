"""ServiceTelemetry: online per-process QoS over the monitoring service.

The key acceptance: the per-incarnation online estimators fed from the
service's live event stream must reproduce, at 1e-9 relative tolerance,
what the trace-based estimator computes from the traces the service
retains — including incarnations removed mid-run.
"""

from __future__ import annotations

import math

import pytest

from repro.core.nfd_s import NFDS
from repro.metrics.qos import estimate_accuracy
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.service.membership import GroupMembership
from repro.service.monitor_service import MonitorService
from repro.sim.engine import Simulator
from repro.telemetry import MetricsRegistry, ServiceTelemetry

RTOL = 1e-9

METRIC_NAMES = (
    "e_tmr",
    "e_tm",
    "e_tg",
    "query_accuracy",
    "mistake_rate",
    "e_tfg",
)


def add(svc, name, *, delta=0.5, delay=None, loss=0.0):
    return svc.add_process(
        name,
        NFDS(eta=1.0, delta=delta),
        eta=1.0,
        delay=delay if delay is not None else ConstantDelay(0.1),
        loss_probability=loss,
    )


def assert_estimator_matches_trace(est, trace):
    expected = estimate_accuracy(trace)
    for name in METRIC_NAMES:
        want = getattr(expected, name)
        got = getattr(est, name)
        if isinstance(want, float) and math.isnan(want):
            assert math.isnan(got), name
        else:
            assert got == pytest.approx(want, rel=RTOL, abs=1e-12), name
    assert est.n_mistakes == expected.n_mistakes


def build_flaky(seed=9):
    sim = Simulator()
    svc = MonitorService(sim, seed=seed)
    add(svc, "clean")
    add(svc, "flaky", delta=0.2, delay=ExponentialDelay(0.4), loss=0.3)
    return sim, svc


class TestOnlineEstimators:
    def test_estimators_match_retained_traces(self):
        sim, svc = build_flaky()
        tel = ServiceTelemetry(svc)
        svc.start()
        sim.run_until(200.0)
        estimators = tel.finish()
        traces = svc.finish()
        assert set(estimators) == set(traces)
        for key, est in estimators.items():
            assert_estimator_matches_trace(est, traces[key])

    def test_removed_incarnation_matches_its_retained_trace(self):
        sim, svc = build_flaky()
        tel = ServiceTelemetry(svc)
        svc.start()
        sim.run_until(100.0)
        svc.remove_process("flaky")
        sim.run_until(200.0)
        estimators = tel.finish()
        traces = svc.finish()
        assert ("flaky", 0) in estimators
        flaky_est = estimators[("flaky", 0)]
        assert flaky_est.closed
        assert_estimator_matches_trace(flaky_est, traces[("flaky", 0)])
        # The live process keeps observing to the end.
        assert_estimator_matches_trace(
            estimators[("clean", 0)], traces[("clean", 0)]
        )

    def test_restart_gets_a_fresh_estimator(self):
        sim, svc = build_flaky()
        tel = ServiceTelemetry(svc)
        svc.start()
        sim.run_until(50.0)
        svc.crash("flaky")
        sim.run_until(60.0)
        svc.restart_process(
            "flaky",
            NFDS(eta=1.0, delta=0.2),
            eta=1.0,
            delay=ExponentialDelay(0.4),
            loss_probability=0.3,
        )
        sim.run_until(150.0)
        estimators = tel.finish()
        traces = svc.finish()
        assert ("flaky", 0) in estimators and ("flaky", 1) in estimators
        for key in (("flaky", 0), ("flaky", 1)):
            assert_estimator_matches_trace(estimators[key], traces[key])

    @pytest.mark.parametrize("action", ["remove", "restart"])
    def test_incarnation_ended_before_its_first_transition(self, action):
        sim = Simulator()
        svc = MonitorService(sim, seed=1)
        add(svc, "a")
        add(svc, "b")
        tel = ServiceTelemetry(svc)
        svc.start()
        sim.run_until(0.5)
        if action == "remove":
            svc.remove_process("a")
        else:
            svc.restart_process(
                "a", NFDS(eta=1.0, delta=0.5), eta=1.0, delay=ConstantDelay(0.1)
            )
        sim.run_until(5.0)
        estimators = tel.finish()
        traces = svc.finish()
        assert set(estimators) == set(traces)
        assert_estimator_matches_trace(estimators[("a", 0)], traces[("a", 0)])

    def test_pooled_over_running_service_leaves_stream_open(self):
        sim, svc = build_flaky()
        tel = ServiceTelemetry(svc)
        svc.start()
        sim.run_until(50.0)
        mid = tel.pooled()
        assert 0.0 < mid["query_accuracy"] <= 1.0
        # Pooling mid-run must not close the live estimators.
        assert all(not e.closed for e in tel.estimators.values())
        sim.run_until(200.0)
        estimators = tel.finish()
        traces = svc.finish()
        for key, est in estimators.items():
            assert_estimator_matches_trace(est, traces[key])


class TestRegistrySeries:
    def test_transition_counters_match_traces(self):
        sim, svc = build_flaky()
        reg = MetricsRegistry()
        tel = ServiceTelemetry(svc, registry=reg)
        svc.start()
        sim.run_until(150.0)
        traces = svc.finish()
        n_s = sum(len(t.s_transition_times) for t in traces.values())
        n_t = sum(len(t.t_transition_times) for t in traces.values())
        assert (
            reg.counter(
                "service_transitions_total", labels={"output": "S"}
            ).value
            == n_s
        )
        assert (
            reg.counter(
                "service_transitions_total", labels={"output": "T"}
            ).value
            == n_t
        )

    def test_suspected_gauge_tracks_current_state(self):
        sim, svc = build_flaky(seed=2)
        reg = MetricsRegistry()
        ServiceTelemetry(svc, registry=reg)
        svc.start()
        sim.run_until(150.0)
        gauge = reg.gauge("service_suspected_processes")
        assert gauge.value == len(svc.suspected_set())
        assert gauge.max >= 1  # everything starts suspected

    def test_admin_counter_on_remove(self):
        sim, svc = build_flaky()
        reg = MetricsRegistry()
        ServiceTelemetry(svc, registry=reg)
        svc.start()
        sim.run_until(20.0)
        svc.remove_process("clean")
        assert reg.counter("service_administrative_events_total").value == 1

    def test_membership_series(self):
        sim, svc = build_flaky()
        membership = GroupMembership(svc)
        reg = MetricsRegistry()
        ServiceTelemetry(svc, registry=reg, membership=membership)
        svc.start()
        sim.run_until(200.0)
        assert (
            reg.counter("membership_view_changes_total").value
            == membership.view_change_count
        )
        assert (
            reg.counter("membership_spurious_changes_total").value
            == membership.spurious_change_count
        )
        assert reg.gauge("membership_view_size").value == len(
            membership.view
        )
