"""Churn: joins, removals, restarts and scheduled crashes mid-run.

A long random schedule of joins, crashes, restarts and removals runs
against the monitoring service; after every quiescent period the
membership view must equal exactly the set of live, monitored
processes — and the view id must keep increasing monotonically.  The
directed tests pin the per-incarnation accounting: removed
incarnations keep their closed traces and replaced detectors stop
ticking.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nfd_s import NFDS
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.service.membership import GroupMembership
from repro.service.monitor_service import MonitorService
from repro.sim.engine import Simulator

ETA, DELTA = 1.0, 0.5
SETTLE = 3 * (ETA + DELTA)  # long enough for joins and detections


def new_detector():
    return NFDS(eta=ETA, delta=DELTA)


@pytest.mark.slow
def test_membership_tracks_truth_under_random_churn():
    rng = np.random.default_rng(20260707)
    sim = Simulator()
    svc = MonitorService(sim, seed=1)
    membership = GroupMembership(svc)
    svc.start()

    live = set()
    ever = 0
    crashed = set()
    last_view_id = 0

    def add(name):
        svc.add_process(
            name,
            new_detector(),
            eta=ETA,
            delay=ConstantDelay(0.05),
        )
        live.add(name)

    for step in range(60):
        action = rng.choice(["join", "crash", "restart", "remove", "wait"])
        if action == "join" or not live:
            ever += 1
            add(f"p{ever}")
        elif action == "crash":
            victim = sorted(live)[int(rng.integers(len(live)))]
            svc.crash(victim)
            live.discard(victim)
            crashed.add(victim)
        elif action == "restart" and crashed:
            name = sorted(crashed)[int(rng.integers(len(crashed)))]
            crashed.discard(name)
            svc.restart_process(
                name,
                new_detector(),
                eta=ETA,
                delay=ConstantDelay(0.05),
            )
            live.add(name)
        elif action == "remove":
            victim = sorted(live)[int(rng.integers(len(live)))]
            svc.remove_process(victim)
            live.discard(victim)
        # Let the system settle, then check the invariants.
        sim.run_until(sim.now + SETTLE)
        assert membership.view.members == frozenset(live), (
            f"step {step}, action {action}"
        )
        assert svc.trusted_set() == frozenset(live)
        assert membership.view.view_id >= last_view_id
        last_view_id = membership.view.view_id

    # With deterministic links no suspicion was ever spurious.
    assert membership.spurious_change_count == 0
    for trace in svc.finish().values():
        assert trace.closed


def flaky_service(seed=7):
    sim = Simulator()
    svc = MonitorService(sim, seed=seed)
    svc.add_process(
        "p",
        NFDS(eta=ETA, delta=0.2),
        eta=ETA,
        delay=ExponentialDelay(0.4),
        loss_probability=0.3,
    )
    return sim, svc


class TestIncarnationAccounting:
    def test_removed_incarnation_trace_retained(self):
        sim, svc = flaky_service()
        svc.start()
        sim.run_until(100.0)
        svc.remove_process("p")
        trace = svc.finish()[("p", 0)]
        assert trace.closed
        assert trace.end_time == 100.0
        sim.run_until(150.0)
        # finish() still reports the departed incarnation.
        assert svc.finish() == {("p", 0): trace}

    def test_restart_keeps_both_incarnation_traces(self):
        sim, svc = flaky_service()
        svc.start()
        sim.run_until(80.0)
        svc.crash("p")
        sim.run_until(90.0)
        svc.restart_process(
            "p",
            NFDS(eta=ETA, delta=0.2),
            eta=ETA,
            delay=ExponentialDelay(0.4),
            loss_probability=0.3,
        )
        sim.run_until(200.0)
        traces = svc.finish()
        assert set(traces) == {("p", 0), ("p", 1)}
        assert traces[("p", 0)].end_time == 90.0
        assert traces[("p", 1)].end_time == 200.0
        # The second incarnation made its own mistakes on the flaky link.
        assert len(traces[("p", 1)].s_transition_times) > 0

    def test_removed_incarnation_mistakes_stay_in_accounting(self):
        sim, svc = flaky_service()
        svc.start()
        sim.run_until(200.0)
        proc = svc.process("p")
        mistakes_before = sum(
            1
            for e in proc.events
            if e.output == "S" and not e.administrative
        )
        assert mistakes_before > 0
        svc.remove_process("p")
        trace = svc.finish()[("p", 0)]
        assert len(trace.s_transition_times) == mistakes_before

    def test_removed_host_timer_chain_is_neutralized(self):
        sim, svc = flaky_service()
        svc.start()
        sim.run_until(50.0)
        svc.remove_process("p")
        live_before = sim.pending
        sim.run_until(500.0)
        # No orphaned freshness-point chain keeps re-arming itself.
        assert sim.pending <= live_before

    def test_listener_isolation_across_incarnations(self):
        sim, svc = flaky_service()
        events = []
        svc.subscribe(events.append)
        svc.start()
        sim.run_until(50.0)
        old_proc = svc.process("p")
        svc.remove_process("p")
        n_old = len(old_proc.events)
        svc.add_process(
            "p",
            NFDS(eta=ETA, delta=0.2),
            eta=ETA,
            delay=ExponentialDelay(0.4),
            loss_probability=0.3,
            incarnation=1,
        )
        sim.run_until(150.0)
        # The old incarnation's event list stopped at its departure.
        assert len(old_proc.events) == n_old
        new_events = [e for e in events if e.time > 50.0]
        assert new_events, "new incarnation produced transitions"
