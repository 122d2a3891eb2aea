"""Hosting identity: engine rows vs per-detector reference hosts.

The SoA engine's hard correctness bar is **bit-identical detector
verdicts** with the :mod:`repro.core` detectors running one per
:class:`~repro.sim.monitor.DetectorHost` — same transition times, same
order, same QoS accounting — under everything the service can throw at
it: lossy links, churn (joins, removals, restarts, scheduled crashes),
skewed and drifting monitor clocks, exact same-instant ties, and
scripted fault scenarios.  Every test here runs the identical seeded
workload once per hosting (``tests/reference.py``) and compares the
full observable record.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveController, AdaptiveNFDE
from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU
from repro.faults.scenario import (
    ClockJump,
    DelayRegime,
    Duplication,
    FaultScenario,
    Partition,
    Reordering,
    Stall,
)
from repro.net.clocks import DriftingClock, SkewedClock
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.net.link import LossyLink
from repro.service.monitor_service import MonitorService
from repro.service.soa import SoAMonitorHost
from repro.sim.engine import Simulator
from repro.sim.heartbeat import HeartbeatSender
from repro.sim.monitor import DetectorHost
from tests.reference import HOSTINGS, active_rows, hosted

ETA = 1.0


def nfds(delta=0.4):
    return NFDS(eta=ETA, delta=delta)


def nfde(alpha=0.25):
    return NFDE(eta=ETA, alpha=alpha, window=6)


def run_dual(drive, *, seed=11):
    """Run ``drive(sim, svc, host)`` once per hosting; return both
    records.  ``host(detector)`` places a plain detector on the hosting
    under test.

    The record is everything an application can observe: the published
    event stream and each incarnation's closed trace.
    """
    records = {}
    for kind in HOSTINGS:
        sim = Simulator()
        svc = MonitorService(sim, seed=seed)
        events = []
        svc.subscribe(
            lambda e: events.append(
                (e.time, e.process, e.output, e.administrative)
            )
        )
        drive(sim, svc, lambda detector: hosted(kind, detector))
        want = DetectorHost if kind == "object" else SoAMonitorHost
        assert all(
            isinstance(svc.process(name).host, want)
            for name in svc.process_names
        ), kind
        traces = {
            key: (
                trace.start_time,
                trace.end_time,
                tuple((t.time, t.kind.name) for t in trace.transitions),
            )
            for key, trace in svc.finish().items()
        }
        records[kind] = (tuple(events), traces)
    return records["object"], records["soa"]


def assert_identical(obj, soa, min_events=1):
    assert obj[0] == soa[0], "published event streams diverged"
    assert obj[1] == soa[1], "incarnation traces diverged"
    assert len(obj[0]) >= min_events, "workload produced no churn"


def test_steady_lossy_population_identical():
    def drive(sim, svc, host):
        for i in range(12):
            svc.add_process(
                f"p{i}",
                host(nfds() if i % 2 else nfde()),
                eta=ETA,
                delay=ExponentialDelay(0.3),
                loss_probability=0.2,
            )
        svc.start()
        sim.run_until(150.0)

    obj, soa = run_dual(drive)
    assert_identical(obj, soa, min_events=50)


def test_random_churn_identical():
    """Joins, removals, restarts and scheduled crashes, with detectors
    joining mid-run (late first_seq) — the full churn surface."""

    def drive(sim, svc, host):
        rng = np.random.default_rng(20260808)
        svc.start()
        live, crashed, ever = set(), set(), 0

        def add(name, incarnation=0):
            svc.add_process(
                name,
                host(nfde()),
                eta=ETA,
                delay=ExponentialDelay(0.25),
                loss_probability=0.15,
                incarnation=incarnation,
            )

        for _ in range(45):
            action = rng.choice(
                ["join", "crash", "restart", "remove", "wait"]
            )
            if action == "join" or not live:
                ever += 1
                add(f"c{ever}")
                live.add(f"c{ever}")
            elif action == "crash":
                victim = sorted(live)[int(rng.integers(len(live)))]
                # Half the crashes are scheduled in the future: the
                # timer wheel must still fire the final suspicion for a
                # sender that dies *later*.
                at = (
                    None
                    if rng.random() < 0.5
                    else sim.now + float(rng.uniform(0.5, 3.0))
                )
                svc.crash(victim, at_time=at)
                live.discard(victim)
                crashed.add(victim)
            elif action == "restart" and crashed:
                name = sorted(crashed)[int(rng.integers(len(crashed)))]
                crashed.discard(name)
                svc.restart_process(
                    name,
                    host(nfde()),
                    eta=ETA,
                    delay=ExponentialDelay(0.25),
                    loss_probability=0.15,
                )
                live.add(name)
            elif action == "remove":
                victim = sorted(live)[int(rng.integers(len(live)))]
                svc.remove_process(victim)
                live.discard(victim)
            sim.run_until(sim.now + float(rng.uniform(1.0, 6.0)))
        sim.run_until(sim.now + 10.0)

    obj, soa = run_dual(drive)
    assert_identical(obj, soa, min_events=60)


def test_remove_process_idempotent_on_both_backends():
    for kind in HOSTINGS:
        sim = Simulator()
        svc = MonitorService(sim, seed=3)
        svc.add_process(
            "p", hosted(kind, nfds()), eta=ETA, delay=ConstantDelay(0.05)
        )
        svc.start()
        sim.run_until(10.0)
        svc.remove_process("p")
        svc.remove_process("p")  # listener double-fire: must be a no-op
        assert set(svc.finish()) == {("p", 0)}


def test_skewed_and_drifting_monitor_clocks_identical():
    def drive(sim, svc, host):
        svc.add_process(
            "sk",
            host(nfds()),
            eta=ETA,
            delay=ExponentialDelay(0.3),
            loss_probability=0.2,
            monitor_clock=SkewedClock(0.37),
        )
        svc.add_process(
            "dr",
            host(nfde()),
            eta=ETA,
            delay=ExponentialDelay(0.3),
            loss_probability=0.2,
            monitor_clock=DriftingClock(skew=0.1, drift=1e-4),
        )
        svc.start()
        sim.run_until(120.0)

    obj, soa = run_dual(drive)
    assert_identical(obj, soa, min_events=20)


@pytest.mark.slow
def test_fault_scenarios_identical():
    """Scripted partitions, delay regimes, duplication, reordering,
    monitor clock jumps and sender stalls — the fault layer drives the
    same violations into both backends."""
    scenario = FaultScenario(
        [
            Partition(start=20.0, duration=4.0),
            DelayRegime(time=40.0, delay=ExponentialDelay(0.6)),
            Duplication(
                start=55.0, duration=10.0, probability=0.5, lag=0.3,
                jitter=0.2,
            ),
            Reordering(
                start=70.0, duration=10.0, probability=0.5,
                extra_delay=1.7,
            ),
            ClockJump(time=85.0, offset=0.8, target="monitor"),
            Stall(start=95.0, duration=2.5),
        ],
        name="gauntlet",
    )

    def drive(sim, svc, host):
        svc.add_process(
            "f1",
            host(nfds()),
            eta=ETA,
            delay=ExponentialDelay(0.2),
            loss_probability=0.1,
            scenario=scenario,
        )
        svc.add_process(
            "f2",
            host(nfde()),
            eta=ETA,
            delay=ExponentialDelay(0.2),
            loss_probability=0.1,
            scenario=scenario,
        )
        svc.start()
        sim.run_until(120.0)

    obj, soa = run_dual(drive)
    assert_identical(obj, soa, min_events=30)


def shared_ea_nfdu():
    """NFD-U on the deterministic ``EA_i = i·η + 1/8`` with ``α = 1/4``:
    every row built here has the float-identical freshness points
    ``τ_i = i·η + 3/8`` — which are also those of ``nfds(0.375)``."""
    return NFDU(
        eta=ETA, alpha=0.25, expected_arrival=lambda i: i * ETA + 0.125
    )


def same_instant_pairs(events):
    """Consecutive published suspicions that share their instant."""
    return sum(
        a[0] == b[0] and a[2] == b[2] == "S" and a[1] != b[1]
        for a, b in zip(events, events[1:])
    )


LOSSY = dict(eta=ETA, delay=ExponentialDelay(0.05), loss_probability=0.3)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mixed_population_same_instant_ties_identical(seed):
    """Suspicions that fall on one instant are published in the order
    the per-detector timers were armed, not in row order: the NFD-U rows
    tie with the ``δ = 3/8`` NFD-S cohort on every freshness point
    (``α + 1/8 = δ``) but re-arm on each receipt, after the cohort's
    timers; the skewed-clock NFD-S row runs its own timer on the second
    cohort's instants."""

    def drive(sim, svc, host):
        svc.add_process("s0", host(nfds(0.375)), **LOSSY)
        svc.add_process("u0", host(shared_ea_nfdu()), **LOSSY)
        svc.add_process("s1", host(nfds(0.375)), **LOSSY)
        svc.add_process("t0", host(nfds(0.875)), **LOSSY)
        svc.add_process(
            "k0",
            host(nfds(0.375)),
            monitor_clock=SkewedClock(0.5),
            **LOSSY,
        )
        svc.add_process("u1", host(shared_ea_nfdu()), **LOSSY)
        svc.add_process("e0", host(nfde()), **LOSSY)
        svc.start()
        sim.run_until(600.0)

    obj, soa = run_dual(drive, seed=seed)
    assert_identical(obj, soa, min_events=1000)
    assert same_instant_pairs(obj[0]) >= 20


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shared_expected_arrival_nfdu_rows_identical(seed):
    """Four NFD-U rows on one ``EA_i`` tie on every freshness point;
    each re-arms on its own receipts, so the tie order changes from
    point to point."""

    def drive(sim, svc, host):
        for i in range(4):
            svc.add_process(f"u{i}", host(shared_ea_nfdu()), **LOSSY)
        svc.start()
        sim.run_until(600.0)

    obj, soa = run_dual(drive, seed=seed)
    assert_identical(obj, soa, min_events=600)
    assert same_instant_pairs(obj[0]) >= 20


def adaptive_nfde(adopted):
    return AdaptiveNFDE(
        eta=ETA,
        initial_alpha=2.0,
        controller=AdaptiveController(3.0, 5_000.0, 1.0),
        reconfig_every=50,
        on_reconfigure=lambda cfg: adopted.append((cfg.eta, cfg.alpha)),
    )


def test_adaptive_nfde_keeps_its_own_host_and_reconfigures():
    """An ``NFDE`` subclass overrides the hooks the engine tables do not
    model, so it is hosted per detector — never as a plain NFD-E row —
    and adopts exactly the reconfigurations of the bare core run."""

    def link():
        return LossyLink(
            ExponentialDelay(0.02),
            loss_probability=0.01,
            rng=np.random.default_rng(3),
        )

    bare_adopted = []
    sim = Simulator()
    bare = adaptive_nfde(bare_adopted)
    bare_host = DetectorHost(sim, bare)
    sender = HeartbeatSender(
        sim, link(), eta=ETA, deliver=bare_host.deliver, origin=ETA
    )
    bare_host.start()
    sender.start()
    sim.run_until(400.0)

    adopted = []
    sim = Simulator()
    svc = MonitorService(sim, seed=3)
    detector = adaptive_nfde(adopted)
    proc = svc.add_process("a", detector, eta=ETA, link=link())
    svc.start()
    sim.run_until(400.0)

    assert isinstance(proc.host, DetectorHost)
    assert svc.soa_engine is None
    assert adopted == bare_adopted and adopted
    assert detector.alpha == bare.alpha == adopted[-1][1] != 2.0
    assert [
        (t.time, t.kind) for t in proc.host.finish().transitions
    ] == [(t.time, t.kind) for t in bare_host.finish().transitions]


def test_soa_engine_is_shared_and_sized_to_population():
    sim = Simulator()
    svc = MonitorService(sim, seed=5)
    for i in range(30):
        svc.add_process(
            f"p{i}", nfds(), eta=ETA, delay=ConstantDelay(0.05)
        )
    svc.start()
    sim.run_until(5.0)
    eng = svc.soa_engine
    assert eng is not None
    assert len(active_rows(eng)) == 30
    # One shared wheel: the cohort keeps a single armed deadline for
    # the whole perfect-clock NFD-S population.
    assert eng.pending_deadlines <= 2
    svc.remove_process("p7")
    assert len(active_rows(eng)) == 29
