"""Tests for contract-driven registration and crash-recovery incarnations."""

from __future__ import annotations

import pytest

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.errors import QoSUnachievableError
from repro.metrics.qos import QoSRequirements
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.service.contracts import (
    detector_for_contract,
    detector_for_contract_unsync,
)
from repro.service.membership import GroupMembership
from repro.service.monitor_service import MonitorService
from repro.sim.engine import Simulator

CONTRACT = QoSRequirements(5.0, 10_000.0, 2.0)


class TestDetectorForContract:
    def test_builds_nfds_with_configured_params(self):
        c = detector_for_contract(CONTRACT, 0.01, ExponentialDelay(0.02))
        assert isinstance(c.detector, NFDS)
        assert c.detector.eta == pytest.approx(c.eta)
        assert c.detector.detection_time_bound <= 5.0 + 1e-9
        assert "NFD-S" in c.description

    def test_unachievable_propagates(self):
        with pytest.raises(QoSUnachievableError):
            detector_for_contract(
                QoSRequirements(1.0, 100.0, 1.0), 0.0, ConstantDelay(10.0)
            )

    def test_unsync_builds_nfde(self):
        c = detector_for_contract_unsync(5.0, 10_000.0, 2.0, 0.01, 4e-4)
        assert isinstance(c.detector, NFDE)
        assert c.detector.alpha + c.eta == pytest.approx(5.0)


class TestContractRegistration:
    def test_contract_process_meets_detection_bound(self):
        sim = Simulator()
        svc = MonitorService(sim, seed=3)
        # The Section 4 configurator picks the NFD-S and its heartbeat
        # rate together from the contract and the link's behaviour.
        delay = ExponentialDelay(0.02)
        configured = detector_for_contract(CONTRACT, 0.01, delay)
        proc = svc.add_process(
            "node",
            configured.detector,
            eta=configured.eta,
            delay=delay,
            loss_probability=0.01,
        )
        svc.start()
        sim.run_until(60.0)
        assert svc.output("node") == "T"
        svc.crash("node")
        crash_time = sim.now
        sim.run_until(crash_time + 20.0)
        trace = proc.host._trace  # noqa: SLF001 - test introspection
        final_s = trace.s_transition_times[-1]
        assert final_s - crash_time <= CONTRACT.detection_time_upper + 1e-9


class TestIncarnations:
    def test_restart_bumps_incarnation_and_rejoins(self):
        sim = Simulator()
        svc = MonitorService(sim, seed=5)
        svc.add_process(
            "db",
            NFDS(eta=1.0, delta=0.5),
            eta=1.0,
            delay=ConstantDelay(0.1),
        )
        membership = GroupMembership(svc)
        svc.start()
        sim.run_until(10.0)
        assert "db" in membership.view

        svc.crash("db")
        sim.run_until(20.0)
        assert "db" not in membership.view

        proc = svc.restart_process(
            "db",
            NFDS(eta=1.0, delta=0.5),
            eta=1.0,
            delay=ConstantDelay(0.1),
        )
        assert proc.incarnation == 1
        assert not proc.crashed
        sim.run_until(40.0)
        assert "db" in membership.view
        assert svc.output("db") == "T"

    def test_restart_while_still_trusted_forces_leave_then_join(self):
        """Replacing a live incarnation publishes S then the new T."""
        sim = Simulator()
        svc = MonitorService(sim, seed=6)
        svc.add_process(
            "node",
            NFDS(eta=1.0, delta=0.5),
            eta=1.0,
            delay=ConstantDelay(0.1),
        )
        membership = GroupMembership(svc)
        svc.start()
        sim.run_until(10.0)
        changes_before = membership.view_change_count
        svc.restart_process(
            "node",
            NFDS(eta=1.0, delta=0.5),
            eta=1.0,
            delay=ConstantDelay(0.1),
        )
        sim.run_until(25.0)
        assert membership.view_change_count >= changes_before + 2
        assert "node" in membership.view
