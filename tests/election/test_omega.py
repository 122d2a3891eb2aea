"""Unit tests for the Omega elector core and its service adapter."""

from __future__ import annotations

import pytest

from repro.core.nfd_s import NFDS
from repro.election import LeaderEvent, OmegaCore, ServiceElector
from repro.errors import InvalidParameterError
from repro.net.delays import ConstantDelay
from repro.service.monitor_service import MonitorService
from repro.sim.engine import Simulator
from repro.telemetry.registry import MetricsRegistry
from tests.reference import HOSTINGS, hosted


class TestOmegaCore:
    def test_initially_elects_itself(self):
        core = OmegaCore("b", ("a", "c"))
        assert core.leader == "b"
        assert core.trusted == frozenset({"b"})
        assert core.candidates == frozenset({"a", "b", "c"})

    def test_no_self_means_no_initial_leader(self):
        core = OmegaCore(candidates=("a", "b"))
        assert core.leader is None

    def test_elects_smallest_trusted(self):
        core = OmegaCore("c")
        core.on_transition(1.0, "b", "T")
        assert core.leader == "b"
        core.on_transition(2.0, "a", "T")
        assert core.leader == "a"
        core.on_transition(3.0, "b", "S")  # not the leader: no change
        assert core.leader == "a"
        core.on_transition(4.0, "a", "S")
        assert core.leader == "c"

    def test_rejects_bad_output(self):
        core = OmegaCore("a")
        with pytest.raises(InvalidParameterError):
            core.on_transition(1.0, "b", "X")

    def test_own_transitions_cannot_demote_self(self):
        core = OmegaCore("a")
        core.on_transition(1.0, "a", "S")
        assert core.leader == "a"
        assert "a" in core.trusted

    def test_events_record_demotions(self):
        core = OmegaCore("c")
        core.on_transition(1.0, "a", "T")
        core.on_transition(5.0, "a", "S")
        events = core.events
        assert events[0] == LeaderEvent(1.0, "a", "c")
        assert not events[0].is_demotion  # "c" is still trusted
        assert events[1] == LeaderEvent(5.0, "c", "a")
        assert events[1].is_demotion

    def test_reset_is_not_a_demotion(self):
        core = OmegaCore("c")
        core.on_transition(1.0, "a", "T")
        core.reset(2.0)
        assert core.leader == "c"
        assert core.trusted == frozenset({"c"})
        last = core.events[-1]
        assert last.reset
        assert not last.is_demotion

    def test_history_snapshots_every_transition(self):
        """The core's ``(trusted, leader)`` state follows every
        transition, not only leader changes (``events`` logs those)."""
        core = OmegaCore("c")
        core.on_transition(1.0, "a", "T")
        core.on_transition(2.0, "b", "T")  # leader unchanged, still seen
        assert core.trusted == frozenset({"a", "b", "c"})
        assert core.leader == "a"
        assert [e.time for e in core.events] == [1.0]

    def test_subscribe_sees_leader_changes(self):
        seen = []
        core = OmegaCore("c")
        core.subscribe(seen.append)
        core.on_transition(1.0, "a", "T")
        core.on_transition(2.0, "b", "T")  # no leader change: no event
        assert [e.leader for e in seen] == ["a"]

    def test_telemetry_series(self):
        registry = MetricsRegistry()
        core = OmegaCore("c", registry=registry, label="c")
        core.on_transition(1.0, "a", "T")
        core.on_transition(2.0, "a", "S")
        labels = {"elector": "c"}
        assert (
            registry.get("election_leader_changes_total", labels).value == 2
        )
        assert registry.get("election_demotions_total", labels).value == 1
        assert registry.get("election_trusted_candidates", labels).value == 1
        assert registry.get("election_has_leader", labels).value == 1


class TestServiceElector:
    def make(self, engine):
        sim = Simulator()
        service = MonitorService(sim, seed=3)
        for name in ("a", "b"):
            service.add_process(
                name,
                hosted(engine, NFDS(1.0, 0.5)),
                eta=1.0,
                delay=ConstantDelay(0.05),
            )
        elector = ServiceElector(service, "q")
        service.start()
        return sim, service, elector

    @pytest.mark.parametrize("engine", HOSTINGS)
    def test_elects_after_first_heartbeats(self, engine):
        sim, service, elector = self.make(engine)
        assert elector.leader == "q"  # nobody trusted yet but itself
        sim.run_until(5.0)
        assert elector.core.trusted == frozenset({"a", "b", "q"})
        assert elector.leader == "a"

    @pytest.mark.parametrize("engine", HOSTINGS)
    def test_leader_crash_elects_next(self, engine):
        sim, service, elector = self.make(engine)
        sim.run_until(5.0)
        service.crash("a")
        sim.run_until(10.0)
        assert elector.leader == "b"
        # The demotion happened within the NFD-S detection bound.
        demotion = [e for e in elector.events if e.previous == "a"][-1]
        assert demotion.time <= 5.0 + 1.5 + 1e-9

    @pytest.mark.parametrize("engine", HOSTINGS)
    def test_remove_untrusts_via_admin_event(self, engine):
        sim, service, elector = self.make(engine)
        sim.run_until(5.0)
        service.remove_process("a")
        assert "a" not in elector.core.trusted
        assert elector.leader == "b"
