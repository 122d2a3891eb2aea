"""Tests for the group-membership layer."""

from __future__ import annotations

import pytest

from repro.core.nfd_s import NFDS
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.service.membership import GroupMembership
from repro.service.monitor_service import MonitorService
from repro.sim.engine import Simulator


def build(names=("a", "b", "c"), seed=0):
    sim = Simulator()
    svc = MonitorService(sim, seed=seed)
    for name in names:
        svc.add_process(
            name,
            NFDS(eta=1.0, delta=0.5),
            eta=1.0,
            delay=ConstantDelay(0.1),
        )
    membership = GroupMembership(svc)
    return sim, svc, membership


class TestViews:
    def test_initial_view_empty(self):
        _, _, m = build()
        assert m.view.view_id == 0
        assert len(m.view) == 0

    def test_processes_join_when_trusted(self):
        sim, svc, m = build()
        svc.start()
        sim.run_until(10.0)
        assert m.view.members == {"a", "b", "c"}
        assert m.view_change_count == 3

    def test_crash_removes_member(self):
        sim, svc, m = build()
        svc.start()
        sim.run_until(10.0)
        svc.crash("b")
        sim.run_until(20.0)
        assert m.view.members == {"a", "c"}
        assert "b" not in m.view
        # a real crash is not a spurious change
        assert m.spurious_change_count == 0

    def test_view_ids_monotone(self):
        sim, svc, m = build()
        events = []
        m.subscribe(events.append)
        svc.start()
        sim.run_until(10.0)
        ids = [0] + [e.view_id for e in events]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_listeners_see_joins_and_leaves(self):
        sim, svc, m = build()
        events = []
        m.subscribe(events.append)
        svc.start()
        sim.run_until(10.0)
        svc.crash("a")
        sim.run_until(20.0)
        joins = [e for e in events if e.joined]
        leaves = [e for e in events if e.left]
        assert {next(iter(e.joined)) for e in joins} == {"a", "b", "c"}
        assert [next(iter(e.left)) for e in leaves] == ["a"]

    def test_spurious_changes_counted(self):
        """A flaky link on a live process causes spurious view changes —
        the cost the QoS contract's T_MR^L bounds."""
        sim = Simulator()
        svc = MonitorService(sim, seed=9)
        svc.add_process(
            "live-but-flaky",
            NFDS(eta=1.0, delta=0.2),
            eta=1.0,
            delay=ExponentialDelay(0.4),
            loss_probability=0.3,
        )
        m = GroupMembership(svc)
        svc.start()
        sim.run_until(300.0)
        assert m.spurious_change_count > 0

    def test_removed_process_leaves_view(self):
        sim, svc, m = build()
        svc.start()
        sim.run_until(10.0)
        svc.remove_process("c")
        assert m.view.members == {"a", "b"}


class TestScheduledCrashAccounting:
    """Regression: a crash *scheduled* for the far future must not
    excuse detector mistakes made while the process is still live."""

    def flaky(self, seed=9):
        sim = Simulator()
        svc = MonitorService(sim, seed=seed)
        svc.add_process(
            "victim",
            NFDS(eta=1.0, delta=0.2),
            eta=1.0,
            delay=ExponentialDelay(0.4),
            loss_probability=0.3,
        )
        membership = GroupMembership(svc)
        svc.start()
        return sim, svc, membership

    def test_far_future_crash_does_not_excuse_mistakes(self):
        # Baseline: same seed with no crash at all.
        sim0, _, m0 = self.flaky()
        sim0.run_until(300.0)
        baseline = m0.spurious_change_count
        assert baseline > 0

        # Identical run, but a crash is scheduled far beyond the
        # horizon.  Every suspicion before crash_time is still a
        # mistake; with the old boolean `crashed` flag this counted 0.
        sim1, svc1, m1 = self.flaky()
        svc1.crash("victim", at_time=1e9)
        sim1.run_until(300.0)
        assert svc1.process("victim").crashed  # scheduled
        assert sim1.now < svc1.process("victim").crash_time  # not yet down
        assert m1.spurious_change_count == baseline

    def test_suspicions_after_crash_time_are_justified(self):
        sim, svc, m = self.flaky()
        events = []
        m.subscribe(events.append)
        svc.crash("victim", at_time=50.0)
        sim.run_until(300.0)
        final_suspicion = max(
            e.time for e in svc.process("victim").events if e.output == "S"
        )
        assert final_suspicion >= 50.0
        # Mistakes before the crash count, the post-crash detection does
        # not: the spurious count must be strictly below the total
        # number of suspicion-driven view changes.
        leaves = sum(1 for e in events if not e.members)
        assert m.spurious_change_count < leaves

    def test_crash_now_still_counts_nothing_spurious_on_clean_link(self):
        sim = Simulator()
        svc = MonitorService(sim, seed=1)
        svc.add_process(
            "solid",
            NFDS(eta=1.0, delta=0.5),
            eta=1.0,
            delay=ConstantDelay(0.1),
        )
        m = GroupMembership(svc)
        svc.start()
        sim.run_until(20.0)
        svc.crash("solid")
        sim.run_until(40.0)
        assert m.spurious_change_count == 0
