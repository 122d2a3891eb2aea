"""End-to-end tests of the two-level federation."""

from __future__ import annotations

import math

import pytest

from repro.errors import InvalidParameterError
from repro.hierarchy import HierarchicalMonitor, HierarchyConfig
from repro.metrics.transitions import SUSPECT, TRUST
from repro.net.delays import ConstantDelay


def config(**overrides):
    base = dict(
        n_senders=12,
        n_leaves=3,
        eta=1.0,
        delta=1.0,
        sender_delay=ConstantDelay(0.05),
        sender_loss=0.0,
        t_digest=1.0,
        plane_t_fail=8.0,
        plane_delay=ConstantDelay(0.05),
        plane_loss=0.0,
        seed=42,
    )
    base.update(overrides)
    return HierarchyConfig(**base)


def run(hm, horizon):
    hm.start()
    hm.run_until(horizon)
    return hm.finish()


class TestConfigValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidParameterError):
            config(n_senders=0)
        with pytest.raises(InvalidParameterError):
            config(n_leaves=0)
        with pytest.raises(InvalidParameterError):
            config(plane_t_fail=0.5, t_digest=1.0)


class TestFailureFree:
    def test_root_trusts_everyone_after_convergence(self):
        hm = HierarchicalMonitor(config())
        result = run(hm, 60.0)
        assert len(result.root_traces) == 12
        for name, trace in result.root_traces.items():
            assert trace.closed
            # Initial S until the first digest lands, then trusted.
            assert trace.output_at(59.0) == TRUST, name
        assert result.heartbeat_messages > 0
        assert result.plane_messages > 0
        assert result.plane_bytes > 0
        assert math.isnan(result.detection_completeness(60.0))

    def test_sharding_is_balanced(self):
        hm = HierarchicalMonitor(config())
        counts = {}
        for leaf_id in hm.shard_of.values():
            counts[leaf_id] = counts.get(leaf_id, 0) + 1
        assert set(counts.values()) == {4}


class TestCrashDetection:
    def test_single_crash_reaches_the_root(self):
        hm = HierarchicalMonitor(config())
        victim = hm.sender_names[5]
        hm.start()
        hm.crash_sender(victim, at_time=30.0)
        hm.run_until(80.0)
        result = hm.finish()
        td = result.detection_times()[victim]
        assert math.isfinite(td)
        # Leaf detection (eta + delta) + digest publish (<= t_digest)
        # + a few gossip hops; generous upper bound.
        assert td <= hm.config.delta + hm.config.eta + 6 * hm.config.t_digest
        # Everyone else stays trusted.
        for name, trace in result.root_traces.items():
            if name != victim:
                assert trace.output_at(79.0) == TRUST

    def test_mass_failure_detected_completely(self):
        hm = HierarchicalMonitor(config())
        victims = hm.sender_names[::2]  # 50%, across all shards
        hm.start()
        hm.crash_senders(victims, at_time=30.0)
        hm.run_until(90.0)
        result = hm.finish()
        assert result.detection_completeness(89.0) == 1.0
        tds = result.detection_times()
        assert set(tds) == set(victims)
        assert all(math.isfinite(t) for t in tds.values())

    def test_restart_re_trusts_under_new_incarnation(self):
        hm = HierarchicalMonitor(config())
        victim = hm.sender_names[0]
        hm.start()
        hm.crash_sender(victim, at_time=25.0)
        hm.restart_sender(victim, at_time=50.0)
        hm.run_until(100.0)
        result = hm.finish()
        trace = result.root_traces[victim]
        assert trace.output_at(45.0) == SUSPECT  # detected the crash
        assert trace.output_at(99.0) == TRUST  # re-admitted
        # The restart cleared the crash bookkeeping.
        assert victim not in result.crash_times

    def test_scheduled_crash_hits_the_restarted_incarnation(self):
        # Ops scheduled upfront, out of order: crash@20, restart@40,
        # crash@60.  The second crash must resolve at fire time and
        # kill the *restarted* incarnation — a call-time binding would
        # crash the retired one and leave the new sender immortal.
        hm = HierarchicalMonitor(config())
        victim = hm.sender_names[7]
        hm.start()
        hm.crash_sender(victim, at_time=20.0)
        hm.restart_sender(victim, at_time=40.0)
        hm.crash_sender(victim, at_time=60.0)
        hm.run_until(110.0)
        result = hm.finish()
        trace = result.root_traces[victim]
        assert trace.output_at(55.0) == TRUST  # restart re-trusted
        assert trace.output_at(109.0) == SUSPECT  # second crash detected
        assert result.crash_times[victim] == 60.0
        assert math.isfinite(result.detection_times()[victim])

    def test_removed_sender_ends_suspected_not_trusted(self):
        hm = HierarchicalMonitor(config())
        victim = hm.sender_names[3]
        hm.start()
        hm.remove_sender(victim, at_time=30.0)
        hm.run_until(70.0)
        result = hm.finish()
        # Tombstone: upper levels must not keep trusting a ghost.
        assert result.root_traces[victim].output_at(69.0) == SUSPECT


class TestLeafFailureMasking:
    def test_dead_leaf_masks_exactly_its_shard(self):
        hm = HierarchicalMonitor(config())
        dead_leaf = hm.leaf_ids[1]
        shard = [n for n, l in hm.shard_of.items() if l == dead_leaf]
        hm.start()
        # The leaf's digest-plane presence crashes (its gossip falls
        # silent); the root's staleness watch must mask its whole shard.
        hm.sim.schedule_at(30.0, lambda: hm.plane.crash(dead_leaf))
        hm.run_until(80.0)
        result = hm.finish()
        for name, trace in result.root_traces.items():
            expected = SUSPECT if name in shard else TRUST
            assert trace.output_at(79.0) == expected, name
        assert dead_leaf in hm.root.stale_leaves

    def test_unknown_ids_rejected(self):
        hm = HierarchicalMonitor(config())
        with pytest.raises(InvalidParameterError):
            hm.crash_sender("nope")
        with pytest.raises(InvalidParameterError):
            hm.restart_sender("nope")
        with pytest.raises(InvalidParameterError):
            hm.remove_sender("nope")


class TestTraceWellFormedness:
    def test_root_traces_alternate_and_stay_in_range(self):
        hm = HierarchicalMonitor(config(sender_loss=0.1, plane_loss=0.1))
        hm.start()
        hm.crash_sender(hm.sender_names[1], at_time=40.0)
        hm.run_until(120.0)
        result = hm.finish()
        for trace in result.root_traces.values():
            assert trace.closed
            kinds = [t.kind for t in trace.transitions]
            for a, b in zip(kinds, kinds[1:]):
                assert a != b
            times = [t.time for t in trace.transitions]
            assert times == sorted(times)
            assert all(0.0 <= t <= 120.0 for t in times)

    def test_budget_accounting_sums_levels(self):
        hm = HierarchicalMonitor(config())
        result = run(hm, 50.0)
        # Per-process rate over 16 processes (12 senders + 3 leaves +
        # root), both levels pooled: ~12 heartbeats + ~4 digests per
        # unit time.
        assert result.heartbeat_messages > 0 and result.plane_messages > 0
        total = result.heartbeat_messages + result.plane_messages
        rate = total / (16 * result.horizon)
        assert rate == pytest.approx(1.0, rel=0.2)
