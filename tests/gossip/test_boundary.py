"""Regression tests for the suspicion-deadline boundary.

The lazy watch timer in :class:`~repro.gossip.simulation.GossipCluster`
fires at *exactly* ``suspicion_flip_time() = last_increase + t_fail``.
Before the fix, :meth:`GossipNode.suspects` evaluated the strict
difference ``now - last_increase > t_fail`` — false at the fire time —
and the re-arm guard required ``deadline > now`` — also false — so the
suspicion was recorded only at the *next* receive refreshing the
observer (shifting every S transition late by up to the dissemination
lag), or **never**, when the crash left the observer with no further
traffic.  These tests pin the fixed contract: the trace's S transition
lands bit-exactly on ``last_increase + t_fail``, and timer-fire
evaluation agrees with :meth:`GossipNode.suspects` at the deadline.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gossip.node import GossipNode
from repro.gossip.simulation import GossipCluster
from repro.metrics.transitions import SUSPECT, TRUST
from repro.net.delays import ConstantDelay


def _final_s_time(trace):
    assert trace.current_output == SUSPECT
    transitions = trace.transitions
    assert transitions, "expected at least one transition"
    final = transitions[-1]
    assert final.kind.new_output == SUSPECT
    return final.time


class TestSuspectsBoundary:
    """Unit-level: the staleness comparison is closed at the deadline."""

    def _node(self, now_ref):
        return GossipNode(
            "a",
            ["a", "b"],
            t_gossip=1.0,
            t_fail=6.0,
            send=lambda dst, payload: None,
            rng=np.random.default_rng(0),
            now=lambda: now_ref[0],
        )

    def test_closed_at_exact_deadline(self):
        now_ref = [0.0]
        node = self._node(now_ref)
        deadline = node.suspicion_flip_time("b")
        now_ref[0] = math.nextafter(deadline, -math.inf)
        assert not node.suspects("b")
        now_ref[0] = deadline
        assert node.suspects("b"), (
            "suspects() must agree with suspicion_flip_time() at the "
            "deadline itself — the watch timer fires exactly there"
        )

    def test_agrees_with_flip_time_for_awkward_floats(self):
        # A last_increase where the difference form `now - last >
        # t_fail` and the sum form `now >= last + t_fail` can disagree
        # in the last ulp.
        now_ref = [0.1 + 0.2]  # 0.30000000000000004
        node = self._node(now_ref)
        deadline = node.suspicion_flip_time("b")
        now_ref[0] = deadline
        assert node.suspects("b")
        assert "b" in node.suspected_set()


class TestDetectionAtDeadline:
    """Cluster-level: the S transition lands exactly on the deadline."""

    def test_crash_detected_at_last_increase_plus_t_fail(self):
        # Deterministic: constant delay, zero loss, integer crash time.
        # After n2 crashes, its counter never increases again, so every
        # observer's deadline is frozen — detection must land on it
        # bit-exactly, not at the next receive.
        cluster = GossipCluster(
            4,
            t_gossip=1.0,
            t_fail=6.0,
            delay=ConstantDelay(0.25),
            loss_probability=0.0,
            seed=11,
        )
        for observer in ("n0", "n1", "n3"):
            cluster.watch(observer, "n2")
        cluster.start()
        cluster.sim.schedule_at(40.0, lambda: cluster.crash("n2"))
        cluster.sim.run_until(80.0)
        traces = cluster.finish()
        for observer in ("n0", "n1", "n3"):
            trace = traces[(observer, "n2")]
            s_time = _final_s_time(trace)
            expected = (
                cluster.nodes[observer].vector["n2"].last_increase + 6.0
            )
            # Bit-exact: the fire-time evaluation uses the same sum as
            # suspicion_flip_time(), so no float slop is tolerated.
            assert s_time == expected, (observer, s_time, expected)

    def test_silent_observer_still_detects(self):
        # Two nodes: after n1 crashes, n0 receives nothing at all, so
        # the lazy timer is the ONLY path to an S transition.  Pre-fix,
        # the timer fired at the deadline, evaluated false, failed the
        # `deadline > now` re-arm guard, and died — detection never
        # happened (T_D = inf).
        cluster = GossipCluster(
            2,
            t_gossip=1.0,
            t_fail=6.0,
            delay=ConstantDelay(0.25),
            loss_probability=0.0,
            seed=7,
        )
        cluster.watch("n0", "n1")
        cluster.start()
        cluster.sim.schedule_at(30.0, lambda: cluster.crash("n1"))
        cluster.sim.run_until(90.0)
        trace = cluster.finish()[("n0", "n1")]
        s_time = _final_s_time(trace)
        expected = cluster.nodes["n0"].vector["n1"].last_increase + 6.0
        assert s_time == expected
        assert math.isfinite(s_time)

    def test_watch_state_matches_suspects_after_fire(self):
        # Immediately after the deadline fires, the recorded watch
        # output and GossipNode.suspects() must agree.
        cluster = GossipCluster(
            3,
            t_gossip=1.0,
            t_fail=5.0,
            delay=ConstantDelay(0.1),
            loss_probability=0.0,
            seed=3,
        )
        recorded = [SUSPECT]
        cluster.subscribe(lambda obs, subj, time, output: recorded.append(output))
        cluster.watch("n0", "n2")
        cluster.start()
        cluster.sim.schedule_at(20.0, lambda: cluster.crash("n2"))
        probes = []

        def probe():
            probes.append(
                (
                    cluster.sim.now,
                    recorded[-1],
                    cluster.nodes["n0"].suspects("n2"),
                )
            )

        for t in (19.0, 24.0, 26.5, 30.0, 40.0):
            cluster.sim.schedule_at(t, probe)
        cluster.sim.run_until(50.0)
        cluster.finish()
        for now, output, suspects in probes:
            assert (output == SUSPECT) == suspects, (now, output, suspects)
        assert probes[0][1] == TRUST
        assert probes[-1][1] == SUSPECT
