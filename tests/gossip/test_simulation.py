"""Tests for the gossip cluster simulation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.gossip.simulation import GossipCluster, run_gossip
from repro.metrics.qos import estimate_accuracy
from repro.metrics.transitions import SUSPECT
from repro.net.delays import ConstantDelay, ExponentialDelay


class TestValidation:
    def test_cluster_parameters(self):
        with pytest.raises(InvalidParameterError):
            GossipCluster(1, 1.0, 5.0, ConstantDelay(0.01), 0.0)
        with pytest.raises(InvalidParameterError):
            GossipCluster(3, 1.0, 5.0, ConstantDelay(0.01), 1.0)

    def test_watch_self_rejected(self):
        c = GossipCluster(3, 1.0, 5.0, ConstantDelay(0.01), 0.0)
        with pytest.raises(InvalidParameterError):
            c.watch("n0", "n0")


class TestFailureFree:
    def test_reliable_cluster_converges_to_trust(self):
        # t_fail = 10 rounds: epidemic dissemination reaches every node
        # far faster, so a reliable cluster never suspects.  (At 6
        # rounds an unlucky random-peer sequence can starve one node of
        # news just long enough — a real gossip property, exercised by
        # test_lossy_cluster_makes_occasional_mistakes instead.)
        r = run_gossip(
            6,
            t_gossip=1.0,
            t_fail=10.0,
            delay=ConstantDelay(0.01),
            loss_probability=0.0,
            horizon=300.0,
            seed=1,
        )
        for trace in r.traces.values():
            acc = estimate_accuracy(trace, warmup=30.0)
            assert acc.n_mistakes == 0
            assert acc.query_accuracy == pytest.approx(1.0)

    def test_message_budget_accounting(self):
        r = run_gossip(
            6,
            t_gossip=2.0,
            t_fail=10.0,
            delay=ConstantDelay(0.01),
            loss_probability=0.0,
            horizon=400.0,
            seed=2,
        )
        assert r.per_process_send_rate == pytest.approx(0.5, rel=0.05)

    def test_lossy_cluster_makes_occasional_mistakes(self):
        r = run_gossip(
            6,
            t_gossip=1.0,
            t_fail=3.0,  # aggressive: staleness only 3 rounds
            delay=ExponentialDelay(0.1),
            loss_probability=0.25,
            horizon=4000.0,
            seed=3,
        )
        total_mistakes = sum(
            estimate_accuracy(t, warmup=50.0).n_mistakes
            for t in r.traces.values()
        )
        assert total_mistakes > 0
        # ... but the output traces remain structurally valid
        for t in r.traces.values():
            assert t.closed


class TestCrash:
    def test_all_observers_detect_a_crash(self):
        r = run_gossip(
            8,
            t_gossip=1.0,
            t_fail=6.0,
            delay=ExponentialDelay(0.05),
            loss_probability=0.05,
            horizon=200.0,
            crash_member="n2",
            crash_time=100.0,
            seed=4,
        )
        assert len(r.detection_times) == 7
        for observer, td in r.detection_times.items():
            assert math.isfinite(td), observer
            # The staleness clock runs from the last *news received*,
            # which may predate the crash by a few gossip rounds — so
            # T_D can undershoot t_fail by that dissemination lag...
            assert td >= 6.0 - 3.0
            # ...and completes within a few gossip rounds above it.
            assert td <= 6.0 + 10.0

    def test_detection_time_grows_with_t_fail(self):
        means = []
        for t_fail in (4.0, 12.0):
            r = run_gossip(
                6,
                t_gossip=1.0,
                t_fail=t_fail,
                delay=ConstantDelay(0.05),
                loss_probability=0.0,
                horizon=200.0,
                crash_member="n1",
                crash_time=80.0,
                seed=5,
            )
            means.append(np.mean(list(r.detection_times.values())))
        # t_fail grew by 8; the mean detection time must track it (minus
        # dissemination-lag noise, which can run to a couple of rounds).
        assert means[1] > means[0] + 4.0

    def test_crashed_node_stops_contributing(self):
        r = run_gossip(
            4,
            t_gossip=1.0,
            t_fail=5.0,
            delay=ConstantDelay(0.05),
            loss_probability=0.0,
            horizon=120.0,
            crash_member="n0",
            crash_time=50.0,
            seed=6,
        )
        for (observer, subject), trace in r.traces.items():
            assert subject == "n0"
            assert trace.current_output == SUSPECT


class TestRunGossipValidation:
    def test_unknown_crash_member_rejected(self):
        with pytest.raises(InvalidParameterError, match="n0..n5"):
            run_gossip(
                6,
                t_gossip=1.0,
                t_fail=5.0,
                delay=ConstantDelay(0.01),
                loss_probability=0.0,
                horizon=50.0,
                crash_member="n9",
                crash_time=10.0,
                seed=0,
            )

    def test_crash_time_at_or_past_horizon_rejected(self):
        for crash_time in (50.0, 80.0):
            with pytest.raises(InvalidParameterError, match="horizon"):
                run_gossip(
                    4,
                    t_gossip=1.0,
                    t_fail=5.0,
                    delay=ConstantDelay(0.01),
                    loss_probability=0.0,
                    horizon=50.0,
                    crash_member="n1",
                    crash_time=crash_time,
                    seed=0,
                )

    def test_crash_time_without_member_rejected(self):
        with pytest.raises(InvalidParameterError, match="crash_member"):
            run_gossip(
                4,
                t_gossip=1.0,
                t_fail=5.0,
                delay=ConstantDelay(0.01),
                loss_probability=0.0,
                horizon=50.0,
                crash_time=10.0,
                seed=0,
            )

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(InvalidParameterError, match="horizon"):
            run_gossip(
                4,
                t_gossip=1.0,
                t_fail=5.0,
                delay=ConstantDelay(0.01),
                loss_probability=0.0,
                horizon=0.0,
                seed=0,
            )


class TestSendRateAccounting:
    def test_rate_uses_alive_node_time_after_crash(self):
        # n0 crashes halfway: it contributes ~horizon/2 of node-time, so
        # the per-process rate stays ~1/t_gossip instead of sagging to
        # ~(n - 0.5)/n of it under the old n*horizon denominator.
        r = run_gossip(
            4,
            t_gossip=1.0,
            t_fail=5.0,
            delay=ConstantDelay(0.05),
            loss_probability=0.0,
            horizon=400.0,
            crash_member="n0",
            crash_time=200.0,
            seed=9,
        )
        assert r.alive_node_time == pytest.approx(3 * 400.0 + 200.0)
        assert r.per_process_send_rate == pytest.approx(1.0, rel=0.05)
        # The old denominator would have shown a ~12% artifact:
        biased = r.messages_sent / (4 * 400.0)
        assert biased < 0.92

    def test_bytes_accounting_nonzero(self):
        r = run_gossip(
            4,
            t_gossip=1.0,
            t_fail=5.0,
            delay=ConstantDelay(0.05),
            loss_probability=0.0,
            horizon=50.0,
            seed=1,
        )
        assert r.bytes_sent > 0


class TestWatchInstrumentation:
    def test_watched_output_requires_a_watch(self):
        """Transitions are recorded, and published, for watched pairs
        only."""
        c = GossipCluster(3, 1.0, 5.0, ConstantDelay(0.05), 0.0, seed=2)
        events = []
        c.subscribe(lambda *event: events.append(event))
        c.start()
        c.sim.schedule_at(20.0, lambda: c.crash("n2"))
        c.sim.run_until(60.0)
        assert c.finish() == {}
        assert events == []

    def test_subscribe_sees_crash_transition(self):
        c = GossipCluster(3, 1.0, 5.0, ConstantDelay(0.05), 0.0, seed=2)
        events = []
        c.subscribe(
            lambda observer, subject, time, output: events.append(
                (observer, subject, time, output)
            )
        )
        c.watch("n0", "n2")
        c.start()
        c.sim.schedule_at(20.0, lambda: c.crash("n2"))
        c.sim.run_until(60.0)
        c.finish()
        s_events = [e for e in events if e[3] == SUSPECT]
        assert s_events, "expected an S transition after the crash"
        observer, subject, time, _ = s_events[-1]
        assert (observer, subject) == ("n0", "n2")
        assert time == c.nodes["n0"].vector["n2"].last_increase + 5.0

    def test_crash_unknown_member_rejected(self):
        c = GossipCluster(3, 1.0, 5.0, ConstantDelay(0.01), 0.0)
        with pytest.raises(InvalidParameterError):
            c.crash("n7")

    def test_set_loss_probability_validated(self):
        with pytest.raises(InvalidParameterError):
            GossipCluster(3, 1.0, 5.0, ConstantDelay(0.01), 1.5)
