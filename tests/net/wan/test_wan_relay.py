"""Tests for hop-by-hop relay forwarding and mid-flight re-routing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.faults import FaultScenario, DelayRegime, LossRegime, Partition
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.net.link import LossyLink
from repro.net.wan import RoutedWanLink, WanNetwork, WanSchedule, WanTopology
from repro.net.wan.topology import pair_key


def single_hop(loss: float = 0.1) -> WanTopology:
    t = WanTopology()
    t.add_site("A")
    t.add_site("B")
    t.add_link("A", "B", ExponentialDelay(0.02), loss=loss)
    return t


def relay_graph() -> WanTopology:
    """A - B - C primary with a slower B - D - C backup for C traffic."""
    t = WanTopology()
    for s in ("A", "B", "C", "D"):
        t.add_site(s)
    t.add_link("A", "B", ConstantDelay(1.0))
    t.add_link("B", "C", ConstantDelay(1.0))
    t.add_link("B", "D", ConstantDelay(2.0))
    t.add_link("D", "C", ConstantDelay(2.0))
    return t


def net(topology, seed=0, horizon=10_000.0, schedule=None) -> WanNetwork:
    return WanNetwork(
        topology, np.random.default_rng(seed), horizon=horizon, schedule=schedule
    )


class TestSingleHopEquivalence:
    def test_bit_identical_to_lossy_link(self):
        """With no congestion and no chains, a one-hop relay consumes
        the stream exactly as LossyLink does — fates match draw for
        draw, not just in law."""
        link = RoutedWanLink(net(single_hop(), seed=42), "A", "B")
        reference = LossyLink(
            ExponentialDelay(0.02),
            loss_probability=0.1,
            rng=np.random.default_rng(42),
        )
        for seq in range(500):
            ours = link.transmit(seq, float(seq))
            theirs = reference.transmit(seq, float(seq))
            assert ours.delay == theirs.delay
            assert ours.lost == theirs.lost
        assert link.stats.offered == 500
        assert link.stats.dropped == reference.stats.dropped

    def test_composite_surface_matches_route(self):
        link = RoutedWanLink(net(single_hop(0.25)), "A", "B")
        assert link.loss_probability == pytest.approx(0.25)

    def test_set_conditions_refused(self):
        link = RoutedWanLink(net(single_hop()), "A", "B")
        with pytest.raises(InvalidParameterError):
            link.set_conditions(loss_probability=0.5)


class TestRoutingUnderPartitions:
    def schedule(self, topology, pair, start, duration):
        return WanSchedule(
            topology,
            {pair: FaultScenario([Partition(start=start, duration=duration)])},
        )

    def test_send_time_partition_routes_around(self):
        t = relay_graph()
        sched = self.schedule(t, ("B", "C"), 10.0, 50.0)
        link = RoutedWanLink(net(t, schedule=sched), "A", "C")
        before = link.transmit(0, 0.0)
        assert before.delay == pytest.approx(2.0)  # A-B-C
        during = link.transmit(1, 20.0)
        assert during.delay == pytest.approx(5.0)  # A-B-D-C
        assert link.route_flips == 1
        after = link.transmit(2, 70.0)
        assert after.delay == pytest.approx(2.0)
        assert link.route_flips == 2
        assert link.reroutes == 0

    def test_mid_flight_cut_forces_reroute(self):
        """The partition starts while the message is crossing A-B: at B
        the planned B-C hop is dark and the message detours via D."""
        t = relay_graph()
        sched = self.schedule(t, ("B", "C"), 1.5, 50.0)
        link = RoutedWanLink(net(t, schedule=sched), "A", "C")
        record = link.transmit(0, 1.0)  # reaches B at 2.0, inside the cut
        assert record.delay == pytest.approx(1.0 + 2.0 + 2.0)
        assert link.reroutes == 1
        assert link.relay_drops == 0
        assert not record.lost

    def test_mid_flight_isolation_drops(self):
        """Both of B's forward links are cut while the message crosses
        A-B: no route remains from the relay site."""
        t = relay_graph()
        sched = WanSchedule(
            t,
            {
                ("B", "C"): FaultScenario([Partition(start=1.5, duration=50.0)]),
                ("B", "D"): FaultScenario([Partition(start=1.5, duration=50.0)]),
            },
        )
        link = RoutedWanLink(net(t, schedule=sched), "A", "C")
        record = link.transmit(0, 1.0)
        assert record.lost
        assert link.no_route_drops == 1
        assert link.reroutes == 1
        assert link.stats.dropped == 1

    def test_send_time_isolation_drops(self):
        t = relay_graph()
        sched = self.schedule(t, ("A", "B"), 0.0, 10.0)
        link = RoutedWanLink(net(t, schedule=sched), "A", "C")
        record = link.transmit(0, 5.0)
        assert record.lost
        assert link.no_route_drops == 1
        assert math.isinf(record.arrival_time)


class TestScheduledRegimes:
    def test_loss_regime_override(self):
        t = single_hop(loss=0.5)
        sched = WanSchedule(
            t,
            {("A", "B"): FaultScenario([LossRegime(time=100.0, loss_probability=0.0)])},
        )
        link = RoutedWanLink(net(t, schedule=sched), "A", "B")
        after = [link.transmit(i, 100.0 + i) for i in range(200)]
        assert sum(r.lost for r in after) == 0  # override pins loss to 0

    def test_delay_regime_override(self):
        t = relay_graph()
        sched = WanSchedule(
            t,
            {("A", "B"): FaultScenario([DelayRegime(time=10.0, delay=ConstantDelay(0.25))])},
        )
        link = RoutedWanLink(net(t, schedule=sched), "A", "C")
        assert link.transmit(0, 0.0).delay == pytest.approx(2.0)
        assert link.transmit(1, 10.0).delay == pytest.approx(0.25 + 1.0)


class TestCongestionShocks:
    def test_episode_scales_hop_delay(self):
        t = WanTopology()
        t.add_site("A")
        t.add_site("B")
        t.add_link("A", "B", ConstantDelay(0.1))
        t.add_congestion([("A", "B")], rate=0.01, mean_duration=10.0, factor=5.0)
        network = net(t, seed=1, horizon=5000.0)
        link = RoutedWanLink(network, "A", "B")
        factors = {
            network.congestion.factor(pair_key("A", "B"), t): t
            for t in np.arange(0.0, 5000.0, 1.0)
        }
        assert set(factors) == {1.0, 5.0}
        inside = link.transmit(0, factors[5.0])
        assert inside.delay == pytest.approx(0.5)
        outside = link.transmit(1, factors[1.0])
        assert outside.delay == pytest.approx(0.1)


class TestBurstyLinks:
    def bursty(self) -> WanTopology:
        t = WanTopology()
        t.add_site("A")
        t.add_site("B")
        t.add_link(
            "A", "B", ConstantDelay(0.01), loss=0.1, burst_length=8.0
        )
        return t

    def test_average_loss_preserved(self):
        link = RoutedWanLink(net(self.bursty(), seed=3), "A", "B")
        n = 30_000
        lost = sum(link.transmit(i, float(i)).lost for i in range(n))
        assert lost / n == pytest.approx(0.1, rel=0.15)

    def test_losses_are_bursty(self):
        link = RoutedWanLink(net(self.bursty(), seed=3), "A", "B")
        fates = [link.transmit(i, float(i)).lost for i in range(30_000)]
        runs = []
        current = 0
        for lost in fates:
            if lost:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        # Geometric sojourns at p_bg=1/8 give mean run length well
        # above the i.i.d. value of ~1.11.
        assert np.mean(runs) > 2.0


class TestDeterminism:
    def complex_topology(self):
        t = relay_graph()
        t.add_congestion([("A", "B")], rate=0.02, mean_duration=5.0, factor=2.0)
        return t

    def test_same_seed_same_fates(self):
        records = []
        for _ in range(2):
            t = self.complex_topology()
            sched = WanSchedule(
                t,
                {("B", "C"): FaultScenario([Partition(start=50.0, duration=25.0)])},
            )
            link = RoutedWanLink(net(t, seed=99, schedule=sched), "A", "C")
            records.append(
                [link.transmit(i, float(i)).delay for i in range(300)]
            )
        assert records[0] == records[1]

    def test_different_seeds_differ(self):
        a = RoutedWanLink(net(single_hop(), seed=1), "A", "B")
        b = RoutedWanLink(net(single_hop(), seed=2), "A", "B")
        fa = [a.transmit(i, float(i)).delay for i in range(200)]
        fb = [b.transmit(i, float(i)).delay for i in range(200)]
        assert fa != fb
