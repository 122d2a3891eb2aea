"""Tests for attaching custom transports to the runner and the service."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nfd_s import NFDS
from repro.errors import InvalidParameterError
from repro.net.delays import ExponentialDelay
from repro.net.link import LossyLink
from repro.net.wan import RoutedWanLink, WanNetwork, WanTopology
from repro.service import MonitorService
from repro.sim.engine import Simulator
from repro.sim.runner import (
    SimulationConfig,
    run_failure_free,
    run_failure_free_parallel,
)


def wan_link_factory(horizon=4000.0):
    t = WanTopology()
    for s in ("A", "B", "C"):
        t.add_site(s)
    t.add_link("A", "B", ExponentialDelay(0.02), loss=0.03)
    t.add_link("B", "C", ExponentialDelay(0.01), loss=0.02)

    def factory(rng: np.random.Generator) -> RoutedWanLink:
        return RoutedWanLink(WanNetwork(t, rng, horizon=horizon), "A", "C")

    composite, loss, _ = t.compose_route("A", "C")
    return factory, composite, loss


class TestRunnerLinkFactory:
    def config(self, factory, composite, loss, horizon=1500.0):
        return SimulationConfig(
            eta=1.0,
            delay=composite,
            loss_probability=loss,
            horizon=horizon,
            warmup=5.0,
            seed=7,
            link_factory=factory,
        )

    def test_factory_builds_the_run_link(self):
        factory, composite, loss = wan_link_factory()
        seen = []

        def recording(rng):
            link = factory(rng)
            seen.append(link)
            return link

        config = self.config(recording, composite, loss)
        result = run_failure_free(lambda: NFDS(eta=1.0, delta=1.0), config)
        assert len(seen) == 1
        assert seen[0].stats.offered == result.heartbeats_sent
        # The relayed loss rate converges to the composite.
        assert result.empirical_loss_rate == pytest.approx(loss, rel=0.35)

    def test_default_path_still_builds_lossy_link(self):
        config = SimulationConfig(
            eta=1.0,
            delay=ExponentialDelay(0.02),
            loss_probability=0.0,
            horizon=50.0,
            seed=1,
        )
        result = run_failure_free(lambda: NFDS(eta=1.0, delta=1.0), config)
        # Lossless, so at most the final heartbeat (still in flight when
        # the horizon ends) can be missing.
        assert result.heartbeats_sent - result.heartbeats_delivered <= 1

    def test_parallel_matches_serial_with_factory(self):
        factory, composite, loss = wan_link_factory()
        config = self.config(factory, composite, loss, horizon=400.0)
        serial = run_failure_free_parallel(
            lambda: NFDS(eta=1.0, delta=1.0), config, 3, jobs=1
        )
        fanned = run_failure_free_parallel(
            lambda: NFDS(eta=1.0, delta=1.0), config, 3, jobs=2, chunk_size=1
        )
        for a, b in zip(serial, fanned):
            assert a.heartbeats_delivered == b.heartbeats_delivered
            assert np.array_equal(
                a.accuracy.tmr_samples, b.accuracy.tmr_samples
            )


class TestServiceLinkAttachment:
    def test_pre_built_link_drives_the_pipeline(self):
        sim = Simulator()
        svc = MonitorService(sim, seed=11)
        factory, composite, loss = wan_link_factory(horizon=300.0)
        link = factory(np.random.default_rng(11))
        proc = svc.add_process(
            "wan-process",
            NFDS(eta=1.0, delta=1.0),
            eta=1.0,
            link=link,
        )
        assert proc.link is link
        svc.start()
        sim.run_until(200.0)
        assert link.stats.offered > 150

    def test_delay_and_link_are_mutually_exclusive(self):
        sim = Simulator()
        svc = MonitorService(sim, seed=0)
        link = LossyLink(ExponentialDelay(0.02), rng=np.random.default_rng(0))
        with pytest.raises(InvalidParameterError):
            svc.add_process(
                "p",
                NFDS(eta=1.0, delta=1.0),
                eta=1.0,
                delay=ExponentialDelay(0.02),
                link=link,
            )
        with pytest.raises(InvalidParameterError):
            svc.add_process("p", NFDS(eta=1.0, delta=1.0), eta=1.0)

    def test_scenario_wraps_a_provided_link(self):
        from repro.faults import FaultScenario, Partition

        sim = Simulator()
        svc = MonitorService(sim, seed=2)
        factory, _, _ = wan_link_factory(horizon=300.0)
        link = factory(np.random.default_rng(2))
        proc = svc.add_process(
            "wan-process",
            NFDS(eta=1.0, delta=1.0),
            eta=1.0,
            link=link,
            scenario=FaultScenario([Partition(start=50.0, duration=20.0)]),
        )
        svc.start()
        sim.run_until(100.0)
        # The FaultyLink wrapper cut the underlying relay during the
        # window: those heartbeats never reached the base link.
        assert proc.link.base is link
        assert proc.link.stats.dropped >= 15
