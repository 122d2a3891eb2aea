"""Tests for the Section 8.1 adaptive machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveController, AdaptiveNFDE
from repro.errors import InvalidParameterError
from repro.estimation.observer import NetworkEstimate
from repro.net.delays import ExponentialDelay
from repro.net.link import LossyLink
from repro.sim.engine import Simulator
from repro.sim.heartbeat import HeartbeatSender
from repro.sim.monitor import DetectorHost


def estimate(p_l=0.01, mean=0.02, var=4e-4, n=100):
    return NetworkEstimate(
        loss_probability=p_l, mean_delay=mean, var_delay=var, n_samples=n
    )


class TestAdaptiveController:
    def test_first_update_always_configures(self):
        c = AdaptiveController(3.0, 10_000.0, 1.0)
        cfg = c.update(estimate())
        assert cfg is not None
        assert cfg.eta + cfg.alpha == pytest.approx(3.0)

    def test_hysteresis_suppresses_noise(self):
        c = AdaptiveController(3.0, 10_000.0, 1.0, hysteresis=0.05)
        first = c.update(estimate(var=4e-4))
        assert first is not None
        # A 1% wiggle in variance shouldn't trigger a reconfiguration.
        again = c.update(estimate(var=4e-4 * 1.01))
        assert again is None

    def test_large_change_reconfigures(self):
        c = AdaptiveController(3.0, 10_000.0, 1.0, hysteresis=0.05)
        calm = c.update(estimate(var=4e-4))
        stormy = c.update(estimate(p_l=0.2, var=0.25))
        assert stormy is not None
        assert stormy.eta < calm.eta  # more bandwidth under worse network

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            AdaptiveController(3.0, 1000.0, 1.0, hysteresis=-0.1)


class TestAdaptiveNFDE:
    def build(self, reconfig_every=50, horizon=300.0, seed=0):
        sim = Simulator()
        controller = AdaptiveController(3.0, 5_000.0, 1.0)
        adopted = []
        det = AdaptiveNFDE(
            eta=1.0,
            initial_alpha=2.0,
            controller=controller,
            reconfig_every=reconfig_every,
            on_reconfigure=adopted.append,
        )
        host = DetectorHost(sim, det)
        link = LossyLink(
            ExponentialDelay(0.02),
            loss_probability=0.01,
            rng=np.random.default_rng(seed),
        )
        sender = HeartbeatSender(sim, link, eta=1.0, deliver=host.deliver)
        host.start()
        sender.start()
        sim.run_until(horizon)
        return det, adopted

    def test_reconfigures_after_enough_heartbeats(self):
        det, adopted = self.build()
        assert len(adopted) >= 1
        assert det.alpha == pytest.approx(adopted[-1].alpha)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            AdaptiveNFDE(
                eta=1.0,
                initial_alpha=1.0,
                controller=AdaptiveController(3.0, 100.0, 1.0),
                reconfig_every=0,
            )

    def test_observer_tracks_network(self):
        det, _ = self.build(horizon=500.0)
        snap = det.observer.snapshot()
        assert snap.mean_delay == pytest.approx(0.02, rel=0.3)
        assert snap.loss_probability == pytest.approx(0.01, abs=0.02)
