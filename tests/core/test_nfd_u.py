"""Tests for NFD-U (Fig. 9)."""

from __future__ import annotations

import pytest

from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU
from repro.errors import InvalidParameterError
from repro.metrics.transitions import SUSPECT, TRUST, TransitionKind
from repro.net.clocks import SkewedClock
from repro.net.delays import ConstantDelay
from repro.sim.engine import Simulator
from repro.sim.heartbeat import HeartbeatSender
from repro.sim.monitor import DetectorHost
from repro.net.link import LossyLink

import numpy as np


def nfdu(eta=1.0, alpha=0.3, offset=0.2, **kw):
    """NFD-U with known EA_i = i*eta + offset."""
    return NFDU(
        eta=eta,
        alpha=alpha,
        expected_arrival=lambda i: i * eta + offset,
        **kw,
    )


class TestParameters:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            nfdu(eta=0.0)
        with pytest.raises(InvalidParameterError):
            NFDU(eta=1.0, alpha=0.1, expected_arrival=lambda i: i, first_seq=0)

    def test_describe(self):
        assert "NFD-U" in nfdu().describe()


class TestStateMachine:
    def test_initial_suspicion(self, scripted):
        run = scripted(nfdu())
        trace = run.run([], until=5.0)
        assert trace.output_at(0.0) == SUSPECT
        assert trace.output_at(4.9) == SUSPECT

    def test_trust_until_next_freshness_point(self, scripted):
        """Receiving m_1 at its EA trusts until τ_2 = EA_2 + α."""
        run = scripted(nfdu(eta=1.0, alpha=0.3, offset=0.2))
        trace = run.run([(1, 1.2)], until=5.0)
        # τ_2 = 2*1 + 0.2 + 0.3 = 2.5
        assert trace.output_at(1.2) == TRUST
        assert trace.output_at(2.49) == TRUST
        assert trace.output_at(2.5) == SUSPECT

    def test_fresh_chain_keeps_trusting(self, scripted):
        run = scripted(nfdu(eta=1.0, alpha=0.3, offset=0.2))
        msgs = [(i, i + 0.2) for i in range(1, 5)]
        trace = run.run(msgs, until=4.4)
        assert trace.output_at(4.3) == TRUST
        # exactly one T-transition: no flapping
        assert len(trace.transition_times(TransitionKind.T_TRANSITION)) == 1

    def test_stale_on_arrival_stays_suspect(self, scripted):
        """A message arriving after its own next freshness point does not
        restore trust (Fig. 9, line 11 guard)."""
        run = scripted(nfdu(eta=1.0, alpha=0.3, offset=0.2))
        # m_1 arrives at 3.0 > τ_2 = 2.5: stays suspect.
        trace = run.run([(1, 3.0)], until=4.0)
        assert trace.output_at(3.1) == SUSPECT

    def test_old_sequence_ignored(self, scripted):
        run = scripted(nfdu(eta=1.0, alpha=0.3, offset=0.2))
        # m_2 then a late m_1: ℓ stays 2, τ_3 unchanged.
        trace = run.run([(2, 2.2), (1, 2.6)], until=4.0)
        det = run.detector
        assert det.max_seq == 2
        # τ_3 = 3.5; late m_1 must not move it.
        assert det.next_freshness_point == pytest.approx(3.5)
        assert trace.output_at(3.4) == TRUST
        assert trace.output_at(3.5) == SUSPECT

    def test_skipping_sequence_numbers(self, scripted):
        """Losing m_2 entirely: m_3's arrival re-trusts with τ_4."""
        run = scripted(nfdu(eta=1.0, alpha=0.3, offset=0.2))
        trace = run.run([(1, 1.2), (3, 3.2)], until=5.0)
        # Suspect at τ_2=2.5 .. 3.2, then trust until τ_4 = 4.5.
        assert trace.output_at(2.7) == SUSPECT
        assert trace.output_at(3.3) == TRUST
        assert trace.output_at(4.5) == SUSPECT


class TestEquivalenceWithNFDS:
    """With synchronized clocks and EA_i = σ_i + E(D), NFD-U's freshness
    points equal NFD-S's with δ = E(D) + α — their outputs coincide."""

    @pytest.mark.slow
    def test_same_trace_as_nfds(self, rng):
        eta, alpha, mean_delay = 1.0, 0.4, 0.2

        def run_one(detector):
            sim = Simulator()
            link = LossyLink(
                ConstantDelay(0.0001),  # replaced below by scripted delays
                rng=np.random.default_rng(0),
            )
            host = DetectorHost(sim, detector)
            host.start()
            for seq, at in msgs:
                sim.schedule_at(
                    at, lambda s=seq, t=seq * eta: host.deliver(s, t)
                )
            sim.run_until(horizon)
            return host.finish()

        for trial in range(10):
            n = 40
            delays = rng.exponential(mean_delay, n)
            lost = rng.random(n) < 0.1
            msgs = [
                (j, j * eta + float(delays[j - 1]))
                for j in range(1, n + 1)
                if not lost[j - 1]
            ]
            horizon = (n + 1) * eta
            t_u = run_one(
                NFDU(
                    eta=eta,
                    alpha=alpha,
                    expected_arrival=lambda i: i * eta + mean_delay,
                )
            )
            t_s = run_one(NFDS(eta=eta, delta=mean_delay + alpha))
            for t in rng.uniform(eta + mean_delay + alpha, horizon, 50):
                assert t_u.output_at(float(t)) == t_s.output_at(float(t)), (
                    f"trial {trial}, t={t}"
                )


class TestUnsynchronizedClocks:
    def test_works_with_skewed_monitor_clock(self):
        """NFD-U never reads p's clock; a big skew at q is harmless as
        long as EA is expressed in q's clock."""
        eta, alpha, mean_delay, skew = 1.0, 0.4, 0.1, 1000.0
        sim = Simulator()
        q_clock = SkewedClock(skew)
        det = NFDU(
            eta=eta,
            alpha=alpha,
            # EA in q's local clock: real i*eta + E(D), plus skew.
            expected_arrival=lambda i: i * eta + mean_delay + skew,
        )
        host = DetectorHost(sim, det, clock=q_clock)
        link = LossyLink(
            ConstantDelay(mean_delay), rng=np.random.default_rng(3)
        )
        sender = HeartbeatSender(sim, link, eta=eta, deliver=host.deliver)
        host.start()
        sender.start()
        sim.run_until(50.0)
        trace = host.finish()
        # Constant delay exactly at EA: never a mistake after warmup.
        post = [t for t in trace.s_transition_times if t > 2.0]
        assert post == []
        assert trace.output_at(49.0) == TRUST
