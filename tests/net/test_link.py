"""Tests for the lossy link model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.net.link import LossyLink, MessageRecord


class TestMessageRecord:
    def test_delivered_message(self):
        r = MessageRecord(seq=3, send_time=1.5, delay=0.25)
        assert not r.lost
        assert r.arrival_time == pytest.approx(1.75)

    def test_lost_message(self):
        r = MessageRecord(seq=3, send_time=1.5, delay=math.inf)
        assert r.lost
        assert math.isinf(r.arrival_time)


class TestLossyLink:
    def test_rejects_bad_loss_probability(self, exp_delay):
        with pytest.raises(InvalidParameterError):
            LossyLink(exp_delay, loss_probability=1.0)
        with pytest.raises(InvalidParameterError):
            LossyLink(exp_delay, loss_probability=-0.1)

    def test_lossless_link_delivers_everything(self, rng):
        link = LossyLink(ConstantDelay(0.1), loss_probability=0.0, rng=rng)
        for i in range(100):
            r = link.transmit(i, float(i))
            assert not r.lost
            assert r.delay == pytest.approx(0.1)
        assert link.stats.offered == 100
        assert link.stats.dropped == 0
        assert link.stats.empirical_loss_rate == 0.0

    def test_loss_rate_converges(self, exp_delay, rng):
        link = LossyLink(exp_delay, loss_probability=0.1, rng=rng)
        n = 50_000
        lost = sum(link.transmit(i, 0.0).lost for i in range(n))
        assert lost / n == pytest.approx(0.1, abs=0.01)
        assert link.stats.empirical_loss_rate == pytest.approx(lost / n)

    def test_batch_matches_model(self, rng):
        link = LossyLink(
            ExponentialDelay(0.5), loss_probability=0.05, rng=rng
        )
        delays = np.array([link.transmit(i, 0.0).delay for i in range(100_000)])
        lost = np.isinf(delays)
        assert lost.mean() == pytest.approx(0.05, abs=0.005)
        delivered = delays[~lost]
        assert delivered.mean() == pytest.approx(0.5, rel=0.02)
        assert link.stats.offered == 100_000
        assert link.stats.dropped == int(lost.sum())

    def test_deterministic_with_seed(self, exp_delay):
        a = LossyLink(exp_delay, 0.1, np.random.default_rng(7))
        b = LossyLink(exp_delay, 0.1, np.random.default_rng(7))
        for i in range(100):
            assert a.transmit(i, 0.0).delay == b.transmit(i, 0.0).delay

    def test_set_conditions_changes_future_only(self, rng):
        link = LossyLink(ConstantDelay(0.1), loss_probability=0.0, rng=rng)
        before = link.transmit(1, 0.0)
        link.set_conditions(delay=ConstantDelay(0.5), loss_probability=0.2)
        assert before.delay == pytest.approx(0.1)
        after = [link.transmit(i, 0.0) for i in range(2, 2002)]
        delivered = [r.delay for r in after if not r.lost]
        assert all(d == pytest.approx(0.5) for d in delivered)
        lost_rate = sum(r.lost for r in after) / len(after)
        assert lost_rate == pytest.approx(0.2, abs=0.03)

    def test_set_conditions_validates(self, exp_delay, rng):
        link = LossyLink(exp_delay, rng=rng)
        with pytest.raises(InvalidParameterError):
            link.set_conditions(loss_probability=1.5)


class TestLinkEpochs:
    def test_regime_change_does_not_blend_loss_rates(self, exp_delay, rng):
        """After set_conditions, the empirical rate must track the new
        regime, not the lifetime blend of both."""
        link = LossyLink(exp_delay, loss_probability=0.0, rng=rng)
        for i in range(1000):
            link.transmit(i, 0.0)
        assert link.stats.empirical_loss_rate == 0.0
        link.set_conditions(loss_probability=0.5)
        n_lost = sum(link.transmit(i, 0.0).lost for i in range(1000))
        # Current-epoch rate ≈ 0.5; the lifetime blend would sit near
        # 0.25 and converges to no parameter of either regime.
        assert link.stats.empirical_loss_rate == n_lost / 1000
        assert link.stats.empirical_loss_rate == pytest.approx(0.5, abs=0.06)
        # Lifetime totals still span both epochs.
        assert link.stats.offered == 2000
        assert link.stats.dropped == n_lost
        assert link.stats.delivered == 2000 - n_lost
        assert [e.loss_probability for e in link.stats.epochs] == [0.0, 0.5]

    def test_zero_traffic_epoch_is_replaced(self, exp_delay, rng):
        link = LossyLink(exp_delay, loss_probability=0.1, rng=rng)
        link.set_conditions(loss_probability=0.2)
        link.set_conditions(loss_probability=0.3)
        assert len(link.stats.epochs) == 1
        assert link.stats.current_epoch.loss_probability == 0.3
