"""Tests for the WAN Theorem 5 cross-check."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.nfds_theory import NFDSAnalysis, within_theorem5_band
from repro.errors import InvalidParameterError
from repro.net.delays import ExponentialDelay
from repro.net.wan import (
    WanTopology,
    detection_within_bound,
    predict_route,
    prediction_errors,
)


def topo() -> WanTopology:
    t = WanTopology()
    for s in ("A", "B", "C"):
        t.add_site(s)
    t.add_link("A", "B", ExponentialDelay(0.02), loss=0.03)
    t.add_link("B", "C", ExponentialDelay(0.01), loss=0.02)
    return t


@pytest.fixture(scope="module")
def pred():
    return predict_route(topo(), "A", "C", eta=1.0, delta=0.6)


class TestPredictRoute:
    def test_reduces_to_single_link_analysis(self, pred):
        assert pred.path == ("A", "B", "C")
        assert pred.loss == pytest.approx(1.0 - 0.97 * 0.98)
        assert pred.delay.mean == pytest.approx(0.03)
        direct = NFDSAnalysis(
            eta=1.0,
            delta=0.6,
            loss_probability=pred.loss,
            delay=pred.delay,
        ).predict()
        assert pred.prediction.e_tmr == pytest.approx(direct.e_tmr)
        assert pred.prediction.e_tm == pytest.approx(direct.e_tm)

    def test_detection_bound_is_delta_plus_eta(self, pred):
        assert pred.detection_time_bound == pytest.approx(1.6)

    def test_down_link_prices_the_detour(self):
        t = topo()
        t.add_link("A", "C", ExponentialDelay(0.2), loss=0.001)
        detour = predict_route(
            t,
            "A",
            "C",
            eta=1.0,
            delta=0.6,
            down=frozenset({("A", "B")}),
        )
        assert detour.path == ("A", "C")
        assert detour.loss == pytest.approx(0.001)


class TestBandGate:
    def _samples(self, pred, n=400, seed=0, tmr_shift=1.0, tm_shift=1.0):
        rng = np.random.default_rng(seed)
        p = pred.prediction
        tmr = rng.normal(p.e_tmr * tmr_shift, p.e_tmr * 0.05, n)
        tm = rng.normal(p.e_tm * tm_shift, p.e_tm * 0.05, n)
        return tmr, tm

    def test_consistent_samples_pass(self, pred):
        tmr, tm = self._samples(pred)
        assert within_theorem5_band(pred.prediction, tmr, tm, 0.95)

    def test_shifted_tmr_fails(self, pred):
        tmr, tm = self._samples(pred, tmr_shift=1.5)
        assert not within_theorem5_band(pred.prediction, tmr, tm, 0.95)

    def test_shifted_tm_fails(self, pred):
        tmr, tm = self._samples(pred, tm_shift=0.5)
        assert not within_theorem5_band(pred.prediction, tmr, tm, 0.95)


class TestDetectionGate:
    def test_within_bound_passes(self, pred):
        times = np.array([0.2, 1.1, pred.detection_time_bound])
        assert detection_within_bound(pred, times)

    def test_violation_fails(self, pred):
        assert not detection_within_bound(
            pred, [0.2, pred.detection_time_bound + 0.01]
        )

    def test_undetected_crash_fails(self, pred):
        assert not detection_within_bound(pred, [0.2, np.inf])

    def test_empty_rejected(self, pred):
        with pytest.raises(InvalidParameterError):
            detection_within_bound(pred, [])


class TestPredictionErrors:
    def test_zero_at_the_prediction(self, pred):
        p = pred.prediction
        errors = prediction_errors(pred, [p.e_tmr], [p.e_tm])
        assert errors["e_tmr"] == pytest.approx(0.0, abs=1e-12)
        assert errors["e_tm"] == pytest.approx(0.0, abs=1e-12)
        assert errors["query_accuracy"] == pytest.approx(0.0, abs=1e-9)

    def test_signed_relative_errors(self, pred):
        p = pred.prediction
        errors = prediction_errors(
            pred, [p.e_tmr * 1.2], [p.e_tm * 0.5]
        )
        assert errors["e_tmr"] == pytest.approx(0.2)
        assert errors["e_tm"] == pytest.approx(-0.5)

    def test_empty_rejected(self, pred):
        with pytest.raises(InvalidParameterError):
            prediction_errors(pred, [], [1.0])
