"""Tests for the Section 4/5/6 configuration procedures."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.configurator import configure_nfds
from repro.analysis.configurator_nfdu import configure_nfdu
from repro.analysis.configurator_unknown import configure_nfds_unknown
from repro.analysis.chebyshev import nfds_accuracy_bounds
from repro.analysis.feasibility import eta_upper_bound
from repro.analysis.nfds_theory import NFDSAnalysis
from repro.errors import InvalidParameterError, QoSUnachievableError
from repro.metrics.qos import QoSRequirements
from repro.net.delays import ConstantDelay, ExponentialDelay

PAPER_REQ = QoSRequirements(30.0, 2_592_000.0, 60.0)


class TestSection4PaperExample:
    def test_matches_paper_numbers(self):
        cfg = configure_nfds(PAPER_REQ, 0.01, ExponentialDelay(0.02))
        assert cfg.eta == pytest.approx(9.97, abs=0.05)
        assert cfg.delta == pytest.approx(20.03, abs=0.05)
        assert cfg.eta + cfg.delta == pytest.approx(30.0)

    def test_output_satisfies_requirements_exactly(self):
        """Theorem 7 case 1 verified with the exact Theorem 5 formulas."""
        cfg = configure_nfds(PAPER_REQ, 0.01, ExponentialDelay(0.02))
        pred = NFDSAnalysis(
            cfg.eta, cfg.delta, 0.01, ExponentialDelay(0.02)
        ).predict()
        assert pred.detection_time_bound <= 30.0 + 1e-9
        assert pred.e_tmr >= 2_592_000.0 * (1 - 1e-9)
        assert pred.e_tm <= 60.0

    def test_respects_proposition8_ceiling(self):
        cfg = configure_nfds(PAPER_REQ, 0.01, ExponentialDelay(0.02))
        assert cfg.eta <= eta_upper_bound(
            PAPER_REQ, 0.01, ExponentialDelay(0.02)
        )

    def test_unachievable_case(self):
        """All delays exceed T_D^U: Theorem 7 case 2."""
        with pytest.raises(QoSUnachievableError):
            configure_nfds(
                QoSRequirements(1.0, 100.0, 1.0), 0.0, ConstantDelay(5.0)
            )

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            configure_nfds(PAPER_REQ, 1.0, ExponentialDelay(0.02))

    def test_eta_capped_by_detection_bound(self):
        """Very lax accuracy requirements must not push η above T_D^U
        (δ must stay nonnegative)."""
        lax = QoSRequirements(2.0, 0.001, 1e9)
        cfg = configure_nfds(lax, 0.0, ExponentialDelay(0.02))
        assert cfg.eta <= 2.0 + 1e-12
        assert cfg.delta >= -1e-12


class TestSection5PaperExample:
    def test_matches_paper_numbers(self):
        cfg = configure_nfds_unknown(PAPER_REQ, 0.01, 0.02, 0.02)
        assert cfg.eta == pytest.approx(9.71, abs=0.05)
        assert cfg.delta == pytest.approx(20.29, abs=0.05)

    def test_more_conservative_than_section4(self):
        """Not knowing the distribution costs bandwidth: η shrinks."""
        known = configure_nfds(PAPER_REQ, 0.01, ExponentialDelay(0.02))
        d = ExponentialDelay(0.02)
        unknown = configure_nfds_unknown(PAPER_REQ, 0.01, d.mean, d.variance)
        assert unknown.eta <= known.eta

    def test_bounds_certify_requirements(self):
        """Theorem 10 case 1 via the Theorem 9 bounds themselves."""
        cfg = configure_nfds_unknown(PAPER_REQ, 0.01, 0.02, 0.02)
        b = nfds_accuracy_bounds(cfg.eta, cfg.delta, 0.01, 0.02, 0.02)
        assert b.e_tmr_lower >= PAPER_REQ.mistake_recurrence_lower * (1 - 1e-9)
        assert b.e_tm_upper <= PAPER_REQ.mistake_duration_upper * (1 + 1e-9)

    def test_holds_for_any_matching_distribution(self):
        """The whole point of Section 5: the output must satisfy the
        requirements under EVERY distribution with the stated moments.
        (Here: the exponential with matching mean; its variance 4e-4 is
        below the assumed 0.02, which only helps.)"""
        cfg = configure_nfds_unknown(PAPER_REQ, 0.01, 0.02, 0.02)
        pred = NFDSAnalysis(
            cfg.eta, cfg.delta, 0.01, ExponentialDelay(0.02)
        ).predict()
        assert pred.e_tmr >= PAPER_REQ.mistake_recurrence_lower
        assert pred.e_tm <= PAPER_REQ.mistake_duration_upper

    def test_requires_tdu_above_mean(self):
        with pytest.raises(InvalidParameterError):
            configure_nfds_unknown(
                QoSRequirements(0.01, 100.0, 1.0), 0.0, 0.02, 0.0004
            )

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            configure_nfds_unknown(PAPER_REQ, 0.01, -1.0, 0.02)
        with pytest.raises(InvalidParameterError):
            configure_nfds_unknown(PAPER_REQ, 0.01, 0.02, -0.1)


class TestSection6:
    def test_alpha_plus_eta_equals_relative_bound(self):
        cfg = configure_nfdu(30.0, 2_592_000.0, 60.0, 0.01, 0.02)
        assert cfg.eta + cfg.alpha == pytest.approx(30.0)

    def test_equivalent_to_section5_with_mean_removed(self):
        """Section 6 with T_D^u = T_D^U − E(D) must give the same η as
        Section 5 (the formulas coincide under that substitution)."""
        sec5 = configure_nfds_unknown(PAPER_REQ, 0.01, 0.02, 0.02)
        sec6 = configure_nfdu(30.0 - 0.02, 2_592_000.0, 60.0, 0.01, 0.02)
        assert sec6.eta == pytest.approx(sec5.eta, rel=1e-6)
        assert sec6.alpha == pytest.approx(sec5.delta - 0.02, rel=1e-6)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            configure_nfdu(0.0, 100.0, 1.0, 0.0, 0.01)
        with pytest.raises(InvalidParameterError):
            configure_nfdu(1.0, -1.0, 1.0, 0.0, 0.01)
        with pytest.raises(InvalidParameterError):
            configure_nfdu(1.0, 100.0, 1.0, 2.0, 0.01)


@given(
    tdu=st.floats(min_value=0.5, max_value=100.0),
    tmr=st.floats(min_value=1.0, max_value=1e9),
    tm=st.floats(min_value=0.01, max_value=100.0),
    p_l=st.floats(min_value=0.0, max_value=0.5),
    mean=st.floats(min_value=1e-3, max_value=0.2),
)
@settings(max_examples=60, deadline=None)
def test_section4_output_always_certified(tdu, tmr, tm, p_l, mean):
    """Property: whenever Section 4 outputs parameters, the exact
    Theorem 5 QoS of that configuration satisfies the requirements."""
    if tdu <= mean * 2:
        return
    req = QoSRequirements(tdu, tmr, tm)
    delay = ExponentialDelay(mean)
    try:
        cfg = configure_nfds(req, p_l, delay)
    except QoSUnachievableError:
        return
    pred = NFDSAnalysis(cfg.eta, cfg.delta, p_l, delay).predict()
    assert pred.detection_time_bound <= tdu * (1 + 1e-9)
    assert pred.e_tmr >= tmr * (1 - 1e-6)
    assert pred.e_tm <= tm * (1 + 1e-6)


@given(
    tdu=st.floats(min_value=0.5, max_value=50.0),
    tmr=st.floats(min_value=1.0, max_value=1e8),
    tm=st.floats(min_value=0.01, max_value=50.0),
    p_l=st.floats(min_value=0.0, max_value=0.5),
    var=st.floats(min_value=1e-6, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_section6_output_always_certified(tdu, tmr, tm, p_l, var):
    """Property: Section 6's output satisfies the contract according to
    the Theorem 11 bounds (which hold for every distribution)."""
    try:
        cfg = configure_nfdu(tdu, tmr, tm, p_l, var)
    except QoSUnachievableError:
        return
    from repro.analysis.chebyshev import nfdu_accuracy_bounds

    if cfg.alpha <= 0:
        # Degenerate corner: accuracy so lax that eta == T_D^u; the
        # Theorem 11 bounds need alpha > 0 and give nothing here.
        return
    b = nfdu_accuracy_bounds(cfg.eta, cfg.alpha, p_l, var)
    assert cfg.eta + cfg.alpha <= tdu * (1 + 1e-9)
    assert b.e_tmr_lower >= tmr * (1 - 1e-6)
    assert b.e_tm_upper <= tm * (1 + 1e-6)
