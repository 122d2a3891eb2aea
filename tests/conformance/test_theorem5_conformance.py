"""Statistical conformance: simulated NFD-S QoS vs. the Theorem 5 closed form.

These tests treat the vectorized simulator as a measurement instrument
and the exact analysis as ground truth.  Every check is a confidence
interval, not a point tolerance: a fixed seed makes the run repeatable,
and the 99.9% level keeps the false-failure budget negligible even
across the whole matrix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.nfds_theory import NFDSAnalysis, within_theorem5_band
from repro.metrics.confidence import mean_ci
from repro.net.delays import ExponentialDelay
from repro.sim.fastsim import simulate_nfds_fast

LEVEL = 0.999


def _check_conformance(eta, delta, loss, mean_delay, seed, target_mistakes):
    delay = ExponentialDelay(mean_delay)
    prediction = NFDSAnalysis(
        eta=eta, delta=delta, loss_probability=loss, delay=delay
    ).predict()
    result = simulate_nfds_fast(
        eta=eta,
        delta=delta,
        loss_probability=loss,
        delay=delay,
        seed=seed,
        target_mistakes=target_mistakes,
        warmup=delta + eta,
    )
    assert not result.truncated
    assert result.n_mistakes >= target_mistakes

    assert within_theorem5_band(
        prediction, result.tmr_samples, result.mistake_durations, LEVEL
    )
    tmr_ci = mean_ci(result.tmr_samples, level=LEVEL)
    # λ_M = 1/E(T_MR) (Theorem 1), so the same interval bounds the rate.
    assert 1.0 / tmr_ci.high <= prediction.mistake_rate <= 1.0 / tmr_ci.low


class TestTheorem5Conformance:
    def test_nfds_estimates_inside_analytic_cis(self):
        """The E14 operating point: lossy link, short freshness shift."""
        _check_conformance(
            eta=1.0, delta=0.6, loss=0.05, mean_delay=0.02,
            seed=501, target_mistakes=400,
        )

    def test_nfds_conformance_heavier_delay(self):
        """Delays comparable to δ: mistakes driven by late (not just
        lost) heartbeats, exercising the q_0/u_j terms of Theorem 5."""
        _check_conformance(
            eta=1.0, delta=0.6, loss=0.01, mean_delay=0.3,
            seed=502, target_mistakes=400,
        )

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "eta,delta,loss,mean_delay,seed",
        [
            (1.0, 0.6, 0.05, 0.02, 511),
            (1.0, 1.2, 0.10, 0.10, 512),
            (0.5, 0.4, 0.02, 0.05, 514),
        ],
    )
    def test_nfds_conformance_matrix(self, eta, delta, loss, mean_delay, seed):
        _check_conformance(
            eta=eta, delta=delta, loss=loss, mean_delay=mean_delay,
            seed=seed, target_mistakes=3000,
        )


class TestFaultPipelineConformance:
    def test_zero_intensity_rows_pass_ci_check(self):
        """The E14a driver at zero fault intensity (i.i.d. channel run
        through the full fault pipeline) must agree with Theorem 5 —
        this is the end-to-end version of the checks above."""
        from repro.experiments.fault_sensitivity import burst_sweep_table

        table = burst_sweep_table(
            burst_lengths=(4.0,), horizon=1500.0, n_runs=3, ci_level=0.999
        )
        verdicts = [row[-1] for row in table.rows if row[1].startswith("iid")]
        assert verdicts == ["pass", "pass", "-"]  # NFD-S, NFD-E, SFD
