"""The E(T_D) ≈ δ + η/2 approximation against measured crash runs.

The paper only bounds ``T_D``; its expectation follows from the Lemma 18
argument: a crash at ``t ∈ (σ_i, σ_{i+1}]`` is detected permanently at
``τ_{i+1} = σ_i + δ + η`` in every run where q trusts p at some point in
``[t, τ_{i+1})``, so ``T_D = τ_{i+1} − t`` ~ Uniform[δ, δ+η).  Runs where
q never trusts in that window (probability ≈ u(0)) detect earlier.
"""

from __future__ import annotations

import pytest

from repro.analysis.nfds_theory import NFDSAnalysis
from repro.core.nfd_s import NFDS
from repro.net.delays import ExponentialDelay
from repro.sim.runner import SimulationConfig, run_crash_runs


@pytest.mark.slow
@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_expected_detection_time_matches_measurement(delta):
    eta = 1.0
    delay = ExponentialDelay(0.02)
    analysis = NFDSAnalysis(eta, delta, 0.01, delay)
    config = SimulationConfig(
        eta=eta,
        delay=delay,
        loss_probability=0.01,
        horizon=60.0,
        seed=int(delta * 100),
    )
    runs = run_crash_runs(
        lambda: NFDS(eta=eta, delta=delta),
        config,
        n_runs=400,
        settle_time=30.0,
    )
    assert runs.mean_detection_time == pytest.approx(
        delta + eta / 2.0, rel=0.05
    )
    assert runs.max_detection_time <= analysis.detection_time_bound + 1e-9
