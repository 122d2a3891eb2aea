"""Structural properties of detector outputs (Propositions 13/14/21 and
Theorem 1 closed on live traces)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.nfds_theory import NFDSAnalysis
from repro.core.nfd_s import NFDS
from repro.metrics.qos import estimate_accuracy
from repro.net.delays import ExponentialDelay
from repro.sim.fastsim import simulate_nfds_fast
from repro.sim.runner import SimulationConfig, run_failure_free


class TestProposition13:
    """S-transitions occur only at freshness points τ_i = i·η + δ."""

    def test_fastsim_s_transitions_on_the_grid(self):
        eta, delta = 1.0, 0.7
        r = simulate_nfds_fast(
            eta,
            delta,
            0.05,
            ExponentialDelay(0.3),
            seed=21,
            target_mistakes=500,
            max_heartbeats=1_000_000,
        )
        phases = np.mod(r.s_transition_times - delta, eta)
        phases = np.minimum(phases, eta - phases)
        assert np.all(phases < 1e-9)

    def test_event_driven_s_transitions_on_the_grid(self):
        eta, delta = 1.0, 0.7
        config = SimulationConfig(
            eta=eta,
            delay=ExponentialDelay(0.3),
            loss_probability=0.05,
            horizon=3_000.0,
            seed=22,
        )
        res = run_failure_free(lambda: NFDS(eta=eta, delta=delta), config)
        s_times = res.trace.s_transition_times
        assert s_times.size > 10
        phases = np.mod(s_times - delta, eta)
        phases = np.minimum(phases, eta - phases)
        assert np.all(phases < 1e-9)


class TestProposition21:
    """E(T_M) ≤ η / q_0 in the nondegenerate case."""

    @pytest.mark.parametrize("delta", [0.3, 0.8, 1.6])
    @pytest.mark.parametrize("mean", [0.1, 0.5])
    def test_bound_holds_analytically(self, delta, mean):
        a = NFDSAnalysis(1.0, delta, 0.05, ExponentialDelay(mean))
        if a.p_0 > 0 and a.q_0 > 0:
            assert a.e_tm() <= a.eta / a.q_0 + 1e-9


class TestTheorem1OnLiveTraces:
    """The Theorem 1 identities must close on traces produced by an
    actual detector, not just on synthetic interval data."""

    @pytest.mark.slow
    def test_identities_close(self):
        config = SimulationConfig(
            eta=1.0,
            delay=ExponentialDelay(0.25),
            loss_probability=0.05,
            horizon=60_000.0,
            warmup=10.0,
            seed=23,
        )
        res = run_failure_free(lambda: NFDS(eta=1.0, delta=0.6), config)
        acc = res.accuracy
        assert acc.n_mistakes > 300
        # λ_M = 1/E(T_MR)
        assert acc.mistake_rate == pytest.approx(1.0 / acc.e_tmr, rel=0.02)
        # P_A = E(T_G)/E(T_MR)
        assert acc.query_accuracy == pytest.approx(
            acc.e_tg / acc.e_tmr, rel=0.02
        )
        # T_G = T_MR − T_M in expectation
        assert acc.e_tg == pytest.approx(acc.e_tmr - acc.e_tm, rel=0.02)
        # and against the analytic Theorem 5 values
        analysis = NFDSAnalysis(1.0, 0.6, 0.05, ExponentialDelay(0.25))
        assert acc.e_tmr == pytest.approx(analysis.e_tmr(), rel=0.10)
        assert acc.e_tm == pytest.approx(analysis.e_tm(), rel=0.10)


class TestDuplicationRobustness:
    """Footnote 8: duplicates must not change any detector's output."""

    def _trace_with_messages(self, detector_factory, messages, until=20.0):
        from tests.core.conftest import ScriptedRun

        run = ScriptedRun(detector_factory())
        return run.run(messages, until=until)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: NFDS(eta=1.0, delta=0.5),
        ],
    )
    def test_duplicates_are_noops(self, factory):
        base = [(i, i + 0.2) for i in range(1, 15)]
        with_dups = sorted(
            base + [(3, 3.4), (3, 5.1), (7, 7.9)], key=lambda m: m[1]
        )
        t1 = self._trace_with_messages(factory, base)
        t2 = self._trace_with_messages(factory, with_dups)
        assert len(t1.transitions) == len(t2.transitions)
        for a, b in zip(t1.transitions, t2.transitions):
            assert a.time == b.time and a.kind == b.kind
