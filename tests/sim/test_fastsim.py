"""Tests for the vectorized simulators.

Three lines of defence:

1. exact agreement with the analytic Theorem 5 values (statistical);
2. exact agreement with the event-driven implementations on the same
   message fates (cross-validation, the strongest check);
3. structural invariants: chunking invariance, truncation flags, etc.
"""

from __future__ import annotations

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from repro.analysis.nfds_theory import NFDSAnalysis, nfdu_analysis
from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.simple import SimpleFD
from repro.errors import InvalidParameterError
from repro.net.delays import ConstantDelay, ExponentialDelay, UniformDelay
from repro.sim.fastsim import (
    simulate_nfde_fast,
    simulate_nfds_fast,
    simulate_nfdu_fast,
    simulate_sfd_fast,
)
from repro.sim.runner import SimulationConfig, run_failure_free

SETTINGS = dict(eta=1.0, loss_probability=0.01, delay=ExponentialDelay(0.02))

#: one operating point per kernel for the tests of the shared chunk driver
KERNELS = {
    "nfd-s": partial(simulate_nfds_fast, 1.0, 1.2),
    "nfd-u": partial(simulate_nfdu_fast, 1.0, 0.6),
    "nfd-e": partial(simulate_nfde_fast, 1.0, 0.6, window=16),
    "sfd": partial(simulate_sfd_fast, 1.0, 1.3),
}


class TestValidation:
    def test_common_validation(self):
        with pytest.raises(InvalidParameterError):
            simulate_nfds_fast(0.0, 1.0, 0.0, ExponentialDelay(0.1))
        with pytest.raises(InvalidParameterError):
            simulate_nfds_fast(1.0, -1.0, 0.0, ExponentialDelay(0.1))
        with pytest.raises(InvalidParameterError):
            simulate_nfds_fast(
                1.0, 1.0, 0.0, ExponentialDelay(0.1), target_mistakes=0
            )
        with pytest.raises(InvalidParameterError):
            simulate_sfd_fast(1.0, 0.0, 0.0, ExponentialDelay(0.1))
        with pytest.raises(InvalidParameterError):
            simulate_nfde_fast(1.0, 1.0, 0.0, ExponentialDelay(0.1), window=0)


class TestAgainstTheory:
    @pytest.mark.slow
    @pytest.mark.parametrize("delta", [0.5, 1.0, 1.5])
    def test_nfds_matches_theorem5(self, delta):
        analysis = NFDSAnalysis(1.0, delta, 0.01, ExponentialDelay(0.02))
        r = simulate_nfds_fast(
            1.0,
            delta,
            0.01,
            ExponentialDelay(0.02),
            seed=1234,
            target_mistakes=3000,
            max_heartbeats=10_000_000,
        )
        assert r.e_tmr == pytest.approx(analysis.e_tmr(), rel=0.10)
        assert r.e_tm == pytest.approx(analysis.e_tm(), rel=0.10)
        assert r.query_accuracy == pytest.approx(
            analysis.query_accuracy(), abs=2e-4
        )

    @pytest.mark.slow
    def test_nfdu_matches_substituted_theory(self):
        alpha = 0.7
        analysis = nfdu_analysis(1.0, alpha, 0.01, ExponentialDelay(0.02))
        r = simulate_nfdu_fast(
            1.0,
            alpha,
            0.01,
            ExponentialDelay(0.02),
            seed=99,
            target_mistakes=3000,
            max_heartbeats=10_000_000,
        )
        assert r.e_tmr == pytest.approx(analysis.e_tmr(), rel=0.10)

    @pytest.mark.slow
    def test_sfd_gap_model_loss_only(self):
        """With constant delays and loss p, gaps are geometric: an
        S-transition needs >= ceil(TO/eta) consecutive losses."""
        p = 0.2
        eta, to = 1.0, 2.5  # 3 consecutive losses needed
        r = simulate_sfd_fast(
            eta,
            to,
            p,
            ConstantDelay(0.01),
            seed=5,
            target_mistakes=3000,
            max_heartbeats=5_000_000,
        )
        # A gap after k consecutive losses spans (k+1)·eta; it exceeds
        # TO=2.5 iff k >= 2.  S-transitions renew at 'delivery followed
        # by >= 2 losses', so E(T_MR) = eta / ((1-p)·p²).
        expected = eta / ((1 - p) * p**2)
        assert r.e_tmr == pytest.approx(expected, rel=0.10)

    def test_nfds_no_loss_bounded_delay_no_mistakes(self):
        r = simulate_nfds_fast(
            1.0,
            0.5,
            0.0,
            UniformDelay(0.01, 0.2),
            target_mistakes=10,
            max_heartbeats=200_000,
        )
        assert r.n_mistakes == 0
        assert r.truncated
        assert r.query_accuracy == pytest.approx(1.0)


class TestCrossValidationWithDES:
    """Same workload through fastsim and the event-driven detectors;
    distributions of the outputs must agree."""

    @pytest.mark.slow
    def test_nfds_fast_vs_event_driven(self):
        eta, delta = 1.0, 0.8
        config = SimulationConfig(
            eta=eta,
            delay=ExponentialDelay(0.15),
            loss_probability=0.05,
            horizon=30_000.0,
            warmup=10.0,
            seed=77,
        )
        des = run_failure_free(lambda: NFDS(eta=eta, delta=delta), config)
        fast = simulate_nfds_fast(
            eta,
            delta,
            0.05,
            ExponentialDelay(0.15),
            seed=78,
            target_mistakes=10**9,
            max_heartbeats=30_000,
        )
        assert fast.e_tmr == pytest.approx(des.accuracy.e_tmr, rel=0.15)
        assert fast.e_tm == pytest.approx(des.accuracy.e_tm, rel=0.15)
        assert fast.query_accuracy == pytest.approx(
            des.accuracy.query_accuracy, abs=0.01
        )

    @pytest.mark.slow
    def test_nfde_fast_vs_event_driven(self):
        eta, alpha = 1.0, 0.6
        config = SimulationConfig(
            eta=eta,
            delay=ExponentialDelay(0.15),
            loss_probability=0.05,
            horizon=30_000.0,
            warmup=50.0,
            seed=79,
        )
        des = run_failure_free(
            lambda: NFDE(eta=eta, alpha=alpha, window=32), config
        )
        fast = simulate_nfde_fast(
            eta,
            alpha,
            0.05,
            ExponentialDelay(0.15),
            window=32,
            seed=80,
            target_mistakes=10**9,
            max_heartbeats=30_000,
        )
        assert fast.e_tmr == pytest.approx(des.accuracy.e_tmr, rel=0.15)
        assert fast.query_accuracy == pytest.approx(
            des.accuracy.query_accuracy, abs=0.01
        )

    @pytest.mark.slow
    def test_sfd_fast_vs_event_driven(self):
        eta, to, cutoff = 1.0, 1.6, 0.4
        config = SimulationConfig(
            eta=eta,
            delay=ExponentialDelay(0.15),
            loss_probability=0.05,
            horizon=30_000.0,
            warmup=10.0,
            seed=81,
        )
        des = run_failure_free(
            lambda: SimpleFD(timeout=to, cutoff=cutoff), config
        )
        fast = simulate_sfd_fast(
            eta,
            to,
            0.05,
            ExponentialDelay(0.15),
            cutoff=cutoff,
            seed=82,
            target_mistakes=10**9,
            max_heartbeats=30_000,
        )
        assert fast.e_tmr == pytest.approx(des.accuracy.e_tmr, rel=0.15)
        assert fast.e_tm == pytest.approx(des.accuracy.e_tm, rel=0.15)


class TestStructuralInvariants:
    def test_chunking_invariance_without_loss(self):
        """With p_L = 0 the RNG stream is identical regardless of chunk
        size, so every kernel's results must agree (up to the float
        grouping of per-chunk sums), down to chunks of a few messages."""
        kw = dict(
            loss_probability=0.0,
            delay=ExponentialDelay(0.4),
            seed=11,
            target_mistakes=10**9,
            max_heartbeats=20_000,
        )
        for name, run in KERNELS.items():
            a = run(chunk_size=20_000, **kw)
            assert a.n_mistakes > 0, name
            for chunk_size in (777, 7):
                b = run(chunk_size=chunk_size, **kw)
                np.testing.assert_allclose(
                    b.s_transition_times,
                    a.s_transition_times,
                    rtol=1e-12,
                    err_msg=name,
                )
                np.testing.assert_allclose(
                    b.mistake_durations,
                    a.mistake_durations,
                    rtol=1e-12,
                    err_msg=name,
                )
                assert b.suspect_time == pytest.approx(a.suspect_time), name
                assert b.total_time == pytest.approx(a.total_time), name

    def test_nfde_chunking_invariance_without_loss(self):
        kw = dict(
            eta=1.0,
            alpha=0.6,
            loss_probability=0.0,
            delay=ExponentialDelay(0.4),
            window=16,
            seed=12,
            target_mistakes=10**9,
            max_heartbeats=20_000,
        )
        a = simulate_nfde_fast(chunk_size=20_000, **kw)
        b = simulate_nfde_fast(chunk_size=777, **kw)
        np.testing.assert_allclose(
            a.s_transition_times, b.s_transition_times, rtol=1e-12
        )
        np.testing.assert_allclose(
            a.mistake_durations, b.mistake_durations, rtol=1e-12
        )

    def test_sfd_chunking_invariance_without_loss(self):
        kw = dict(
            eta=1.0,
            timeout=1.3,
            loss_probability=0.0,
            delay=ExponentialDelay(0.5),
            seed=13,
            target_mistakes=10**9,
            max_heartbeats=20_000,
        )
        a = simulate_sfd_fast(chunk_size=20_000, **kw)
        b = simulate_sfd_fast(chunk_size=333, **kw)
        np.testing.assert_allclose(
            a.s_transition_times, b.s_transition_times
        )

    def test_truncation_flag(self):
        r = simulate_nfds_fast(
            1.0,
            3.0,  # mistakes are very rare at delta=3
            0.001,
            ExponentialDelay(0.02),
            target_mistakes=100000,
            max_heartbeats=10_000,
        )
        assert r.truncated
        assert r.n_heartbeats <= 10_000 + 10  # +k slack

    def test_truncation_respects_max_heartbeats_exactly(self):
        # Regression: NFD-S's final chunk used to draw a full k+1 top-up
        # and overshoot max_heartbeats (eta=1, delta=5 → k=5; chunk 7
        # with a budget of 10 drew 13).  The clamp must stop at the cap;
        # only a cap below k+1 itself may be exceeded (no window fits
        # otherwise).  Every kernel shares the one budget rule.
        kernels = {**KERNELS, "nfd-s": partial(simulate_nfds_fast, 1.0, 5.0)}
        for name, run in kernels.items():
            r = run(
                loss_probability=0.0,
                delay=ExponentialDelay(0.02),
                target_mistakes=100000,
                max_heartbeats=10,
                chunk_size=7,
            )
            assert r.truncated, name
            assert r.n_heartbeats == 10, name

    @pytest.mark.parametrize(
        "run",
        [
            partial(simulate_nfds_fast, delta=0.25),
            partial(simulate_nfde_fast, alpha=0.23, window=32),
            partial(simulate_sfd_fast, timeout=1.09, cutoff=0.16),
        ],
        ids=["nfd-s", "nfd-e", "sfd-cutoff"],
    )
    def test_working_set_is_the_delay_draw(self, run):
        # Fig. 12 row 2 (T_D^U = 1.25) in one draw of 2^20: the kernels
        # fold it in cache-sized blocks, so a call's traced peak stays
        # within twice the 8 B a heartbeat of the delay draw it owns
        # (a whole-draw fold peaked at 4-10 times that).
        chunk = 1 << 20
        tracemalloc.start()
        try:
            run(
                **SETTINGS,
                target_mistakes=10**9,
                max_heartbeats=chunk,
                chunk_size=chunk,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * chunk, peak / (8 * chunk)

    def test_stops_at_target(self):
        for name, run in KERNELS.items():
            r = run(
                loss_probability=0.1,
                delay=ExponentialDelay(0.3),
                target_mistakes=50,
                max_heartbeats=10_000_000,
                chunk_size=500,
            )
            assert not r.truncated, name
            assert r.n_mistakes >= 50, name

    def test_result_properties(self):
        r = simulate_nfds_fast(
            1.0,
            0.5,
            0.05,
            ExponentialDelay(0.2),
            target_mistakes=100,
            max_heartbeats=1_000_000,
            chunk_size=10_000,
        )
        assert r.n_mistakes == r.s_transition_times.size
        assert r.tmr_samples.size == r.n_mistakes - 1
        assert np.all(r.tmr_samples > 0)
        assert np.all(r.mistake_durations >= 0)
        assert 0.0 <= r.query_accuracy <= 1.0
        assert r.mistake_rate == pytest.approx(
            r.n_mistakes / r.total_time
        )
        assert r.e_tm <= 1.0 + 1e-9  # bounded by eta for NFD

    def test_empty_result_nans(self):
        r = simulate_nfds_fast(
            1.0,
            0.5,
            0.0,
            ConstantDelay(0.01),
            target_mistakes=5,
            max_heartbeats=1_000,
        )
        assert math.isnan(r.e_tmr)
        assert math.isnan(r.e_tm)
