"""Tests for NFD-S — including the Fig. 5 scenarios and Lemma 2."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import Heartbeat
from repro.core.nfd_s import NFDS, window_index, window_indices
from repro.errors import InvalidParameterError
from repro.metrics.transitions import SUSPECT, TRUST
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.sim.runner import SimulationConfig, run_crash_runs, run_failure_free


class TestParameters:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            NFDS(eta=0.0, delta=1.0)
        with pytest.raises(InvalidParameterError):
            NFDS(eta=1.0, delta=-0.5)
        with pytest.raises(InvalidParameterError):
            NFDS(eta=1.0, delta=1.0, first_seq=0)

    def test_freshness_points(self):
        d = NFDS(eta=2.0, delta=0.5)
        assert d.freshness_point(1) == pytest.approx(2.5)
        assert d.freshness_point(3) == pytest.approx(6.5)

    def test_detection_bound_property(self):
        assert NFDS(eta=1.0, delta=2.0).detection_time_bound == 3.0

    def test_describe(self):
        assert "NFD-S" in NFDS(eta=1.0, delta=2.0).describe()


class TestFig5Scenarios:
    """The three per-window scenarios of Fig. 5 (η = 1, δ = 0.5, k = 1).

    Window i=3 is [τ_3, τ_4) = [3.5, 4.5)."""

    def test_scenario_a_fresh_before_tau(self, scripted):
        """m_3 arrives before τ_3: trust during the entire window."""
        run = scripted(NFDS(eta=1.0, delta=0.5))
        trace = run.run(
            [(1, 1.2), (2, 2.2), (3, 3.2), (4, 4.2), (5, 5.2)], until=6.0
        )
        for t in (3.5, 3.9, 4.49):
            assert trace.output_at(t) == TRUST

    def test_scenario_b_fresh_arrives_inside_window(self, scripted):
        """Nothing fresh at τ_3; m_3 arrives at 4.0: suspect [3.5, 4.0),
        trust [4.0, 4.5)."""
        run = scripted(NFDS(eta=1.0, delta=0.5))
        trace = run.run(
            [(1, 1.2), (2, 2.2), (3, 4.0), (4, 4.6), (5, 5.2)], until=6.0
        )
        assert trace.output_at(3.6) == SUSPECT
        assert trace.output_at(3.99) == SUSPECT
        assert trace.output_at(4.0) == TRUST
        assert trace.output_at(4.4) == TRUST

    def test_scenario_c_no_fresh_message(self, scripted):
        """m_3 and m_4 both miss the window: suspect throughout [3.5,4.5)."""
        run = scripted(NFDS(eta=1.0, delta=0.5))
        trace = run.run(
            [(1, 1.2), (2, 2.2), (3, 4.6), (4, 4.6), (5, 5.2)], until=6.0
        )
        for t in (3.5, 4.0, 4.49):
            assert trace.output_at(t) == SUSPECT
        assert trace.output_at(4.6) == TRUST

    def test_higher_seq_counts_as_fresh(self, scripted):
        """Lemma 2 says m_j with j ≥ i keeps window i trusting: m_4
        arriving early keeps the window fresh even though m_3 is lost."""
        run = scripted(NFDS(eta=1.0, delta=0.5))
        trace = run.run(
            [(1, 1.2), (2, 2.2), (4, 4.1), (5, 5.2)], until=6.0
        )
        # At τ_3 = 3.5, nothing fresh yet -> suspect; m_4 at 4.1 -> trust.
        assert trace.output_at(3.6) == SUSPECT
        assert trace.output_at(4.1) == TRUST
        # Window 4 = [4.5, 5.5): m_4 already received -> trust throughout.
        assert trace.output_at(4.6) == TRUST


class TestInitialBehaviour:
    def test_suspects_until_first_heartbeat(self, scripted):
        run = scripted(NFDS(eta=1.0, delta=0.5))
        trace = run.run([(1, 1.1)], until=1.4)
        assert trace.initial_output == SUSPECT
        assert trace.output_at(0.5) == SUSPECT
        assert trace.output_at(1.1) == TRUST

    def test_any_message_trusts_before_first_freshness_point(self, scripted):
        """Before τ_1, i = 0 and any m_j (j ≥ 1 ≥ 0) is fresh."""
        run = scripted(NFDS(eta=1.0, delta=5.0))
        trace = run.run([(1, 1.2)], until=3.0)
        assert trace.output_at(1.2) == TRUST
        assert trace.output_at(2.9) == TRUST

    def test_stale_message_does_not_trust(self, scripted):
        """A reordered old message that is no longer fresh is ignored."""
        run = scripted(NFDS(eta=1.0, delta=0.5))
        # m_1 arrives hugely late, at 4.0 (window i=3); 1 < 3: stale.
        trace = run.run([(1, 4.0)], until=5.0)
        assert trace.output_at(4.2) == SUSPECT


class _FrozenClock:
    """A detector runtime whose clock reads ``now``; no timer fires."""

    def __init__(self, now: float) -> None:
        self.now = now

    def local_now(self) -> float:
        return self.now

    def call_at(self, local_time, callback):
        return None


def _trusts_on(eta: float, delta: float, t: float, seq: int) -> bool:
    """Whether a started NFD-S trusts after receiving ``m_seq`` at ``t``."""
    detector = NFDS(eta=eta, delta=delta)
    detector.bind(_FrozenClock(t))
    detector.start()
    detector.on_heartbeat(Heartbeat(seq, 0.0, t))
    return detector.output == TRUST


class TestWindowIndexBoundaries:
    """``window_index``, ``window_indices`` and NFDS put an instant in
    the same window ``[τ_i, τ_{i+1})``, ``τ_i = i·η + δ``: at each
    freshness point, one ulp either side of it, and before ``τ_1``."""

    @pytest.mark.parametrize("eta", [1.0, 0.1, 0.3])
    @pytest.mark.parametrize("delta", [0.0, 0.2, 1.7])
    def test_forms_agree_at_freshness_points(self, eta, delta):
        times, expected = [], []
        for i in [*range(1, 300), 1_000_003]:
            tau = i * eta + delta
            times += [np.nextafter(tau, -np.inf), tau, np.nextafter(tau, np.inf)]
            expected += [i - 1, i, i]
        if eta != 1.0:
            # The float floor alone is off by one both ways here, so
            # both correction loops run.
            guess = np.floor((np.array(times) - delta) / eta)
            assert (guess > expected).any() and (guess < expected).any()
        tau1 = eta + delta
        times += [0.0, delta / 2, delta, np.nextafter(tau1, -np.inf)]
        expected += [0, 0, 0, 0]
        times = np.array(times)
        scalar = [window_index(float(t), eta, delta) for t in times]
        assert scalar == expected
        vector = window_indices(times, eta, delta)
        assert vector.dtype == np.int64
        assert vector.tolist() == expected
        per_row = window_indices(
            times, np.full(times.size, eta), np.full(times.size, delta)
        )
        assert per_row.tolist() == expected
        for t, i in zip(times.tolist(), expected):
            assert _trusts_on(eta, delta, t, i)
            if i > 0:
                assert not _trusts_on(eta, delta, t, i - 1)


class TestLemma2Property:
    """Randomized check of Lemma 2: q trusts p at t iff some m_j with
    j ≥ i(t) has been received by t."""

    @pytest.mark.slow
    def test_output_matches_freshness_rule(self, scripted, rng):
        eta, delta = 1.0, 1.7  # k = 2
        for trial in range(20):
            n = 30
            delays = rng.exponential(0.8, n)  # large delays -> reordering
            lost = rng.random(n) < 0.2
            messages = [
                (j, j * eta + float(delays[j - 1]))
                for j in range(1, n + 1)
                if not lost[j - 1]
            ]
            run = scripted(NFDS(eta=eta, delta=delta))
            horizon = n * eta
            trace = run.run(messages, until=horizon)
            arrivals = {seq: at for seq, at in messages}
            for t in rng.uniform(eta + delta, horizon, 40):
                i = int(np.floor((t - delta) / eta))
                fresh = any(
                    at <= t for seq, at in arrivals.items() if seq >= i
                )
                expected = TRUST if fresh else SUSPECT
                assert trace.output_at(float(t)) == expected, (
                    f"trial {trial}, t={t}, i={i}"
                )


class TestDetectionTime:
    def test_bound_holds_and_is_tight(self, rng):
        eta, delta = 1.0, 1.0
        config = SimulationConfig(
            eta=eta,
            delay=ExponentialDelay(0.02),
            loss_probability=0.01,
            horizon=60.0,
            seed=99,
        )
        result = run_crash_runs(
            lambda: NFDS(eta=eta, delta=delta),
            config,
            n_runs=300,
            settle_time=30.0,
        )
        bound = eta + delta
        assert result.max_detection_time <= bound + 1e-9
        # Tightness: crashes just after a send approach the bound.
        assert result.max_detection_time > bound - 0.1

    def test_steady_state_trust_with_fast_link(self):
        """With constant small delays and no loss, q trusts p forever
        after τ_1 (the degenerate p_0 = 0 case)."""
        config = SimulationConfig(
            eta=1.0,
            delay=ConstantDelay(0.1),
            loss_probability=0.0,
            horizon=200.0,
            warmup=2.0,
            seed=1,
        )
        res = run_failure_free(lambda: NFDS(eta=1.0, delta=0.5), config)
        assert res.accuracy.n_mistakes == 0
        assert res.accuracy.query_accuracy == pytest.approx(1.0)
