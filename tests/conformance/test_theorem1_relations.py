"""Theorem 1's identities, checked on simulated output traces.

Theorem 1 relates the derived accuracy metrics to the primary ones for
*any* ergodic failure detector: λ_M = 1/E(T_MR), P_A = E(T_G)/E(T_MR),
and the forward good period obeys the waiting-time formula
E(T_FG) = E(T_G²)/(2·E(T_G)).  The DES trace gives every quantity on
both sides independently, so the identities can be checked against each
other without reference to any detector-specific analysis.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nfd_s import NFDS
from repro.metrics import (
    SUSPECT,
    TransitionKind,
    forward_good_period_mean,
    forward_good_period_moment,
    window_samples,
)
from repro.net.delays import ExponentialDelay
from repro.sim.runner import SimulationConfig, run_failure_free


@pytest.fixture(scope="module")
def trace():
    """One long failure-free NFD-S run with frequent mistakes."""
    config = SimulationConfig(
        eta=1.0,
        delay=ExponentialDelay(0.02),
        loss_probability=0.05,
        horizon=20_000.0,
        warmup=1.6,
        seed=0x7541,
    )
    result = run_failure_free(
        lambda: NFDS(eta=1.0, delta=0.6), config
    )
    return result.trace


class TestTheorem1Relations:
    def test_mistake_rate_is_inverse_recurrence_time(self, trace):
        """λ_M = 1/E(T_MR) (Theorem 1.3a)."""
        tmr = np.diff(trace.s_transition_times)
        n_mistakes = trace.s_transition_times.size
        observed = trace.end_time - trace.start_time
        lambda_m = n_mistakes / observed
        assert lambda_m == pytest.approx(1.0 / tmr.mean(), rel=0.05)

    def test_query_accuracy_is_good_share_of_recurrence(self, trace):
        """P_A = E(T_G)/E(T_MR) (Theorem 1.3a)."""
        tmr = np.diff(trace.s_transition_times)
        tg = window_samples(trace, trace.start_time)[2]
        assert trace.empirical_query_accuracy() == pytest.approx(
            tg.mean() / tmr.mean(), rel=0.02
        )

    def test_recurrence_decomposes_into_good_and_mistake(self, trace):
        """E(T_MR) = E(T_G) + E(T_M): a recurrence interval is one good
        period plus one mistake duration."""
        tmr = np.diff(trace.s_transition_times)
        _, tm, tg, _ = window_samples(trace, trace.start_time)
        assert tmr.mean() == pytest.approx(tg.mean() + tm.mean(), rel=0.02)

    def test_forward_good_period_waiting_time_formula(self, trace):
        """E(T_FG) = E(T_G²)/(2·E(T_G)) (Theorem 1.3b), checked against
        the forward distance to the next S-transition measured at random
        good instants of the trace — the operational definition."""
        tg = window_samples(trace, trace.start_time)[2]
        predicted = forward_good_period_moment(1, tg)
        # The two closed forms must agree exactly on the same samples.
        assert predicted == pytest.approx(
            forward_good_period_mean(float(tg.mean()), float(tg.var()))
        )
        s_times = trace.s_transition_times
        t_times = trace.transition_times(TransitionKind.T_TRANSITION)
        grid = np.linspace(
            trace.start_time, s_times[-1], 200_001, endpoint=False
        )
        # A grid instant is good iff the most recent transition before
        # it is a trust transition (vectorized output_at).
        idx_s = np.searchsorted(s_times, grid, side="right")
        idx_t = np.searchsorted(t_times, grid, side="right")
        last_s = np.where(idx_s > 0, s_times[np.maximum(idx_s - 1, 0)], -np.inf)
        last_t = np.where(idx_t > 0, t_times[np.maximum(idx_t - 1, 0)], -np.inf)
        initial_good = trace.output_at(trace.start_time) != SUSPECT
        good_mask = np.where(
            (idx_s == 0) & (idx_t == 0), initial_good, last_t >= last_s
        )
        good = grid[good_mask]
        for t in good[:: good.size // 50]:
            assert trace.output_at(float(t)) != SUSPECT
        forward = s_times[np.searchsorted(s_times, good, side="right")] - good
        # Inspection-paradox sanity: the length-biased mean exceeds half
        # the plain mean.
        assert predicted > tg.mean() / 2.0
        assert forward.mean() == pytest.approx(predicted, rel=0.05)
