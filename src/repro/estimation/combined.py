"""Short-term/long-term combined estimation for bursty networks.

Section 8.1.2: when network conditions change faster than a single
estimation window can track, the paper suggests running **two**
components — a short-term one that reacts quickly to bursts, and a
long-term one that is insensitive to momentary fluctuation — and
combining them *conservatively* (for failure detection, conservative
means assuming the larger delay mean, the larger variance and the larger
loss rate, since all three push toward later freshness points and fewer
false suspicions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import Heartbeat
from repro.errors import EstimationError, InvalidParameterError
from repro.estimation.delay_stats import WindowedDelayStats
from repro.estimation.loss import LossRateEstimator

__all__ = ["CombinedEstimate", "ShortLongCombiner"]


@dataclass(frozen=True)
class CombinedEstimate:
    """Conservative combination of short- and long-term estimates."""

    loss_probability: float
    mean_delay: float
    var_delay: float
    short_dominates: bool  # True when the short-term view was the binding one


class ShortLongCombiner:
    """Two estimation windows combined by taking the conservative value.

    Args:
        short_window: samples in the fast-reacting component (e.g. 10).
        long_window: samples in the stable component (e.g. 1000).

    Heartbeat sequence numbers start at 1.
    """

    def __init__(self, short_window: int = 10, long_window: int = 1000) -> None:
        if short_window >= long_window:
            raise InvalidParameterError(
                f"short_window ({short_window}) must be smaller than "
                f"long_window ({long_window})"
            )
        self._short = WindowedDelayStats(window=short_window)
        self._long = WindowedDelayStats(window=long_window)
        # Loss estimation needs a long horizon regardless; a 10-sample
        # window cannot resolve a 1% loss rate.
        self._loss = LossRateEstimator(first_seq=1)

    @property
    def short(self) -> WindowedDelayStats:
        return self._short

    def observe(self, heartbeat: Heartbeat) -> None:
        sample = heartbeat.receive_local_time - heartbeat.send_local_time
        self._short.observe(sample)
        self._long.observe(sample)
        self._loss.observe(heartbeat.seq)

    @property
    def ready(self) -> bool:
        return self._short.n_samples >= 2 and self._long.n_samples >= 2

    def snapshot(self) -> CombinedEstimate:
        """Conservative (max) combination of the two components."""
        if not self.ready:
            raise EstimationError("need at least two samples in each window")
        s_mean, l_mean = self._short.mean(), self._long.mean()
        s_var, l_var = self._short.variance(), self._long.variance()
        return CombinedEstimate(
            loss_probability=self._loss.estimate(),
            mean_delay=max(s_mean, l_mean),
            var_delay=max(s_var, l_var),
            short_dominates=(s_mean > l_mean or s_var > l_var),
        )
