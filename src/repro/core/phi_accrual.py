"""The φ-accrual failure detector (Hayashibara et al., SRDS 2004).

This is the best-known descendant of the paper under reproduction: Akka's
and Cassandra's failure detectors are φ-accrual detectors.  It is included
as a documented *extension* so the E11 benchmark can compare the paper's
NFD family against its practical successor on the same workloads.

Idea: instead of a binary suspect/trust output, compute a continuous
*suspicion level*

    ``φ(t) = -log₁₀ P(no heartbeat gap this long | history)``

from the empirical distribution of inter-arrival times, and threshold it.
Following Hayashibara, inter-arrival times are modeled as normal with the
windowed sample mean and standard deviation.

To expose the standard binary interface, this implementation computes — at
each heartbeat arrival — the *future* local time at which φ would cross
the threshold if no further heartbeat arrived, and arms a timer for that
instant.  This yields exact transition times without polling.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

from repro.core.base import Heartbeat, HeartbeatFailureDetector, TimerHandle
from repro.errors import InvalidParameterError
from repro.metrics.transitions import SUSPECT, TRUST

__all__ = ["PhiAccrualFD"]


class PhiAccrualFD(HeartbeatFailureDetector):
    """φ-accrual detector with a normal inter-arrival model.

    Args:
        threshold: suspicion threshold Φ; q suspects p whenever
            ``φ(now) > threshold``.  Typical production values are 8-12
            (Akka defaults to 8; Cassandra's is also 8 by default).
        window: number of recent inter-arrival samples kept.
        min_std: lower bound on the inter-arrival standard deviation, to
            avoid a degenerate model when the network is very regular.
        bootstrap_interval: assumed inter-arrival mean before the first
            two heartbeats (e.g. the nominal η).
    """

    name = "phi-accrual"

    def __init__(
        self,
        threshold: float = 8.0,
        window: int = 200,
        min_std: float = 1e-4,
        bootstrap_interval: Optional[float] = None,
    ) -> None:
        super().__init__()
        if threshold <= 0:
            raise InvalidParameterError(
                f"threshold must be positive, got {threshold}"
            )
        if window < 2:
            raise InvalidParameterError(f"window must be >= 2, got {window}")
        if min_std <= 0:
            raise InvalidParameterError(f"min_std must be positive, got {min_std}")
        self._threshold = float(threshold)
        self._window = int(window)
        self._min_std = float(min_std)
        self._bootstrap = bootstrap_interval
        self._intervals: Deque[float] = deque()
        self._sum = 0.0
        self._sum_sq = 0.0
        self._last_arrival: Optional[float] = None
        self._last_seq = 0
        self._timer: Optional[TimerHandle] = None

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def n_samples(self) -> int:
        return len(self._intervals)

    # ------------------------------------------------------------------ #
    # Inter-arrival statistics
    # ------------------------------------------------------------------ #

    def _observe_interval(self, value: float) -> None:
        self._intervals.append(value)
        self._sum += value
        self._sum_sq += value * value
        if len(self._intervals) > self._window:
            old = self._intervals.popleft()
            self._sum -= old
            self._sum_sq -= old * old

    def _interval_stats(self) -> Optional[tuple]:
        """(mean, std) of the inter-arrival model, or None if no data."""
        n = len(self._intervals)
        if n == 0:
            if self._bootstrap is None:
                return None
            return self._bootstrap, max(self._min_std, self._bootstrap / 4.0)
        mean = self._sum / n
        if n == 1:
            std = max(self._min_std, mean / 4.0)
        else:
            var = max(self._sum_sq / n - mean * mean, 0.0)
            std = max(math.sqrt(var), self._min_std)
        return mean, std

    # ------------------------------------------------------------------ #
    # φ computation
    # ------------------------------------------------------------------ #

    def phi(self, local_time: Optional[float] = None) -> float:
        """Current suspicion level φ at ``local_time`` (default: now)."""
        if self._last_arrival is None:
            return math.inf
        stats = self._interval_stats()
        if stats is None:
            return math.inf
        mean, std = stats
        t = self.runtime.local_now() if local_time is None else local_time
        elapsed = t - self._last_arrival
        z = (elapsed - mean) / std
        # P(interval > elapsed) under the normal model; use the
        # complementary error function for numerical range.
        p_later = 0.5 * math.erfc(z / math.sqrt(2.0))
        if p_later <= 0.0:
            return math.inf
        return -math.log10(p_later)

    def _crossing_delay(self) -> float:
        """Time after the last arrival at which φ crosses the threshold.

        Solve ``-log10 P(interval > Δ) = Φ`` for Δ under the normal model:
        ``Δ* = mean + std · z`` with ``z = Φ⁻¹(1 − 10^(−Φ))``.

        Returns ``inf`` when no model is available yet (first heartbeat,
        no bootstrap): φ stays at 0 until an interval is observed.
        """
        stats = self._interval_stats()
        if stats is None:
            return math.inf
        mean, std = stats
        tail = 10.0 ** (-self._threshold)
        # on first use: repro.live loads no SciPy
        from scipy.special import ndtri

        z = float(ndtri(1.0 - tail))
        return mean + std * z

    # ------------------------------------------------------------------ #
    # Detector interface
    # ------------------------------------------------------------------ #

    def _on_start(self) -> None:
        self._set_output(SUSPECT)

    def on_heartbeat(self, heartbeat: Heartbeat) -> None:
        if heartbeat.seq <= self._last_seq:
            return  # stale duplicate / reordered old heartbeat
        now = heartbeat.receive_local_time
        if self._last_arrival is not None:
            self._observe_interval(now - self._last_arrival)
        self._last_arrival = now
        self._last_seq = heartbeat.seq
        self._set_output(TRUST)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        delay = self._crossing_delay()
        if math.isfinite(delay):
            self._timer = self.runtime.call_at(now + delay, self._suspect_now)

    def _suspect_now(self) -> None:
        self._set_output(SUSPECT)

    def describe(self) -> str:
        return (
            f"PhiAccrual(threshold={self._threshold:g}, "
            f"window={self._window})"
        )
