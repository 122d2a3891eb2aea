"""A Jacobson/TCP-RTO-style adaptive-timeout detector — extension.

Before φ-accrual, the folk answer to "how long should the heartbeat
timeout be?" was TCP's retransmission-timeout estimator (Jacobson 1988):
track a smoothed estimate of the inter-arrival time and its mean
deviation, and time out at

    ``deadline = last_arrival + srtt + k·rttvar``    (k = 4 in TCP).

This detector adapts the common algorithm the same way, giving the E11
comparison a second practical baseline between the fixed-timeout SFD
and φ-accrual.  Like φ-accrual — and unlike the paper's configured
NFD — it offers *no hard detection bound* and no way to target a QoS
contract; those are exactly the gaps the paper's approach fills.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import Heartbeat, HeartbeatFailureDetector, TimerHandle
from repro.errors import InvalidParameterError
from repro.metrics.transitions import SUSPECT, TRUST

__all__ = ["JacobsonFD"]


class JacobsonFD(HeartbeatFailureDetector):
    """Adaptive timeout via EWMA inter-arrival mean + deviation.

    Args:
        k: deviation multiplier (TCP uses 4).
        alpha: EWMA gain for the smoothed inter-arrival (TCP: 1/8).
        beta: EWMA gain for the mean deviation (TCP: 1/4).
        bootstrap_interval: assumed inter-arrival before two heartbeats
            have been seen (e.g. the nominal η).
        min_margin: floor on the deviation term, so a perfectly regular
            stream does not collapse the timeout onto the next expected
            arrival.
    """

    name = "jacobson"

    def __init__(
        self,
        k: float = 4.0,
        alpha: float = 0.125,
        beta: float = 0.25,
        bootstrap_interval: Optional[float] = None,
        min_margin: float = 1e-4,
    ) -> None:
        super().__init__()
        if k <= 0:
            raise InvalidParameterError(f"k must be positive, got {k}")
        if not 0 < alpha <= 1 or not 0 < beta <= 1:
            raise InvalidParameterError("alpha and beta must be in (0, 1]")
        if min_margin <= 0:
            raise InvalidParameterError(
                f"min_margin must be positive, got {min_margin}"
            )
        self._k = float(k)
        self._alpha = float(alpha)
        self._beta = float(beta)
        self._bootstrap = bootstrap_interval
        self._min_margin = float(min_margin)
        self._srtt: Optional[float] = None  # smoothed inter-arrival
        self._rttvar = 0.0  # smoothed mean deviation
        self._last_arrival: Optional[float] = None
        self._last_seq = 0
        self._timer: Optional[TimerHandle] = None

    def current_timeout(self) -> Optional[float]:
        """The adaptive timeout ``srtt + k·rttvar`` (None pre-bootstrap)."""
        if self._srtt is None:
            if self._bootstrap is None:
                return None
            return self._bootstrap + self._k * max(
                self._min_margin, self._bootstrap / 2.0
            )
        return self._srtt + self._k * max(self._rttvar, self._min_margin)

    def _on_start(self) -> None:
        self._set_output(SUSPECT)

    def on_heartbeat(self, heartbeat: Heartbeat) -> None:
        if heartbeat.seq <= self._last_seq:
            return  # stale duplicate / reordering: Karn's rule, skip
        now = heartbeat.receive_local_time
        if self._last_arrival is not None:
            sample = now - self._last_arrival
            if self._srtt is None:
                self._srtt = sample
                self._rttvar = sample / 2.0
            else:
                err = sample - self._srtt
                self._rttvar = (1 - self._beta) * self._rttvar + (
                    self._beta * abs(err)
                )
                self._srtt = self._srtt + self._alpha * err
        self._last_arrival = now
        self._last_seq = heartbeat.seq
        self._set_output(TRUST)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        timeout = self.current_timeout()
        if timeout is not None:
            self._timer = self.runtime.call_at(now + timeout, self._expired)

    def _expired(self) -> None:
        self._set_output(SUSPECT)

    def describe(self) -> str:
        return (
            f"Jacobson(k={self._k:g}, alpha={self._alpha:g}, "
            f"beta={self._beta:g})"
        )
