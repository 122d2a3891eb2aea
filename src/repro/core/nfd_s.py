"""NFD-S — the paper's new failure detector for synchronized clocks (Fig. 6).

The monitored process p sends heartbeat ``m_i`` at time ``σ_i = i·η``.
The monitoring process q derives *freshness points* ``τ_i = σ_i + δ`` and
applies the freshness rule (Lemma 2):

    q trusts p at time ``t ∈ [τ_i, τ_{i+1})`` **iff** q has received some
    message ``m_j`` with ``j ≥ i`` by time ``t``.

Consequences proved in the paper and relied on here:

* the probability of a premature timeout on ``m_i`` does not depend on the
  heartbeats preceding ``m_i`` (unlike the common algorithm);
* ``T_D ≤ δ + η`` deterministically (Theorem 5.1), independent of the
  maximum message delay;
* steady state is reached at ``τ_1`` already.

Synchronized clocks are required because q computes ``τ_i`` from p's
*sending* times: both processes must agree what "time ``i·η``" means.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.base import Heartbeat, HeartbeatFailureDetector, TimerHandle
from repro.errors import InvalidParameterError
from repro.metrics.transitions import SUSPECT, TRUST

__all__ = ["NFDS", "window_index", "window_indices"]


def window_index(now: float, eta: float, delta: float) -> int:
    """Index ``i`` of the freshness window ``[τ_i, τ_{i+1})`` holding
    ``now``, with ``τ_i = i·η + δ``; 0 before ``τ_1``.

    By Lemma 2 with ``i = 0``, *any* received message makes q trust p
    before the first freshness point.  The float floor is corrected with
    the comparisons the freshness timers make (``τ_i <= now``), so an
    instant on a boundary lands in the window a timer would put it in.
    """
    i = math.floor((now - delta) / eta)
    while i * eta + delta > now:
        i -= 1
    while (i + 1) * eta + delta <= now:
        i += 1
    return i if i > 0 else 0


def window_indices(now: np.ndarray, eta, delta) -> np.ndarray:
    """:func:`window_index` over arrays (``eta`` and ``delta`` broadcast),
    element for element equal to it; ``int64``."""
    i = np.floor((now - delta) / eta).astype(np.int64)
    while True:
        over = i * eta + delta > now
        if not over.any():
            break
        i -= over
    while True:
        under = (i + 1) * eta + delta <= now
        if not under.any():
            break
        i += under
    return np.maximum(i, 0)


class NFDS(HeartbeatFailureDetector):
    """The NFD-S algorithm with parameters ``eta`` (η) and ``delta`` (δ).

    Args:
        eta: heartbeat inter-sending time η (> 0).
        delta: freshness-point shift δ (≥ 0); ``τ_i = i·η + δ``.
        first_seq: sequence number of the first heartbeat (1 in the paper).

    The detection time of this instance is at most ``delta + eta``
    (Theorem 5.1), and among all detectors with the same heartbeat rate and
    the same detection bound it maximizes the query accuracy probability
    (Theorem 6).
    """

    name = "nfd-s"

    def __init__(self, eta: float, delta: float, first_seq: int = 1) -> None:
        super().__init__()
        if eta <= 0:
            raise InvalidParameterError(f"eta must be positive, got {eta}")
        if delta < 0:
            raise InvalidParameterError(f"delta must be >= 0, got {delta}")
        if first_seq < 1:
            raise InvalidParameterError(f"first_seq must be >= 1, got {first_seq}")
        self._eta = float(eta)
        self._delta = float(delta)
        self._first_seq = int(first_seq)
        self._max_seq = first_seq - 1  # highest sequence number received
        self._next_check = first_seq  # index i of the next freshness point τ_i
        self._timer: Optional[TimerHandle] = None

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #

    @property
    def eta(self) -> float:
        return self._eta

    @property
    def delta(self) -> float:
        return self._delta

    @property
    def detection_time_bound(self) -> float:
        """``T_D ≤ δ + η`` — tight (Theorem 5.1)."""
        return self._delta + self._eta

    def freshness_point(self, i: int) -> float:
        """``τ_i = σ_i + δ = i·η + δ`` (local == real under sync clocks)."""
        return i * self._eta + self._delta

    # ------------------------------------------------------------------ #
    # Algorithm (Fig. 6)
    # ------------------------------------------------------------------ #

    def _on_start(self) -> None:
        # Line 2: output = S initially.  Arm the first freshness point.
        self._set_output(SUSPECT)
        self._arm(self._next_check)

    def _arm(self, i: int) -> None:
        self._timer = self.runtime.call_at(
            self.freshness_point(i), lambda: self._at_freshness_point(i)
        )

    def _at_freshness_point(self, i: int) -> None:
        # Lines 3-4: at τ_i, suspect unless some m_j with j ≥ i arrived.
        if self._max_seq < i:
            self._set_output(SUSPECT)
        self._next_check = i + 1
        self._arm(self._next_check)

    def on_heartbeat(self, heartbeat: Heartbeat) -> None:
        # Lines 5-6: on receiving m_j at t ∈ [τ_i, τ_{i+1}), trust if j ≥ i.
        if heartbeat.seq > self._max_seq:
            self._max_seq = heartbeat.seq
        now = self.runtime.local_now()
        if self._max_seq >= window_index(now, self._eta, self._delta):
            self._set_output(TRUST)

    def describe(self) -> str:
        return f"NFD-S(eta={self._eta:g}, delta={self._delta:g})"
