"""The "common" failure detection algorithm (Section 1.2.1) and its
cutoff-bounded variant (Section 7.2).

**SFD** (simple failure detector): p sends heartbeats every η; whenever q
receives a heartbeat it trusts p and (re)starts a timer with a fixed
timeout ``TO``; if the timer expires before a newer heartbeat arrives, q
suspects p.

The paper identifies two structural drawbacks, both reproduced faithfully
by this implementation (and demonstrated in the E1/E7 benchmarks):

1. the probability of a premature timeout on heartbeat ``m_i`` depends on
   the *previous* heartbeat ``m_{i-1}`` (a fast ``m_{i-1}`` starts the
   timer early);
2. the worst-case detection time is ``max-message-delay + TO`` — unbounded
   unless slow heartbeats are discarded.

**Cutoff variant**: heartbeats delayed by more than ``c`` are discarded,
which bounds the detection time by ``c + TO`` but effectively raises the
message loss probability — the trade-off explored by SFD-L (c = 8·E(D))
and SFD-S (c = 4·E(D)) in the paper's Fig. 12.  Detecting that a heartbeat
is "slow" requires comparing the sender timestamp with the local receive
time, i.e. synchronized clocks (or a fail-aware datagram service, see the
paper's footnote 13).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.base import Heartbeat, HeartbeatFailureDetector, TimerHandle
from repro.errors import InvalidParameterError
from repro.metrics.transitions import SUSPECT, TRUST

__all__ = ["SimpleFD"]


class SimpleFD(HeartbeatFailureDetector):
    """The common timeout-based detector, with an optional cutoff.

    Args:
        timeout: the fixed timeout ``TO`` (re)started on every accepted
            heartbeat receipt.
        cutoff: optional cutoff time ``c``; heartbeats whose measured
            one-way delay exceeds ``c`` are discarded.  ``None`` disables
            the cutoff (the plain common algorithm, with *unbounded*
            worst-case detection time).

    With a cutoff, ``T_D ≤ c + TO`` (Section 7.2).
    """

    name = "sfd"

    def __init__(self, timeout: float, cutoff: Optional[float] = None) -> None:
        super().__init__()
        if timeout <= 0:
            raise InvalidParameterError(f"timeout must be positive, got {timeout}")
        if cutoff is not None and cutoff <= 0:
            raise InvalidParameterError(
                f"cutoff must be positive or None, got {cutoff}"
            )
        self._timeout = float(timeout)
        self._cutoff = None if cutoff is None else float(cutoff)
        self._timer: Optional[TimerHandle] = None

    @property
    def timeout(self) -> float:
        return self._timeout

    @property
    def cutoff(self) -> Optional[float]:
        return self._cutoff

    @property
    def detection_time_bound(self) -> float:
        """``c + TO`` with a cutoff; unbounded (inf) without."""
        if self._cutoff is None:
            return math.inf
        return self._cutoff + self._timeout

    # ------------------------------------------------------------------ #
    # Algorithm
    # ------------------------------------------------------------------ #

    def _on_start(self) -> None:
        # Until the first heartbeat arrives there is nothing to trust.
        self._set_output(SUSPECT)

    def on_heartbeat(self, heartbeat: Heartbeat) -> None:
        if self._cutoff is not None:
            # Measured one-way delay; meaningful under synchronized clocks
            # (the regime in which the paper evaluates this variant).
            delay = heartbeat.receive_local_time - heartbeat.send_local_time
            if delay > self._cutoff:
                return
        self._set_output(TRUST)
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.runtime.call_at(
            self.runtime.local_now() + self._timeout, self._expired
        )

    def _expired(self) -> None:
        self._set_output(SUSPECT)

    def describe(self) -> str:
        if self._cutoff is None:
            return f"SFD(TO={self._timeout:g})"
        return f"SFD(TO={self._timeout:g}, cutoff={self._cutoff:g})"
