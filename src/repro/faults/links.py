"""Link models that violate the paper's §3.1 message-independence.

Theorem 5's closed form rests on i.i.d. Bernoulli loss and i.i.d.
delays.  Real networks lose messages in *bursts* (congestion, route
flaps) and occasionally duplicate or reorder them — exactly the
behaviours this module scripts so the experiments can measure how far
each detector's QoS departs from the analytic prediction when the
assumptions do.

* :class:`GilbertElliottLink` — the classic two-state Markov loss model
  (good/bad channel states with per-state loss probabilities), a
  drop-in replacement for :class:`~repro.net.link.LossyLink` in the
  discrete-event simulator.  :meth:`GilbertElliottLink.from_average`
  builds a bursty link with the *same average loss rate* as an i.i.d.
  one, which is what makes burst-vs-i.i.d. comparisons fair.
* :class:`FaultyLink` — a wrapper adding scripted partitions (loss→1
  windows), duplication, and reordering on top of any base link, with a
  *separate* fault RNG stream so that a run with no active fault
  windows consumes zero fault randomness and is bit-identical to the
  unwrapped run.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.net.delays import DelayDistribution
from repro.net.link import LinkStats, MessageRecord

__all__ = ["GilbertElliottLink", "FaultyLink"]


class GilbertElliottLink:
    """Two-state Markov (Gilbert–Elliott) loss with i.i.d. delays.

    The channel is in a *good* or *bad* state; message ``i`` is dropped
    with the current state's loss probability, then the state makes one
    Markov step.  Sojourn times are geometric: the mean burst (bad
    sojourn) length is ``1/p_bg`` messages.

    Args:
        delay: delay distribution for delivered messages.
        p_good: loss probability in the good state.
        p_bad: loss probability in the bad state.
        p_gb: per-message transition probability good → bad.
        p_bg: per-message transition probability bad → good.
        rng: seeded generator; the initial state is drawn from the
            stationary distribution so the loss process is stationary
            from the first message.
    """

    def __init__(
        self,
        delay: DelayDistribution,
        p_good: float,
        p_bad: float,
        p_gb: float,
        p_bg: float,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        for label, value in (
            ("p_good", p_good),
            ("p_bad", p_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise InvalidParameterError(
                    f"{label} must be in [0, 1], got {value}"
                )
        for label, value in (("p_gb", p_gb), ("p_bg", p_bg)):
            if not 0.0 < value <= 1.0:
                raise InvalidParameterError(
                    f"{label} must be in (0, 1] (both states must be "
                    f"reachable), got {value}"
                )
        self._delay = delay
        self._p_good = float(p_good)
        self._p_bad = float(p_bad)
        self._p_gb = float(p_gb)
        self._p_bg = float(p_bg)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._bad = bool(self._rng.random() < self.stationary_bad)
        self._stats = LinkStats(self.stationary_loss_rate)

    @classmethod
    def from_average(
        cls,
        delay: DelayDistribution,
        average_loss: float,
        burst_length: float,
        p_good: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> "GilbertElliottLink":
        """A bursty link matched to an i.i.d. link's average loss rate.

        ``average_loss`` pins the stationary loss rate and
        ``burst_length`` the mean bad-state sojourn (in messages); the
        bad state loses every message (``p_bad = 1``), and the
        transition probabilities follow from
        ``π_bad = (avg − p_good) / (p_bad − p_good)``, ``p_bg =
        1/burst_length`` and the stationarity balance
        ``π_good·p_gb = π_bad·p_bg``.
        """
        if burst_length < 1.0:
            raise InvalidParameterError(
                f"burst_length must be >= 1 message, got {burst_length}"
            )
        p_bad = 1.0
        if not p_good <= average_loss < p_bad:
            raise InvalidParameterError(
                f"average_loss must lie in [p_good, p_bad) = "
                f"[{p_good}, {p_bad}), got {average_loss}"
            )
        pi_bad = (average_loss - p_good) / (p_bad - p_good)
        p_bg = 1.0 / float(burst_length)
        if pi_bad >= 1.0:
            raise InvalidParameterError(
                f"average_loss {average_loss} requires the channel to be "
                f"always-bad"
            )
        p_gb = pi_bad * p_bg / (1.0 - pi_bad)
        if p_gb > 1.0:
            raise InvalidParameterError(
                f"no Gilbert-Elliott chain matches average_loss="
                f"{average_loss} with burst_length={burst_length} "
                f"(p_gb={p_gb:.3g} > 1); use a longer burst"
            )
        return cls(
            delay=delay,
            p_good=p_good,
            p_bad=p_bad,
            p_gb=p_gb,
            p_bg=p_bg,
            rng=rng,
        )

    # ------------------------------------------------------------------ #
    # Closed-form channel properties
    # ------------------------------------------------------------------ #

    @property
    def stationary_bad(self) -> float:
        """``π_bad = p_gb / (p_gb + p_bg)``."""
        return self._p_gb / (self._p_gb + self._p_bg)

    @property
    def stationary_loss_rate(self) -> float:
        """``π_good·p_good + π_bad·p_bad`` — the long-run loss rate."""
        pi_bad = self.stationary_bad
        return (1.0 - pi_bad) * self._p_good + pi_bad * self._p_bad

    # ------------------------------------------------------------------ #
    # LossyLink-compatible surface
    # ------------------------------------------------------------------ #

    @property
    def loss_probability(self) -> float:
        """The *average* loss rate (what an i.i.d. link would be told)."""
        return self.stationary_loss_rate

    @property
    def stats(self) -> LinkStats:
        return self._stats

    def step_fate(self) -> bool:
        """One message's fate: loss draw in the current state, then one
        Markov transition.  Always two uniform draws per message, so the
        stream layout is independent of the realized path."""
        p = self._p_bad if self._bad else self._p_good
        lost = bool(self._rng.random() < p)
        r = self._rng.random()
        if self._bad:
            if r < self._p_bg:
                self._bad = False
        else:
            if r < self._p_gb:
                self._bad = True
        return lost

    def transmit(self, seq: int, send_time: float) -> MessageRecord:
        """Decide the fate of one message sent at ``send_time``."""
        if self.step_fate():
            self._stats.record(dropped=True)
            return MessageRecord(seq=seq, send_time=send_time, delay=math.inf)
        delay = self._delay.draw(self._rng)
        self._stats.record(dropped=False)
        return MessageRecord(seq=seq, send_time=send_time, delay=delay)


class FaultyLink:
    """Scripted partitions, duplication, and reordering over a base link.

    The wrapper is transparent when no fault window is active: exactly
    one base-link ``transmit`` per message and **zero** draws from the
    fault RNG, so a run with an empty scenario is bit-identical to a run
    on the bare base link.  The fault RNG is a separate namespaced
    stream (``STREAM_FAULTS``), so enabling a fault window perturbs only
    the fault draws — the base link's loss/delay stream is untouched.

    Draw order inside an active window is fixed (reorder draw, then
    duplication draws) and documented so scenario replays are
    reproducible by construction.
    """

    def __init__(self, base, fault_rng: np.random.Generator) -> None:
        self._base = base
        self._rng = fault_rng
        self._partition_depth = 0
        # (probability, lag, jitter) / (probability, extra_delay)
        self._dup: Optional[Tuple[float, float, float]] = None
        self._reorder: Optional[Tuple[float, float]] = None
        self.partition_dropped = 0
        self.duplicated = 0
        self.reordered = 0

    # ------------------------------------------------------------------ #
    # Base-link delegation
    # ------------------------------------------------------------------ #

    @property
    def base(self):
        return self._base

    @property
    def loss_probability(self) -> float:
        return self._base.loss_probability

    @property
    def stats(self) -> LinkStats:
        return self._base.stats

    def set_conditions(self, **kwargs) -> None:
        set_conditions = getattr(self._base, "set_conditions", None)
        if set_conditions is None:
            raise InvalidParameterError(
                f"base link {type(self._base).__name__} does not support "
                f"regime changes (set_conditions)"
            )
        set_conditions(**kwargs)

    # ------------------------------------------------------------------ #
    # Fault-window toggles (driven by the scenario engine)
    # ------------------------------------------------------------------ #

    @property
    def partitioned(self) -> bool:
        return self._partition_depth > 0

    def begin_partition(self) -> None:
        self._partition_depth += 1

    def end_partition(self) -> None:
        if self._partition_depth <= 0:
            raise InvalidParameterError("end_partition without a partition")
        self._partition_depth -= 1

    def set_duplication(
        self, probability: float, lag: float, jitter: float
    ) -> None:
        self._dup = (float(probability), float(lag), float(jitter))

    def clear_duplication(self) -> None:
        self._dup = None

    def set_reordering(self, probability: float, extra_delay: float) -> None:
        self._reorder = (float(probability), float(extra_delay))

    def clear_reordering(self) -> None:
        self._reorder = None

    # ------------------------------------------------------------------ #
    # Transmission
    # ------------------------------------------------------------------ #

    def transmit(self, seq: int, send_time: float) -> MessageRecord:
        """Single-record fate (duplicates, if any, are discarded)."""
        return self.transmit_multi(seq, send_time)[0]

    def transmit_multi(
        self, seq: int, send_time: float
    ) -> Tuple[MessageRecord, ...]:
        """Fate(s) of one offered message: primary record first, then
        any duplicate copies the fault layer injected."""
        if self._partition_depth > 0:
            # The link is cut: certain loss, no base or fault draws.
            # Offered/dropped still count toward the link's epoch stats
            # (during a partition the observed loss rate *is* 1).
            self._base.stats.record(dropped=True)
            self.partition_dropped += 1
            return (
                MessageRecord(seq=seq, send_time=send_time, delay=math.inf),
            )
        record = self._base.transmit(seq, send_time)
        if record.lost:
            return (record,)
        records: List[MessageRecord] = [record]
        if self._reorder is not None:
            probability, extra_delay = self._reorder
            if self._rng.random() < probability:
                records[0] = MessageRecord(
                    seq=seq,
                    send_time=send_time,
                    delay=record.delay + extra_delay,
                )
                self.reordered += 1
        if self._dup is not None:
            probability, lag, jitter = self._dup
            if self._rng.random() < probability:
                extra = lag + (jitter * self._rng.random() if jitter > 0 else 0.0)
                records.append(
                    MessageRecord(
                        seq=seq,
                        send_time=send_time,
                        delay=records[0].delay + extra,
                    )
                )
                self.duplicated += 1
        return tuple(records)
