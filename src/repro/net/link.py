"""The lossy, delaying link between the monitored and monitoring process.

Section 3.1 of the paper: the link does not create or duplicate messages but
may *drop* each message independently with probability ``p_L`` and delays
each delivered message by an i.i.d. draw from a delay distribution ``D``.
This "message independence" assumption (footnote 10) is what makes the
closed-form analysis of Theorem 5 possible, and it is exactly what this
module implements: :func:`message_delay` is the one fate rule, and
:meth:`LossyLink.transmit` applies it per message for the discrete-event
simulator.  The batched crash-run kernel (:mod:`repro.sim.batch`)
replays a run's fates by calling the same function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import InvalidParameterError
from repro.net.delays import DelayDistribution

__all__ = [
    "MessageRecord",
    "LinkEpoch",
    "LinkStats",
    "LossyLink",
    "message_delay",
]


def message_delay(
    rng: np.random.Generator, p_l: float, delay: DelayDistribution
) -> float:
    """One message's fate on a §3.1 link: its delay, or ``inf`` if lost.

    The loss coin comes first and is flipped only when ``p_l > 0``; a
    lost message consumes no delay draw.  Every i.i.d. link in the
    library decides a fate with this call, so a replay that calls it on
    the same stream sees the same fates.
    """
    if p_l > 0.0 and rng.random() < p_l:
        return math.inf
    return delay.draw(rng)


@dataclass(frozen=True)
class MessageRecord:
    """The fate of one message offered to the link.

    Attributes:
        seq: sequence number of the message (heartbeat index).
        send_time: time at which the sender handed the message to the link.
        delay: one-way delay; ``math.inf`` if the message was dropped.
    """

    seq: int
    send_time: float
    delay: float

    @property
    def lost(self) -> bool:
        """Whether the link dropped this message."""
        return math.isinf(self.delay)

    @property
    def arrival_time(self) -> float:
        """Receive time at the destination (``inf`` for lost messages)."""
        return self.send_time + self.delay


@dataclass
class LinkEpoch:
    """Counters for one regime — the span between two condition changes.

    ``loss_probability`` is the *configured* ``p_L`` of the regime, kept
    next to the counters so ``empirical_loss_rate`` can be compared to
    the rate it is supposed to converge to.
    """

    loss_probability: float
    offered: int = field(default=0, init=False)
    dropped: int = field(default=0, init=False)

    @property
    def delivered(self) -> int:
        return self.offered - self.dropped

    @property
    def empirical_loss_rate(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.dropped / self.offered


class LinkStats:
    """Per-regime counters kept by a :class:`LossyLink`.

    A :meth:`~LossyLink.set_conditions` call (a regime change) starts a
    new :class:`LinkEpoch`; counters accumulate into the *current* epoch
    only.  The scalar properties (``offered``, ``dropped``,
    ``delivered``) are lifetime totals, but ``empirical_loss_rate`` is
    the **current epoch's** rate — blending pre- and post-regime traffic
    into one ratio (the old behaviour) produced a number that converges
    to no parameter of either regime.
    """

    def __init__(self, loss_probability: float = 0.0) -> None:
        self.epochs: List[LinkEpoch] = [LinkEpoch(loss_probability)]

    @property
    def current_epoch(self) -> LinkEpoch:
        return self.epochs[-1]

    def begin_epoch(self, loss_probability: float) -> None:
        """Start a new regime's counter set.

        An epoch that saw no traffic is replaced in-place (two condition
        changes with no messages in between are one regime as far as the
        counters are concerned).
        """
        if self.current_epoch.offered == 0:
            self.epochs[-1] = LinkEpoch(loss_probability)
        else:
            self.epochs.append(LinkEpoch(loss_probability))

    def record(self, dropped: bool) -> None:
        epoch = self.epochs[-1]
        epoch.offered += 1
        if dropped:
            epoch.dropped += 1

    @property
    def offered(self) -> int:
        """Lifetime total of messages offered, across all epochs."""
        return sum(e.offered for e in self.epochs)

    @property
    def dropped(self) -> int:
        """Lifetime total of messages dropped, across all epochs."""
        return sum(e.dropped for e in self.epochs)

    @property
    def delivered(self) -> int:
        return self.offered - self.dropped

    @property
    def empirical_loss_rate(self) -> float:
        """Loss rate of the *current* regime (see class docstring)."""
        return self.current_epoch.empirical_loss_rate


class LossyLink:
    """An end-to-end connection with Bernoulli loss and i.i.d. delays.

    Args:
        delay: the message-delay distribution ``D``.
        loss_probability: the per-message drop probability ``p_L``.
        rng: NumPy random generator; pass a seeded generator for
            reproducible runs.

    The link is *memoryless*: every call draws fresh loss and delay values,
    independent of all earlier messages, matching the paper's model.
    """

    def __init__(
        self,
        delay: DelayDistribution,
        loss_probability: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise InvalidParameterError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        self._delay = delay
        self._p_l = float(loss_probability)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._stats = LinkStats(self._p_l)

    @property
    def loss_probability(self) -> float:
        return self._p_l

    @property
    def stats(self) -> LinkStats:
        return self._stats

    def set_conditions(
        self,
        delay: Optional[DelayDistribution] = None,
        loss_probability: Optional[float] = None,
    ) -> None:
        """Change the link's behaviour mid-run (regime change).

        Messages already in flight keep their original fate; only future
        :meth:`transmit` calls see the new conditions.  This models the
        Section 8.1 scenario of a network whose probabilistic behaviour
        shifts (peak vs. off-peak traffic).  The stats open a new
        :class:`LinkEpoch`, so ``stats.empirical_loss_rate`` tracks the
        new regime instead of blending it with the old one.
        """
        if delay is not None:
            self._delay = delay
        if loss_probability is not None:
            if not 0.0 <= loss_probability < 1.0:
                raise InvalidParameterError(
                    f"loss_probability must be in [0, 1), got {loss_probability}"
                )
            self._p_l = float(loss_probability)
        self._stats.begin_epoch(self._p_l)

    def transmit(self, seq: int, send_time: float) -> MessageRecord:
        """Decide the fate of one message sent at ``send_time``."""
        delay = message_delay(self._rng, self._p_l, self._delay)
        self._stats.record(dropped=delay == math.inf)
        return MessageRecord(seq=seq, send_time=send_time, delay=delay)
