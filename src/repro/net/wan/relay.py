"""Relay forwarding over a WAN: heartbeats traverse multi-hop routes.

The paper's link is an *end-to-end* abstraction (§3.1).  This module
drops that abstraction: a :class:`RoutedWanLink` forwards each heartbeat
hop by hop along the current shortest live route, so the end-to-end
delay is the sum of per-hop draws, the end-to-end loss compounds per
hop, and — the part no single-link model captures — a partition can cut
a link *while the message is in flight*, forcing a re-route from the
relay site it has reached (partial-connectivity forwarding in the style
of Sens et al.).

Determinism: a :class:`WanNetwork` is one run's mutable network state —
congestion episodes pre-sampled from the dedicated stream, one
Gilbert–Elliott chain per bursty link, all per-hop draws taken from the
single run generator in call order.  Same seed ⇒ bit-identical fates.

:class:`RoutedWanLink` is a drop-in for
:class:`~repro.net.link.LossyLink`: ``transmit`` returns the same
:class:`~repro.net.link.MessageRecord`, ``stats`` is a
:class:`~repro.net.link.LinkStats`, and ``loss_probability`` is the
*fault-free composite* of the default route — the single-link reduction
the Theorem 5 analysis consumes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.faults.links import GilbertElliottLink
from repro.net.link import LinkStats, MessageRecord
from repro.net.wan.congestion import CongestionField
from repro.net.wan.schedule import WanSchedule
from repro.net.wan.topology import WanTopology, pair_key
from repro.telemetry.runtime import active as _telemetry_active

__all__ = ["WanNetwork", "RoutedWanLink"]


class WanNetwork:
    """One run's instantiation of a :class:`WanTopology`.

    Args:
        topology: the declarative description.
        rng: the run's seeded generator; congestion episodes are drawn
            first (declaration order), then Gilbert–Elliott chains are
            initialised (sorted link order), then per-hop fates consume
            the stream in transmit order.
        horizon: run length — congestion episodes are pre-sampled up to
            this time.
        schedule: optional scripted partition/heal + regime overlay.
    """

    def __init__(
        self,
        topology: WanTopology,
        rng: np.random.Generator,
        horizon: float,
        schedule: Optional[WanSchedule] = None,
    ) -> None:
        self._topology = topology
        self._rng = rng
        self._schedule = schedule
        self.congestion = CongestionField(topology, rng, horizon)
        # One equal-average Gilbert–Elliott chain per bursty link, on the
        # run's stream: one initial-state uniform each, then two a message.
        self._chains: Dict[Tuple[str, str], GilbertElliottLink] = {
            spec.key: GilbertElliottLink.from_average(
                spec.delay, spec.loss, spec.burst_length, rng=rng
            )
            for spec in topology.links
            if spec.burst_length is not None
        }
        # Route cache: the router's answer is pure topology + down-set,
        # so one entry serves every query between two schedule flips.
        self._routes: Dict[
            Tuple[str, str, frozenset], Optional[Tuple[str, ...]]
        ] = {}

    @property
    def topology(self) -> WanTopology:
        return self._topology

    @property
    def schedule(self) -> Optional[WanSchedule]:
        return self._schedule

    def link_down(self, key: Tuple[str, str], t: float) -> bool:
        """Whether the scripted schedule has this link cut at ``t``."""
        return self._schedule is not None and self._schedule.down(key, t)

    def down_set(self, t: float) -> frozenset:
        return (
            frozenset()
            if self._schedule is None
            else self._schedule.down_set(t)
        )

    def route(
        self, source: str, target: str, t: float
    ) -> Optional[List[str]]:
        """Shortest live route at time ``t``, or ``None`` if partitioned
        apart.  Cached per down-set."""
        down = self.down_set(t)
        key = (source, target, down)
        if key not in self._routes:
            path = self._topology.route(source, target, down=down)
            self._routes[key] = None if path is None else tuple(path)
        cached = self._routes[key]
        return None if cached is None else list(cached)

    def hop_fate(self, key: Tuple[str, str], t: float) -> Optional[float]:
        """One message's fate crossing one (live) link at time ``t``.

        Returns the hop delay, or ``None`` if the hop dropped it.  Draw
        order mirrors :class:`~repro.net.link.LossyLink`: the loss
        uniform is consumed only when the governing rate is positive,
        then the delay draw.  A scripted :class:`LossRegime` overrides a
        bursty link with *i.i.d.* loss at the scripted rate for its span
        (the regime states the rate; burstiness is the declared link's
        property) — the chain is not stepped during the override.
        """
        key = pair_key(*key)
        spec = self._topology.links_for(key)
        override = (
            None if self._schedule is None else self._schedule.loss_at(key, t)
        )
        if override is not None:
            lost = override > 0.0 and self._rng.random() < override
        elif key in self._chains:
            lost = self._chains[key].step_fate()
        else:
            lost = spec.loss > 0.0 and self._rng.random() < spec.loss
        if lost:
            return None
        delay_dist = (
            None if self._schedule is None else self._schedule.delay_at(key, t)
        )
        if delay_dist is None:
            delay_dist = spec.delay
        delay = delay_dist.draw(self._rng)
        return delay * self.congestion.factor(key, t)


class RoutedWanLink:
    """A LossyLink-compatible link whose messages are relayed hop by hop.

    Each :meth:`transmit` walks the current shortest live route; when a
    scripted partition cuts the next hop at the moment the message would
    cross it, the message re-routes from the relay site it has reached
    (or is dropped when no route remains).  Counters:

    * ``route_flips`` — the route chosen at send time differed from the
      previous message's (route flapping across heals/partitions);
    * ``reroutes`` — mid-flight detours around a freshly cut link;
    * ``no_route_drops`` — messages dropped because no live route
      existed (at send time or mid-flight);
    * ``relay_drops`` — messages dropped by per-hop stochastic loss.

    ``loss_probability`` is the fault-free composite of the default
    route (via :meth:`WanTopology.compose_route`), which is exactly the
    single-link abstraction the analytic machinery consumes.
    """

    def __init__(
        self,
        network: WanNetwork,
        source: str,
        target: str,
    ) -> None:
        self._network = network
        self._source = source
        self._target = target
        _, loss, _ = network.topology.compose_route(source, target)
        self._composite_loss = loss
        self._stats = LinkStats(loss)
        self._last_path: Optional[Tuple[str, ...]] = None
        self.route_flips = 0
        self.reroutes = 0
        self.no_route_drops = 0
        self.relay_drops = 0

    # ------------------------------------------------------------------ #
    # LossyLink-compatible surface
    # ------------------------------------------------------------------ #

    @property
    def loss_probability(self) -> float:
        return self._composite_loss

    @property
    def stats(self) -> LinkStats:
        return self._stats

    @property
    def source(self) -> str:
        return self._source

    @property
    def target(self) -> str:
        return self._target

    def set_conditions(self, **_: object) -> None:
        raise InvalidParameterError(
            "a RoutedWanLink's behaviour is declared by its WanTopology "
            "and WanSchedule; script a LossRegime/DelayRegime on the "
            "inter-site link instead of set_conditions"
        )

    # ------------------------------------------------------------------ #
    # Relay transmit
    # ------------------------------------------------------------------ #

    def _emit(self, counter: str, help_text: str) -> None:
        registry = _telemetry_active()
        if registry is None:
            return
        registry.counter(
            counter,
            help_text,
            labels={
                "topology": self._network.topology.name,
                "route": f"{self._source}->{self._target}",
            },
        ).inc()

    def _drop(self, seq: int, send_time: float) -> MessageRecord:
        self._stats.record(dropped=True)
        return MessageRecord(seq=seq, send_time=send_time, delay=math.inf)

    def transmit(self, seq: int, send_time: float) -> MessageRecord:
        """Relay one message from source to target, hop by hop."""
        network = self._network
        path = network.route(self._source, self._target, send_time)
        if path is None:
            self.no_route_drops += 1
            self._emit(
                "wan_no_route_drops_total",
                "messages dropped with no live route",
            )
            self._last_path = None
            return self._drop(seq, send_time)
        chosen = tuple(path)
        if self._last_path is not None and chosen != self._last_path:
            self.route_flips += 1
            self._emit(
                "wan_route_flips_total",
                "send-time route changes between consecutive messages",
            )
        self._last_path = chosen

        # Accumulate elapsed delay separately from absolute time: the
        # round-trip (send_time + d) - send_time is not exact in floats,
        # and single-hop relays must match LossyLink bit for bit.
        total = 0.0
        site = path[0]
        i = 0
        while site != self._target:
            t = send_time + total
            nxt = path[i + 1]
            key = pair_key(site, nxt)
            if network.link_down(key, t):
                # The next hop was cut while the message was in flight:
                # re-route from the relay site it has reached.
                detour = network.route(site, self._target, t)
                self.reroutes += 1
                self._emit(
                    "wan_reroutes_total",
                    "mid-flight detours around a cut link",
                )
                if detour is None:
                    self.no_route_drops += 1
                    self._emit(
                        "wan_no_route_drops_total",
                        "messages dropped with no live route",
                    )
                    return self._drop(seq, send_time)
                path = detour
                i = 0
                continue
            hop_delay = network.hop_fate(key, t)
            if hop_delay is None:
                self.relay_drops += 1
                return self._drop(seq, send_time)
            total += hop_delay
            site = nxt
            i += 1
        self._stats.record(dropped=False)
        return MessageRecord(seq=seq, send_time=send_time, delay=total)
