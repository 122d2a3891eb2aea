"""One node of the gossip failure-detection protocol.

Protocol (van Renesse et al. 1998, basic variant):

* every node keeps a *heartbeat vector*: for each known member, a
  counter and the local time at which that counter last increased;
* every ``t_gossip`` the node increments its own counter and sends its
  whole vector to one uniformly random other member;
* on receiving a vector it merges entry-wise maxima, stamping the local
  receipt time wherever a counter increased;
* it *suspects* any member whose counter has not increased for
  ``t_fail`` local time units.

The node is transport-agnostic: the cluster wiring (who delivers what,
with which delays/losses) lives in :mod:`repro.gossip.simulation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["VectorEntry", "GossipNode"]

#: key discriminating a composite (counters + digests) gossip payload
#: from a plain heartbeat-vector payload.  Plain payload values are
#: ``int`` counters, so a ``dict`` under this key cannot be confused
#: with a member named "counters".
_COUNTERS_KEY = "counters"
_DIGESTS_KEY = "digests"


@dataclass
class VectorEntry:
    """One member's heartbeat state as seen by a node."""

    counter: int
    last_increase: float  # local time of the last counter increase


class GossipNode:
    """A gossip participant.

    Args:
        node_id: this node's identity.
        members: all member identities (including this node).
        t_gossip: gossip period.
        t_fail: suspicion threshold on counter staleness.
        send: callback ``send(dst, vector_copy)`` used each round.
        rng: random generator for peer selection.
        now: callback returning the node's local time.
    """

    def __init__(
        self,
        node_id: str,
        members: Sequence[str],
        t_gossip: float,
        t_fail: float,
        send: Callable[[str, Dict[str, int]], None],
        rng: np.random.Generator,
        now: Callable[[], float],
    ) -> None:
        if t_gossip <= 0 or t_fail <= 0:
            raise InvalidParameterError("t_gossip and t_fail must be positive")
        if t_fail <= t_gossip:
            raise InvalidParameterError(
                "t_fail must exceed t_gossip (otherwise every member is "
                "suspected between rounds)"
            )
        if node_id not in members:
            raise InvalidParameterError("node_id must be one of members")
        if len(set(members)) != len(members):
            raise InvalidParameterError("duplicate member ids")
        self.node_id = node_id
        self._peers = [m for m in members if m != node_id]
        if not self._peers:
            raise InvalidParameterError("need at least two members")
        self._t_gossip = float(t_gossip)
        self._t_fail = float(t_fail)
        self._send = send
        self._rng = rng
        self._now = now
        start = now()
        self._vector: Dict[str, VectorEntry] = {
            m: VectorEntry(counter=0, last_increase=start) for m in members
        }
        self.crashed = False
        # ---- digest plane (optional) --------------------------------- #
        # Anti-entropy dissemination of opaque per-origin payloads: each
        # publishing node keeps a monotone version for its own digest;
        # receivers merge entries per origin by highest version.  The
        # hierarchy layer rides its shard-status digests on this.
        self._digests: Dict[str, Tuple[int, Any]] = {}
        self._digest_version = 0
        #: when set, called at every gossip round to refresh this node's
        #: own digest payload (the returned object is published under a
        #: freshly bumped version).
        self.digest_source: Optional[Callable[[], Any]] = None
        #: when set, called as ``on_digest(origin, version, payload)``
        #: each time a strictly newer digest version for ``origin`` is
        #: learned from a received message.
        self.on_digest: Optional[Callable[[str, int, Any], None]] = None

    @property
    def t_gossip(self) -> float:
        return self._t_gossip

    @property
    def t_fail(self) -> float:
        return self._t_fail

    @property
    def vector(self) -> Dict[str, VectorEntry]:
        return self._vector

    # ------------------------------------------------------------------ #
    # Protocol actions
    # ------------------------------------------------------------------ #

    def gossip_round(self) -> Optional[str]:
        """Increment own counter and gossip to one random peer.

        Returns the chosen peer (None if this node has crashed).
        """
        if self.crashed:
            return None
        me = self._vector[self.node_id]
        me.counter += 1
        me.last_increase = self._now()
        if self.digest_source is not None:
            self.publish_digest(self.digest_source())
        peer = self._peers[int(self._rng.integers(len(self._peers)))]
        counters = {m: e.counter for m, e in self._vector.items()}
        if self._digests:
            payload: Any = {
                _COUNTERS_KEY: counters,
                _DIGESTS_KEY: dict(self._digests),
            }
        else:
            payload = counters
        self._send(peer, payload)
        return peer

    def receive(self, payload: Dict[str, Any]) -> None:
        """Merge a received heartbeat vector (entry-wise maximum).

        Composite payloads (``{"counters": {...}, "digests": {...}}``)
        additionally merge the digest plane per origin by highest
        version; plain counter dicts are accepted unchanged.
        """
        if self.crashed:
            return
        counters = payload
        if isinstance(payload.get(_COUNTERS_KEY), dict):
            counters = payload[_COUNTERS_KEY]
            self._merge_digests(payload.get(_DIGESTS_KEY) or {})
        now = self._now()
        for member, counter in counters.items():
            entry = self._vector.get(member)
            if entry is None:
                self._vector[member] = VectorEntry(counter, now)
            elif counter > entry.counter:
                entry.counter = counter
                entry.last_increase = now

    # ------------------------------------------------------------------ #
    # Digest plane
    # ------------------------------------------------------------------ #

    def publish_digest(self, payload: Any) -> int:
        """Publish ``payload`` as this node's digest; returns the version.

        Each publish bumps a monotone per-origin version, so receivers
        can merge concurrent copies deterministically (highest version
        wins) and re-publishing doubles as a digest-plane freshness
        signal.
        """
        self._digest_version += 1
        self._digests[self.node_id] = (self._digest_version, payload)
        return self._digest_version

    def digest(self, origin: str) -> Optional[Tuple[int, Any]]:
        """The newest ``(version, payload)`` known for ``origin``."""
        return self._digests.get(origin)

    @property
    def digests(self) -> Dict[str, Tuple[int, Any]]:
        return dict(self._digests)

    def _merge_digests(self, incoming: Dict[str, Tuple[int, Any]]) -> None:
        for origin, (version, blob) in incoming.items():
            if origin == self.node_id:
                # We are the sole publisher under our own origin: an
                # echo never replaces the local payload, but its
                # version raises the publish-counter floor so the next
                # publish dominates every copy still circulating (e.g.
                # after a restart lost the counter).
                self._digest_version = max(self._digest_version, version)
                continue
            held = self._digests.get(origin)
            if held is None or version > held[0]:
                self._digests[origin] = (version, blob)
                if self.on_digest is not None:
                    self.on_digest(origin, version, blob)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def suspects(self, member: str) -> bool:
        """Whether this node currently suspects ``member``.

        Suspicion begins *exactly* at the staleness deadline
        ``last_increase + t_fail`` (closed boundary), and the comparison
        is written against that same sum — not as ``now - last_increase
        > t_fail`` — so an evaluation scheduled at
        :meth:`suspicion_flip_time` agrees with this predicate to the
        last floating-point bit.  (The old strict-``>`` difference form
        made a timer firing at the deadline see "not yet suspected" and,
        with nothing left to re-arm it, deferred the S transition to the
        next receive — overstating detection time by up to a full gossip
        inter-arrival.)
        """
        if member == self.node_id:
            return False
        entry = self._vector[member]
        return self._now() >= entry.last_increase + self._t_fail

    def suspected_set(self) -> frozenset:
        return frozenset(
            m for m in self._vector if m != self.node_id and self.suspects(m)
        )

    def suspicion_flip_time(self, member: str) -> float:
        """Local time at which ``member`` becomes suspected, absent news."""
        return self._vector[member].last_increase + self._t_fail
