"""Cluster wiring and measurement for the gossip protocol.

Runs N gossip nodes on the discrete-event simulator over pairwise lossy
links and records, for a chosen (observer, subject) pair, the full S/T
output trace — so gossip is measured with exactly the paper's QoS
metrics rather than the "probability of premature timeouts" the paper
criticizes (Section 2.3).

Message-budget accounting: each node sends one vector per ``t_gossip``,
so its per-process send rate is ``1/t_gossip`` — directly comparable to
a heartbeat detector's ``(N−1)/η`` when it monitors everybody.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.gossip.node import GossipNode
from repro.metrics.qos import detection_time
from repro.metrics.transitions import SUSPECT, TRUST, OutputTrace
from repro.net.delays import DelayDistribution
from repro.sim.engine import Simulator

__all__ = ["GossipCluster", "GossipResult", "run_gossip", "payload_size_bytes"]

#: callback signature for cluster transition listeners:
#: ``listener(observer, subject, time, output)`` with output "S"/"T".
TransitionListener = Callable[[str, str, float, str], None]


def payload_size_bytes(payload) -> int:
    """Approximate wire size of one gossip payload, in bytes.

    Counters cost 8 bytes per entry plus a small per-name overhead;
    digest blobs are asked for their own ``packed_size_bytes()`` when
    they provide one (the hierarchy's shard digests do), else charged a
    flat word.  This is an accounting model, not a serializer — it keeps
    byte-budget comparisons honest without pulling in a codec.
    """
    counters = payload
    digests = {}
    if isinstance(payload.get("counters"), dict):
        counters = payload["counters"]
        digests = payload.get("digests") or {}
    size = sum(8 + len(name) for name in counters)
    for _origin, (_version, blob) in digests.items():
        packed = getattr(blob, "packed_size_bytes", None)
        size += 12 + (int(packed()) if callable(packed) else 8)
    return size


@dataclass
class GossipResult:
    """Measurements from one gossip run."""

    traces: Dict[Tuple[str, str], OutputTrace]
    messages_sent: int
    horizon: float
    crash_time: Optional[float]
    n_nodes: int
    detection_times: Dict[str, float] = field(default_factory=dict)
    #: integral of the number of *alive* nodes over the run, in
    #: node-time units; ``None`` (legacy constructions) falls back to
    #: ``n_nodes * horizon``.
    alive_node_time: Optional[float] = None
    bytes_sent: int = 0

    @property
    def per_process_send_rate(self) -> float:
        """Messages per unit time per *alive* process.

        The denominator integrates alive-node time: a node crashed at
        ``t_c`` contributes ``t_c``, not ``horizon``.  Dividing by
        ``n_nodes * horizon`` (the old accounting) diluted the rate with
        dead time, biasing any budget-matched comparison by the crash
        scenario itself.
        """
        denom = (
            self.alive_node_time
            if self.alive_node_time is not None
            else self.n_nodes * self.horizon
        )
        if denom <= 0.0:
            return math.nan
        return self.messages_sent / denom


class GossipCluster:
    """N gossip nodes over pairwise lossy links on one simulator."""

    def __init__(
        self,
        n_nodes: int,
        t_gossip: float,
        t_fail: float,
        delay: DelayDistribution,
        loss_probability: float,
        seed: int = 0,
        sim: Optional[Simulator] = None,
        member_names: Optional[Sequence[str]] = None,
    ) -> None:
        if n_nodes < 2:
            raise InvalidParameterError(f"need >= 2 nodes, got {n_nodes}")
        if not 0.0 <= loss_probability < 1.0:
            raise InvalidParameterError(
                f"loss_probability must be in [0,1), got {loss_probability}"
            )
        if member_names is not None and len(member_names) != n_nodes:
            raise InvalidParameterError(
                f"member_names has {len(member_names)} entries for "
                f"{n_nodes} nodes"
            )
        # Sharing an external simulator lets the gossip plane co-run
        # with other subsystems (the hierarchy's leaf monitors) in one
        # virtual timeline.
        self.sim = sim if sim is not None else Simulator()
        self._delay = delay
        self._p_l = float(loss_probability)
        self._rng = np.random.default_rng(seed)
        self.members = (
            list(member_names)
            if member_names is not None
            else [f"n{i}" for i in range(n_nodes)]
        )
        self.nodes: Dict[str, GossipNode] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        #: actual crash times, recorded by :meth:`crash` (first crash
        #: wins) — the alive-node-time integral is derived from these.
        self.crash_times: Dict[str, float] = {}
        self._listeners: List[TransitionListener] = []
        for m in self.members:
            self.nodes[m] = GossipNode(
                node_id=m,
                members=self.members,
                t_gossip=t_gossip,
                t_fail=t_fail,
                send=self._transmit,
                # crc32, not hash(): str hashing is salted per process
                # and would make runs irreproducible.
                rng=np.random.default_rng(
                    np.random.SeedSequence([seed, zlib.crc32(m.encode())])
                ),
                now=lambda: self.sim.now,
            )
        self._t_gossip = float(t_gossip)
        # Observed pairs: (observer, subject) -> trace recording state.
        self._watch: Dict[Tuple[str, str], OutputTrace] = {}
        self._watch_state: Dict[Tuple[str, str], str] = {}
        self._wrapped: set = set()
        self._armed: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    def _transmit(self, src: str, dst: str, payload: Dict[str, int]) -> None:
        self.messages_sent += 1
        self.bytes_sent += payload_size_bytes(payload)
        if self._p_l > 0.0 and self._rng.random() < self._p_l:
            return
        d = float(self._delay.sample(self._rng, 1)[0])
        self.sim.schedule_at(
            self.sim.now + d, lambda: self.nodes[dst].receive(payload)
        )

    def set_loss_probability(self, loss_probability: float) -> None:
        """Change the plane's loss rate mid-run (burst/flap injection).

        Messages already in flight keep their fate; only future sends
        draw against the new rate — same regime-change semantics as
        :meth:`repro.net.link.LossyLink.set_conditions`.
        """
        if not 0.0 <= loss_probability < 1.0:
            raise InvalidParameterError(
                f"loss_probability must be in [0,1), got {loss_probability}"
            )
        self._p_l = float(loss_probability)

    # ------------------------------------------------------------------ #
    # Watching pairs
    # ------------------------------------------------------------------ #

    def watch(self, observer: str, subject: str) -> None:
        """Record the S/T output of ``observer`` about ``subject``.

        Recording is exactly event-driven: trust can begin only when a
        receive event advances the subject's counter (the node's
        ``receive`` is wrapped to evaluate immediately), and suspicion
        begins exactly at the staleness deadline (tracked with a lazy
        timer that re-arms itself whenever fresh news moved the
        deadline).
        """
        if observer == subject:
            raise InvalidParameterError("observer must differ from subject")
        key = (observer, subject)
        self._watch[key] = OutputTrace(
            start_time=self.sim.now, initial_output=SUSPECT
        )
        self._watch_state[key] = SUSPECT
        node = self.nodes[observer]
        if observer not in self._wrapped:
            self._wrapped.add(observer)
            original = node.receive

            def receive_and_evaluate(payload, _orig=original, _obs=observer):
                _orig(payload)
                for k in list(self._watch):
                    if k[0] == _obs:
                        self._evaluate(k)

            node.receive = receive_and_evaluate  # type: ignore[method-assign]
        self._evaluate(key)

    def subscribe(self, listener: TransitionListener) -> None:
        """Register ``listener(observer, subject, time, output)`` to be
        called on every recorded watch transition (the hierarchy layer
        drives its root-side leaf-staleness masking off this)."""
        self._listeners.append(listener)

    def watched_output(self, observer: str, subject: str) -> str:
        """The currently *recorded* output for a watched pair."""
        try:
            return self._watch_state[(observer, subject)]
        except KeyError:
            raise InvalidParameterError(
                f"pair ({observer!r}, {subject!r}) is not watched"
            ) from None

    def _evaluate(self, key: Tuple[str, str]) -> None:
        """Record a transition if the observer's view of subject flipped;
        keep exactly one lazy timer armed for the staleness deadline."""
        observer, subject = key
        node = self.nodes[observer]
        state = SUSPECT if node.suspects(subject) else TRUST
        if state != self._watch_state[key]:
            self._watch_state[key] = state
            self._watch[key].record(self.sim.now, state)
            for listener in self._listeners:
                listener(observer, subject, self.sim.now, state)
        if state == TRUST:
            deadline = node.suspicion_flip_time(subject)
            # Arm at most one timer per (key, deadline): re-arming on
            # every receive would leak one self-renewing timer each.
            # The deadline boundary is *closed* (suspects() flips at
            # ``now == deadline``), so the guard admits equality too: a
            # TRUST verdict co-timed with its own deadline — possible
            # only through float pathology — still gets a timer that
            # fires immediately rather than silently never re-arming.
            if deadline >= self.sim.now and self._armed.get(key) != deadline:
                self._armed[key] = deadline

                def fire(expected=deadline) -> None:
                    if self._armed.get(key) == expected:
                        self._armed.pop(key, None)
                        self._evaluate(key)

                self.sim.schedule_at(deadline, fire)

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        for i, m in enumerate(self.members):
            # Stagger rounds uniformly to avoid synchronized bursts.
            offset = (i + 1) / (len(self.members) + 1) * self._t_gossip
            self._arm_round(m, self.sim.now + offset)

    def _arm_round(self, member: str, when: float) -> None:
        def fire() -> None:
            node = self.nodes[member]
            if node.crashed:
                return
            node.gossip_round()
            self._arm_round(member, self.sim.now + self._t_gossip)

        self.sim.schedule_at(when, fire)

    def crash(self, member: str) -> None:
        """Crash ``member`` now.  Idempotent; the first crash time is
        recorded for alive-node-time accounting."""
        node = self.nodes.get(member)
        if node is None:
            raise InvalidParameterError(
                f"unknown member {member!r}; cluster members are "
                f"{', '.join(self.members)}"
            )
        node.crashed = True
        self.crash_times.setdefault(member, self.sim.now)

    def alive_node_time(self, horizon: float) -> float:
        """Integral of the alive-node count over ``[0, horizon]``."""
        return float(
            sum(
                min(self.crash_times.get(m, horizon), horizon)
                for m in self.members
            )
        )

    def finish(self) -> Dict[Tuple[str, str], OutputTrace]:
        return {
            key: trace.close(self.sim.now)
            for key, trace in self._watch.items()
        }


def run_gossip(
    n_nodes: int,
    t_gossip: float,
    t_fail: float,
    delay: DelayDistribution,
    loss_probability: float,
    horizon: float,
    crash_member: Optional[str] = None,
    crash_time: Optional[float] = None,
    seed: int = 0,
) -> GossipResult:
    """Run a gossip cluster, watching every node's view of one subject.

    The *subject* is the crashed member when a crash is scheduled, else
    the last member; every other node observes it.  With a crash, each
    observer's ``T_D`` in :attr:`GossipResult.detection_times` is
    :func:`repro.metrics.detection_time` of its trace.
    """
    if horizon <= 0.0:
        raise InvalidParameterError(f"horizon must be positive, got {horizon}")
    if crash_time is not None and crash_member is None:
        raise InvalidParameterError(
            "crash_time given without crash_member (it would be silently "
            "ignored); pass the member to crash as well"
        )
    cluster = GossipCluster(
        n_nodes, t_gossip, t_fail, delay, loss_probability, seed=seed
    )
    if crash_member is not None and crash_member not in cluster.nodes:
        raise InvalidParameterError(
            f"crash_member {crash_member!r} is not in the cluster; "
            f"members are n0..n{n_nodes - 1}"
        )
    if crash_member is not None:
        when = crash_time if crash_time is not None else horizon / 2.0
        if not 0.0 <= when < horizon:
            raise InvalidParameterError(
                f"crash_time must lie inside [0, horizon={horizon:g}) so "
                f"the crash can be observed, got {when:g}"
            )
    else:
        when = None
    subject = crash_member if crash_member else cluster.members[-1]
    for observer in cluster.members:
        if observer != subject:
            cluster.watch(observer, subject)
    cluster.start()
    if when is not None:
        cluster.sim.schedule_at(when, lambda: cluster.crash(crash_member))
    cluster.sim.run_until(horizon)
    traces = cluster.finish()

    detection = {
        observer: detection_time(trace, when)
        for (observer, subj), trace in traces.items()
        if crash_member is not None and subj == crash_member
    }
    return GossipResult(
        traces=traces,
        messages_sent=cluster.messages_sent,
        horizon=horizon,
        crash_time=when,
        n_nodes=n_nodes,
        detection_times=detection,
        alive_node_time=cluster.alive_node_time(horizon),
        bytes_sent=cluster.bytes_sent,
    )
