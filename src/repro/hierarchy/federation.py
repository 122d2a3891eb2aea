"""The two-level (extensible) federated monitoring topology.

:class:`HierarchicalMonitor` assembles, on one discrete-event
simulator:

* **level 0** — senders heartbeating their shard's
  :class:`~repro.hierarchy.leaf.LeafMonitor` over per-sender
  :class:`~repro.net.link.LossyLink` models (delays, loss — and, via
  the service layer, any :mod:`repro.faults` scenario);
* **level 1** — the digest plane: leaves plus the root as members of a
  :class:`~repro.gossip.GossipCluster`, each leaf publishing its shard
  digest every gossip round, the root merging whatever versions the
  epidemic paths deliver and watching each leaf's gossip counters for
  staleness (a silent leaf's whole shard becomes suspected).

The root's per-sender S/T traces are the paper's own QoS surface, so
end-to-end detection time, mistake recurrence and mistake duration *as
seen at the root* come from the standard estimators.  Deeper trees
compose the same pieces: an aggregator republishes its merged book as a
digest into the next plane up — the lattice merge makes the middle tier
transparent.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import HeartbeatFailureDetector
from repro.core.nfd_s import NFDS
from repro.errors import InvalidParameterError
from repro.gossip.simulation import GossipCluster
from repro.hierarchy.leaf import LeafMonitor
from repro.hierarchy.root import RootAggregator
from repro.metrics.qos import detection_time
from repro.metrics.transitions import SUSPECT, OutputTrace
from repro.net.delays import DelayDistribution
from repro.sim.engine import Simulator
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.hierarchy import HierarchyTelemetry

__all__ = ["HierarchyConfig", "HierarchyResult", "HierarchicalMonitor"]

#: RNG stream tag for hierarchy-level draws (shard churn picks etc.).
_STREAM_HIERARCHY = 0x48495252  # "HIRR"


@dataclass
class HierarchyConfig:
    """Parameters of a two-level federation.

    Level 0 (heartbeats): every sender heartbeats its leaf every
    ``eta`` over a link with ``sender_delay``/``sender_loss``; leaves
    run NFD-S with freshness shift ``delta`` unless a custom
    ``detector_factory`` is given.

    Level 1 (digests): leaves and root gossip every ``t_digest`` over
    links with ``plane_delay``/``plane_loss``; the root marks a leaf
    stale when its gossip counters go unincremented for
    ``plane_t_fail``.
    """

    n_senders: int
    n_leaves: int
    eta: float
    delta: float
    sender_delay: DelayDistribution
    sender_loss: float = 0.0
    t_digest: float = 1.0
    plane_t_fail: float = 6.0
    plane_delay: Optional[DelayDistribution] = None
    plane_loss: float = 0.0
    seed: int = 0
    detector_factory: Optional[Callable[[], HeartbeatFailureDetector]] = None

    def __post_init__(self) -> None:
        if self.n_senders < 1:
            raise InvalidParameterError(
                f"need >= 1 sender, got {self.n_senders}"
            )
        if self.n_leaves < 1:
            raise InvalidParameterError(
                f"need >= 1 leaf, got {self.n_leaves}"
            )
        if self.n_leaves > self.n_senders:
            raise InvalidParameterError(
                f"more leaves ({self.n_leaves}) than senders "
                f"({self.n_senders}); every leaf must own a shard"
            )
        if self.eta <= 0 or self.delta <= 0:
            raise InvalidParameterError("eta and delta must be positive")
        if self.t_digest <= 0:
            raise InvalidParameterError("t_digest must be positive")
        if self.plane_t_fail <= self.t_digest:
            raise InvalidParameterError(
                "plane_t_fail must exceed t_digest (otherwise every leaf "
                "is suspected between digest rounds)"
            )
        if self.plane_delay is None:
            self.plane_delay = self.sender_delay

    def make_detector(self) -> HeartbeatFailureDetector:
        if self.detector_factory is not None:
            return self.detector_factory()
        return NFDS(eta=self.eta, delta=self.delta)


@dataclass
class HierarchyResult:
    """Everything one federation run produced."""

    root_traces: Dict[str, OutputTrace]
    leaf_traces: Dict[str, Dict[Tuple[str, int], OutputTrace]]
    horizon: float
    n_senders: int
    n_leaves: int
    heartbeat_messages: int
    plane_messages: int
    plane_bytes: int
    crash_times: Dict[str, float] = field(default_factory=dict)

    def detection_times(self) -> Dict[str, float]:
        """Root-level T_D per crashed sender (``inf`` = undetected).

        Each is :func:`repro.metrics.detection_time` of the root's trace
        (Section 2.2's final-suspicion rule).
        """
        out: Dict[str, float] = {}
        for name, crash_time in self.crash_times.items():
            trace = self.root_traces.get(name)
            out[name] = (
                math.inf if trace is None else detection_time(trace, crash_time)
            )
        return out

    def detection_completeness(self, at_time: float) -> float:
        """Fraction of crashed senders suspected at the root by ``at_time``."""
        if not self.crash_times:
            return math.nan
        crashed = [
            n for n, t in self.crash_times.items() if t <= at_time
        ]
        if not crashed:
            return math.nan
        suspected = 0
        for name in crashed:
            trace = self.root_traces.get(name)
            if trace is not None and trace.output_at(at_time) == SUSPECT:
                suspected += 1
        return suspected / len(crashed)


class HierarchicalMonitor:
    """Builder/driver for the federation; one instance = one run."""

    def __init__(self, config: HierarchyConfig) -> None:
        self.config = config
        self.sim = Simulator()
        cfg = config
        self.leaf_ids = [f"L{i}" for i in range(cfg.n_leaves)]
        self.root_id = "root"
        width = max(4, len(str(cfg.n_senders - 1)))
        self.sender_names = [
            f"s{i:0{width}d}" for i in range(cfg.n_senders)
        ]
        #: sender -> leaf id, round-robin sharding.
        self.shard_of: Dict[str, str] = {
            name: self.leaf_ids[i % cfg.n_leaves]
            for i, name in enumerate(self.sender_names)
        }

        registry = telemetry_runtime.active()
        self._tel = (
            HierarchyTelemetry(registry) if registry is not None else None
        )

        # ---- level 0: leaves and their shards ------------------------ #
        self.leaves: Dict[str, LeafMonitor] = {}
        for leaf_id in self.leaf_ids:
            leaf_seed = np.random.SeedSequence(
                [cfg.seed, _STREAM_HIERARCHY, zlib.crc32(leaf_id.encode())]
            ).generate_state(1)[0]
            self.leaves[leaf_id] = LeafMonitor(
                leaf_id, self.sim, seed=int(leaf_seed)
            )
        for name in self.sender_names:
            self._add_to_leaf(name)

        # ---- level 1: the digest plane ------------------------------- #
        self.plane = GossipCluster(
            cfg.n_leaves + 1,
            t_gossip=cfg.t_digest,
            t_fail=cfg.plane_t_fail,
            delay=cfg.plane_delay,
            loss_probability=cfg.plane_loss,
            seed=cfg.seed ^ _STREAM_HIERARCHY,
            sim=self.sim,
            member_names=[*self.leaf_ids, self.root_id],
        )
        for leaf_id, leaf in self.leaves.items():
            self.plane.nodes[leaf_id].digest_source = self._publisher(leaf)

        # ---- root ---------------------------------------------------- #
        self.root = RootAggregator(
            self.root_id, now=lambda: self.sim.now, shard_of=self.shard_of
        )
        for name in self.sender_names:
            self.root.expect(name)
        self.plane.nodes[self.root_id].on_digest = self._on_digest
        self.plane.subscribe(self._on_plane_transition)
        for leaf_id in self.leaf_ids:
            self.plane.watch(self.root_id, leaf_id)
        if self._tel is not None:
            self.root.on_transition = self._on_root_transition
            self._tel.level_nodes(0).set(cfg.n_senders)
            self._tel.level_nodes(1).set(cfg.n_leaves + 1)
            self._tel.root_suspected.set(len(self.root.suspected_set()))
        self.crash_times: Dict[str, float] = {}
        self._started = False

    # ------------------------------------------------------------------ #
    # Wiring helpers
    # ------------------------------------------------------------------ #

    def _add_to_leaf(self, name: str, incarnation: int = 0) -> None:
        cfg = self.config
        self.leaves[self.shard_of[name]].add_sender(
            name,
            cfg.make_detector(),
            eta=cfg.eta,
            delay=cfg.sender_delay,
            loss_probability=cfg.sender_loss,
            incarnation=incarnation,
        )

    def _publisher(self, leaf: LeafMonitor):
        if self._tel is None:
            return leaf.make_digest
        published = self._tel.digests_published(1)

        def publish():
            published.inc()
            return leaf.make_digest()

        return publish

    def _on_digest(self, origin: str, version: int, digest) -> None:
        self.root.apply_digest(digest)
        if self._tel is not None:
            self._tel.digests_applied.inc()
            self._tel.root_suspected.set(len(self.root.suspected_set()))

    def _on_plane_transition(
        self, observer: str, subject: str, time: float, output: str
    ) -> None:
        if observer != self.root_id:
            return
        self.root.set_leaf_state(subject, output)
        if self._tel is not None:
            self._tel.stale_leaves.set(len(self.root.stale_leaves))
            self._tel.root_suspected.set(len(self.root.suspected_set()))

    def _on_root_transition(self, name: str, time: float, output: str) -> None:
        if self._tel is not None:
            self._tel.root_suspected.set(len(self.root.suspected_set()))

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        for leaf in self.leaves.values():
            leaf.service.start()
        self.plane.start()
        self._started = True

    def run_until(self, horizon: float) -> None:
        self.sim.run_until(horizon)
        if self._tel is not None:
            self._sync_level_counters()

    def _sync_level_counters(self) -> None:
        hb = self._tel.messages(0)
        hb.inc(max(0.0, self._heartbeat_messages() - hb.value))
        msgs = self._tel.messages(1)
        msgs.inc(max(0.0, self.plane.messages_sent - msgs.value))
        nbytes = self._tel.bytes(1)
        nbytes.inc(max(0.0, self.plane.bytes_sent - nbytes.value))

    def crash_sender(self, name: str, at_time: Optional[float] = None) -> None:
        """Crash a sender now or at a scheduled future time.

        A future crash is resolved at *fire* time, not call time: under
        churn, a restart scheduled between the call and the crash
        replaces the sender's incarnation, and the crash must hit
        whatever incarnation is live when it lands (a call-time binding
        would crash an already-retired sender object, leaving the new
        incarnation immortal).
        """
        if name not in self.shard_of:
            raise InvalidParameterError(f"unknown sender {name!r}")

        def do_crash(when: float) -> None:
            self.leaves[self.shard_of[name]].crash_sender(name, at_time=when)
            prev = self.crash_times.get(name)
            self.crash_times[name] = when if prev is None else min(prev, when)

        if at_time is None or at_time <= self.sim.now:
            do_crash(self.sim.now if at_time is None else float(at_time))
        else:
            self.sim.schedule_at(
                float(at_time), lambda: do_crash(float(at_time))
            )

    def crash_senders(self, names: Sequence[str], at_time: float) -> List[str]:
        """Mass failure: crash many senders at the same instant."""
        for name in names:
            self.crash_sender(name, at_time=at_time)
        return list(names)

    def restart_sender(self, name: str, at_time: Optional[float] = None) -> None:
        """Re-admit a sender under a new incarnation (now or scheduled)."""
        if name not in self.shard_of:
            raise InvalidParameterError(f"unknown sender {name!r}")
        cfg = self.config
        leaf = self.leaves[self.shard_of[name]]

        def do_restart() -> None:
            leaf.restart_sender(
                name,
                cfg.make_detector,
                eta=cfg.eta,
                delay=cfg.sender_delay,
                loss_probability=cfg.sender_loss,
            )
            self.crash_times.pop(name, None)

        if at_time is None or at_time <= self.sim.now:
            do_restart()
        else:
            self.sim.schedule_at(float(at_time), do_restart)

    def remove_sender(self, name: str, at_time: Optional[float] = None) -> None:
        """Administratively retire a sender (tombstone on the digest plane)."""
        if name not in self.shard_of:
            raise InvalidParameterError(f"unknown sender {name!r}")
        leaf = self.leaves[self.shard_of[name]]
        if at_time is None or at_time <= self.sim.now:
            leaf.remove_sender(name)
        else:
            self.sim.schedule_at(
                float(at_time), lambda: leaf.remove_sender(name)
            )

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def _heartbeat_messages(self) -> int:
        return sum(leaf.heartbeat_messages for leaf in self.leaves.values())

    def finish(self) -> HierarchyResult:
        cfg = self.config
        if self._tel is not None:
            self._sync_level_counters()
        return HierarchyResult(
            root_traces=self.root.finish(self.sim.now),
            leaf_traces={
                leaf_id: leaf.service.finish()
                for leaf_id, leaf in self.leaves.items()
            },
            horizon=self.sim.now,
            n_senders=cfg.n_senders,
            n_leaves=cfg.n_leaves,
            heartbeat_messages=self._heartbeat_messages(),
            plane_messages=self.plane.messages_sent,
            plane_bytes=self.plane.bytes_sent,
            crash_times=dict(self.crash_times),
        )
