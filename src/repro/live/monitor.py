"""The monitoring process q on a real event loop.

:class:`LiveMonitorService` is the live counterpart of
:class:`~repro.service.monitor_service.MonitorService`: it receives raw
datagrams from a transport, decodes them, and dispatches each heartbeat
to the peer's host — a row of the shared
:class:`~repro.service.soa.VectorMonitorEngine` for plain NFD-S/U/E, a
:class:`~repro.sim.monitor.DetectorHost` for any other detector, both
on the service's one :class:`~repro.live.soa.LoopWheelScheduler` —
with the operational hardening a wall-clock service needs:

* **bounded inbox** — the transport callback only enqueues; a consumer
  task drains.  When the queue is full the datagram is dropped and
  counted (``live_inbox_dropped_total``), never blocking the loop: for
  a failure detector, a *late* heartbeat is worse than a lost one.
* **junk tolerance** — undecodable datagrams (port scans, misdirected
  traffic) are counted, not raised; so are heartbeats from unknown
  senders and from sequence numbers before the observation window.
* **incarnation dispatch** — a heartbeat with a higher incarnation than
  the current host means the peer restarted (footnote 2: a new
  identity): the old incarnation's host is finalized into the results
  and a fresh detector is started via the peer's factory; lower
  incarnations are stale stragglers and are dropped.
* **supervised consumer** — the inbox consumer runs under a
  :class:`~repro.live.supervisor.TaskSupervisor` and is restarted if it
  ever dies on an unexpected exception.

The consumer drains the inbox in chunks of up to :data:`_DRAIN_BATCH`.
A long enough chunk is decoded as columns
(:meth:`~repro.live.wire.HeartbeatBatchDecoder.decode_chunk`) and its
ordinary heartbeats — known sender, current incarnation, engine row —
are booked as array slices; everything else in it, and every datagram
of a short chunk, goes through the one datagram-by-datagram decision
procedure.  Decisions, counters and books are the same either way.
Both lanes turn a datagram into a peer the same way: the name bytes
after the header are probed in the service's interned peer index, and
only a stranger's name is decoded as UTF-8, for the admission hook.

Traces live in the hosts; the online QoS estimators are rows of the
engine's :class:`~repro.telemetry.qos_online.QoSTable`, exported as
:attr:`LivePeerResult.estimator` when an incarnation closes.  The Section 5/6
estimators (loss / delay / expected arrival) of every incarnation are
rows of the service's one :class:`~repro.estimation.ObserverTable`: a
host's ``observer`` is a view of its row, a drained chunk updates
all its rows with one ``observe_batch`` right before the engine's one
``ingest``, and closing an incarnation exports its row as the real
:class:`~repro.estimation.HeartbeatObserver` of
:attr:`LivePeerResult.observer`.  The service contributes registry
counters so an operator can watch the stream (``live_*`` series,
exported through the existing :mod:`repro.telemetry.export`
JSONL/Prometheus writers unchanged).
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import HeartbeatFailureDetector
from repro.errors import EstimationError, InvalidParameterError, SimulationError
from repro.estimation.observer import HeartbeatObserver
from repro.estimation.table import ObserverTable
from repro.live.fanout import first_slot
from repro.live.soa import LoopWheelScheduler
from repro.live.supervisor import TaskSupervisor
from repro.live.wire import (
    HeartbeatBatchDecoder,
    WireError,
    name_bytes,
    parse_heartbeat,
)
from repro.metrics.transitions import SUSPECT, OutputTrace
from repro.service.events import MonitorEvent
from repro.service.soa import (
    SoAMonitorHost,
    VectorMonitorEngine,
    supports_detector,
)
from repro.sim.monitor import DetectorHost
from repro.telemetry.qos_online import OnlineQoSEstimator
from repro.telemetry.registry import MetricsRegistry

__all__ = ["LiveMonitorService", "LivePeerResult"]

DetectorFactory = Callable[[int], HeartbeatFailureDetector]

#: auto-admission hook: name -> (detector_factory, eta), or None to refuse.
AdmitHook = Callable[[str], Optional[tuple]]

#: the wire carries sequence numbers as ``!Q``; the engine's and the
#: estimators' columns are ``int64``.  A number at or past this cannot
#: be booked and is junk (2^63 heartbeats is 10^11 years at 1 kHz).
_SEQ_LIMIT = 1 << 63

#: chunk length from which a drained chunk is decoded as columns.  The
#: columnar lane costs about 25 µs a chunk before its first heartbeat
#: (a dozen NumPy calls on short arrays) and then saves about 1.5 µs a
#: heartbeat.  µs per heartbeat of ``_dispatch_batch`` (decode, book,
#: flush), 10^4 NFD-S peers, one heartbeat a peer per slot in seeded
#: order, best of three medians over eight slots, scalar → columnar:
#: 8: 10.2 → 12.7, 12: 8.0 → 9.3, 16: 6.8 → 7.0, 20: 5.8 → 5.8,
#: 24: 5.4 → 5.4, 32: 4.6 → 3.9, 64: 3.5 → 2.5, 256: 2.6 → 1.25,
#: 1024: 2.4 → 0.97.  A monitor of a few peers drains chunks below it.
_COLUMNAR_FROM = 20

#: datagrams the consumer drains per wakeup.  Every datagram of a chunk
#: shares one receipt time, the consumer's wakeup instant, so a longer
#: chunk is cheaper (the sweep above: 64: 2.5, 256: 1.25, 1024: 0.97 µs
#: a heartbeat) and stamps later receipts coarser.  Decisions and
#: counters are the same for every size (``tests/live/test_batched_drain.py``).
_DRAIN_BATCH = 256


@dataclass(frozen=True)
class LivePeerResult:
    """The closed measurement state of one monitored incarnation."""

    name: str
    incarnation: int
    first_seq: int
    trace: Optional[OutputTrace]
    estimator: OnlineQoSEstimator
    observer: Optional[HeartbeatObserver]
    delivered: int


class _Peer:
    __slots__ = (
        "name",
        "index",
        "eta",
        "factory",
        "incarnation",
        "first_seq",
        "host",
        "observe",
    )

    def __init__(self, name, eta, factory, observe) -> None:
        self.name = name
        #: the peer's entry in the service's :class:`_PeerIndex`; -1
        #: until its first incarnation has started
        self.index = -1
        self.eta = eta
        self.factory = factory
        #: whether every incarnation gets an estimator row
        self.observe = observe
        self.incarnation = 0
        self.first_seq = 1
        #: SoAMonitorHost (NFD-S/U/E engine row) or DetectorHost (the rest)
        self.host: Optional[object] = None


class _PeerIndex:
    """The service's one name resolver: ``name.encode() → dense peer
    index``, plus, per index, the :class:`_Peer` and the four integers
    the columnar drain lane needs to book a heartbeat without touching
    the peer's objects.

    Indices are dense (a removed peer's index is reused), so the columns
    stay as long as the largest population ever monitored.  Every write
    bumps :attr:`version`: a drain that gathered from the columns
    re-reads them when it sees the version move.  Only :meth:`add` and
    :meth:`remove` change what a name resolves to, and they bump
    :attr:`names` as well: a restart (:meth:`host` / :meth:`unhost`)
    leaves the indices a drain has probed valid.
    """

    __slots__ = (
        "lookup",
        "peers",
        "version",
        "names",
        "incarnation",
        "row",
        "slot",
        "booked",
        "_free",
    )

    def __init__(self) -> None:
        #: wire name bytes -> index
        self.lookup: Dict[bytes, int] = {}
        #: index -> the peer it resolves to, None: free
        self.peers: List[Optional[_Peer]] = []
        self.version = self.names = 0
        cap = 64
        #: the incarnation currently monitored
        self.incarnation = np.zeros(cap, dtype=np.int64)
        #: engine row of a started, clockless SoAMonitorHost; -1: any
        #: other state (no host, a DetectorHost, a host with a clock)
        self.row = np.full(cap, -1, dtype=np.int64)
        #: estimator-table slot, -1: none (``observe=False``)
        self.slot = np.full(cap, -1, dtype=np.int64)
        #: receipts the columnar lane booked and the host has not been
        #: told about yet (:meth:`LiveMonitorService._settle_delivered`)
        self.booked = np.zeros(cap, dtype=np.int64)
        self._free: List[int] = []

    def add(self, peer: _Peer) -> None:
        if self._free:
            index = self._free.pop()
            self.peers[index] = peer
        else:
            index = len(self.peers)  # dense: 0 .. len − 1 are all in use
            if index == len(self.row):
                self._grow()
            self.peers.append(peer)
        peer.index = index
        self.lookup[peer.name.encode()] = index
        self.version += 1
        self.names += 1

    def get(self, name: str) -> Optional[_Peer]:
        index = self.lookup.get(name.encode())
        return None if index is None else self.peers[index]

    def _grow(self) -> None:
        for column, fill in (
            ("incarnation", 0),
            ("row", -1),
            ("slot", -1),
            ("booked", 0),
        ):
            old = getattr(self, column)
            grown = np.full(2 * len(old), fill, dtype=np.int64)
            grown[: len(old)] = old
            setattr(self, column, grown)

    def remove(self, peer: _Peer) -> None:
        """Forget a peer; its index goes to the next :meth:`add`."""
        del self.lookup[peer.name.encode()]
        self.peers[peer.index] = None
        self._free.append(peer.index)
        self.version += 1
        self.names += 1

    def host(self, index: int, incarnation: int, row: int, slot: int) -> None:
        self.incarnation[index] = incarnation
        self.row[index] = row
        self.slot[index] = slot
        self.version += 1

    def unhost(self, index: int) -> None:
        self.row[index] = self.slot[index] = -1
        self.version += 1


class LiveMonitorService:
    """Monitors a set of peers from a live datagram stream.

    Args:
        loop: the event loop (defaults to the running loop).
        origin: loop time at which local time reads zero (defaults to
            *now*; share it with in-process senders for synchronized
            clocks, or anchor it to the Unix epoch for UDP peers).
        registry: metrics registry for the ``live_*`` series.
        inbox_limit: bounded-inbox capacity in datagrams.
        warmup: per-incarnation startup span excluded from online QoS.
        keep_traces: retain full output traces (on for soaks/tests, off
            for indefinitely-running services).

    Peers whose factory returns a plain NFD-S/U/E detector share one
    :class:`~repro.service.soa.VectorMonitorEngine` — one armed loop
    timer for the whole service, which is what a monitor tracking 10^4+
    live peers needs; any other detector (a subclass included, see
    :func:`~repro.service.soa.supports_detector`) runs in its own
    :class:`~repro.sim.monitor.DetectorHost` with per-peer loop timers.
    Verdicts are identical either way.

    The engine hands the service its verdicts as batches — a wheel
    slice, a run of one drained chunk — and a batch updates every book
    (counters, the suspected set and gauge; the engine has already
    updated the QoS table) before any subscriber hears of it.  Each
    subscriber is isolated: an exception it raises is counted
    (``live_listener_errors_total``), handed to the loop's exception
    handler, and the remaining subscribers and events go on.
    """

    def __init__(
        self,
        *,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        origin: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
        inbox_limit: int = 4096,
        warmup: float = 0.0,
        keep_traces: bool = True,
        auto_admit: Optional[AdmitHook] = None,
    ) -> None:
        if inbox_limit < 1:
            raise InvalidParameterError(
                f"inbox_limit must be >= 1, got {inbox_limit}"
            )
        if not warmup >= 0:
            raise InvalidParameterError(f"warmup must be >= 0, got {warmup}")
        self._loop = (
            loop if loop is not None else asyncio.get_running_loop()
        )
        self._scheduler = LoopWheelScheduler(
            self._loop, self._loop.time() if origin is None else origin
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self._warmup = float(warmup)
        self._keep_traces = keep_traces
        self._auto_admit = auto_admit
        self._soa_engine: Optional[VectorMonitorEngine] = None
        #: engine row -> the peer it is the current incarnation of;
        #: None: removed or superseded, its verdicts muted
        self._row_owner: List[Optional[_Peer]] = []
        self._observers = ObserverTable()
        self._index = _PeerIndex()
        # Receipts booked for the SoA ingest path and not yet applied:
        # engine row, sequence number, sender timestamp and estimator
        # slot (-1: none) each.  The columnar lane books a run of
        # datagrams as one piece of four array slices; the scalar lane
        # appends to the four lists, which are sealed into a piece of
        # their own whenever a run follows them, so the pieces are in
        # arrival order.  One receipt time serves the whole buffer (one
        # clock read per drained chunk): it is read when the first
        # receipt is booked and forgotten by the flush.
        self._pend_pieces: List[tuple] = []
        #: the scalar lane's rows, seqs, sigmas, slots
        self._pend_lists: tuple = ([], [], [], [])
        self._pend_time: Optional[float] = None
        #: buffered receipts the estimators rejected, this chunk so far
        self._pend_rejected = 0
        # The inbox is a plain deque plus a wakeup event rather than an
        # asyncio.Queue: the producer side is always the synchronous
        # transport callback (put_nowait semantics only), so the Queue's
        # waiter machinery buys nothing and costs ~0.5µs per datagram on
        # both ends — a large fraction of the batched path's budget.
        self._inbox_limit = int(inbox_limit)
        self._inbox: Deque[bytes] = deque()
        self._inbox_ready = asyncio.Event()
        self._results: List[LivePeerResult] = []
        self._listeners: List[Callable[[MonitorEvent], None]] = []
        self._suspected: set = set()
        self._supervisor = TaskSupervisor()
        self._started = False
        self._closed = False

        reg = self.registry
        self._c_received = reg.counter(
            "live_datagrams_received_total", "datagrams offered to the inbox"
        )
        self._c_inbox_dropped = reg.counter(
            "live_inbox_dropped_total",
            "datagrams dropped on any shed path (inbox full, or arrival "
            "after shutdown)",
        )
        self._c_drop_noted = reg.counter(
            "live_dropped_heartbeats_noted_total",
            "shed heartbeats whose sequence numbers were excluded from "
            "the loss-rate estimate (local overload is not network loss)",
        )
        self._c_invalid = reg.counter(
            "live_datagrams_invalid_total", "datagrams that failed to decode"
        )
        self._c_unknown = reg.counter(
            "live_unknown_sender_total", "heartbeats from unregistered peers"
        )
        self._c_stale = reg.counter(
            "live_stale_incarnation_total",
            "heartbeats from a superseded incarnation",
        )
        self._c_prewindow = reg.counter(
            "live_prewindow_heartbeats_total",
            "heartbeats sequenced before the observation window",
        )
        self._c_dispatched = reg.counter(
            "live_heartbeats_dispatched_total",
            "heartbeats delivered to a detector host",
        )
        self._c_restarts = reg.counter(
            "live_incarnation_restarts_total",
            "peer restarts observed via a higher incarnation",
        )
        self._t_trust = reg.counter(
            "live_transitions_total",
            "detector output transitions",
            labels={"output": "T"},
        )
        self._t_suspect = reg.counter(
            "live_transitions_total",
            "detector output transitions",
            labels={"output": "S"},
        )
        self._g_suspected = reg.gauge(
            "live_suspected_processes", "peers currently suspected"
        )
        self._c_listener_errors = reg.counter(
            "live_listener_errors_total",
            "exceptions raised by subscribers (each handed to the loop's "
            "exception handler)",
        )

    # ------------------------------------------------------------------ #
    # Clock
    # ------------------------------------------------------------------ #

    @property
    def origin(self) -> float:
        return self._scheduler.origin

    @property
    def soa_engine(self) -> Optional[VectorMonitorEngine]:
        """The shared SoA engine, if the service has built one."""
        return self._soa_engine

    def _soa(self) -> VectorMonitorEngine:
        if self._soa_engine is None:
            self._soa_engine = VectorMonitorEngine(self._scheduler)
            self._soa_engine.listen(self._on_rows)
        return self._soa_engine

    def local_now(self) -> float:
        return self._scheduler.now()

    # ------------------------------------------------------------------ #
    # Peers
    # ------------------------------------------------------------------ #

    def add_peer(
        self,
        name: str,
        detector_factory: DetectorFactory,
        *,
        eta: float,
        observe: bool = True,
    ) -> None:
        """Register a peer and start monitoring it now.

        Args:
            name: the peer's process name (the wire identity).
            detector_factory: called as ``factory(first_seq)`` for every
                incarnation; must return a fresh unbound detector.
            eta: the peer's nominal inter-sending time (for the
                estimation pipeline and the first-seq computation).
            observe: attach the Section 5/6 estimation pipeline (loss /
                delay / expected-arrival) to every incarnation, as a row
                of the service's estimator table with its default
                windows.  Off, a peer whose detector parameters are
                fixed gets no row and its heartbeats skip the table's
                per-chunk pass.

        A registration that raises (a factory that fails) leaves
        nothing behind: the name is free again.
        """
        if self._index.get(name) is not None:
            raise InvalidParameterError(f"peer {name!r} already monitored")
        if not 0.0 < eta < math.inf:
            raise InvalidParameterError(
                f"eta must be positive and finite, got {eta}"
            )
        peer = _Peer(name, float(eta), detector_factory, observe)
        self._start_incarnation(peer, incarnation=0)

    def _start_incarnation(self, peer: _Peer, incarnation: int) -> None:
        # One clock read: a detector started mid-stream begins at the
        # first heartbeat still to come — the fan-out's first slot
        # (MonitorService keeps its own rule: it starts the sender too).
        now = self._scheduler.now()
        first_seq = first_slot(now, peer.eta)
        detector = peer.factory(first_seq)
        observer = None
        if peer.observe:
            observer = self._observers.add(peer.eta, first_seq=first_seq)
        try:
            if supports_detector(detector):
                host = SoAMonitorHost(
                    self._soa(),
                    detector,
                    warmup=self._warmup,
                    keep_trace=self._keep_traces,
                    observer=observer,
                    incarnation=incarnation,
                    now=now,
                )
                row = host.row
            else:
                # The incarnation travels with the hook, so a transition
                # a superseded host fires can be recognized and muted.
                host = DetectorHost(
                    self._scheduler,
                    detector,
                    warmup=self._warmup,
                    keep_trace=self._keep_traces,
                    observer=observer,
                    on_transition=partial(
                        self._note_transition, peer, incarnation
                    ),
                )
                row = -1
        except BaseException:
            if observer is not None:
                self._observers.release(observer)
            raise
        if row >= 0:
            assert row == len(self._row_owner)
            self._row_owner.append(peer)
        if peer.index < 0:
            # A new peer is named only once its first host exists.
            self._index.add(peer)
        peer.incarnation = incarnation
        peer.first_seq = first_seq
        peer.host = host
        self._suspected.add(peer.name)  # paper detectors start at S
        self._g_suspected.set(len(self._suspected))
        if row >= 0:
            host.start(now)
        else:
            host.start()
        self._index.host(
            peer.index,
            incarnation,
            row=row,
            slot=-1 if observer is None else observer.slot,
        )
        # Announce the fresh incarnation to subscribers: it starts at S
        # (administrative — not a detector transition, so no counters),
        # which guarantees a consumer holding a stale trust bit drops it
        # the instant the restart is observed.
        if self._listeners:
            self._publish(
                MonitorEvent(
                    time=now,
                    process=peer.name,
                    output=SUSPECT,
                    administrative=True,
                    incarnation=incarnation,
                )
            )

    def _finalize_incarnation(self, peer: _Peer) -> Optional[LivePeerResult]:
        host = peer.host
        if host is None:
            return None
        # Receipts still buffered for the SoA ingest path must reach the
        # engine before any book is closed (restart mid-batch).
        self._flush_soa()
        self._settle_delivered(peer)
        self._index.unhost(peer.index)
        trace = host.finish()
        host.stop()
        self._mute(peer)
        # The estimator row leaves the table as the observer object the
        # results carry; only now — after the flush — may its slot go.
        observer = host.observer
        if observer is not None:
            observer = self._observers.release(observer)
        result = LivePeerResult(
            name=peer.name,
            incarnation=peer.incarnation,
            first_seq=peer.first_seq,
            trace=trace,
            estimator=host.estimator,
            observer=observer,
            delivered=host.delivered_count,
        )
        self._results.append(result)
        peer.host = None
        # A finalized incarnation no longer contributes to the suspected
        # gauge (a restart re-adds the name immediately; a removal must
        # not leave a ghost behind).
        self._suspected.discard(peer.name)
        self._g_suspected.set(len(self._suspected))
        # Departure event: subscribers (e.g. an elector) must untrust a
        # peer whose books just closed, exactly like the sim service's
        # synthetic S on remove_process.
        if self._listeners:
            self._publish(
                MonitorEvent(
                    time=self.local_now(),
                    process=peer.name,
                    output=SUSPECT,
                    administrative=True,
                    incarnation=peer.incarnation,
                )
            )
        return result

    def remove_peer(self, name: str) -> Optional[LivePeerResult]:
        """Stop monitoring a peer.  **Idempotent**: removing an unknown
        or already-removed peer returns None and changes nothing.

        The current incarnation's books are closed into :attr:`results`
        (and returned), the host is neutralized so no pending freshness
        deadline can fire a post-removal transition, and the name leaves
        the suspected gauge.  Note that with ``auto_admit`` installed, a
        later heartbeat from the same name re-admits it as a brand-new
        peer — admission policy, not this method, owns membership.
        """
        peer = self._index.get(name)
        if peer is None:
            return None
        # Out of the index first: the closing flush's transitions are
        # no longer the current peer's, and are muted.
        self._index.remove(peer)
        self._mute(peer)
        return self._finalize_incarnation(peer)

    def _mute(self, peer: _Peer) -> None:
        """No verdict of the peer's current engine row is heard again."""
        if isinstance(peer.host, SoAMonitorHost):
            self._row_owner[peer.host.row] = None

    def _settle_delivered(self, peer: _Peer) -> None:
        """Tell the peer's host about the receipts the columnar lane
        booked for it since the last call (the lane counts per index, in
        one ``np.add.at`` a run, instead of touching a host a heartbeat)."""
        booked = self._index.booked
        if booked[peer.index]:
            peer.host._delivered += int(booked[peer.index])
            booked[peer.index] = 0

    def _try_admit(self, name: str) -> Optional[_Peer]:
        """Admit an unknown sender through the auto-admission hook."""
        if self._auto_admit is None:
            return None
        spec = self._auto_admit(name)
        if spec is None:
            return None
        factory, eta = spec
        # Only an admission is a structural change: the receipts booked
        # before it reach the engine before the new row registers (at a
        # fresh engine time).  A refused stranger costs no flush.
        self._flush_soa()
        self.add_peer(name, factory, eta=eta)
        return self._index.get(name)

    def subscribe(self, listener: Callable[[MonitorEvent], None]) -> None:
        """Register a callback for every detector transition.

        Subscribers receive current-incarnation transitions plus
        administrative ``S`` events at incarnation starts and removals
        (mirroring :class:`~repro.service.monitor_service.MonitorService`),
        so a consumer like :class:`~repro.election.omega.LiveElector`
        can never hold a trust bit belonging to a finalized incarnation.
        """
        self._listeners.append(listener)

    def _publish(self, event: MonitorEvent) -> None:
        for callback in self._listeners:
            try:
                callback(event)
            except Exception as exc:
                self._listener_failed(exc, event)

    def _listener_failed(self, exc: Exception, event: MonitorEvent) -> None:
        self._c_listener_errors.inc()
        self._loop.call_exception_handler(
            {
                "message": "monitor subscriber raised",
                "exception": exc,
                "event": event,
            }
        )

    def _on_rows(self, time: float, rows: np.ndarray, output: str) -> None:
        """The engine's batch listener: books first, then one event a
        row for the subscribers, skipping a row muted in the meantime
        (a subscriber removed or restarted its peer)."""
        owner = self._row_owner
        rows = rows.tolist()
        peers = [owner[row] for row in rows]
        if None in peers:
            # Removed or superseded before the batch (the closing flush
            # of a removal): its opinion must not leak to books or
            # subscribers.
            live = [(r, p) for r, p in zip(rows, peers) if p is not None]
            rows = [r for r, _ in live]
            peers = [p for _, p in live]
        self._book(output, [peer.name for peer in peers])
        if not self._listeners:
            return
        for row, peer in zip(rows, peers):
            if owner[row] is peer:
                self._publish(
                    MonitorEvent(
                        time, peer.name, output, False, peer.incarnation
                    )
                )

    def _note_transition(
        self, peer: _Peer, incarnation: int, time: float, output: str
    ) -> None:
        """``on_transition`` of a :class:`DetectorHost` peer."""
        if (
            self._index.peers[peer.index] is not peer
            or peer.incarnation != incarnation
        ):
            # A removed peer's or a superseded incarnation's host fired
            # after its books were closed; its opinion must not leak to
            # gauges or listeners.
            return
        self._book(output, [peer.name])
        self._publish(
            MonitorEvent(time, peer.name, output, False, incarnation)
        )

    def _book(self, output: str, names: List[str]) -> None:
        """Counters, suspected set and gauge for a batch of verdicts."""
        if not names:
            return
        if output == SUSPECT:
            self._t_suspect.inc(len(names))
            self._suspected.update(names)
        else:
            self._t_trust.inc(len(names))
            self._suspected.difference_update(names)
        self._g_suspected.set(len(self._suspected))

    @property
    def peer_names(self) -> List[str]:
        return sorted(p.name for p in self._index.peers if p is not None)

    @property
    def suspected(self) -> set:
        return set(self._suspected)

    def host(self, name: str):
        """The host of a peer's current incarnation (a
        :class:`~repro.sim.monitor.DetectorHost` or an engine row's
        :class:`~repro.service.soa.SoAMonitorHost`).

        Its ``delivered_count`` is exact as handed out; the columnar
        lane counts receipts per peer index and tells the host here and
        when the incarnation closes, so a reference kept across later
        drains can lag behind :attr:`LivePeerResult.delivered`."""
        peer = self._index.get(name)
        if peer is None or peer.host is None:
            raise SimulationError(f"no live host for peer {name!r}")
        self._settle_delivered(peer)
        return peer.host

    # ------------------------------------------------------------------ #
    # Datagram path
    # ------------------------------------------------------------------ #

    def on_datagram(self, payload: bytes) -> None:
        """Transport callback: enqueue, never block, drop-and-count.

        *Every* shed path increments ``live_inbox_dropped_total``: a
        full inbox mid-burst, and arrivals after :meth:`aclose` (nothing
        will ever drain the queue again — silently enqueueing would hide
        the drop from the operator *and* leak memory).  Shed heartbeats
        that still decode are announced to the current incarnation's
        loss estimator so monitor-side overload is not mistaken for
        network loss.
        """
        self._c_received.inc()
        if self._closed:
            self._c_inbox_dropped.inc()
            return
        if len(self._inbox) >= self._inbox_limit:
            self._c_inbox_dropped.inc()
            self._note_shed_heartbeat(payload)
            return
        self._inbox.append(payload)
        self._inbox_ready.set()

    def _note_shed_heartbeat(self, payload: bytes) -> None:
        """Best-effort: tell the loss estimator about a locally-shed
        heartbeat so it cannot poison the reorder-horizon accounting
        (the message *did* traverse the network)."""
        try:
            name, incarnation, seq, _ = parse_heartbeat(payload)
        except WireError:
            return  # junk; nothing to protect
        index = self._index.lookup.get(name)
        if index is None:
            return
        # the current incarnation's estimator row (-1: none, or no host)
        slot = self._index.slot.item(index)
        if (
            slot < 0
            or incarnation != self._index.peers[index].incarnation
            or seq >= _SEQ_LIMIT
        ):
            return
        self._observers.note_local_drop(slot, seq)
        self._c_drop_noted.inc()

    async def _consume(self) -> None:
        inbox = self._inbox
        ready = self._inbox_ready
        popleft = inbox.popleft
        limit = _DRAIN_BATCH
        while True:
            # Block for the first datagram, then opportunistically drain
            # the backlog up to the chunk limit: under load one consumer
            # wakeup dispatches hundreds of heartbeats, and the engine
            # applies them with one vectorized ingest.
            if not inbox:
                ready.clear()
                await ready.wait()
            if len(inbox) <= limit:
                batch = list(inbox)  # bulk copy, no per-item pops
                inbox.clear()
            else:
                batch = [popleft() for _ in range(limit)]
            self._dispatch_batch(batch)

    def _seal_scalar(self) -> None:
        """Close the scalar lane's lists into a piece of their own."""
        rows, seqs, sigmas, slots = self._pend_lists
        if rows:
            self._pend_pieces.append(
                (
                    np.asarray(rows, dtype=np.int64),
                    np.asarray(seqs, dtype=np.int64),
                    np.asarray(sigmas, dtype=np.float64),
                    np.asarray(slots, dtype=np.int64),
                )
            )
            for pending in self._pend_lists:
                pending.clear()

    def _flush_soa(self) -> None:
        """Apply buffered receipts: one ``observe_batch`` on the
        estimator table, then one engine ``ingest`` of what it accepted
        (a receipt the estimators reject never reaches the detector and
        is added to :attr:`_pend_rejected`)."""
        pieces = self._pend_pieces
        try:
            self._seal_scalar()
            if not pieces:
                return
            if len(pieces) == 1:
                engine_rows, seqs, sigmas, slots = pieces[0]
            else:
                engine_rows, seqs, sigmas, slots = map(
                    np.concatenate, zip(*pieces)
                )
            n = len(engine_rows)
            # Booked receipts are on clockless hosts: q-local receipt
            # time is the engine time.
            times = np.full(n, self._pend_time, dtype=np.float64)
            observed = slots >= 0
            if observed.all():
                rejected = self._observers.observe_batch(
                    slots, seqs, sigmas, times
                )
            else:
                rejected = np.zeros(n, dtype=bool)
                rejected[observed] = self._observers.observe_batch(
                    slots[observed],
                    seqs[observed],
                    sigmas[observed],
                    times[observed],
                )
            if rejected.any():
                self._pend_rejected += int(np.count_nonzero(rejected))
                keep = ~rejected
                times, engine_rows, seqs = (
                    times[keep],
                    engine_rows[keep],
                    seqs[keep],
                )
            self._soa_engine.ingest(times, engine_rows, seqs)
        finally:
            # The buffers never outlive a flush, however it ends: a
            # restarted consumer must not meet the chunk that killed it.
            pieces.clear()
            for pending in self._pend_lists:
                pending.clear()
            self._pend_time = None

    def _dispatch_batch(self, payloads: List[bytes]) -> None:
        """Decode and dispatch one drained chunk.

        One decision procedure, in arrival order: junk is counted; an
        unknown sender goes through the admission hook; a lower
        incarnation is a stale straggler; a higher one means the peer
        restarted (footnote 2: a new identity), so the old incarnation's
        books are closed and a fresh detector started.  A chunk of
        ``bytes`` at least :data:`_COLUMNAR_FROM` long is decoded as
        columns (:meth:`_dispatch_columns`), any other datagram by
        datagram (:meth:`_dispatch_scalar`); both book deliveries to
        engine-hosted peers as ``(row, seq, σ, estimator slot)`` under
        one receipt time — every drained datagram was already queued
        when the consumer woke, so the wakeup instant is their shared
        local receipt time — and the chunk is applied with a single
        :meth:`~repro.estimation.ObserverTable.observe_batch` and a
        single :meth:`~repro.service.soa.VectorMonitorEngine.ingest`.
        The buffer is flushed before any structural change (admission,
        incarnation restart) and before this method returns, so neither
        engine nor estimator state moves out of order or lags the
        counters, which are incremented once per chunk.
        """
        self._pend_rejected = 0
        # invalid, unknown, stale, prewindow, dispatched
        tally = [0, 0, 0, 0, 0]
        if (
            len(payloads) >= _COLUMNAR_FROM
            # bytearray / memoryview slices do not hash: no index probe
            and set(map(type, payloads)) == {bytes}
        ):
            self._dispatch_columns(payloads, tally)
        else:
            self._dispatch_scalar(payloads, tally)
        self._flush_soa()
        n_invalid, n_unknown, n_stale, n_prewindow, n_dispatched = tally
        # Buffered receipts were counted dispatched when booked; the
        # ones the estimators then rejected are pre-window instead.
        n_prewindow += self._pend_rejected
        n_dispatched -= self._pend_rejected
        if n_invalid:
            self._c_invalid.inc(n_invalid)
        if n_unknown:
            self._c_unknown.inc(n_unknown)
        if n_stale:
            self._c_stale.inc(n_stale)
        if n_prewindow:
            self._c_prewindow.inc(n_prewindow)
        if n_dispatched:
            self._c_dispatched.inc(n_dispatched)

    def _dispatch_columns(
        self, payloads: List[bytes], tally: List[int]
    ) -> None:
        """The columnar lane: the chunk's headers parsed as columns, its
        names resolved to peer indices, then alternating runs.

        A datagram is *fast* when its header parsed, its name is in the
        index, it carries the peer's current incarnation and the peer is
        on an engine row: a run of those is booked as four array slices
        and one ``np.add.at``.  Everything else — junk, strangers, stale
        stragglers, restarts, admissions, ``DetectorHost`` peers,
        payloads the parser deferred — is a run for the scalar lane,
        which is the whole decision procedure and may restart or admit a
        peer.  "Known", "current" and "on a row" are therefore true only
        until the index's version moves: the mask is then taken again
        over what is left of the chunk — and the names too, if the
        change was to what a name resolves to (an admission, not a
        restart).
        """
        index = self._index
        columns = HeartbeatBatchDecoder.decode_chunk(payloads)
        names = None
        while payloads:
            incarnations, seqs, sigmas, parsed = columns
            version = index.version
            if names != index.names:
                names = index.names
                who = np.fromiter(
                    map(index.lookup.get, map(name_bytes, payloads), repeat(-1)),
                    dtype=np.int64,
                    count=len(payloads),
                )
            # ``who`` is -1 for a stranger and meaningless where the
            # header did not parse; as a gather index it reads some
            # other peer's entry, so ``known`` masks those first.
            known = parsed & (who >= 0)
            fast = (
                known
                & (index.incarnation[who] == incarnations)
                & (index.row[who] >= 0)
            )
            is_fast = bool(fast[0])
            edges = np.flatnonzero(fast[1:] != fast[:-1]) + 1
            start = 0
            for stop in (*edges.tolist(), len(payloads)):
                if is_fast:
                    self._book_run(
                        who[start:stop], seqs[start:stop], sigmas[start:stop]
                    )
                    tally[4] += stop - start
                else:
                    self._dispatch_scalar(payloads[start:stop], tally)
                start = stop
                is_fast = not is_fast
                if index.version != version:
                    break
            payloads = payloads[start:]
            who = who[start:]
            columns = [column[start:] for column in columns]

    def _book_run(
        self, who: np.ndarray, seqs: np.ndarray, sigmas: np.ndarray
    ) -> None:
        """Book one run of fast datagrams (peer indices ``who``)."""
        index = self._index
        if self._pend_time is None:
            self._pend_time = self._soa_engine.now
        self._seal_scalar()
        self._pend_pieces.append(
            (index.row[who], seqs, sigmas, index.slot[who])
        )
        np.add.at(index.booked, who, 1)

    def _dispatch_scalar(
        self, payloads: Sequence[bytes], tally: List[int]
    ) -> None:
        """The decision procedure, datagram by datagram: one
        :func:`~repro.live.wire.parse_heartbeat`, one probe of the peer
        index with the name bytes, and a UTF-8 decode only for a
        stranger the admission hook is asked about."""
        parse = parse_heartbeat
        lookup = self._index.lookup
        peer_at = self._index.peers
        n_invalid = n_unknown = n_stale = n_prewindow = n_dispatched = 0
        pend_rows, pend_seqs, pend_sigmas, pend_slots = self._pend_lists
        # The buffer's receipt time, read when its first receipt is
        # booked; a flush forgets it, so it is dropped here wherever
        # this loop causes one.
        chunk_now = self._pend_time
        for payload in payloads:
            try:
                name, incarnation, seq, sigma = parse(payload)
            except WireError:
                n_invalid += 1
                continue
            if seq >= _SEQ_LIMIT:
                n_invalid += 1
                continue
            index = lookup.get(name)
            if index is not None:
                peer = peer_at[index]
            else:
                try:
                    sender = name.decode("utf-8")
                except UnicodeDecodeError:
                    n_invalid += 1
                    continue
                peer = self._try_admit(sender)
                if peer is None:
                    n_unknown += 1
                    continue
                chunk_now = None  # admission flushed the buffer
            if incarnation < peer.incarnation or peer.host is None:
                n_stale += 1
                continue
            if incarnation > peer.incarnation:
                self._c_restarts.inc()
                self._finalize_incarnation(peer)  # flushes the buffer
                self._start_incarnation(peer, incarnation=incarnation)
                chunk_now = None  # fresh row, fresh clock read
            host = peer.host
            if isinstance(host, SoAMonitorHost):
                if chunk_now is None:
                    chunk_now = self._pend_time = self._soa_engine.now
                # Inlined prepare() (same package, hot path; the service's
                # rows have no clock): the per-heartbeat work is a
                # delivered count and four appends; the estimators see
                # the receipt in the flush, with the rest of the chunk.
                if not host._stopped:
                    host._delivered += 1
                    pend_rows.append(host._row)
                    pend_seqs.append(seq)
                    pend_sigmas.append(sigma)
                    pend_slots.append(host._obs_slot)
                n_dispatched += 1
            else:
                try:
                    host.deliver(seq, sigma)
                except EstimationError:
                    n_prewindow += 1
                    continue
                n_dispatched += 1
        tally[0] += n_invalid
        tally[1] += n_unknown
        tally[2] += n_stale
        tally[3] += n_prewindow
        tally[4] += n_dispatched

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start the supervised inbox consumer."""
        if self._started:
            raise SimulationError("service already started")
        self._started = True
        self._supervisor.spawn("monitor-inbox", self._consume, restart=True)

    async def aclose(self) -> List[LivePeerResult]:
        """Graceful shutdown: drain the consumer, close every host.

        Returns the results of all incarnations (historic restarts plus
        the ones finalized now), in finalization order.
        """
        if self._closed:
            return list(self._results)
        self._closed = True
        if self._started:
            await self._supervisor.shutdown()
        # Drain datagrams that were queued but not yet consumed, so a
        # burst right before shutdown still reaches the books — through
        # the same path the consumer would have used.
        leftovers: List[bytes] = list(self._inbox)
        self._inbox.clear()
        if leftovers:
            self._dispatch_batch(leftovers)
        for name in self.peer_names:
            self._finalize_incarnation(self._index.get(name))
        self._scheduler.close()
        if self._soa_engine is not None:
            # every row is closed: a closed service is freed by refcount
            self._soa_engine.listen(None)
        return list(self._results)

    @property
    def results(self) -> List[LivePeerResult]:
        """Finalized incarnations so far (all of them after aclose)."""
        return list(self._results)

    @property
    def consumer_crashes(self):
        return self._supervisor.crashes
