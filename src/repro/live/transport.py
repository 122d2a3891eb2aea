"""Datagram transports for the live runtime.

Two implementations of the same two-sided contract:

* :class:`UdpSenderTransport` / :class:`UdpMonitorTransport` — real
  asyncio UDP datagram endpoints, for deployments (and the two-terminal
  demo in the README);
* :class:`LoopbackNetwork` — an in-process transport whose per-sender
  delay and loss are driven by the *simulation's* link models
  (:class:`~repro.net.link.LossyLink`,
  :class:`~repro.faults.links.GilbertElliottLink`,
  :class:`~repro.faults.links.FaultyLink`): a datagram offered to the
  link gets a fate (lost, delayed, duplicated) from the seeded model,
  and delivery is scheduled on the event loop at the drawn arrival time.

The loopback transport is what makes the live runtime *testable*: the
message fates are bit-reproducible from the seed, so a soak run can be
compared against the Theorem 5 closed form with the same statistical
machinery the simulator's conformance suite uses — while the pacing,
timers, and deliveries all go through a real event loop.
"""

from __future__ import annotations

import asyncio
import socket
from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Tuple

from repro.errors import SimulationError

__all__ = [
    "SenderTransport",
    "MonitorTransport",
    "LoopbackNetwork",
    "LoopbackSender",
    "UdpSenderTransport",
    "UdpMonitorTransport",
    "BatchedUdpMonitorTransport",
]

DatagramCallback = Callable[[bytes], None]


class SenderTransport(ABC):
    """The sending side: fire-and-forget datagrams toward the monitor."""

    @abstractmethod
    def send(self, payload: bytes) -> None:
        """Offer one datagram; never blocks, may silently lose."""

    async def aclose(self) -> None:  # pragma: no cover - trivial default
        """Release resources; in-flight datagrams may still arrive."""


class MonitorTransport(ABC):
    """The receiving side: delivers datagrams to a callback."""

    @abstractmethod
    async def start(self) -> None:
        """Bind / begin receiving."""

    async def aclose(self) -> None:  # pragma: no cover - trivial default
        """Stop receiving and release resources."""


# ---------------------------------------------------------------------- #
# Loopback
# ---------------------------------------------------------------------- #


class LoopbackSender(SenderTransport):
    """One sender's edge of the loopback network.

    Every datagram is offered to this sender's link model with the
    current loop time as the send time; the model decides loss, delay,
    and (for :class:`~repro.faults.links.FaultyLink`) duplication, and
    each delivered copy is scheduled with ``loop.call_at`` at its drawn
    arrival time.
    """

    def __init__(self, network: "LoopbackNetwork", link) -> None:
        self._network = network
        self._link = link
        self._transmit_multi = getattr(link, "transmit_multi", None)
        self._seq = 0
        self.offered = 0
        self.lost = 0
        self.scheduled = 0
        # Exact in-flight tracking: every scheduled delivery stays
        # registered until it fires (the delivery callback deregisters
        # itself) or aclose cancels it.  No periodic O(n) sweep — a
        # week-long soak keeps this dict at O(in-flight datagrams), not
        # O(history).
        self._pending: Dict[int, asyncio.TimerHandle] = {}
        self._next_delivery_id = 0

    @property
    def link(self):
        return self._link

    def send(self, payload: bytes) -> None:
        loop = self._network.loop
        now = loop.time()
        self._seq += 1
        self.offered += 1
        if self._transmit_multi is not None:
            records = self._transmit_multi(self._seq, now)
        else:
            records = (self._link.transmit(self._seq, now),)
        delivered_any = False
        for record in records:
            if record.lost:
                continue
            delivered_any = True
            self.scheduled += 1
            delivery_id = self._next_delivery_id
            self._next_delivery_id += 1
            self._pending[delivery_id] = loop.call_at(
                record.arrival_time, self._deliver, delivery_id, payload
            )
        if not delivered_any:
            self.lost += 1

    def _deliver(self, delivery_id: int, payload: bytes) -> None:
        self._pending.pop(delivery_id, None)
        self._network.deliver(payload)

    async def aclose(self) -> None:
        """Cancel datagrams still in flight from this sender."""
        for handle in self._pending.values():
            handle.cancel()
        self._pending.clear()


class LoopbackNetwork:
    """An in-process datagram network with model-driven delay and loss.

    One monitor callback, any number of senders, each with its own
    (independently seeded) link model — mirroring the per-process links
    of :class:`~repro.service.monitor_service.MonitorService`.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        # get_event_loop() is deprecated (and warns-as-error under the
        # project's filterwarnings policy on newer Pythons); an explicit
        # loop argument remains the escape hatch for construction
        # outside a running loop.
        self._loop = loop if loop is not None else asyncio.get_running_loop()
        self._monitor: Optional[DatagramCallback] = None
        self._senders: list = []
        self.delivered = 0

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    def attach_monitor(self, on_datagram: DatagramCallback) -> None:
        if self._monitor is not None:
            raise SimulationError("loopback network already has a monitor")
        self._monitor = on_datagram

    def sender(self, link) -> LoopbackSender:
        """A new sender edge whose fates come from ``link``."""
        sender = LoopbackSender(self, link)
        self._senders.append(sender)
        return sender

    def deliver(self, payload: bytes) -> None:
        if self._monitor is None:
            raise SimulationError("no monitor attached to loopback network")
        self.delivered += 1
        self._monitor(payload)

    async def aclose(self) -> None:
        for sender in self._senders:
            await sender.aclose()


# ---------------------------------------------------------------------- #
# UDP
# ---------------------------------------------------------------------- #


class _SenderProtocol(asyncio.DatagramProtocol):
    """Sender side never reads; errors are counted, not raised."""

    def __init__(self) -> None:
        self.errors = 0

    def error_received(self, exc) -> None:  # pragma: no cover - OS dependent
        self.errors += 1


class UdpSenderTransport(SenderTransport):
    """An asyncio UDP datagram endpoint aimed at the monitor's address."""

    def __init__(self, host: str, port: int) -> None:
        self._addr: Tuple[str, int] = (host, int(port))
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._protocol: Optional[_SenderProtocol] = None
        self.offered = 0

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._transport, self._protocol = await loop.create_datagram_endpoint(
            _SenderProtocol, remote_addr=self._addr
        )

    def send(self, payload: bytes) -> None:
        if self._transport is None:
            raise SimulationError("UdpSenderTransport not started")
        self.offered += 1
        self._transport.sendto(payload)

    async def aclose(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None


class BatchedUdpMonitorTransport(MonitorTransport):
    """``recvmmsg``-style receive side: drain the socket per wakeup.

    ``create_datagram_endpoint`` costs one reader callback, one
    ``recvfrom`` and one protocol dispatch *per datagram*.  This
    transport registers the socket directly with ``loop.add_reader``
    and, on each readability wakeup, loops ``sock.recv_into`` over a
    reused buffer until the socket drains (or ``max_per_wake`` caps the
    turn, so one flooding peer cannot starve the loop) — the closest
    portable asyncio analogue of ``recvmmsg``.  Each datagram is handed
    to the callback as an immutable ``bytes`` snapshot, since the
    monitor's bounded inbox holds payloads across loop iterations.

    Event loops without ``add_reader`` support (e.g. the Windows
    proactor) raise ``NotImplementedError``; :meth:`start` falls back
    cleanly to the per-datagram endpoint of
    :class:`UdpMonitorTransport` and records ``batched = False``.

    Datagrams longer than ``max_datagram`` are truncated by the kernel
    on ``recv_into``; heartbeats are ~30 bytes, and a truncated jumbo
    datagram is junk either way (counted, never raised, by the
    monitor's decoder).
    """

    def __init__(
        self,
        host: str,
        port: int,
        on_datagram: DatagramCallback,
        *,
        max_datagram: int = 2048,
        max_per_wake: int = 1024,
    ) -> None:
        if max_datagram < 1 or max_per_wake < 1:
            raise SimulationError(
                "max_datagram and max_per_wake must be >= 1"
            )
        self._addr: Tuple[str, int] = (host, int(port))
        self._on_datagram = on_datagram
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._buf = bytearray(max_datagram)
        self._view = memoryview(self._buf)
        self._max_per_wake = int(max_per_wake)
        self._fallback: Optional[UdpMonitorTransport] = None
        #: whether the recv_into fast path is in use (False after the
        #: endpoint fallback engaged).
        self.batched = True
        self.received = 0
        self.errors = 0

    @property
    def local_address(self) -> Tuple[str, int]:
        if self._fallback is not None:
            return self._fallback.local_address
        if self._sock is None:
            raise SimulationError("BatchedUdpMonitorTransport not started")
        return self._sock.getsockname()[:2]

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind(self._addr)
            loop.add_reader(sock.fileno(), self._on_readable)
        except NotImplementedError:
            # Proactor-style loop: no readiness API for datagram sockets.
            sock.close()
            self.batched = False
            self._fallback = UdpMonitorTransport(
                self._addr[0], self._addr[1], self._count_and_forward
            )
            await self._fallback.start()
            return
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._loop = loop

    def _count_and_forward(self, payload: bytes) -> None:
        self.received += 1
        self._on_datagram(payload)

    def _on_readable(self) -> None:
        sock = self._sock
        if sock is None:
            return
        recv_into = sock.recv_into
        view = self._view
        on_datagram = self._on_datagram
        for _ in range(self._max_per_wake):
            try:
                n = recv_into(self._buf)
            except (BlockingIOError, InterruptedError):
                return  # socket drained for this wakeup
            except OSError:
                # ICMP port-unreachable style wakeups; ordinary events
                # on an internet-facing port.
                self.errors += 1
                return
            self.received += 1
            on_datagram(bytes(view[:n]))

    async def aclose(self) -> None:
        if self._fallback is not None:
            await self._fallback.aclose()
            self._fallback = None
        if self._sock is not None:
            if self._loop is not None:
                self._loop.remove_reader(self._sock.fileno())
            self._sock.close()
            self._sock = None


class _MonitorProtocol(asyncio.DatagramProtocol):
    def __init__(self, on_datagram: DatagramCallback) -> None:
        self._on_datagram = on_datagram
        self.received = 0

    def datagram_received(self, data: bytes, addr) -> None:
        self.received += 1
        self._on_datagram(data)


class UdpMonitorTransport(MonitorTransport):
    """An asyncio UDP endpoint bound to a local address, feeding the
    monitor's datagram callback (which applies its own bounded-queue
    backpressure — the callback itself must never block)."""

    def __init__(self, host: str, port: int, on_datagram: DatagramCallback) -> None:
        self._addr: Tuple[str, int] = (host, int(port))
        self._on_datagram = on_datagram
        self._transport: Optional[asyncio.DatagramTransport] = None
        self._protocol: Optional[_MonitorProtocol] = None

    @property
    def received(self) -> int:
        return self._protocol.received if self._protocol is not None else 0

    @property
    def local_address(self) -> Tuple[str, int]:
        if self._transport is None:
            raise SimulationError("UdpMonitorTransport not started")
        return self._transport.get_extra_info("sockname")[:2]

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._transport, self._protocol = await loop.create_datagram_endpoint(
            lambda: _MonitorProtocol(self._on_datagram), local_addr=self._addr
        )

    async def aclose(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None
