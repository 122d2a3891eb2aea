"""The monitored process p on a real event loop: η-paced heartbeats.

p's algorithm is one line — send ``m_i`` at ``σ_i = i·η`` on the local
clock (``local = loop.time() − origin``) — and :class:`HeartbeatFanout`
is its one implementation, whether it paces the single stream of a real
process (``live send``) or the thousands of in-process streams of a
soak or a benchmark.  Every stream is paced off **one** armed
``loop.call_at`` — the same lazy-wheel idea as
:class:`~repro.service.soa.VectorMonitorEngine`'s deadline wheel, applied
to the sending side.  Streams sharing an η join a *cohort* on the shared
``σ_i = i·η`` grid: one heap entry per cohort tick sends every member's
heartbeat for that slot, so the wakeup count is O(ticks), not
O(streams × ticks).

Pacing semantics are the simulator's
:class:`~repro.sim.heartbeat.HeartbeatSender`'s, per stream:

* messages carry the *nominal* ``σ_i = i·η``, never the actual departure
  time, so receiver-side ``A − S`` measures network delay plus send
  lateness — the end-to-end quantity the Section 5/6 estimators define;
* pacing is absolute: a tick fires at its slot's deadline, so scheduling
  latency does not accumulate into drift over a long run;
* slots already in the past are skipped, never burst — a stream that
  joins mid-schedule starts, and one that stalls (an event-loop
  hiccough, a suspended laptop) resumes, at its first future slot (the
  armed slot itself is sent even when the wakeup fires late);
* a stopped stream stops immediately; in-flight datagrams survive
  (Section 3.1 crash semantics), and dead streams are lazily compacted
  out of their cohort at the next tick.

Per-stream payloads come from a cached
:class:`~repro.live.wire.HeartbeatEncoder`, so the per-heartbeat send
cost is one 16-byte pack plus the payload snapshot.
"""

from __future__ import annotations

import asyncio
import heapq
import math
from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidParameterError, SimulationError
from repro.live.transport import SenderTransport
from repro.live.wire import HeartbeatEncoder

__all__ = ["FanoutStream", "HeartbeatFanout", "first_slot"]


def first_slot(now: float, eta: float) -> int:
    """The first slot ``j >= 1`` of the grid ``σ_j = j·η`` still to come
    at local time ``now``: ``σ < now`` has passed, ``σ >= now`` is still
    to come.  The fan-out paces a new stream from it and the monitor
    opens a new incarnation's window at it, so the two agree at an exact
    grid instant too."""
    j = max(1, math.ceil(now / eta))
    while j * eta < now:
        j += 1
    while j > 1 and (j - 1) * eta >= now:
        j -= 1
    return j


class FanoutStream:
    """One paced heartbeat stream inside a :class:`HeartbeatFanout`:
    ``name``, ``sent_count``, ``next_seq``, ``stop()``, ``stopped``."""

    __slots__ = (
        "name",
        "eta",
        "incarnation",
        "_transport",
        "_encoder",
        "_next_seq",
        "_sent",
        "_stopped",
    )

    def __init__(
        self,
        name: str,
        transport: SenderTransport,
        eta: float,
        incarnation: int,
        next_seq: int,
    ) -> None:
        self.name = name
        self.eta = eta
        self.incarnation = incarnation
        self._transport = transport
        self._encoder = HeartbeatEncoder(name, incarnation)
        self._next_seq = next_seq
        self._sent = 0
        self._stopped = False

    @property
    def sent_count(self) -> int:
        return self._sent

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def stop(self) -> None:
        """Stop sending immediately (crash injection / shutdown).

        Idempotent.  Datagrams already handed to the transport still
        arrive; the stream is compacted out of its cohort lazily.
        """
        self._stopped = True


class _SendCohort:
    """All fan-out streams sharing one η grid."""

    __slots__ = ("eta", "index", "members", "tick", "armed")

    def __init__(self, eta: float, index: int) -> None:
        self.eta = eta
        self.index = index
        self.members: List[FanoutStream] = []
        self.tick = 0  # slot index of the currently-armed heap entry
        self.armed = False


class HeartbeatFanout:
    """Paces many heartbeat streams off a single armed loop timer.

    Args:
        loop: the event loop (defaults to the running loop).
        origin: loop time at which local time reads zero (share it with
            the monitor for the synchronized-clock regime; defaults to
            *now*).
    """

    def __init__(
        self,
        *,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        origin: Optional[float] = None,
    ) -> None:
        self._loop = (
            loop if loop is not None else asyncio.get_running_loop()
        )
        self._origin = (
            self._loop.time() if origin is None else float(origin)
        )
        self._streams: Dict[str, FanoutStream] = {}
        self._cohorts: Dict[float, _SendCohort] = {}
        self._cohort_list: List[_SendCohort] = []
        #: (real_time, tick, cohort_index) — one live entry per cohort
        self._heap: List[Tuple[float, int, int]] = []
        self._handle: Optional[asyncio.TimerHandle] = None
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #

    @property
    def origin(self) -> float:
        return self._origin

    @property
    def started(self) -> bool:
        return self._started

    def stream(self, name: str) -> FanoutStream:
        try:
            return self._streams[name]
        except KeyError:
            raise SimulationError(f"no fan-out stream {name!r}") from None

    def local_now(self) -> float:
        return self._loop.time() - self._origin

    @property
    def sent_total(self) -> int:
        return sum(s._sent for s in self._streams.values())

    # ------------------------------------------------------------------ #

    def add_stream(
        self,
        name: str,
        transport: SenderTransport,
        *,
        eta: float,
        incarnation: int = 0,
        first_seq: int = 1,
    ) -> FanoutStream:
        """Register a stream; it starts pacing at its first future slot."""
        if self._closed:
            raise SimulationError("fan-out already closed")
        if name in self._streams:
            raise InvalidParameterError(
                f"stream {name!r} already registered"
            )
        if eta <= 0:
            raise InvalidParameterError(f"eta must be positive, got {eta}")
        if first_seq < 1:
            raise InvalidParameterError(
                f"first_seq must be >= 1, got {first_seq}"
            )
        eta = float(eta)
        # the first slot still to come, never before first_seq
        next_seq = max(int(first_seq), first_slot(self.local_now(), eta))
        stream = FanoutStream(
            name, transport, eta, int(incarnation), next_seq
        )
        self._streams[name] = stream
        cohort = self._cohorts.get(eta)
        if cohort is None:
            cohort = _SendCohort(eta, len(self._cohort_list))
            self._cohorts[eta] = cohort
            self._cohort_list.append(cohort)
        cohort.members.append(stream)
        if not cohort.armed or next_seq < cohort.tick:
            cohort.tick = next_seq
            cohort.armed = True
            heapq.heappush(
                self._heap,
                (self._origin + next_seq * eta, next_seq, cohort.index),
            )
        if self._started:
            self._arm()
        return stream

    def start(self) -> None:
        """Arm the wheel; streams may be added before or after."""
        if self._closed:
            raise SimulationError("fan-out already closed")
        self._started = True
        self._arm()

    def stop_all(self) -> None:
        for stream in self._streams.values():
            stream.stop()

    async def aclose(self) -> None:
        """Stop every stream and disarm the timer.  Idempotent."""
        self._closed = True
        self.stop_all()
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------ #

    def _arm(self) -> None:
        if self._closed or not self._heap:
            return
        t = self._heap[0][0]
        if self._handle is not None:
            if self._handle.when() <= t:
                return
            self._handle.cancel()
        self._handle = self._loop.call_at(t, self._on_wake)

    def _on_wake(self) -> None:
        self._handle = None
        if self._closed:
            return
        heap = self._heap
        now_real = self._loop.time()
        while heap and heap[0][0] <= now_real:
            _, tick, index = heapq.heappop(heap)
            cohort = self._cohort_list[index]
            if cohort.armed and tick == cohort.tick:
                self._fire_cohort(cohort, tick)
            now_real = self._loop.time()
        self._arm()

    def _fire_cohort(self, cohort: _SendCohort, tick: int) -> None:
        eta = cohort.eta
        sigma = tick * eta
        now_local = self.local_now()
        alive: List[FanoutStream] = []
        for member in cohort.members:
            if member._stopped:
                continue  # lazy compaction
            alive.append(member)
            if member._next_seq <= tick:
                member._transport.send(
                    member._encoder.encode(tick, sigma)
                )
                member._sent += 1
                # Advance to the next slot, skipping any now in the
                # past — a late tick resumes at the first future slot.
                nxt = tick + 1
                if nxt * eta < now_local:
                    j = max(nxt, int(math.ceil(now_local / eta)))
                    while j * eta < now_local:
                        j += 1
                    while j - 1 > tick and (j - 1) * eta >= now_local:
                        j -= 1
                    nxt = j
                member._next_seq = nxt
        cohort.members = alive
        if not alive:
            cohort.armed = False  # dormant until a new member joins
            return
        next_tick = min(m._next_seq for m in alive)
        cohort.tick = next_tick
        heapq.heappush(
            self._heap,
            (self._origin + next_tick * eta, next_tick, cohort.index),
        )
