"""The inbox drain decides the same for every chunk size and hosting.

Chunked drains (chunk decode, hoisted receipt clock, single engine
ingest per drain) must make exactly the decisions of a one-datagram-at-
a-time consumer (``drain_batch=1``) feeding per-detector reference
hosts (``tests/reference.py``) — same counters, same per-incarnation
books, same detector transition kinds — under junk, unknown senders,
reordering, incarnation restarts, stale stragglers, inbox overflow, and
real wall-clock pacing.
"""

from __future__ import annotations

import asyncio
import gc
from collections import deque

import pytest

from repro.core.nfd_s import NFDS
from repro.errors import EstimationError
from repro.estimation import HeartbeatObserver
from repro.live.monitor import LiveMonitorService
from repro.live.wire import encode_heartbeat
from tests.reference import HOSTINGS, SteppedLoop, hosted, observer_state

ETA, DELTA = 0.05, 0.03


def _factory(first_seq):
    return NFDS(ETA, DELTA, first_seq=first_seq)


def _factory_on(hosting):
    return lambda first_seq: hosted(hosting, _factory(first_seq))


def mixed_stream(n_senders=6, slots=10):
    """Junk, ghosts, restarts, stale stragglers, out-of-order tail."""
    out = []
    for slot in range(1, slots + 1):
        for i in range(n_senders):
            name = f"s{i}"
            if slot == 2 and i == 0:
                out.append(b"\x00not-a-heartbeat")
            if slot == 3 and i == 1:
                out.append(encode_heartbeat("ghost", 0, slot, slot * ETA))
            if i % 2 == 0 and slot > slots // 2:
                out.append(encode_heartbeat(name, 1, slot, slot * ETA))
                # straggler from the superseded incarnation
                out.append(
                    encode_heartbeat(name, 0, slot - 1, (slot - 1) * ETA)
                )
            else:
                out.append(encode_heartbeat(name, 0, slot, slot * ETA))
    out.append(encode_heartbeat("s1", 0, 2, 2 * ETA))  # reordered tail
    return out


PROCESSED_PREFIXES = (
    "live_heartbeats_dispatched",
    "live_datagrams_invalid",
    "live_unknown_sender",
    "live_stale_incarnation",
    "live_prewindow_heartbeats",
)


def _processed(registry):
    return sum(
        m.value
        for key, m in registry.items()
        if key.startswith(PROCESSED_PREFIXES)
    )


def _counters(registry):
    return {
        key: m.value
        for key, m in registry.items()
        if key.startswith("live_") and key.endswith("_total")
    }


async def _dispatch_all(payloads, *, hosting, drain, n_senders=6, **kw):
    loop = asyncio.get_running_loop()
    service = LiveMonitorService(
        loop=loop,
        origin=loop.time(),
        inbox_limit=len(payloads) + 1,
        drain_batch=drain,
        keep_traces=False,
        **kw,
    )
    for i in range(n_senders):
        service.add_peer(f"s{i}", _factory_on(hosting), eta=ETA)
    for payload in payloads:
        service.on_datagram(payload)
    n = len(payloads)
    service.start()
    while _processed(service.registry) < n:
        await asyncio.sleep(0)
    results = await service.aclose()
    books = sorted(
        (r.name, r.incarnation, r.first_seq, r.delivered) for r in results
    )
    return _counters(service.registry), books


class TestDecisionIdentity:
    def test_all_modes_agree_on_mixed_stream(self):
        """Hosting × drain (including an odd chunk size that splits
        restarts and admissions across chunk boundaries) produce
        identical counters and incarnation books."""

        async def main():
            payloads = mixed_stream()
            baseline = await _dispatch_all(
                payloads, hosting="object", drain=1
            )
            for hosting in HOSTINGS:
                for drain in (1, 3, 256):
                    got = await _dispatch_all(
                        payloads, hosting=hosting, drain=drain
                    )
                    assert got == baseline, (hosting, drain)
            counters, _ = baseline
            # the stream really exercised every decision path
            assert counters["live_datagrams_invalid_total"] > 0
            assert counters["live_unknown_sender_total"] > 0
            assert counters["live_stale_incarnation_total"] > 0
            assert counters["live_incarnation_restarts_total"] > 0

        asyncio.run(main())

    def test_aclose_drains_leftovers_through_batch_path(self):
        """Datagrams queued but never consumed (service closed before
        the consumer ran) still reach the books — identically."""

        async def main():
            payloads = mixed_stream(n_senders=3, slots=4)
            results = {}
            for drain in (1, 64):
                loop = asyncio.get_running_loop()
                service = LiveMonitorService(
                    loop=loop,
                    origin=loop.time(),
                    inbox_limit=len(payloads) + 1,
                    drain_batch=drain,
                    keep_traces=False,
                )
                for i in range(3):
                    service.add_peer(f"s{i}", _factory, eta=ETA)
                for payload in payloads:
                    service.on_datagram(payload)
                books = await service.aclose()  # never started
                results[drain] = (
                    _counters(service.registry),
                    sorted(
                        (r.name, r.incarnation, r.delivered) for r in books
                    ),
                )
            assert results[1] == results[64]
            counters, _ = results[1]
            assert counters["live_heartbeats_dispatched_total"] > 0

        asyncio.run(main())


class TestOverflow:
    def test_inbox_overflow_counts_identically(self):
        """The bounded deque inbox sheds exactly like the old queue:
        every overflow datagram is dropped-and-counted, decodable sheds
        are announced to the loss estimator, and the surviving prefix
        dispatches identically under both drain modes."""

        async def main():
            payloads = [
                encode_heartbeat("s0", 0, seq, seq * ETA)
                for seq in range(1, 21)
            ]
            outcomes = {}
            for drain in (1, 256):
                loop = asyncio.get_running_loop()
                service = LiveMonitorService(
                    loop=loop,
                    origin=loop.time(),
                    inbox_limit=8,
                    drain_batch=drain,
                    keep_traces=False,
                )
                service.add_peer("s0", _factory, eta=ETA)
                for payload in payloads:  # all before the consumer runs
                    service.on_datagram(payload)
                service.start()
                while _processed(service.registry) < 8:
                    await asyncio.sleep(0)
                await service.aclose()
                outcomes[drain] = _counters(service.registry)
            assert outcomes[1] == outcomes[256]
            counters = outcomes[1]
            assert counters["live_datagrams_received_total"] == 20
            assert counters["live_inbox_dropped_total"] == 12
            # every shed datagram decoded to a current-incarnation
            # heartbeat, so all were noted to the loss estimator
            assert counters["live_dropped_heartbeats_noted_total"] == 12
            assert counters["live_heartbeats_dispatched_total"] == 8

        asyncio.run(main())


class TestObserveFlag:
    def test_observe_false_skips_pipeline_not_delivery(self):
        async def main():
            payloads = [
                encode_heartbeat("s0", 0, seq, seq * ETA)
                for seq in range(1, 9)
            ]
            delivered = {}
            for observe in (True, False):
                loop = asyncio.get_running_loop()
                service = LiveMonitorService(
                    loop=loop,
                    origin=loop.time(),
                    drain_batch=256,
                    keep_traces=False,
                )
                service.add_peer("s0", _factory, eta=ETA, observe=observe)
                for payload in payloads:
                    service.on_datagram(payload)
                service.start()
                while _processed(service.registry) < len(payloads):
                    await asyncio.sleep(0)
                (result,) = await service.aclose()
                assert (result.observer is not None) == observe
                delivered[observe] = result.delivered
            assert delivered[True] == delivered[False] == 8

        asyncio.run(main())


class TestPacedTransitions:
    def test_transition_kinds_match_under_real_pacing(self):
        """A wall-clock run with deliberately dropped heartbeats forces
        a deterministic S/T kind sequence (margins ≫ timer jitter);
        the batched engine drain and per-datagram dispatch to the
        reference host must both produce it."""
        eta, delta = 0.08, 0.04
        # seq i arrives at i·η + 5 ms; seqs 4, 5 are dropped; nothing
        # after seq 8.  Freshness points sit at i·η + δ, so every
        # boundary has a ≥ 35 ms margin:
        #   S→T at arr(1)=0.085, T→S at τ_4=0.36, S→T at arr(6)=0.485,
        #   T→S at τ_9=0.76 (m_8 keeps trust through [τ_8, τ_9));
        #   close at 0.82.
        sends = [i for i in range(1, 9) if i not in (4, 5)]
        expected = ["T", "S", "T", "S"]

        async def run_one(hosting, drain):
            loop = asyncio.get_running_loop()
            origin = loop.time() + 0.02
            service = LiveMonitorService(
                loop=loop,
                origin=origin,
                drain_batch=drain,
                keep_traces=True,
            )
            service.add_peer(
                "s0",
                lambda first_seq: hosted(
                    hosting, NFDS(eta, delta, first_seq=first_seq)
                ),
                eta=eta,
            )
            service.start()
            for seq in sends:
                loop.call_at(
                    origin + seq * eta + 0.005,
                    service.on_datagram,
                    encode_heartbeat("s0", 0, seq, seq * eta),
                )
            await asyncio.sleep((origin - loop.time()) + 0.82)
            (result,) = await service.aclose()
            assert result.delivered == len(sends)
            return [t.kind.value for t in result.trace.transitions]

        async def main():
            for mode in (("object", 1), ("soa", 1), ("soa", 256)):
                # A loaded machine can push a wakeup past even these
                # margins; such jitter is transient, so allow a couple
                # of fresh runs.  A *systematic* divergence of one
                # dispatch mode fails every attempt.
                for attempt in range(3):
                    got = await run_one(*mode)
                    if got == expected:
                        break
                assert got == expected, (mode, got)

        asyncio.run(main())


# ---------------------------------------------------------------------- #
# Estimator state: the same bar at the service
# ---------------------------------------------------------------------- #

NAN, INF = float("nan"), float("inf")
OVERFLOW_LIMIT = 6


def estimator_stream():
    """Bursts ``(slot, [datagram specs])`` for two peers, ``e0`` (an
    engine row) and ``r0`` (a ``RefNFDS`` on a ``DetectorHost``); a spec
    is ``(incarnation, seq, sigma)`` sent to both, or raw bytes.  Burst
    ``b`` is offered with the clock at ``b·η + 0.01``."""

    def hb(inc, seq, sigma=None):
        return (inc, seq, seq * ETA if sigma is None else sigma)

    return [
        (1, [hb(0, 1)]),
        (2, [hb(0, 2)]),
        (3, [hb(0, 3), hb(0, 3)]),  # duplicate
        (4, [hb(0, 4), hb(0, 2)]),  # out-of-order repeat
        (5, [b"\x00not-a-heartbeat"]),  # m_5 lost
        (6, [hb(0, 6), hb(0, 5)]),  # gap opens, then the late m_5
        (7, [hb(0, 7, NAN)]),  # booked by the loss estimator, rejected
        # 8 datagrams into an inbox of 6: both m_11 are shed and noted
        (8, [hb(0, 8), hb(0, 9), hb(0, 10), hb(0, 11)]),
        (9, [hb(0, 12)]),  # opens the gap the shed numbers sit in
        # restart (first_seq 11 at this clock) with a stale straggler
        (10, [hb(1, 13), hb(0, 12)]),
        (11, [hb(1, 9), hb(1, 14)]),  # a pre-window number
        (12, [hb(1, 15), hb(1, 12)]),  # late, inside the horizon
        (13, [hb(1, 16, -INF), hb(1, 17, 1.0e200)]),
        (14, [hb(1, 18)]),
    ]


def _encode(burst):
    out = []
    for spec in burst:
        if isinstance(spec, bytes):
            out.append(spec)
        else:
            inc, seq, sigma = spec
            out.extend(
                encode_heartbeat(name, inc, seq, sigma) for name in ("e0", "r0")
            )
    return out


def oracle_observers():
    """What the stream must leave behind: one ``HeartbeatObserver`` per
    closed incarnation, fed what the service's decision procedure lets
    through, plus the number of receipts the observers rejected."""
    current = {name: 0 for name in ("e0", "r0")}
    live = {name: HeartbeatObserver(eta=ETA, first_seq=1) for name in current}
    closed, rejected = {}, 0
    for slot, burst in estimator_stream():
        now = slot * ETA + 0.01
        flat = [
            (name, spec)
            for spec in burst
            for name in (("junk",) if isinstance(spec, bytes) else ("e0", "r0"))
        ]
        # shed at the inbox before anything queued in this burst drains
        for name, (inc, seq, _) in flat[OVERFLOW_LIMIT:]:
            assert inc == current[name]
            live[name].note_local_drop(seq)
        for name, spec in flat[:OVERFLOW_LIMIT]:
            if name == "junk":
                continue
            inc, seq, sigma = spec
            if inc < current[name]:
                continue  # stale straggler
            if inc > current[name]:
                closed[name, current[name]] = live[name]
                current[name] = inc
                live[name] = HeartbeatObserver(
                    eta=ETA, first_seq=int(now // ETA) + 1
                )
            try:
                live[name].observe_arrival(seq, sigma, now)
            except EstimationError:
                rejected += 1
    closed.update({(name, current[name]): live[name] for name in live})
    return closed, rejected


class TestEstimatorIdentity:
    def test_results_carry_the_oracle_state_for_every_chunk_size(self):
        async def run_one(drain):
            loop = SteppedLoop()
            service = LiveMonitorService(
                loop=loop,
                origin=0.0,
                inbox_limit=OVERFLOW_LIMIT,
                drain_batch=drain,
                keep_traces=False,
            )
            service.add_peer("e0", _factory, eta=ETA)
            service.add_peer("r0", _factory_on("object"), eta=ETA)
            service.start()
            offered = 0
            for slot, burst in estimator_stream():
                loop.run_until(slot * ETA + 0.01)
                payloads = _encode(burst)
                for payload in payloads:
                    service.on_datagram(payload)
                offered += len(payloads)
                counters = _counters(service.registry)
                while (
                    _processed(service.registry)
                    + counters["live_inbox_dropped_total"]
                    < offered
                ):
                    await asyncio.sleep(0)
            results = await service.aclose()
            assert service.consumer_crashes == []
            assert len(service._observers) == 0  # every row released
            return _counters(service.registry), {
                (r.name, r.incarnation): r.observer for r in results
            }

        async def main():
            want, want_rejected = oracle_observers()
            baseline = None
            for drain in (1, 7, 256):
                counters, observers = await run_one(drain)
                if baseline is None:
                    baseline = counters
                assert counters == baseline, drain
                assert sorted(observers) == sorted(want)
                for key, observer in observers.items():
                    assert type(observer) is HeartbeatObserver
                    assert observer_state(observer) == observer_state(
                        want[key]
                    ), (drain, key)
            assert baseline["live_prewindow_heartbeats_total"] == want_rejected == 6
            assert baseline["live_inbox_dropped_total"] == 2
            assert baseline["live_dropped_heartbeats_noted_total"] == 2
            assert baseline["live_stale_incarnation_total"] == 2
            assert baseline["live_incarnation_restarts_total"] == 2
            assert baseline["live_datagrams_invalid_total"] == 1
            # the stream reached the estimators' corners
            e0 = want["e0", 0].loss
            assert e0.missing_count == 0 and e0.received_count == 11
            assert want["e0", 1].loss.pending_missing == 1

        asyncio.run(main())

    def test_registration_touches_no_ring_and_builds_no_estimator_objects(self):
        """2 000 engine-hosted peers cost columns only: both rings are
        still at depth 0 and no per-peer observer, deque or set exists."""

        def census():
            gc.collect()
            kinds = (HeartbeatObserver, deque, set)
            objects = gc.get_objects()
            return [sum(isinstance(o, k) for o in objects) for k in kinds]

        async def main():
            service = LiveMonitorService(keep_traces=False)
            before = census()
            for i in range(2000):
                service.add_peer(f"p{i}", _factory, eta=ETA)
            grown = [b - a for a, b in zip(before, census())]
            assert grown[0] == 0
            assert max(grown[1:]) < 20  # the parent grew by 2 000 of each
            table = service._observers
            assert len(table) == 2000
            assert table._delays.buf.shape[0] == 0
            assert table._arrivals.buf.shape[0] == 0
            assert table._missing == {} and table._local_drops == {}
            await service.aclose()

        asyncio.run(main())
