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

import pytest

from repro.core.nfd_s import NFDS
from repro.live.monitor import LiveMonitorService
from repro.live.wire import encode_heartbeat
from tests.reference import HOSTINGS, hosted

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
