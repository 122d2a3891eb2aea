"""Tests for the loopback and UDP transports (tier-1: sub-second)."""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.errors import SimulationError
from repro.live.transport import (
    BatchedUdpMonitorTransport,
    LoopbackNetwork,
    UdpMonitorTransport,
    UdpSenderTransport,
)
from repro.net.delays import ConstantDelay
from repro.net.link import LossyLink, MessageRecord


class ScriptedLink:
    """A link whose fates are spelled out: a delay per message, inf=lost."""

    def __init__(self, delays):
        self._delays = list(delays)
        self.sent = []

    def transmit(self, seq, send_time):
        self.sent.append((seq, send_time))
        return MessageRecord(
            seq=seq, send_time=send_time, delay=self._delays.pop(0)
        )


class TestLoopback:
    def test_delivery_at_model_arrival_time(self):
        async def main():
            loop = asyncio.get_running_loop()
            network = LoopbackNetwork(loop)
            received = []
            network.attach_monitor(
                lambda payload: received.append((payload, loop.time()))
            )
            link = ScriptedLink([0.03, math.inf, 0.01])
            sender = network.sender(link)
            t0 = loop.time()
            sender.send(b"a")
            sender.send(b"b")  # lost
            sender.send(b"c")
            await asyncio.sleep(0.08)
            assert [p for p, _ in received] == [b"c", b"a"]  # delay order
            (_, t_c), (_, t_a) = received
            # A loop timer never fires early; how late it fires is the
            # machine's load, not the model's business.
            assert 0.01 - 1e-3 <= t_c - t0 <= t_a - t0
            assert 0.03 - 1e-3 <= t_a - t0
            assert sender.offered == 3
            assert sender.lost == 1
            assert sender.scheduled == 2
            assert network.delivered == 2
            await network.aclose()

        asyncio.run(main())

    def test_seeded_link_fates_are_reproducible(self, rng):
        """The loopback fate sequence is the link model's, bit-for-bit:
        wall-clock jitter affects *when* datagrams arrive, never *which*
        arrive — that is what makes soak statistics seedable."""
        import numpy as np

        def fates(seed):
            async def main():
                loop = asyncio.get_running_loop()
                network = LoopbackNetwork(loop)
                network.attach_monitor(lambda payload: None)
                link = LossyLink(
                    ConstantDelay(0.001),
                    0.4,
                    np.random.default_rng(seed),
                )
                sender = network.sender(link)
                outcomes = []
                for _ in range(200):
                    before = sender.scheduled
                    sender.send(b"x")
                    outcomes.append(sender.scheduled > before)
                await network.aclose()
                return outcomes

            return asyncio.run(main())

        assert fates(7) == fates(7)
        assert fates(7) != fates(8)

    def test_aclose_cancels_in_flight(self):
        async def main():
            loop = asyncio.get_running_loop()
            network = LoopbackNetwork(loop)
            received = []
            network.attach_monitor(received.append)
            sender = network.sender(ScriptedLink([5.0]))
            sender.send(b"slow")
            await network.aclose()
            await asyncio.sleep(0.02)
            assert received == []

        asyncio.run(main())

    def test_single_monitor_enforced(self):
        async def main():
            network = LoopbackNetwork(asyncio.get_running_loop())
            network.attach_monitor(lambda p: None)
            with pytest.raises(SimulationError):
                network.attach_monitor(lambda p: None)

        asyncio.run(main())

    def test_pending_deliveries_deregister_on_fire(self):
        """Fired deliveries leave the pending registry immediately: a
        long soak keeps it at O(in-flight), never O(history)."""

        async def main():
            network = LoopbackNetwork(asyncio.get_running_loop())
            network.attach_monitor(lambda p: None)
            sender = network.sender(
                ScriptedLink([0.005] * 50 + [0.5])
            )
            for _ in range(51):
                sender.send(b"x")
            assert len(sender._pending) == 51
            await asyncio.sleep(0.05)
            # the 50 fast deliveries fired and pruned themselves; only
            # the slow straggler remains registered
            assert len(sender._pending) == 1
            await sender.aclose()
            assert len(sender._pending) == 0
            await network.aclose()

        asyncio.run(main())


class TestUdp:
    def test_end_to_end_datagram(self):
        async def main():
            received = asyncio.Queue()
            monitor = UdpMonitorTransport(
                "127.0.0.1", 0, received.put_nowait
            )
            await monitor.start()
            host, port = monitor.local_address
            sender = UdpSenderTransport(host, port)
            await sender.start()
            sender.send(b"heartbeat-1")
            payload = await asyncio.wait_for(received.get(), timeout=2.0)
            assert payload == b"heartbeat-1"
            assert monitor.received == 1
            assert sender.offered == 1
            await sender.aclose()
            await monitor.aclose()

        asyncio.run(main())

    def test_send_before_start_rejected(self):
        sender = UdpSenderTransport("127.0.0.1", 1)
        with pytest.raises(SimulationError):
            sender.send(b"x")


class TestBatchedUdp:
    def test_drains_burst_in_one_wakeup(self):
        """The recv_into fast path receives a burst end to end, hands
        out immutable snapshots, and counts every datagram."""

        async def main():
            received = []
            monitor = BatchedUdpMonitorTransport(
                "127.0.0.1", 0, received.append
            )
            await monitor.start()
            assert monitor.batched  # selector loops support add_reader
            host, port = monitor.local_address
            sender = UdpSenderTransport(host, port)
            await sender.start()
            payloads = [b"hb-%d" % i for i in range(20)]
            for payload in payloads:
                sender.send(payload)
            deadline = asyncio.get_running_loop().time() + 2.0
            while (
                len(received) < len(payloads)
                and asyncio.get_running_loop().time() < deadline
            ):
                await asyncio.sleep(0.01)
            assert sorted(received) == sorted(payloads)
            assert monitor.received == len(payloads)
            assert all(type(p) is bytes for p in received)
            await sender.aclose()
            await monitor.aclose()
            await monitor.aclose()  # idempotent

        asyncio.run(main())

    def test_oversized_datagram_truncated_not_raised(self):
        """A jumbo datagram is truncated by recv_into — junk for the
        decoder to count, never an exception in the reader callback."""

        async def main():
            received = []
            monitor = BatchedUdpMonitorTransport(
                "127.0.0.1", 0, received.append, max_datagram=16
            )
            await monitor.start()
            host, port = monitor.local_address
            sender = UdpSenderTransport(host, port)
            await sender.start()
            sender.send(b"x" * 100)
            deadline = asyncio.get_running_loop().time() + 2.0
            while (
                not received
                and asyncio.get_running_loop().time() < deadline
            ):
                await asyncio.sleep(0.01)
            assert received == [b"x" * 16]
            await sender.aclose()
            await monitor.aclose()

        asyncio.run(main())

    def test_falls_back_when_loop_has_no_add_reader(self, monkeypatch):
        """On a loop without a readiness API (proactor style) the
        transport selects the per-datagram endpoint by itself: it still
        delivers, still counts, and says which path it took."""

        async def main():
            loop = asyncio.get_running_loop()

            def no_add_reader(fd, callback, *args):
                raise NotImplementedError

            monkeypatch.setattr(loop, "add_reader", no_add_reader)
            received = asyncio.Queue()
            monitor = BatchedUdpMonitorTransport(
                "127.0.0.1", 0, received.put_nowait
            )
            await monitor.start()
            assert monitor.batched is False
            host, port = monitor.local_address
            sender = UdpSenderTransport(host, port)
            await sender.start()
            payloads = [b"hb-%d" % i for i in range(5)]
            for payload in payloads:
                sender.send(payload)
            got = [
                await asyncio.wait_for(received.get(), timeout=2.0)
                for _ in payloads
            ]
            assert sorted(got) == sorted(payloads)
            assert monitor.received == len(payloads)
            await sender.aclose()
            await monitor.aclose()
            await monitor.aclose()  # idempotent
            with pytest.raises(SimulationError):
                monitor.local_address  # nothing left bound

        asyncio.run(main())

    def test_rejects_bad_limits(self):
        with pytest.raises(SimulationError):
            BatchedUdpMonitorTransport(
                "127.0.0.1", 0, lambda p: None, max_datagram=0
            )
        with pytest.raises(SimulationError):
            BatchedUdpMonitorTransport(
                "127.0.0.1", 0, lambda p: None, max_per_wake=0
            )
        with pytest.raises(SimulationError):
            BatchedUdpMonitorTransport(
                "127.0.0.1", 0, lambda p: None
            ).local_address
