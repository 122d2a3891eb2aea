"""Tests for the live monitor service (tier-1: sub-second)."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.nfd_s import NFDS
from repro.errors import InvalidParameterError
from repro.live.fanout import HeartbeatFanout
from repro.live.monitor import LiveMonitorService
from repro.live.transport import SenderTransport
from repro.live.wire import encode_heartbeat
from tests.reference import SteppedLoop


def counter(service, name, **labels):
    metric = service.registry.get(name, labels or None)
    return 0 if metric is None else metric.value


async def drain(service, rounds=6):
    """Give the consumer task a few scheduling rounds."""
    for _ in range(rounds):
        await asyncio.sleep(0)


def nfds_factory(eta, delta):
    return lambda first_seq: NFDS(eta, delta, first_seq=first_seq)


class TestBackpressure:
    def test_inbox_drop_and_count(self):
        async def main():
            service = LiveMonitorService(inbox_limit=4)
            # Consumer not started: the queue fills and overflow drops.
            for i in range(10):
                service.on_datagram(b"x%d" % i)
            assert counter(service, "live_datagrams_received_total") == 10
            assert counter(service, "live_inbox_dropped_total") == 6
            await service.aclose()

        asyncio.run(main())

    def test_inbox_limit_validated(self):
        async def main():
            with pytest.raises(InvalidParameterError):
                LiveMonitorService(inbox_limit=0)

        asyncio.run(main())


class TestJunkTolerance:
    def test_invalid_and_unknown_counted_not_raised(self):
        async def main():
            service = LiveMonitorService()
            service.start()
            service.on_datagram(b"not a heartbeat at all")
            service.on_datagram(
                encode_heartbeat("nobody-registered", 0, 1, 0.05)
            )
            await drain(service)
            assert counter(service, "live_datagrams_invalid_total") == 1
            assert counter(service, "live_unknown_sender_total") == 1
            assert service.consumer_crashes == []
            await service.aclose()

        asyncio.run(main())

    @pytest.mark.parametrize("one_chunk", [True, False])
    def test_sequence_number_past_int64_is_junk_not_a_wedge(self, one_chunk):
        """The wire field is an unsigned 64-bit integer, the tables are
        int64: a number at or past 2^63 from a registered peer is
        counted invalid and dropped.  (It used to raise in the flush
        with the buffers left full, so every later chunk raised again:
        no counter moved and ``aclose()`` raised.)"""

        async def main():
            service = LiveMonitorService()
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            for seq in (1, 1 << 63, 2):
                service.on_datagram(encode_heartbeat("p0", 0, seq, 0.05))
                if not one_chunk:
                    await drain(service)
            await drain(service)
            assert service.consumer_crashes == []
            assert counter(service, "live_datagrams_invalid_total") == 1
            assert counter(service, "live_heartbeats_dispatched_total") == 2
            (result,) = await service.aclose()
            assert result.delivered == 2
            assert result.observer.loss.highest_seq == 2

        asyncio.run(main())

    def test_failed_flush_does_not_poison_later_chunks(self):
        """Whatever kills a flush, the buffered chunk dies with it: the
        restarted consumer starts from empty buffers."""

        async def main():
            service = LiveMonitorService()
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            engine, row = service.soa_engine, service.host("p0").row
            ingest = engine.ingest

            def fail_once(*args):
                engine.ingest = ingest
                raise RuntimeError("boom")

            engine.ingest = fail_once
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            await drain(service)
            assert len(service.consumer_crashes) == 1
            service.on_datagram(encode_heartbeat("p0", 0, 2, 0.10))
            await asyncio.sleep(0.1)  # the supervisor's restart backoff
            await drain(service)
            assert len(service.consumer_crashes) == 1
            assert counter(service, "live_heartbeats_dispatched_total") == 1
            await service.aclose()
            # the chunk that died is gone; only the later one was applied
            assert engine.delivered_count(row) == 1

        asyncio.run(main())

    def test_auto_admit(self):
        async def main():
            service = LiveMonitorService(
                auto_admit=lambda name: (nfds_factory(0.05, 0.02), 0.05)
            )
            service.start()
            service.on_datagram(encode_heartbeat("walk-in", 0, 1, 0.05))
            await drain(service)
            assert service.peer_names == ["walk-in"]
            assert (
                counter(service, "live_heartbeats_dispatched_total") == 1
            )
            await service.aclose()

        asyncio.run(main())


class TestIncarnationDispatch:
    def test_restart_finalizes_and_redispatches(self):
        async def main():
            service = LiveMonitorService()
            service.add_peer(
                "p0", nfds_factory(0.05, 0.02), eta=0.05
            )
            service.start()
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            await drain(service)
            assert service.host("p0").delivered_count == 1
            # Incarnation 2 appears: the peer restarted (twice).
            service.on_datagram(encode_heartbeat("p0", 2, 1, 0.05))
            await drain(service)
            assert counter(service, "live_incarnation_restarts_total") == 1
            results = service.results
            assert len(results) == 1
            assert results[0].incarnation == 0
            assert results[0].delivered == 1
            assert results[0].estimator.closed
            # The restarted incarnation's host got the heartbeat.
            assert service.host("p0").delivered_count == 1
            # A straggler from the dead incarnation is dropped.
            service.on_datagram(encode_heartbeat("p0", 0, 2, 0.10))
            await drain(service)
            assert counter(service, "live_stale_incarnation_total") == 1
            final = await service.aclose()
            assert [r.incarnation for r in final] == [0, 2]

        asyncio.run(main())

    def test_prewindow_heartbeat_counted(self):
        async def main():
            loop = asyncio.get_running_loop()
            # Local clock already at ~1s: first_seq = 21 for eta=0.05.
            service = LiveMonitorService(origin=loop.time() - 1.0)
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            await drain(service)
            assert (
                counter(service, "live_prewindow_heartbeats_total") == 1
            )
            assert counter(service, "live_heartbeats_dispatched_total") == 0
            await service.aclose()

        asyncio.run(main())


class TestRegistration:
    """A registration that raises leaves no ghost: the name is free, a
    corrected re-add works and its heartbeats are dispatched."""

    @staticmethod
    async def _readd_works(service):
        assert service.peer_names == []
        assert len(service._observers) == 0  # the estimator row went back
        service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
        service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
        results = await service.aclose()
        assert counter(service, "live_heartbeats_dispatched_total") == 1
        assert counter(service, "live_stale_incarnation_total") == 0
        assert [r.name for r in results] == ["p0"]

    def test_a_raising_factory_leaves_no_ghost(self):
        async def main():
            service = LiveMonitorService()
            with pytest.raises(InvalidParameterError):
                service.add_peer("p0", nfds_factory(0.1, -1.0), eta=0.1)
            await self._readd_works(service)

        asyncio.run(main())

    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0, -1.0])
    def test_a_bad_eta_is_refused_and_leaves_no_ghost(self, eta):
        async def main():
            service = LiveMonitorService()
            with pytest.raises(InvalidParameterError):
                service.add_peer("p0", nfds_factory(0.05, 0.02), eta=eta)
            await self._readd_works(service)

        asyncio.run(main())

    @pytest.mark.parametrize("now,eta", [(2.0, 0.5), (1.0, 0.1), (3.0, 0.25)])
    def test_first_window_at_an_exact_grid_instant(self, now, eta):
        """A monitor and a fan-out registered at local time ``j·η``
        agree on the first heartbeat: seq j, sent at ``σ_j = now`` (still
        to come), opens the window — it is not pre-window."""

        class Wire(SenderTransport):
            def __init__(self, service):
                self.service = service

            def send(self, payload):
                self.service.on_datagram(payload)

        async def main():
            loop = SteppedLoop()
            loop.now = now
            service = LiveMonitorService(loop=loop, origin=0.0)
            fanout = HeartbeatFanout(loop=loop, origin=0.0)
            service.add_peer("p0", nfds_factory(eta, eta / 2), eta=eta)
            stream = fanout.add_stream("p0", Wire(service), eta=eta)
            first = stream.next_seq
            assert first * eta == now
            fanout.start()
            loop.run_until(now + 2.5 * eta)  # slots j, j+1, j+2
            await fanout.aclose()
            results = await service.aclose()
            assert results[0].first_seq == first
            assert counter(service, "live_prewindow_heartbeats_total") == 0
            assert counter(service, "live_heartbeats_dispatched_total") == 3

        asyncio.run(main())


class TestTransitions:
    def test_suspected_gauge_follows_outputs(self):
        async def main():
            loop = asyncio.get_running_loop()
            service = LiveMonitorService(origin=loop.time())
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.add_peer("p1", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            assert service.suspected == {"p0", "p1"}  # S until proven
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            await drain(service)
            assert service.suspected == {"p1"}
            assert counter(
                service, "live_transitions_total", output="T"
            ) == 1
            gauge = service.registry.get("live_suspected_processes")
            assert gauge.value == 1
            await service.aclose()

        asyncio.run(main())

    def test_duplicate_peer_rejected(self):
        async def main():
            service = LiveMonitorService()
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            with pytest.raises(InvalidParameterError):
                service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            await service.aclose()

        asyncio.run(main())

    def test_aclose_drains_pending_inbox(self):
        async def main():
            service = LiveMonitorService()
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            # Queued but the consumer never gets a chance to run before
            # shutdown: aclose must still dispatch it.
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            results = await service.aclose()
            assert results[0].delivered == 1

        asyncio.run(main())


class TestShedAccounting:
    """Every shed path counts, and decodable shed heartbeats are
    excluded from the loss estimate (object backend; the SoA backend's
    twin lives in test_soa_live.py)."""

    def test_overflow_drops_noted_to_loss_estimator(self):
        async def main():
            service = LiveMonitorService(inbox_limit=3)
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            for seq in range(1, 9):  # seqs 4..8 overflow
                service.on_datagram(
                    encode_heartbeat("p0", 0, seq, 0.05 * seq)
                )
            assert counter(service, "live_inbox_dropped_total") == 5
            assert (
                counter(service, "live_dropped_heartbeats_noted_total")
                == 5
            )
            service.start()
            await drain(service)
            loss = service.host("p0").observer.loss
            # The overflow gap opens; none of it is charged to p_L.
            service.on_datagram(encode_heartbeat("p0", 0, 9, 0.45))
            await drain(service)
            assert loss.highest_seq == 9
            assert loss.estimate() == 0.0
            await service.aclose()

        asyncio.run(main())

    def test_junk_and_foreign_sheds_counted_but_not_noted(self):
        async def main():
            service = LiveMonitorService(inbox_limit=1)
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            service.on_datagram(b"junk that does not decode")
            service.on_datagram(encode_heartbeat("stranger", 0, 1, 0.05))
            service.on_datagram(encode_heartbeat("p0", 9, 2, 0.10))
            assert counter(service, "live_inbox_dropped_total") == 3
            # Junk, unknown senders and foreign incarnations shed
            # without touching any estimator.
            assert (
                counter(service, "live_dropped_heartbeats_noted_total")
                == 0
            )
            await service.aclose()

        asyncio.run(main())

    def test_post_close_arrival_counted(self):
        async def main():
            service = LiveMonitorService()
            service.start()
            await service.aclose()
            service.on_datagram(b"late")
            assert counter(service, "live_inbox_dropped_total") == 1
            assert counter(service, "live_datagrams_received_total") == 1

        asyncio.run(main())
