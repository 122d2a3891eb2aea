"""Tests for the η-paced sender fan-out, the live path's one pacer
(tier-1: sub-second)."""

from __future__ import annotations

import asyncio
import math
import time

import pytest

from repro.errors import InvalidParameterError, SimulationError
from repro.live.fanout import HeartbeatFanout
from repro.live.roles import epoch_origin
from repro.live.wire import decode_heartbeat


class RecordingTransport:
    def __init__(self, clock=None):
        self.payloads = []
        #: local send time of each payload, when given a clock
        self.times = []
        self._clock = clock

    def send(self, payload):
        self.payloads.append(payload)
        if self._clock is not None:
            self.times.append(self._clock())


class TestPacing:
    def test_grid_pacing_and_nominal_sigma(self):
        """Every stream sends one heartbeat per η slot, stamped with the
        nominal σ_i = i·η — the task sender's semantics, N streams off
        one timer."""

        async def main():
            loop = asyncio.get_running_loop()
            fanout = HeartbeatFanout(loop=loop, origin=loop.time())
            transports = {
                name: RecordingTransport() for name in ("p0", "p1", "p2")
            }
            for name, transport in transports.items():
                fanout.add_stream(name, transport, eta=0.04)
            fanout.start()
            # Pace until every stream has sent a handful of slots; how
            # long that takes on a loaded machine is measured, not
            # assumed, and bounds the count from above.
            give_up = loop.time() + 5.0
            while min(len(t.payloads) for t in transports.values()) < 5:
                assert loop.time() < give_up, "fan-out stopped pacing"
                await asyncio.sleep(0.01)
            fanout.stop_all()
            slots_elapsed = math.floor(fanout.local_now() / 0.04 + 1e-9)
            for name, transport in transports.items():
                heartbeats = [
                    decode_heartbeat(p) for p in transport.payloads
                ]
                assert 5 <= len(heartbeats) <= slots_elapsed
                for hb in heartbeats:
                    assert hb.sender == name
                    assert hb.incarnation == 0
                    assert hb.send_local_time == pytest.approx(
                        hb.seq * 0.04
                    )
                seqs = [hb.seq for hb in heartbeats]
                assert seqs[0] == 1
                assert seqs == sorted(set(seqs))
            assert fanout.sent_total == sum(
                len(t.payloads) for t in transports.values()
            )
            await fanout.aclose()

        asyncio.run(main())

    def test_late_join_skips_past_slots(self):
        """A stream added when σ_1..σ_k are already in the past starts
        at its first future slot — it never bursts the backlog."""

        async def main():
            loop = asyncio.get_running_loop()
            # Local time already reads ~0.2 when the stream joins.
            fanout = HeartbeatFanout(loop=loop, origin=loop.time() - 0.2)
            transport = RecordingTransport()
            fanout.start()  # streams may join a started fan-out
            stream = fanout.add_stream("late", transport, eta=0.04)
            assert stream.next_seq >= 5
            await asyncio.sleep(0.15)
            stream.stop()
            heartbeats = [decode_heartbeat(p) for p in transport.payloads]
            assert heartbeats, "armed future slot must fire"
            assert min(hb.seq for hb in heartbeats) >= 5
            seqs = [hb.seq for hb in heartbeats]
            assert seqs == sorted(set(seqs))
            await fanout.aclose()

        asyncio.run(main())

    def test_exact_schedule_over_a_span(self):
        """Stopped mid-slot, a stream has sent exactly the slots whose
        σ_i lies before the stop: absolute pacing loses none and adds
        none."""

        async def main():
            loop = asyncio.get_running_loop()
            transport = RecordingTransport()
            fanout = HeartbeatFanout(loop=loop, origin=loop.time())
            fanout.add_stream("p", transport, eta=0.05)
            fanout.start()
            # Stop mid-slot (σ_5=0.25, σ_6=0.30): a 25 ms margin on both
            # sides of the boundary dwarfs timer lateness.
            await asyncio.sleep(0.275)
            fanout.stop_all()
            await fanout.aclose()
            seqs = [decode_heartbeat(p).seq for p in transport.payloads]
            assert seqs == [1, 2, 3, 4, 5]

        asyncio.run(main())

    def test_started_mid_schedule_skips_past_slots(self):
        """On the epoch clock of ``live send`` slot 1 was decades ago: a
        stream starts at its first future slot and never bursts the
        backlog."""

        async def main():
            loop = asyncio.get_running_loop()
            eta = 0.05
            fanout = HeartbeatFanout(loop=loop, origin=epoch_origin(loop))
            transport = RecordingTransport()
            before = fanout.local_now()
            stream = fanout.add_stream("p0", transport, eta=eta)
            first = stream.next_seq
            assert before <= first * eta
            assert (first - 1) * eta < fanout.local_now()
            assert first > 10**10
            fanout.start()
            await asyncio.sleep(0.12)
            await fanout.aclose()
            heartbeats = [decode_heartbeat(p) for p in transport.payloads]
            assert 1 <= len(heartbeats) <= 4  # no backlog burst
            assert heartbeats[0].seq == first
            seqs = [hb.seq for hb in heartbeats]
            assert seqs == sorted(set(seqs))
            for hb in heartbeats:
                assert hb.send_local_time == hb.seq * eta

        asyncio.run(main())

    def test_stall_skips_past_slots(self):
        """A loop that stalls across many slots sends the slot it had
        armed, late, and resumes at its first future slot: the slots
        that passed during the stall are skipped, never burst."""

        async def main():
            loop = asyncio.get_running_loop()
            eta = 0.02
            fanout = HeartbeatFanout(loop=loop, origin=loop.time())
            transport = RecordingTransport(fanout.local_now)
            fanout.add_stream("p0", transport, eta=eta)
            fanout.start()
            while len(transport.payloads) < 2:
                await asyncio.sleep(0.005)
            time.sleep(10 * eta)  # the loop stalls
            stall_end = fanout.local_now()
            await asyncio.sleep(3 * eta)
            await fanout.aclose()
            sent = [
                (decode_heartbeat(p).seq * eta, t)
                for p, t in zip(transport.payloads, transport.times)
            ]
            late = [sigma for sigma, t in sent if sigma < stall_end <= t]
            assert len(late) == 1  # the armed slot, nothing before it
            resumed = [sigma for sigma, t in sent if t >= stall_end][1:]
            assert resumed and min(resumed) >= stall_end

        asyncio.run(main())


class TestLifecycle:
    def test_stop_freezes_one_stream_others_continue(self):
        async def main():
            loop = asyncio.get_running_loop()
            fanout = HeartbeatFanout(loop=loop, origin=loop.time())
            t0, t1 = RecordingTransport(), RecordingTransport()
            s0 = fanout.add_stream("p0", t0, eta=0.03)
            fanout.add_stream("p1", t1, eta=0.03)
            fanout.start()
            await asyncio.sleep(0.10)
            s0.stop()
            s0.stop()  # idempotent
            frozen = s0.sent_count
            await asyncio.sleep(0.10)
            assert s0.sent_count == frozen
            assert len(t0.payloads) == frozen
            assert fanout.stream("p1").sent_count > frozen
            await fanout.aclose()

        asyncio.run(main())

    def test_cohort_goes_dormant_and_rejoins(self):
        """A cohort whose members all stopped stops waking the loop;
        a fresh member re-arms it."""

        async def main():
            loop = asyncio.get_running_loop()
            fanout = HeartbeatFanout(loop=loop, origin=loop.time())
            t0 = RecordingTransport()
            fanout.add_stream("p0", t0, eta=0.03)
            fanout.start()
            await asyncio.sleep(0.08)
            fanout.stop_all()
            # Let the next tick fire once to lazily compact the cohort.
            await asyncio.sleep(0.05)
            t1 = RecordingTransport()
            fanout.add_stream("p1", t1, eta=0.03)
            await asyncio.sleep(0.08)
            assert t1.payloads, "rejoining a dormant cohort must re-arm it"
            assert fanout.stream("p0").name == "p0"  # both still registered
            assert fanout.stream("p1").name == "p1"
            await fanout.aclose()

        asyncio.run(main())

    def test_stop_while_armed_sends_nothing(self):
        """A stream stopped while its first slot is armed sends nothing;
        the tick that finds no live member leaves no timer behind."""

        async def main():
            loop = asyncio.get_running_loop()
            fanout = HeartbeatFanout(loop=loop, origin=loop.time())
            transport = RecordingTransport()
            stream = fanout.add_stream("p0", transport, eta=0.05)
            fanout.start()
            stream.stop()
            await asyncio.sleep(0.12)
            assert stream.sent_count == 0
            assert transport.payloads == []
            assert fanout._handle is None  # the cohort went dormant
            await fanout.aclose()

        asyncio.run(main())

    def test_aclose_stops_everything_idempotently(self):
        async def main():
            loop = asyncio.get_running_loop()
            fanout = HeartbeatFanout(loop=loop, origin=loop.time())
            transport = RecordingTransport()
            stream = fanout.add_stream("p0", transport, eta=0.02)
            fanout.start()
            await asyncio.sleep(0.05)
            await fanout.aclose()
            await fanout.aclose()
            sent_at_close = len(transport.payloads)
            await asyncio.sleep(0.05)
            assert len(transport.payloads) == sent_at_close
            with pytest.raises(SimulationError):
                fanout.add_stream("p1", RecordingTransport(), eta=0.02)
            with pytest.raises(SimulationError):
                fanout.start()

        asyncio.run(main())


class TestValidation:
    def test_rejects_bad_parameters(self):
        async def main():
            fanout = HeartbeatFanout(origin=0.0)
            transport = RecordingTransport()
            fanout.add_stream("p0", transport, eta=0.05)
            with pytest.raises(InvalidParameterError):
                fanout.add_stream("p0", transport, eta=0.05)  # duplicate
            with pytest.raises(InvalidParameterError):
                fanout.add_stream("p1", transport, eta=0.0)
            with pytest.raises(InvalidParameterError):
                fanout.add_stream("p2", transport, eta=0.05, first_seq=0)
            with pytest.raises(SimulationError):
                fanout.stream("nope")
            await fanout.aclose()

        asyncio.run(main())
