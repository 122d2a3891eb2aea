"""Live-service election tests.

The fast section is tier-1 (sub-second, no real waiting): a
:class:`~repro.election.omega.LiveElector` on top of a
:class:`~repro.live.monitor.LiveMonitorService`, fed hand-crafted
datagrams, on both per-detector hosts and engine rows.  The key
regression is the incarnation race: a restarted peer is untrusted the
instant the new incarnation is observed, and a stale heartbeat from the
dead incarnation can never resurrect its trust bit.

The closing soak (marker: ``live``, excluded from tier-1) runs a real
event loop for a few wall-clock seconds with timer-driven senders, kills
the leader and checks demotion within the detection bound, then
restarts it under a new incarnation and checks re-election.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.nfd_s import NFDS
from repro.election import LiveElector
from repro.live.monitor import LiveMonitorService
from repro.live.wire import encode_heartbeat
from tests.reference import HOSTINGS, hosted

ETA = 0.05
DELTA = 0.02


def counter(service, name, **labels):
    metric = service.registry.get(name, labels or None)
    return 0 if metric is None else metric.value


async def drain(service, rounds=6):
    for _ in range(rounds):
        await asyncio.sleep(0)


def nfds_factory(first_seq):
    return NFDS(ETA, DELTA, first_seq=first_seq)


def make_service(engine, origin):
    service = LiveMonitorService(origin=origin)
    for name in ("a", "b"):
        service.add_peer(
            name,
            lambda first_seq: hosted(engine, nfds_factory(first_seq)),
            eta=ETA,
        )
    elector = LiveElector(service, "z", label="z")
    service.start()
    return service, elector


@pytest.mark.parametrize("engine", HOSTINGS)
class TestLiveElector:
    def test_elects_smallest_trusted_peer(self, engine):
        async def main():
            loop = asyncio.get_running_loop()
            service, elector = make_service(engine, loop.time())
            assert elector.leader == "z"  # trusts only itself at birth
            service.on_datagram(encode_heartbeat("b", 0, 1, ETA))
            await drain(service)
            assert elector.leader == "b"
            service.on_datagram(encode_heartbeat("a", 0, 1, ETA))
            await drain(service)
            assert elector.core.trusted == frozenset({"a", "b", "z"})
            assert elector.leader == "a"
            # The elector shares the service registry by default.
            assert (
                counter(
                    service, "election_leader_changes_total", elector="z"
                )
                == 2
            )
            await service.aclose()

        asyncio.run(main())

    def test_restart_untrusts_and_stale_heartbeat_stays_dead(self, engine):
        """The incarnation race, live: the new incarnation's first
        datagram arrives *before* that incarnation has earned trust
        (it is pre-window), so the restart's administrative S must
        demote — and a fresh-looking straggler from the dead
        incarnation must not re-elect the peer."""

        async def main():
            loop = asyncio.get_running_loop()
            # Local clock already ≈1s old: incarnation windows open at
            # first_seq ≈ 1s/η, so small sequence numbers are
            # pre-window and deliver no trust.
            service, elector = make_service(engine, loop.time() - 1.0)
            service.on_datagram(encode_heartbeat("a", 0, 25, 25 * ETA))
            service.on_datagram(encode_heartbeat("b", 0, 25, 25 * ETA))
            await drain(service)
            assert elector.leader == "a"

            # Incarnation 1 appears via a pre-window heartbeat: books
            # close, the administrative S unseats "a" — and the new
            # detector has seen nothing trustworthy yet.
            service.on_datagram(encode_heartbeat("a", 1, 1, ETA))
            await drain(service)
            assert counter(service, "live_incarnation_restarts_total") == 1
            assert counter(service, "live_prewindow_heartbeats_total") == 1
            assert "a" not in elector.core.trusted
            assert elector.leader == "b"

            # A perfectly fresh straggler from dead incarnation 0 is
            # shed at the source; the elector never sees it.
            events_before = len(elector.core.events)
            service.on_datagram(encode_heartbeat("a", 0, 26, 26 * ETA))
            await drain(service)
            assert counter(service, "live_stale_incarnation_total") == 1
            assert len(elector.core.events) == events_before
            assert "a" not in elector.core.trusted
            assert elector.leader == "b"

            # Only incarnation 1's own fresh heartbeat re-earns trust.
            service.on_datagram(encode_heartbeat("a", 1, 25, 25 * ETA))
            await drain(service)
            assert "a" in elector.core.trusted
            assert elector.leader == "a"
            await service.aclose()

        asyncio.run(main())

    def test_remove_peer_publishes_departure(self, engine):
        async def main():
            loop = asyncio.get_running_loop()
            service, elector = make_service(engine, loop.time())
            service.on_datagram(encode_heartbeat("a", 0, 1, ETA))
            service.on_datagram(encode_heartbeat("b", 0, 1, ETA))
            await drain(service)
            assert elector.leader == "a"
            service.remove_peer("a")
            assert "a" not in elector.core.trusted
            assert elector.leader == "b"
            await service.aclose()

        asyncio.run(main())


@pytest.mark.live
class TestLiveElectionSoak:
    def test_leader_kill_and_recovery_over_real_timers(self):
        """A few wall-clock seconds of timer-driven heartbeats: the
        elector must demote a killed leader within the η + δ detection
        bound (plus a generous scheduling allowance) and re-elect it
        after an incarnation restart."""

        async def sender(service, name, incarnation, stop):
            # Sequence numbers track the wall clock so a restarted
            # incarnation's heartbeats are in-window immediately.
            seq = int(service.local_now() / ETA) + 2
            while not stop.is_set():
                service.on_datagram(
                    encode_heartbeat(name, incarnation, seq, seq * ETA)
                )
                seq += 1
                await asyncio.sleep(ETA)

        async def main():
            loop = asyncio.get_running_loop()
            service = LiveMonitorService(origin=loop.time())
            for name in ("a", "b"):
                service.add_peer(name, nfds_factory, eta=ETA)
            elector = LiveElector(service, "z")
            service.start()
            stops = {name: asyncio.Event() for name in ("a", "b")}
            tasks = [
                asyncio.ensure_future(sender(service, n, 0, stops[n]))
                for n in ("a", "b")
            ]
            await asyncio.sleep(1.0)
            assert elector.leader == "a"

            # Kill the leader; demotion within η + δ plus allowance.
            stops["a"].set()
            killed_at = loop.time()
            while elector.leader == "a":
                assert loop.time() - killed_at < 1.0, "demotion too slow"
                await asyncio.sleep(0.005)
            demotion = loop.time() - killed_at
            assert elector.leader == "b"
            assert demotion <= (ETA + DELTA) + 0.25

            # Restart "a" as a new incarnation: re-elected.
            stops["a"] = asyncio.Event()
            tasks.append(
                asyncio.ensure_future(sender(service, "a", 1, stops["a"]))
            )
            recovered_at = loop.time()
            while elector.leader != "a":
                assert loop.time() - recovered_at < 2.0, "re-election stuck"
                await asyncio.sleep(0.005)
            assert counter(service, "live_incarnation_restarts_total") == 1

            for stop in stops.values():
                stop.set()
            await asyncio.gather(*tasks)
            await service.aclose()

        asyncio.run(main())
