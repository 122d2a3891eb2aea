"""Tests for the live service's engine hosting (tier-1: sub-second).

``LiveMonitorService`` keeps the state of plain NFD-S/U/E peers in the
shared :class:`VectorMonitorEngine` with a single armed
``loop.call_at`` wakeup; any other detector keeps its own
:class:`DetectorHost`.  The observable behaviour — dispatch,
suspicion, incarnation restarts, removal, metrics — must not depend on
which.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveController, AdaptiveNFDE
from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.live.monitor import _COLUMNAR_FROM, LiveMonitorService
from repro.live.soa import LoopWheelScheduler, SoALiveHost
from repro.live.wire import encode_heartbeat
from repro.service.monitor_service import MonitorService
from repro.service.soa import SoAMonitorHost
from repro.sim.engine import Simulator
from repro.sim.monitor import DetectorHost
from tests.reference import SteppedLoop, active_rows


def counter(service, name, **labels):
    metric = service.registry.get(name, labels or None)
    return 0 if metric is None else metric.value


async def drain(service, rounds=6):
    for _ in range(rounds):
        await asyncio.sleep(0)


def nfds_factory(eta, delta):
    return lambda first_seq: NFDS(eta, delta, first_seq=first_seq)


class TestEngineSelection:
    def test_peers_share_one_engine(self):
        async def main():
            service = LiveMonitorService()
            assert service.soa_engine is None  # built on first peer
            for i in range(8):
                service.add_peer(
                    f"p{i}", nfds_factory(0.05, 0.02), eta=0.05
                )
            eng = service.soa_engine
            assert eng is not None and len(active_rows(eng)) == 8
            for i in range(8):
                assert isinstance(service.host(f"p{i}"), SoALiveHost)
            await service.aclose()
            assert len(active_rows(eng)) == 0

        asyncio.run(main())

    def test_adaptive_nfde_keeps_its_own_host_and_reconfigures(self):
        """An ``NFDE`` subclass is never hosted as a plain NFD-E row: it
        gets a :class:`DetectorHost` and adopts exactly the
        reconfigurations of the same detector driven bare."""
        eta = 0.05
        rng = np.random.default_rng(3)
        arrivals = [
            (seq, seq * eta + float(rng.exponential(0.002)))
            for seq in range(1, 401)
            if rng.random() >= 0.01
        ]

        def adaptive(adopted):
            return AdaptiveNFDE(
                eta=eta,
                initial_alpha=0.1,
                controller=AdaptiveController(0.15, 250.0, 0.05),
                reconfig_every=50,
                on_reconfigure=lambda cfg: adopted.append(
                    (cfg.eta, cfg.alpha)
                ),
            )

        bare_adopted = []
        loop = SteppedLoop()
        bare = DetectorHost(
            LoopWheelScheduler(loop, 0.0), adaptive(bare_adopted)
        )
        bare.start()
        for seq, at in arrivals:
            loop.now = at
            bare.deliver(seq, seq * eta)

        async def main():
            adopted = []
            loop = SteppedLoop()
            service = LiveMonitorService(loop=loop, origin=0.0)
            service.add_peer(
                "p0", lambda first_seq: adaptive(adopted), eta=eta
            )
            service.start()
            for seq, at in arrivals:
                loop.now = at
                service.on_datagram(encode_heartbeat("p0", 0, seq, seq * eta))
                await drain(service, rounds=2)
            host = service.host("p0")
            assert isinstance(host, DetectorHost)
            assert service.soa_engine is None
            assert host.delivered_count == len(arrivals)
            assert adopted == bare_adopted and adopted
            assert host.detector.alpha == adopted[-1][1] != 0.1
            await service.aclose()

        asyncio.run(main())


class TestDispatchAndSuspicion:
    def test_delivery_trusts_then_wheel_suspects(self):
        async def main():
            service = LiveMonitorService()
            transitions = []
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            await drain(service)
            host = service.host("p0")
            assert host.delivered_count == 1
            assert host.detector.output == "T"
            assert "p0" not in service.suspected
            # Silence: the engine wheel (one loop timer for the whole
            # population) must fire the freshness deadline.
            await asyncio.sleep(0.2)
            assert host.detector.output == "S"
            assert "p0" in service.suspected
            results = await service.aclose()
            trace = results[0].trace
            assert [t.kind.name for t in trace.transitions] == [
                "T_TRANSITION",
                "S_TRANSITION",
            ]

        asyncio.run(main())

    def test_restart_finalizes_and_redispatches(self):
        async def main():
            service = LiveMonitorService()
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            await drain(service)
            first_host = service.host("p0")
            service.on_datagram(encode_heartbeat("p0", 2, 1, 0.05))
            await drain(service)
            assert counter(service, "live_incarnation_restarts_total") == 1
            assert service.host("p0") is not first_host
            assert service.host("p0").delivered_count == 1
            # The dead incarnation's engine row is retired.
            eng = service.soa_engine
            assert len(active_rows(eng)) == 1
            assert first_host.row not in active_rows(eng)
            final = await service.aclose()
            assert [r.incarnation for r in final] == [0, 2]

        asyncio.run(main())


class TestSubscriberErrors:
    def test_a_raising_subscriber_leaves_the_books_whole(self):
        """Four trusted peers go stale at one freshness point and a
        subscriber raises on the second suspicion.  Every book still
        says S for all four, the other events are still delivered, the
        error is counted and handed to the loop — and the wheel stays
        armed: a fifth peer, silent from then on, is suspected at its
        own freshness point with no heartbeat to re-arm it."""
        eta, delta = 0.05, 0.02
        names = [f"p{i}" for i in range(5)]

        async def main():
            loop = SteppedLoop()
            service = LiveMonitorService(loop=loop, origin=0.0, keep_traces=False)
            for name in names:
                service.add_peer(name, nfds_factory(eta, delta), eta=eta)
            suspicions = []

            def subscriber(event):
                if event.output == "S" and not event.administrative:
                    suspicions.append(event.process)
                    if len(suspicions) == 2:
                        raise RuntimeError("subscriber bug")

            service.subscribe(subscriber)
            service.start()
            for seq in (1, 2, 3, 4):
                loop.run_until(seq * eta + 0.005)
                for name in names if seq < 4 else names[4:]:
                    service.on_datagram(encode_heartbeat(name, 0, seq, seq * eta))
                if seq == 4:  # early: p4 is covered up to τ_5
                    service.on_datagram(encode_heartbeat("p4", 0, 5, 5 * eta))
                await drain(service)
            assert service.suspected == set()
            loop.run_until(4 * eta + delta)  # τ_4: p0..p3 in one slice
            assert suspicions == names[:4]
            assert service.suspected == set(names[:4])
            assert counter(service, "live_transitions_total", output="S") == 4
            assert counter(service, "live_listener_errors_total") == 1
            assert [type(c["exception"]) for c in loop.exceptions] == [RuntimeError]
            assert loop.exceptions[0]["event"].process == "p1"
            loop.run_until(6 * eta + delta)  # τ_6: only the wheel can tell
            assert suspicions == names
            assert service.suspected == set(names)
            results = await service.aclose()
            assert [r.estimator.n_mistakes for r in results] == [1] * 5

        asyncio.run(main())


def tracked_growth(register, n):
    """Objects the collector tracks, grown per call of ``register(i)``
    for ``i < n`` (after one warm-up call that builds shared state)."""
    register(-1)
    gc.collect()
    before = len(gc.get_objects())
    for i in range(n):
        register(i)
    gc.collect()
    return (len(gc.get_objects()) - before) / n


class TestRegistrationCost:
    @pytest.mark.parametrize(
        "factory",
        [
            nfds_factory(0.05, 0.02),
            lambda first_seq: NFDE(0.05, 0.02, first_seq=first_seq),
        ],
        ids=["nfd-s", "nfd-e"],
    )
    def test_a_peer_costs_at_most_three_tracked_objects(self, factory):
        """What the collector walks grows by at most three objects a
        registered NFD-S or NFD-E peer (today two: ``_Peer`` and the
        host): the QoS books and the estimators are table columns, the
        spec detector is rebuilt from the engine's columns, the detector
        and observer views are built when read, and the engine hears
        the service's rows through one batch listener, not one hook a
        peer.  The factory is shared, so it is not counted."""

        async def main():
            service = LiveMonitorService(keep_traces=False)
            per_peer = tracked_growth(
                lambda i: service.add_peer(f"p{i}", factory, eta=0.05), 2000
            )
            assert per_peer <= 3.0, per_peer
            host = service.host("p7")
            assert host.detector.describe().startswith("soa:NFD-")
            assert host.observer.loss.highest_seq is None
            await service.aclose()

        asyncio.run(main())

    def test_an_engine_row_of_the_sim_service_costs_at_most_three(self):
        """A row of ``MonitorService``'s engine, hosted as the service
        hosts it (a kept trace, no observer): today the host and its
        trace — a trace holds no list before its first transition, the
        host is its row's sink (not a bound method), and it keeps no
        spec detector or view."""
        service = MonitorService(Simulator())
        engine = service._soa_engine()
        hosts = []
        per_row = tracked_growth(
            lambda i: hosts.append(
                SoAMonitorHost(engine, NFDS(1.0, 0.5), incarnation=i + 1)
            ),
            2000,
        )
        assert per_row <= 3.0, per_row
        assert hosts[0].detector.delta == 0.5

    def test_a_closed_service_is_freed_by_refcount(self):
        """Once closed, nothing the service handed out (the engine's
        batch listener, the consumer task's factory) refers back to it:
        dropping it frees its peers at once, not at the next collection
        of the cyclic collector."""

        async def main():
            service = LiveMonitorService(keep_traces=False)
            for i in range(50):
                service.add_peer(f"p{i}", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            for i in range(50):
                service.on_datagram(encode_heartbeat(f"p{i}", 0, 1, 0.05))
            await drain(service)
            await service.aclose()
            return weakref.ref(service)

        gc.collect()
        gc.disable()
        try:
            ref = asyncio.run(main())
            assert ref() is None
        finally:
            gc.enable()


class TestAutoAdmit:
    def test_walk_in_lands_in_engine(self):
        async def main():
            service = LiveMonitorService(
                auto_admit=lambda name: (nfds_factory(0.05, 0.02), 0.05),
            )
            service.start()
            service.on_datagram(encode_heartbeat("walk-in", 0, 1, 0.05))
            await drain(service)
            assert service.peer_names == ["walk-in"]
            host = service.host("walk-in")
            assert isinstance(host, SoALiveHost)
            assert host.delivered_count == 1
            assert len(active_rows(service.soa_engine)) == 1
            # remove_peer documents that auto_admit owns membership: a
            # later heartbeat re-admits the name as a brand-new peer.
            service.remove_peer("walk-in")
            service.on_datagram(encode_heartbeat("walk-in", 0, 2, 0.10))
            await drain(service)
            assert service.peer_names == ["walk-in"]
            assert service.host("walk-in") is not host
            await service.aclose()

        asyncio.run(main())


class TestRemoval:
    def test_remove_peer_idempotent(self):
        async def main():
            service = LiveMonitorService()
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            await drain(service)
            first = service.remove_peer("p0")
            assert first is not None and first.delivered == 1
            assert service.remove_peer("p0") is None  # no-op
            assert service.remove_peer("never-added") is None
            assert len(active_rows(service.soa_engine)) == 0
            # The retired row's deadline must not fire a ghost S.
            await asyncio.sleep(0.2)
            assert service.results == [first]
            await service.aclose()

        asyncio.run(main())

    def test_a_removed_peers_index_is_reused_clean(self):
        """A restart leaves incarnation 1 in the peer index, and a
        columnar burst books receipts the host has not been told about:
        ``remove_peer`` settles them into the closed result, then puts
        the index's columns back to their fills for the next peer."""

        async def main():
            loop = SteppedLoop()
            service = LiveMonitorService(
                loop=loop, origin=0.0, keep_traces=False
            )
            for name in ("p0", "p1"):
                service.add_peer(name, nfds_factory(0.05, 0.03), eta=0.05)
            service.start()
            loop.run_until(0.06)
            service.on_datagram(encode_heartbeat("p0", 1, 2, 0.1))
            await drain(service)
            index = service._index
            at = index.get("p0").index
            assert index.incarnation[at] == 1
            burst = range(3, 3 + _COLUMNAR_FROM)
            for seq in burst:
                service.on_datagram(encode_heartbeat("p0", 1, seq, seq * 0.05))
            await drain(service)
            assert index.booked[at] == len(burst)  # booked, not settled
            version = index.version
            result = service.remove_peer("p0")
            assert result.incarnation == 1
            assert result.delivered == 1 + len(burst)
            assert index.version > version
            assert index.row[at] == index.slot[at] == -1
            assert index.incarnation[at] == index.booked[at] == 0
            service.add_peer("p2", nfds_factory(0.05, 0.03), eta=0.05)
            assert index.get("p2").index == at
            await service.aclose()

        asyncio.run(main())

    def test_restarts_leave_nothing_behind_in_the_engine(self):
        """A restarted incarnation's row is retired, not reused — but
        what it referenced (the host behind its sink, through it the
        estimator and the transition hook) must go, and an NFD-E row's
        window ring must serve the next incarnation: 1 000 restarts of
        one peer cost the engine 1 000 rows of columns and nothing
        else."""

        def hosts():
            gc.collect()
            return sum(type(o) is SoALiveHost for o in gc.get_objects())

        async def main():
            loop = SteppedLoop()
            service = LiveMonitorService(
                loop=loop, origin=0.0, keep_traces=False
            )
            service.add_peer(
                "p0",
                lambda first_seq: NFDE(0.05, 0.03, window=8, first_seq=first_seq),
                eta=0.05,
            )
            service.start()
            before = hosts()
            for incarnation in range(1, 1001):
                loop.run_until(incarnation * 0.05 + 0.01)
                for seq in (incarnation + 1, incarnation + 2):
                    service.on_datagram(
                        encode_heartbeat("p0", incarnation, seq, seq * 0.05)
                    )
                await drain(service, rounds=3)
            assert counter(service, "live_incarnation_restarts_total") == 1000
            eng = service.soa_engine
            assert eng.n_rows == 1001 and len(active_rows(eng)) == 1
            assert eng._windows.n <= 2
            assert eng.pending_deadlines <= 1
            assert hosts() == before == 1
            # service rows carry no per-row sink; of the 1001 rows only
            # the current incarnation's still names its peer
            assert not any(eng._sinks)
            assert sum(p is not None for p in service._row_owner) == 1
            await service.aclose()

        asyncio.run(main())


class TestShedAccounting:
    def test_overflow_drops_are_counted_and_noted(self):
        """Satellite bugfix: every shed path increments the drop
        counter, and decodable shed heartbeats are excluded from the
        peer's loss-rate estimate (monitor overload is not network
        loss)."""

        async def main():
            service = LiveMonitorService(inbox_limit=4)
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            # Consumer not started: seqs 5..10 overflow the inbox.
            for seq in range(1, 11):
                service.on_datagram(
                    encode_heartbeat("p0", 0, seq, 0.05 * seq)
                )
            assert counter(service, "live_inbox_dropped_total") == 6
            assert (
                counter(service, "live_dropped_heartbeats_noted_total")
                == 6
            )
            service.start()
            await drain(service)  # seqs 1..4 dispatch
            host = service.host("p0")
            assert host.delivered_count == 4
            loss = host.observer.loss
            assert loss.highest_seq == 4
            # A later heartbeat opens the 5..10 gap; the noted drops
            # must not be charged to p_L.
            service.on_datagram(encode_heartbeat("p0", 0, 11, 0.55))
            await drain(service)
            assert loss.highest_seq == 11
            assert loss.missing_count == 0
            assert loss.estimate() == 0.0
            await service.aclose()

        asyncio.run(main())

    def test_post_close_arrivals_counted_as_drops(self):
        async def main():
            service = LiveMonitorService()
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            await service.aclose()
            before = counter(service, "live_inbox_dropped_total")
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            assert (
                counter(service, "live_inbox_dropped_total") == before + 1
            )

        asyncio.run(main())
