"""The inbox drain decides the same for every chunk size and hosting.

Chunked drains (chunk decode, hoisted receipt clock, single engine
ingest per drain) must make exactly the decisions of a one-datagram-at-
a-time consumer (chunks of one) feeding per-detector reference hosts
(``tests/reference.py``) — same counters, same per-incarnation books,
same detector transition kinds — under junk, unknown senders,
reordering, incarnation restarts, stale stragglers, inbox overflow, and
real wall-clock pacing.  The chunk size is the monitor's constant,
patched here (:func:`chunks_of`).
"""

from __future__ import annotations

import asyncio
import gc
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.errors import EstimationError
from repro.estimation import HeartbeatObserver
from repro.live import monitor
from repro.live.monitor import _COLUMNAR_FROM, LiveMonitorService
from repro.live.wire import encode_heartbeat
from tests.reference import HOSTINGS, SteppedLoop, hosted, observer_state

ETA, DELTA = 0.05, 0.03
#: NFD-E slack: a heartbeat drained at s·η + 0.01 stays fresh until
#: (s + 1)·η + 0.04 — past the next drain, short of the one after
ALPHA = 0.03


def chunks_of(n):
    """The consumer drains chunks of at most ``n`` datagrams while this
    is active (it reads the constant when it starts)."""
    return mock.patch.object(monitor, "_DRAIN_BATCH", n)


def _factory(first_seq):
    return NFDS(ETA, DELTA, first_seq=first_seq)


def _factory_e(first_seq):
    return NFDE(ETA, ALPHA, window=4, first_seq=first_seq)


def _factory_on(hosting):
    """``"soa-e"``: an NFD-E row of the engine."""
    if hosting == "soa-e":
        return _factory_e
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
    # A stepped clock: a restart's first_seq is ⌊now/η⌋ + 1, which on a
    # wall clock depends on how long the machine took to get there.
    service = LiveMonitorService(
        loop=SteppedLoop(),
        origin=0.0,
        inbox_limit=len(payloads) + 1,
        keep_traces=False,
        **kw,
    )
    for i in range(n_senders):
        service.add_peer(f"s{i}", _factory_on(hosting), eta=ETA)
    for payload in payloads:
        service.on_datagram(payload)
    n = len(payloads)
    with chunks_of(drain):
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
        the consumer ran) still reach the books — identically to a
        consumer draining them one at a time."""

        async def main():
            payloads = mixed_stream(n_senders=3, slots=4)
            results = {}
            for started in (True, False):
                loop = asyncio.get_running_loop()
                service = LiveMonitorService(
                    loop=loop,
                    origin=loop.time(),
                    inbox_limit=len(payloads) + 1,
                    keep_traces=False,
                )
                for i in range(3):
                    service.add_peer(f"s{i}", _factory, eta=ETA)
                for payload in payloads:
                    service.on_datagram(payload)
                if started:
                    with chunks_of(1):
                        service.start()
                        while _processed(service.registry) < len(payloads):
                            await asyncio.sleep(0)
                books = await service.aclose()
                results[started] = (
                    _counters(service.registry),
                    sorted(
                        (r.name, r.incarnation, r.delivered) for r in books
                    ),
                )
            assert results[True] == results[False]
            counters, _ = results[False]
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
                    keep_traces=False,
                )
                service.add_peer("s0", _factory, eta=ETA)
                for payload in payloads:  # all before the consumer runs
                    service.on_datagram(payload)
                with chunks_of(drain):
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

    def test_shed_views_are_counted_and_noted(self):
        """A datagram handed over as a ``bytearray`` or a ``memoryview``
        is shed like a ``bytes`` one: counted dropped and noted to the
        loss estimator, never raised out of the transport callback."""

        async def main():
            loop = asyncio.get_running_loop()
            service = LiveMonitorService(
                loop=loop, origin=loop.time(), inbox_limit=2, keep_traces=False
            )
            service.add_peer("s0", _factory, eta=ETA)
            for seq in range(1, 7):
                view = (bytearray, memoryview)[seq % 2]
                service.on_datagram(view(encode_heartbeat("s0", 0, seq, seq * ETA)))
            counters = _counters(service.registry)
            assert counters["live_inbox_dropped_total"] == 4
            assert counters["live_dropped_heartbeats_noted_total"] == 4
            service.start()
            while _processed(service.registry) < 2:
                await asyncio.sleep(0)
            (result,) = await service.aclose()
            assert result.delivered == 2
            assert result.observer.loss.missing_count == 0

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
                keep_traces=True,
            )
            service.add_peer(
                "s0",
                lambda first_seq: hosted(
                    hosting, NFDS(eta, delta, first_seq=first_seq)
                ),
                eta=eta,
            )
            with chunks_of(drain):
                service.start()
                await asyncio.sleep(0)  # the consumer reads the chunk size
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


async def drain_stream(
    stream, *, drain, peers, probe_after=None, admit=None, **service_kw
):
    """Offer ``stream`` to a service on a :class:`SteppedLoop` and close
    it.  ``stream`` is a list of ``(slot, step)``: with the clock at
    ``slot·η + 0.01`` a list of payloads is offered as one burst and
    drained, a callable is called with the service (a membership
    change between chunks).  ``peers`` maps a name to its hosting;
    ``admit(service, name)`` is the admission hook.

    Returns the counters, the results, the published events, ``delivered_count`` of every hosted peer read
    mid-run (after step ``probe_after``), and how often the columnar
    and the scalar lane ran.
    """
    loop = SteppedLoop()
    if admit is not None:
        service_kw["auto_admit"] = lambda name: admit(service, name)
    service = LiveMonitorService(
        loop=loop,
        origin=0.0,
        keep_traces=False,
        **service_kw,
    )
    events = []
    service.subscribe(
        lambda e: events.append(
            (e.time, e.process, e.output, e.administrative, e.incarnation)
        )
    )
    #: calls of the drain's two lanes; receipts the engine's NFD-E lane took
    lanes = {"columnar": 0, "scalar": 0, "nfde": 0}

    def count_calls(lane, method):
        inner = getattr(service, method)

        def counted(*args):
            lanes[lane] += 1
            return inner(*args)

        setattr(service, method, counted)

    count_calls("columnar", "_book_run")
    count_calls("scalar", "_dispatch_scalar")
    for name, hosting in peers.items():
        service.add_peer(name, _factory_on(hosting), eta=ETA)
    engine = service.soa_engine
    if engine is not None:
        nfde_lane = engine._ingest_nfde

        def counted_nfde(*args):
            taken = nfde_lane(*args)
            lanes["nfde"] += len(taken)
            return taken

        engine._ingest_nfde = counted_nfde
    with chunks_of(drain):
        service.start()
        await asyncio.sleep(0)  # the consumer reads the chunk size
    offered, midrun = 0, None
    for k, (slot, step) in enumerate(stream):
        loop.run_until(slot * ETA + 0.01)
        if callable(step):
            step(service)
        else:
            for payload in step:
                service.on_datagram(payload)
            offered += len(step)
            dropped = _counters(service.registry)["live_inbox_dropped_total"]
            for _ in range(len(step) + 10):  # loop turns: one a chunk at most
                if _processed(service.registry) + dropped == offered:
                    break
                await asyncio.sleep(0)
            else:
                pytest.fail(f"burst not drained: {service.consumer_crashes}")
        if k == probe_after:
            midrun = {
                name: service.host(name).delivered_count
                for name in service.peer_names
            }
    results = await service.aclose()
    assert service.consumer_crashes == []
    assert len(service._observers) == 0  # every row released
    return (
        _counters(service.registry),
        results,
        events,
        midrun,
        lanes,
    )


def estimator_stream():
    """Bursts for two peers, ``e0`` (an engine row) and ``r0`` (a
    ``RefNFDS`` on a ``DetectorHost``); a spec is ``(incarnation, seq,
    sigma)`` sent to both, or raw bytes."""

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


# ---------------------------------------------------------------------- #
# The columnar lane against the scalar lane
# ---------------------------------------------------------------------- #

#: engine-hosted names of mixed byte length: 1 … 80 bytes, with 2-, 3-
#: and 4-byte UTF-8 sequences; "ab" / "abX" differ by a trailing byte
REGULARS = [
    "a",
    "ab",
    "abX",
    "peer-03",
    "длинное-имя",
    "节点-7",
    "🙂node",
    "é",
    "p" * 80,
] + [f"n{i:02d}" for i in range(50)]
RESTARTER, SILENT, REFERENCE = "x", "quiet", "r0"
RESTARTER_E, SILENT_E = "xe", "quiet-e"
#: 64 peers fill the index's first columns to the brim, so a stranger's
#: -1, used as a gather index, reads a real engine row's entry (the last).
#: Half the engine's rows are NFD-E: the restarter and the silent peer
#: come in both kinds, and so does every other regular one.
COLUMNAR_PEERS = {
    REFERENCE: "object",
    RESTARTER: "soa",
    SILENT: "soa",
    RESTARTER_E: "soa-e",
    SILENT_E: "soa-e",
    **{name: ("soa-e", "soa")[i % 2] for i, name in enumerate(REGULARS)},
}


EVICTED = "n07"


def _admit_g(service, name):
    """Admission hook: names in ``g…`` are admitted, the rest refused;
    ``g1`` takes the place — and the freed index — of ``EVICTED``."""
    if name == "g1":
        service.remove_peer(EVICTED)
    return (_factory, ETA) if name.startswith("g") else None


def columnar_stream():
    """Every way the columnar lane met to be wrong, as bursts long
    enough to be decoded as columns when drained whole."""
    rng = np.random.default_rng(20)

    def hb(name, seq, inc=0, sigma=None):
        return encode_heartbeat(
            name, inc, seq, seq * ETA if sigma is None else sigma
        )

    gone = set()

    def regular(slot, skip=()):
        names = [
            n for n in (*REGULARS, REFERENCE) if n not in skip and n not in gone
        ]
        return [hb(names[i], slot) for i in rng.permutation(len(names))]

    def junk(slot):
        good = hb("n00", slot)
        return [
            b"RQ",  # shorter than a header
            good[:26],  # one byte short of a header
            b"X" + good[1:],  # bad magic
            good[:4] + b"\x07" + good[5:],  # bad version
            good[:-1],  # truncated name
            hb("n00", 2**63 + slot),  # no int64 column can carry it
            hb("n00", 2**64 - 1),
            good[:25] + b"\x00\x02" + b"\xff\xfe",  # name is not UTF-8
            good + b"\x00\x01",  # trailing bytes: tolerated, a duplicate
            hb("ab", slot - 1) + b"X",  # trailing byte spells peer "abX"
        ]

    def spliced(burst, extra, where):
        at = {
            "head": 0,
            "third": len(burst) // 3,
            "middle": len(burst) // 2,
            "tail": len(burst),
        }[where]
        return burst[:at] + extra + burst[at:]

    specials = (SILENT, RESTARTER, SILENT_E, RESTARTER_E)
    stream = [(slot, regular(slot) + [hb(name, slot) for name in specials])
              for slot in (1, 2)]
    # junk of each kind at the head, in the middle and at the tail of a
    # chunk; the tail one ends on a short datagram (gather past the buffer)
    for slot, where in ((3, "head"), (4, "middle"), (5, "tail")):
        extra = junk(slot)
        if where == "tail":
            extra = extra[2:] + extra[:2]
        stream.append((slot, spliced(regular(slot), extra, where)))
    # SILENT was suspected at τ_3, SILENT_E when m_2 went stale; they
    # return here (S→T on the engine's scalar lane).  Restart, straggler
    # and the new incarnation's next heartbeat in one chunk, once for
    # each kind: the peer's state moves under the mask, and its old
    # row's expiry and window leave the engine in mid-chunk.
    def restart(name):
        return [hb(name, 8, inc=1), hb(name, 5), hb(name, 9, inc=1)]

    stream.append(
        (
            6,
            spliced(
                spliced(
                    regular(6) + [hb(SILENT, 6), hb(SILENT_E, 6)],
                    restart(RESTARTER),
                    "middle",
                ),
                restart(RESTARTER_E),
                "third",
            ),
        )
    )
    # strangers: one refused, one admitted whose second heartbeat
    # follows in the same chunk (its name was unknown at the head), and
    # one whose admission evicts a peer heard earlier in the chunk: the
    # index that name was probed to is the newcomer's by its next one
    stream.append(
        (
            7,
            spliced(
                spliced(
                    regular(7, skip=(EVICTED,)),
                    [hb("zz", 7), hb("g0", 9), hb("n01", 7), hb("g0", 10)],
                    "middle",
                ),
                [hb(EVICTED, 7), hb("g1", 9), hb(EVICTED, 8), hb("g1", 10)],
                "third",
            ),
        )
    )
    gone.add(EVICTED)
    # one peer's duplicate and out-of-order repeat, split across the
    # lanes: the trailing-byte payloads are deferred to the scalar one
    stream.append(
        (
            8,
            spliced(
                regular(8, skip=("n02",)),
                [
                    hb("n02", 8),
                    hb("n02", 8) + b"\x00",
                    hb("n02", 6) + b"\x00",
                    hb("n02", 9),
                    hb("n02", 7),
                ],
                "middle",
            ),
        )
    )
    # index reuse: the same name again, and a new name on a freed index

    def churn(service):
        for name in ("n03", "n04"):
            service.remove_peer(name)
        service.add_peer("n03", _factory, eta=ETA)
        service.add_peer("fresh", _factory, eta=ETA)

    stream.append((9, churn))
    # first_seq is 10 for both at this clock
    stream.append(
        (
            9,
            regular(9, skip=("n03", "n04"))
            + [hb("n03", 10), hb("n04", 10), hb("fresh", 10), hb("g0", 11)],
        )
    )
    # rejected by the estimators after the columnar lane counted them
    stream.append(
        (
            10,
            spliced(
                regular(10, skip=("n03", "n04", "n05", "n06")),
                [hb("n05", 10, sigma=NAN), hb("n06", 0), hb("n03", 11)],
                "middle",
            ),
        )
    )
    # payloads that are not ``bytes``: this chunk has no hashable names
    burst = regular(11, skip=("n03", "n04"))
    burst[3] = bytearray(burst[3])
    burst[-2] = memoryview(burst[-2])
    stream.append((11, burst))
    stream.append((12, regular(12, skip=("n03", "n04")) + [hb("n03", 13)]))
    return stream


def _by_process(events):
    out = {}
    for event in events:
        out.setdefault(event[1], []).append(event)
    return out


class TestEstimatorIdentity:
    def test_results_carry_the_oracle_state_for_every_chunk_size(self):
        async def main():
            stream = [
                (slot, _encode(burst)) for slot, burst in estimator_stream()
            ]
            want, want_rejected = oracle_observers()
            baseline = None
            for drain in (1, 7, 256):
                counters, results, _, _, _ = await drain_stream(
                    stream,
                    drain=drain,
                    peers={"e0": "soa", "r0": "object"},
                    inbox_limit=OVERFLOW_LIMIT,
                )
                if baseline is None:
                    baseline = counters
                assert counters == baseline, drain
                assert sorted((r.name, r.incarnation) for r in results) == sorted(want)
                for result in results:
                    key = result.name, result.incarnation
                    assert type(result.observer) is HeartbeatObserver
                    assert observer_state(result.observer) == observer_state(
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

    def test_columnar_lane_decides_like_the_scalar_lane(self):
        """Chunks of one are never decoded as columns; every
        other chunking — just below the columnar threshold, at it, and a
        whole burst at a time — must leave the same counters, books,
        estimator state and published events behind."""

        def digest(results):
            return {
                (r.name, r.incarnation, r.first_seq): (
                    r.delivered,
                    observer_state(r.observer),
                )
                for r in results
            }

        async def main():
            stream = columnar_stream()
            probe = next(
                k for k, (slot, _) in enumerate(stream) if slot == 8
            )
            runs = {}
            for drain in (1, 7, _COLUMNAR_FROM - 1, _COLUMNAR_FROM, 256):
                runs[drain] = await drain_stream(
                    stream,
                    drain=drain,
                    peers=COLUMNAR_PEERS,
                    probe_after=probe,
                    inbox_limit=4096,
                    admit=_admit_g,
                )
            counters, results, events, midrun, lanes = runs[1]
            assert lanes["columnar"] == 0 and lanes["nfde"] == 0
            assert len(COLUMNAR_PEERS) == 64
            kinds = Counter(COLUMNAR_PEERS.values())
            assert kinds["soa-e"] == 32 and kinds["soa"] == 31
            for drain, got in runs.items():
                assert got[0] == counters, drain
                assert digest(got[1]) == digest(results), drain
                # A DetectorHost publishes at delivery, an engine row at
                # the chunk's flush: the two interleave by chunking, each
                # keeps its own order.
                assert _by_process(got[2]) == _by_process(events), drain
                on_engine = [e for e in events if e[1] != REFERENCE]
                assert [e for e in got[2] if e[1] != REFERENCE] == on_engine
                assert got[3] == midrun, drain
                columnar = drain >= _COLUMNAR_FROM
                assert (got[4]["columnar"] > 0) == columnar, drain
                assert got[4]["scalar"] > 0
                # a chunk of 19 or more has the engine's NFD-E lane run
                assert (got[4]["nfde"] > 100) == (drain >= 19), drain
            # the stream met every decision, and the traps
            assert counters["live_datagrams_invalid_total"] == 3 * 8
            assert counters["live_unknown_sender_total"] == 3
            assert counters["live_stale_incarnation_total"] == 2
            assert counters["live_incarnation_restarts_total"] == 2
            assert counters["live_prewindow_heartbeats_total"] == 2
            books = digest(results)
            assert books["x", 1, 7][0] == books["xe", 1, 7][0] == 2
            assert books["g0", 0, 8][0] == 3 and books["g1", 0, 8][0] == 2
            assert books[EVICTED, 0, 1][0] == 7
            assert books["n03", 0, 1][0] == 8 and books["n03", 0, 10][0] == 3
            assert books["fresh", 0, 10][0] == 1
            assert midrun["n02"] == 7 + 5 and midrun[REFERENCE] == 8
            for name in (SILENT, SILENT_E):
                kinds = [(e[2], e[3]) for e in _by_process(events)[name]]
                assert kinds == [
                    ("S", True), ("T", False), ("S", False), ("T", False),
                    ("S", False), ("S", True),
                ], name

        asyncio.run(main())

    def test_registration_touches_no_ring_and_builds_no_estimator_objects(self):
        """2 000 engine-hosted peers cost columns only: both rings are
        still at depth 0, no per-peer observer, deque, set or function
        exists, and the name index holds one key and one integer a peer."""

        def census():
            gc.collect()
            return Counter(type(o).__name__ for o in gc.get_objects())

        async def main():
            service = LiveMonitorService(keep_traces=False)
            service.add_peer("warm", _factory, eta=ETA)  # builds the engine
            before = census()
            for i in range(2000):
                service.add_peer(f"p{i}", _factory, eta=ETA)
            after = census()
            grown = {
                kind: after[kind] - before[kind]
                for kind in after
                if after[kind] - before[kind] >= 200  # a tenth of a peer
            }
            # One object of each of these per peer and nothing else the
            # collector tracks: no HeartbeatObserver, deque or set (the
            # observer table's columns), no OnlineQoSEstimator or Welford
            # (the QoS table's), no hook, method or function (the engine
            # hears the service's rows through its one batch listener),
            # no spec detector (the engine's columns), no detector or
            # observer view (built when read).
            assert grown == dict.fromkeys(("_Peer", "SoAMonitorHost"), 2000)
            lookup = service._index.lookup
            assert len(lookup) == 2001
            assert {type(k) for k in lookup} == {bytes}
            assert sorted(lookup.values()) == list(range(2001))
            table = service._observers
            assert len(table) == 2001
            assert table._delays.buf.shape[0] == 0
            assert table._arrivals.buf.shape[0] == 0
            assert table._missing == {} and table._local_drops == {}
            await service.aclose()

        asyncio.run(main())


class TestStrangers:
    """Misdirected heartbeats interleaved with real ones must not
    fragment the chunk: only an *admission* is a structural change."""

    N_PEERS, EVERY = 224, 7  # 224 + 32 strangers: one chunk of 256

    def _chunk(self, non_bytes):
        chunk = []
        for i in range(self.N_PEERS):
            if i % self.EVERY == 0:
                chunk.append(encode_heartbeat(f"g{i}", 0, 1, ETA))
            chunk.append(encode_heartbeat(f"p{i:03d}", 0, 1, ETA))
        assert len(chunk) == 256
        if non_bytes:  # the whole chunk takes the scalar lane
            chunk[1] = bytearray(chunk[1])
        return chunk

    async def _drain(self, chunk, *, drain, make_hook):
        """Drain ``chunk``; ``make_hook(ingests)`` builds the admission
        hook around the list of receipts-per-``ingest`` seen so far."""
        loop = SteppedLoop()
        loop.now = 0.01
        ingests = []
        service = LiveMonitorService(
            loop=loop,
            origin=0.0,
            keep_traces=False,
            auto_admit=make_hook(ingests),
        )
        for i in range(self.N_PEERS):
            service.add_peer(f"p{i:03d}", _factory, eta=ETA)
        engine = service.soa_engine
        inner = engine.ingest

        def ingest(times, rows, seqs):
            ingests.append(len(rows))
            inner(times, rows, seqs)

        engine.ingest = ingest
        for payload in chunk:
            service.on_datagram(payload)
        with chunks_of(drain):
            service.start()
            while _processed(service.registry) < len(chunk):
                await asyncio.sleep(0)
        results = await service.aclose()
        books = sorted(
            (r.name, r.incarnation, r.first_seq, r.delivered) for r in results
        )
        return _counters(service.registry), books, ingests

    @pytest.mark.parametrize("lane", ["columnar", "scalar"])
    @pytest.mark.parametrize(
        "make_hook",
        [lambda ingests: None, lambda ingests: lambda name: None],
        ids=["no-hook", "refusing-hook"],
    )
    def test_refused_strangers_cost_no_flush(self, make_hook, lane):
        async def main():
            chunk = self._chunk(non_bytes=lane == "scalar")
            counters, books, ingests = await self._drain(
                chunk, drain=256, make_hook=make_hook
            )
            assert ingests == [self.N_PEERS]  # the parent made 33 calls
            assert counters["live_unknown_sender_total"] == 32
            one_by_one = await self._drain(chunk, drain=1, make_hook=make_hook)
            assert (counters, books) == one_by_one[:2]

        asyncio.run(main())

    @pytest.mark.parametrize("lane", ["columnar", "scalar"])
    def test_admission_flushes_what_came_before_it(self, lane):
        """An admitted stranger's row registers after every receipt
        queued before it was applied — and only then is there a flush."""

        async def main():
            chunk = self._chunk(non_bytes=lane == "scalar")
            applied = []  # receipts ingested when each factory ran

            def make_hook(ingests):
                def factory(first_seq):  # called by add_peer
                    applied.append(sum(ingests))
                    return _factory(first_seq)

                return lambda name: (factory, ETA)

            counters, books, ingests = await self._drain(
                chunk, drain=256, make_hook=make_hook
            )
            # 7 registered heartbeats between strangers, plus the one of
            # each stranger admitted so far
            assert applied == [8 * k for k in range(32)]
            # the first stranger heads the chunk: nothing to flush yet
            assert ingests == [8] * 32
            assert counters["live_unknown_sender_total"] == 0
            del applied[:]
            one_by_one = await self._drain(chunk, drain=1, make_hook=make_hook)
            assert (counters, books) == one_by_one[:2]

        asyncio.run(main())


# ---------------------------------------------------------------------- #
# Restarts on engine rows: a cut in the chunk, not a flush
# ---------------------------------------------------------------------- #

#: engine-hosted peers of both kinds; ``q…`` are silent in slot 2, so
#: they are suspected when slot 3 hears their old incarnation again
RESTART_PEERS = {
    **{f"s{i:02d}": "soa" for i in range(20)},
    **{f"e{i:02d}": "soa-e" for i in range(20)},
    **{f"qs{i:02d}": "soa" for i in range(14)},
    **{f"qe{i:02d}": "soa-e" for i in range(10)},
}
#: the peer that restarts twice in one chunk
TWICE = "s00"


def restart_stream():
    """Bursts in which engine rows restart: many in one chunk, one at
    the head and one at the tail of a burst (so of a chunk, whatever
    its size), one peer twice in a row, suspected peers that turn T on
    an old-incarnation heartbeat before they restart, a restart whose
    first heartbeat the estimators reject, and stale stragglers.  A new
    incarnation heartbeats one number ahead of the slot: its window
    opens at the slot still to come."""
    rng = np.random.default_rng(41)
    names = sorted(RESTART_PEERS)
    quiet = [name for name in names if name.startswith("q")]
    inc = dict.fromkeys(names, 0)

    def hb(name, slot, sigma=None):
        seq = slot + (inc[name] > 0)
        return encode_heartbeat(
            name, inc[name], seq, seq * ETA if sigma is None else sigma
        )

    def regular(slot, skip=()):
        return [
            hb(names[i], slot)
            for i in rng.permutation(len(names))
            if names[i] not in skip
        ]

    stream = [(1, regular(1)), (2, regular(2, skip=quiet))]
    # slot 3: every quiet peer's old incarnation is heard again (S→T),
    # then — later in the chunk — it restarts; so do a dozen others
    burst = regular(3, skip=quiet)
    returns = [hb(name, 3) for name in quiet]
    others = [
        name for name in names
        if name not in quiet and name not in (TWICE, "e05", "s07")
    ]
    restarting = quiet + others[1::3]
    for name in restarting:
        inc[name] += 1
    restarts = [hb(name, 3) for name in restarting]
    order = rng.permutation(len(restarts))
    burst = returns + burst[:30] + [restarts[i] for i in order] + burst[30:]
    # one peer heard at position 0, then restarting twice in a row at
    # positions 3 and 4: one chunk of 7 holds all three
    twice = [hb(TWICE, 3)]
    for _ in range(2):
        inc[TWICE] += 1
        twice.append(hb(TWICE, 3))
    burst = twice[:1] + burst[:2] + twice[1:] + burst[2:]
    stream.append((3, burst))
    # slot 4: a restart heads the burst and one ends it — the tail one's
    # first heartbeat has no finite delay (the estimators reject it);
    # stragglers of the superseded incarnations in between
    head, tail = "e05", "s07"
    inc[head] += 1
    burst = [hb(head, 4)] + regular(4, skip=(head,)) + [
        encode_heartbeat(name, inc[name] - 1, 3, 3 * ETA)
        for name in restarting[:5]
    ]
    inc[tail] += 1
    burst.append(hb(tail, 4, sigma=NAN))
    stream.append((4, burst))
    for slot in (5, 6):
        stream.append((slot, regular(slot)))
    return stream


def _count_passes(service):
    """Count the calls of the service's two passes over a chunk, the
    estimator table's ``observe_batch`` and the engine's ``ingest``."""
    calls = Counter()
    for owner, method in (
        (service._observers, "observe_batch"),
        (service.soa_engine, "ingest"),
    ):
        inner = getattr(owner, method)

        def counted(*args, _inner=inner, _method=method, **kwargs):
            calls[_method] += 1
            return _inner(*args, **kwargs)

        setattr(owner, method, counted)
    return calls


class TestRestartCuts:
    """A restart on an engine row closes the old row where the chunk's
    one ingest reaches it: the same decisions, books and events as a
    flush at the restart, for every chunk size."""

    DRAINS = (1, 7, _COLUMNAR_FROM, 256)

    def test_restarts_decide_alike_for_every_chunk_size(self):
        def digest(results):
            return {
                (r.name, r.incarnation, r.first_seq): (
                    r.delivered,
                    observer_state(r.observer),
                )
                for r in results
            }

        async def main():
            stream = restart_stream()
            probe = next(k for k, (slot, _) in enumerate(stream) if slot == 3)
            runs = {}
            for drain in self.DRAINS:
                runs[drain] = await drain_stream(
                    stream,
                    drain=drain,
                    peers=RESTART_PEERS,
                    probe_after=probe,
                    inbox_limit=4096,
                )
            counters, results, events, midrun, _ = runs[1]
            for drain, got in runs.items():
                assert got[0] == counters, drain
                assert digest(got[1]) == digest(results), drain
                assert got[2] == events, drain  # one global order
                assert got[3] == midrun, drain
            # the stream met what it is for
            # 24 quiet and 12 other peers, one twice, one at each end
            restarts = counters["live_incarnation_restarts_total"]
            assert restarts == 24 + 12 + 2 + 2
            # the stragglers of slot 4, and 4 old-incarnation heartbeats
            # that follow their peer's restart in slot 3's chunk
            assert counters["live_stale_incarnation_total"] == 5 + 4
            assert counters["live_prewindow_heartbeats_total"] == 1
            books = digest(results)
            assert books[TWICE, 1, 4][0] == 1 and books[TWICE, 2, 4][0] == 4
            assert books["s07", 1, 5][0] == 3  # the rejected one counts
            by_process = _by_process(events)
            for name in ("qs00", "qs13", "qe00", "qe09"):
                kinds = [(e[2], e[3], e[4]) for e in by_process[name]]
                # suspected at τ, trusted by the old incarnation, closed
                # at the cut, the new one announced
                assert kinds[:6] == [
                    ("S", True, 0), ("T", False, 0), ("S", False, 0),
                    ("T", False, 0), ("S", True, 0), ("S", True, 1),
                ], name
            # the 256 drain met the lanes the cuts are merged with
            assert runs[256][4]["nfde"] > 0

        asyncio.run(main())

    def test_a_chunk_costs_one_estimator_pass_and_one_ingest(self):
        """However many peers restart in it, a drained chunk is applied
        with one ``observe_batch`` and one ``ingest`` (a flush at each
        restart made 1 + restarts of each)."""

        async def main():
            loop = SteppedLoop()
            service = LiveMonitorService(
                loop=loop, origin=0.0, keep_traces=False
            )
            names = [f"p{i:03d}" for i in range(128)]
            for i, name in enumerate(names):
                service.add_peer(
                    name, (_factory, _factory_e)[i % 2], eta=ETA
                )
            calls = _count_passes(service)
            with chunks_of(256):
                service.start()
                await asyncio.sleep(0)
            inc = [0] * len(names)
            for slot, restarting in ((1, 0), (2, 1), (3, 40), (4, 128)):
                loop.run_until(slot * ETA + 0.01)
                calls.clear()
                for i, name in enumerate(names):
                    inc[i] += i < restarting
                    service.on_datagram(
                        encode_heartbeat(name, inc[i], slot + 1, slot * ETA)
                    )
                while _processed(service.registry) < slot * len(names):
                    await asyncio.sleep(0)
                assert calls == {"observe_batch": 1, "ingest": 1}, slot
            counters = _counters(service.registry)
            assert counters["live_incarnation_restarts_total"] == 1 + 40 + 128
            await service.aclose()

        asyncio.run(main())


class TestReentrantFlush:
    def test_a_removal_inside_the_flush_applies_the_chunk_once(self):
        """A subscriber that removes a peer on a transition the flush
        publishes re-enters the flush: it must find the buffer empty,
        not apply the chunk a second time."""

        async def run(remove):
            loop = SteppedLoop()
            service = LiveMonitorService(
                loop=loop, origin=0.0, keep_traces=False
            )
            names = [f"p{i}" for i in range(40)]
            for name in names:
                service.add_peer(name, _factory, eta=ETA)
            calls = _count_passes(service)

            def on_event(event):
                if remove and event.process == "p0" and event.output == "T":
                    service.remove_peer("p39")

            service.subscribe(on_event)
            service.start()
            await asyncio.sleep(0)
            loop.run_until(ETA + 0.01)
            for name in names:
                service.on_datagram(encode_heartbeat(name, 0, 1, ETA))
            while _processed(service.registry) < len(names):
                await asyncio.sleep(0)
            results = {r.name: r for r in await service.aclose()}
            return calls, results

        async def main():
            calls, removed = await run(remove=True)
            assert calls == {"observe_batch": 1, "ingest": 1}
            _, kept = await run(remove=False)
            for name, result in kept.items():
                assert result.observer.delay_stats.n_samples == 1, name
                if name != "p39":
                    assert observer_state(removed[name].observer) == (
                        observer_state(result.observer)
                    ), name
                    assert removed[name].delivered == 1, name

        asyncio.run(main())

    def test_a_flush_inside_the_scalar_lane_leaves_later_receipts_a_time(self):
        """A ``DetectorHost`` peer publishes at delivery, so a subscriber
        that removes a peer there flushes in the middle of the scalar
        lane: the receipts after it read the clock again rather than
        reach the estimators without a receipt time (which rejected them
        as non-finite and left their peers suspected)."""

        async def main():
            loop = SteppedLoop()
            service = LiveMonitorService(
                loop=loop, origin=0.0, keep_traces=False
            )
            service.add_peer("r0", _factory_on("object"), eta=ETA)
            for name in ("e1", "e2", "e3", "gone"):
                service.add_peer(name, _factory, eta=ETA)

            def on_event(event):
                if event.process == "r0" and event.output == "T":
                    service.remove_peer("gone")

            service.subscribe(on_event)
            service.start()
            await asyncio.sleep(0)
            loop.run_until(ETA + 0.01)
            for name in ("e1", "r0", "e2", "e3"):
                service.on_datagram(encode_heartbeat(name, 0, 1, ETA))
            while _processed(service.registry) < 4:
                await asyncio.sleep(0)
            counters = _counters(service.registry)
            assert counters["live_heartbeats_dispatched_total"] == 4
            assert counters["live_prewindow_heartbeats_total"] == 0
            assert service.suspected == set()
            results = {r.name: r for r in await service.aclose()}
            for name in ("e1", "e2", "e3"):
                stats = results[name].observer.delay_stats
                assert stats.n_samples == 1, name

        asyncio.run(main())
