"""``slowlane_mix`` — the same entry point, off the vectorised lane.

Same closed loop and size class as ``saturate_inbox`` (10^4 peers
offered at ``on_datagram``, next burst when the counters account for the
last), but the traffic is the kind a real port sees: half the peers run
NFD-E (the scalar ``ingest`` lane, with a live deadline per heartbeat in
the wheel), and every burst carries junk datagrams, heartbeats from
never-registered senders with fresh names (decoder-cache misses),
incarnation restarts with stale stragglers, and out-of-order sequence
numbers.  The first burst of the middle segment exceeds the inbox, so
the shed path (full decode → ``note_local_drop``) runs.

Why this workload: the same layers, used differently.  A fast-lane gain
bought by making restarts, cache misses or NFD-E rows dearer shows here
and nowhere else.

Before timing, a 1/20-scale stream is replayed through both engines
(while the object engine exists) and the counters and incarnation books
of each must equal the generator's prediction.
"""

from __future__ import annotations

import asyncio
import gc
import time
from typing import Dict, List, Tuple

from repro.live import LiveMonitorService

from .. import adapter
from ..harness import SEGMENTS, RunConfig, RunResult
from ..stats import Canary
from ..streams import MixStream
from .saturate_inbox import FAR_S, SETUP_REPEATS, offer_and_wait, offer_burst, timed_segments

#: NFD-S half: (η, δ).  NFD-E half: η with a safety margin α wide
#: enough that a closed loop running several times faster or slower
#: than η never lets an expected-arrival estimate go stale.
ETA, DELTA = 0.25, 0.125
ALPHA = 6.0
N_PEERS = 10_000
#: the run's rate is the median of its first STAT_BURSTS bursts (the
#: sizing machine offers 60-85 in 10 s, each dearer than the one before)
STAT_BURSTS = 40


def _build(loop, stream: MixStream, **wanted) -> LiveMonitorService:
    service = adapter.build_service(
        loop, loop.time() + FAR_S, inbox_limit=stream.inbox_limit, **wanted
    )
    nfds = adapter.detector_factory("nfd-s", ETA, DELTA)
    nfde = adapter.detector_factory("nfd-e", ETA, ALPHA)
    for name in stream.names_s:
        adapter.add_peer(service, name, nfds, ETA)
    for name in stream.names_e:
        adapter.add_peer(service, name, nfde, ETA)
    return service


def _books(results) -> List[Tuple[str, int, int, int]]:
    return sorted((r.name, r.incarnation, r.first_seq, r.delivered) for r in results)


def _verify(result: RunResult, label: str, stream: MixStream, totals: Dict[str, int], books) -> None:
    result.check_counters(stream.expected_counters(), totals, label)
    want_books = stream.expected_books()
    if books != want_books:
        off = len(set(books) ^ set(want_books))
        result.fail(max(1, off), f"{label}: {off} incarnation books differ from the prediction")


async def _replay_small(result: RunResult, seed: int, engine: str) -> None:
    """A 1/20-scale stream through one engine, checked, untimed."""
    loop = asyncio.get_running_loop()
    stream = MixStream(seed, N_PEERS // 20, ETA)
    service = _build(loop, stream, engine=engine)
    counters = adapter.CounterView(service)
    service.start()
    for slot in range(1, 9):
        burst = stream.next_slot(overflow=slot == 5)
        await offer_and_wait(service, counters, burst.payloads, offer_burst)
    totals = counters.totals()
    books = _books(await service.aclose())
    _verify(result, f"1/20-scale replay ({engine} engine)", stream, totals, books)
    result.attempted += stream.offered


async def _run(result: RunResult, n_peers: int, seconds: float, setup_repeats: int) -> None:
    cfg = result.config
    tracer, canary = result.tracer, result.canary
    loop = asyncio.get_running_loop()

    t_start = time.perf_counter()
    engines = ["soa"]
    if adapter.accepts(LiveMonitorService.__init__, "engine"):
        engines.append("object")
    else:
        result.notes.append("object engine is gone: replay checked against the prediction only")
    for engine in engines:
        await _replay_small(result, cfg.seed, engine)
    result.info["identity_check_s"] = time.perf_counter() - t_start

    suspicions = [0]

    def subscriber(event):
        if event.output == "S" and not event.administrative:
            suspicions[0] += 1

    # Set-up, several times over (the services of all but the last are
    # thrown away); memory is read off the first, while the heap is
    # still fresh.
    for k in range(setup_repeats + 1):
        rss0 = adapter.rss_kb()
        t0 = time.perf_counter()
        stream = MixStream(cfg.seed, n_peers, ETA)
        service = _build(loop, stream)
        counters = adapter.CounterView(service)
        service.subscribe(subscriber)
        service.start()
        took = time.perf_counter() - t0
        if k == 0:
            result.put("rss_kb_per_peer", (adapter.rss_kb() - rss0) / n_peers)
        # each sample at reference machine speed, by the canary beside it
        result.put("setup_s", took * Canary.to_ref(canary.spin(reps=1)))
        result.put_raw("setup_s", took)
        if k < setup_repeats:
            await service.aclose()
            del service, counters
            gc.collect()

    on_burst = offer_burst
    if cfg.trace:
        on_burst = tracer.wrap("live.monitor.on_datagram_burst", offer_burst)
        engine = getattr(service, "soa_engine", None)
        if engine is not None:
            engine.ingest = tracer.wrap("service.soa.ingest", engine.ingest)
            engine.advance = tracer.wrap("service.soa.advance", engine.advance)

    # Two untimed bursts: first heartbeats flip every peer S -> T and
    # fill the decoder cache; out-of-order repeats begin with slot 3.
    for _ in range(2):
        await offer_and_wait(service, counters, stream.next_slot().payloads, on_burst)

    def next_burst(segment: int, first: bool) -> List[bytes]:
        return stream.next_slot(overflow=first and segment == SEGMENTS // 2).payloads

    await timed_segments(
        result, service, counters, on_burst, next_burst,
        seconds=seconds, stat_bursts=5 if cfg.smoke else STAT_BURSTS, traced=cfg.trace, trace_block=2,
    )

    totals = counters.totals()
    engine = getattr(service, "soa_engine", None)
    if engine is not None:
        result.info["pending_deadlines"] = engine.pending_deadlines
    t_close = time.perf_counter()
    books = _books(await service.aclose())
    result.info["close_s"] = time.perf_counter() - t_close

    result.attempted += stream.offered
    _verify(result, "timed stream", stream, totals, books)
    result.fail(suspicions[0], f"{suspicions[0]} detector suspicions in a stream without crashes")
    result.info.update(
        peers=n_peers,
        slots=stream.slot,
        offered_datagrams=stream.offered,
        inbox_limit=stream.inbox_limit,
        inbox_dropped=totals.get("live_inbox_dropped_total", 0),
        restarts=totals.get("live_incarnation_restarts_total", 0),
    )


def run(cfg: RunConfig) -> RunResult:
    result = RunResult(cfg)
    asyncio.run(
        _run(
            result,
            n_peers=N_PEERS // 10 if cfg.smoke else N_PEERS,
            seconds=min(cfg.seconds, 1.0) if cfg.smoke else cfg.seconds,
            setup_repeats=1 if cfg.smoke else SETUP_REPEATS,
        )
    )
    return result
