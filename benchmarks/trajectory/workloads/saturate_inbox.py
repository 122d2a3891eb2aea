"""``saturate_inbox`` — closed loop at ``LiveMonitorService.on_datagram``.

10^4 NFD-S peers; every slot offers one heartbeat per peer (in a seeded
arrival order) straight to ``on_datagram``, and the next slot is offered
only when the registry counters account for the last — a closed loop
with one client, so a slower monitor receives less load.  Slots are
offered for ``--seconds`` seconds (200 slots, 2·10^6 heartbeats, at the
sizing machine's speed).

Why this workload: decode + drain + estimator update + ``ingest`` do
all the work, and the socket and the timers none (the service's local
clock is placed far before time zero, so no freshness point ever comes
due).  This is where the ROADMAP's "estimators on the fast path" item
must show.
"""

from __future__ import annotations

import asyncio
import gc
import time
from typing import Callable, List, Optional

import numpy as np

from repro.live import HeartbeatEncoder

from .. import adapter
from ..harness import SEGMENTS, RunConfig, RunResult
from ..stats import Canary, summarize
from ..streams import saturate_slot

ETA, DELTA = 1.0, 0.5
N_PEERS = 10_000
#: the service's clock reads −FAR at construction: every peer's
#: first_seq is 1 and every freshness point lies in the future
FAR_S = 1.0e6


def peer_names(n: int) -> List[str]:
    return [f"p{i:05d}" for i in range(n)]


#: the run's rate is the median of its first STAT_BURSTS bursts (the
#: sizing machine offers about 115 in 10 s)
STAT_BURSTS = 80
#: set-ups timed on services that are then thrown away; with the real
#: one, setup_s is the median of SETUP_REPEATS + 1
SETUP_REPEATS = 4


async def closed_loop(
    result: RunResult,
    *,
    n_peers: int,
    seconds: float,
    stat_bursts: Optional[int],
    traced: bool,
    setup_repeats: int = 0,
) -> None:
    """Register ``n_peers``, run the closed loop, check the books."""
    cfg = result.config
    tracer, canary = result.tracer, result.canary
    loop = asyncio.get_running_loop()
    names = peer_names(n_peers)
    factory = adapter.detector_factory("nfd-s", ETA, DELTA)
    trusts = [0]

    def subscriber(event):
        if not event.administrative and event.output == "T":
            trusts[0] += 1

    def set_up():
        service = adapter.build_service(loop, loop.time() + FAR_S, inbox_limit=n_peers + 1)
        for name in names:
            adapter.add_peer(service, name, factory, ETA)
        encoders = [HeartbeatEncoder(name) for name in names]
        counters = adapter.CounterView(service)
        service.subscribe(subscriber)
        service.start()
        return service, encoders, counters

    # Set-up, several times over; memory is read off the first, while
    # the heap is still fresh.
    for k in range(setup_repeats + 1):
        rss0 = adapter.rss_kb()
        t0 = time.perf_counter()
        service, encoders, counters = set_up()
        took = time.perf_counter() - t0
        if k == 0:
            result.put("rss_kb_per_peer", (adapter.rss_kb() - rss0) / n_peers)
        # each sample at reference machine speed, by the canary beside it
        result.put("setup_s", took * Canary.to_ref(canary.spin(reps=1)))
        result.put_raw("setup_s", took)
        if k < setup_repeats:
            await service.aclose()
            del service, encoders, counters
            gc.collect()
    rng = np.random.default_rng([cfg.seed, 0x5A7])

    on_burst: Callable = offer_burst
    if traced:
        on_burst = tracer.wrap("live.monitor.on_datagram_burst", offer_burst)
        engine = getattr(service, "soa_engine", None)
        if engine is not None:
            engine.ingest = tracer.wrap("service.soa.ingest", engine.ingest)

    # One untimed slot: first heartbeats flip every peer S -> T through
    # the scalar lane and fill the decoder cache.
    slot = 1
    await offer_and_wait(service, counters, saturate_slot(encoders, slot, ETA, rng), on_burst)

    def next_burst(segment: int, first: bool) -> List[bytes]:
        nonlocal slot
        slot += 1
        return saturate_slot(encoders, slot, ETA, rng)

    await timed_segments(
        result, service, counters, on_burst, next_burst,
        seconds=seconds, stat_bursts=stat_bursts, traced=traced, trace_block=4,
    )

    t_close = time.perf_counter()
    books = await service.aclose()
    result.info["close_s"] = time.perf_counter() - t_close

    offered = slot * n_peers
    result.attempted += offered
    expected = {
        "live_datagrams_received_total": offered,
        "live_heartbeats_dispatched_total": offered,
        'live_transitions_total{output="T"}': n_peers,
    }
    result.check_counters(expected, counters.totals())
    result.fail(abs(trusts[0] - n_peers), f"trust events: expected {n_peers}, got {trusts[0]}")
    short = sum(1 for b in books if b.delivered != slot or b.first_seq != 1)
    result.fail(short, f"{short} peers' books are not (first_seq 1, {slot} delivered)")

    result.info.update(peers=n_peers, slots=slot, offered_hb=offered)


async def timed_segments(
    result: RunResult,
    service,
    counters,
    on_burst: Callable,
    next_burst: Callable[[int, bool], List[bytes]],
    *,
    seconds: float,
    stat_bursts: Optional[int],
    traced: bool,
    trace_block: int,
) -> None:
    """The closed loop proper: offer bursts for ``seconds`` seconds, cut
    into SEGMENTS equal spans.

    A canary pass follows every burst, so each burst's rate and CPU
    cost are put at reference machine speed by the reading taken that
    very moment.  The run's value is the median over its first
    ``stat_bursts`` untraced bursts — a fixed set, because a burst's
    cost can depend on how many came before it (``slowlane_mix`` slows
    by a quarter over a run as its wheel fills), and a faster machine
    gets further in the same seconds.  Later bursts are offered and
    checked like the rest; an untraced run goes on past ``seconds``
    until it has that many.  (``None``: every burst of the ``seconds``
    counts — the ledger's short probe.)  Tracing alternates in blocks of
    ``trace_block`` bursts, so both arms see the same machine weather.
    """
    tracer, canary = result.tracer, result.canary
    rates: List[float] = []  # at reference speed, traced and untraced
    burst_traced: List[bool] = []
    untraced: List[tuple] = []  # (rate, cpu_us, canary reading)
    for segment in range(SEGMENTS):
        deadline = time.perf_counter() + seconds / SEGMENTS
        last = segment == SEGMENTS - 1
        weather: List[float] = []
        while time.perf_counter() < deadline or (
            last and not traced and len(untraced) < (stat_bursts or 1)
        ):
            tracer.set_segment(segment, traced and (len(rates) // trace_block) % 2 == 0)
            payloads = next_burst(segment, not weather)
            cpu0 = time.process_time()
            wall = await offer_and_wait(service, counters, payloads, on_burst)
            cpu_us = 1e6 * (time.process_time() - cpu0) / len(payloads)
            reading = canary.spin(reps=1)
            weather.append(reading)
            rates.append(len(payloads) / wall / Canary.to_ref(reading))
            burst_traced.append(tracer.on)
            if not tracer.on:
                untraced.append((len(payloads) / wall, cpu_us, reading))
        result.note_weather(segment, weather)
    tracer.set_segment(-1, False)
    head = untraced[:stat_bursts]
    result.put("hb_per_s", *(r / Canary.to_ref(c) for r, _, c in head))
    result.put("cpu_us_per_hb", *(u * Canary.to_ref(c) for _, u, c in head))
    result.put_raw("hb_per_s", *(r for r, _, _ in head))
    result.put_raw("cpu_us_per_hb", *(u for _, u, _ in head))
    result.info["bursts"] = len(rates)
    result.info["bursts_in_statistic"] = len(head)
    on = [r for r, t in zip(rates, burst_traced) if t]
    off = [r for r, t in zip(rates, burst_traced) if not t]
    if on and off:
        result.layer["trace.overhead_frac"] = summarize(off).median / summarize(on).median - 1.0


def offer_burst(on_datagram: Callable, payloads: List[bytes]) -> None:
    for payload in payloads:
        on_datagram(payload)


async def offer_and_wait(service, counters, payloads: List[bytes], on_burst: Callable) -> float:
    """Offer one burst and wait until it is accounted for; returns the
    wall time from the first offer to the last datagram's accounting."""
    target = counters.accounted() + len(payloads)
    t0 = time.perf_counter()
    on_burst(service.on_datagram, payloads)
    while counters.accounted() < target:
        await asyncio.sleep(0)
    return time.perf_counter() - t0


def run(cfg: RunConfig) -> RunResult:
    result = RunResult(cfg)
    asyncio.run(
        closed_loop(
            result,
            n_peers=N_PEERS // 10 if cfg.smoke else N_PEERS,
            seconds=min(cfg.seconds, 1.0) if cfg.smoke else cfg.seconds,
            stat_bursts=5 if cfg.smoke else STAT_BURSTS,
            traced=cfg.trace,
            setup_repeats=1 if cfg.smoke else SETUP_REPEATS,
        )
    )
    return result
