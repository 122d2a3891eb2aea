"""``mass_crash`` — 2·10^4 peers, then storm after storm of silence.

2·10^4 NFD-S peers are fed at ``on_datagram`` on the wall-clock grid
``σ_k = k·η`` with ``η = seconds / 16`` (0.625 s in a 10 s run) and
``δ = 0.72·η``.  Slot 1 brings every peer up and belongs to set-up.  In
each of slots 2–15 a freshly drawn, seeded half of the fleet is silent;
slot 16 brings everyone back.  So from slot 3 on every slot does the
same three things: a quarter of the fleet *returns* (each return is an
S → T transition through the scalar lane), a quarter falls *newly*
silent, and at the freshness point ``τ_k = k·η + δ`` those 5·10^3 peers
are suspected in one slice of the wheel.  Each storm is timed from τ to
the last suspicion delivered to a subscriber.  The first storm (slot 2)
is twice the size of the others and sets the rotation up: it is checked
like the rest but kept out of the statistics, which leaves thirteen.

Why this workload: the wheel slice and the transition fan-out do the
work, decode and the estimators almost none — the Chord-style mass
failure (fail X % at once, replicate over seeds).  It is also the only
place where set-up cost and memory per peer are visible at scale.

Why not the issue's 10^5 peers, (η, δ) = (1.5, 0.75) and 10 / 50 / 90 %
storms: per-verdict cost falls with storm size (fixed costs), so storms
of three sizes have no common median and a 10 s run holds too few of
each size to steady one — ten sizing runs spread by 0.29–0.31 on all
three storm metrics, thirteen equal storms by a third of that.  (How
the slice scales with its size is a ledger row:
``service.soa.slice_us_per_verdict_10`` / ``_50`` / ``_90``.)  And on
the sizing machine one slot of 10^5 heartbeats takes 0.7–1.0 s to
drain, so with δ = 0.75 the tail of a slot arrives after its own
freshness point and is suspected falsely when a neighbour slows the VM.
A slot here does 0.25 s of work in its 0.625 s.
"""

from __future__ import annotations

import asyncio
import gc
import time
from typing import List

import numpy as np

from repro.live import HeartbeatEncoder

from .. import adapter
from ..harness import RunConfig, RunResult
from ..stats import Canary, percentile, summarize
from ..streams import crash_plan
from .saturate_inbox import offer_and_wait, offer_burst

#: slot 1 brings everyone up, slots 2..SLOTS-1 are storms, the last
#: slot brings everyone back
SLOTS = 16
SMOKE_SLOTS = 8
DELTA_OVER_ETA = 0.72
N_PEERS = 20_000
#: peers registered between two canary passes (see _register)
REGISTER_CHUNK = 500
#: registrations timed on services that are then thrown away; with the
#: real one, setup_s takes the median of REGISTRATIONS + 1
REGISTRATIONS = 2
#: local time zero is placed this long after construction: registration
#: (1-2 s on the sizing machine, its canary passes included) then ends
#: inside [0, η), where
#: first_seq is still 1 and the first grid point is at most η away.  A
#: slower machine only starts feeding at a later slot.
LEAD_S = 1.5
#: the core is kept busy with canary passes for this long before every
#: feed and every freshness point (see _arrive_warm)
WARM_S = 0.03
#: ... up to this long before a freshness point, so that the loop is
#: idle, waiting in its selector, when the wheel's timer comes due
IDLE_S = 0.012
#: a storm must have started by τ + FIRST_LIMIT and be over before the
#: next slot's heartbeats are due
FIRST_LIMIT_S = 0.250


def peer_names(n: int) -> List[str]:
    return [f"m{i:06d}" for i in range(n)]


async def _arrive_warm(loop, canary: Canary, when: float, idle_s: float = 0.0) -> List[float]:
    """Wait for loop time ``when``; returns the canary readings taken
    just before it.

    A core that has slept is handed back cold, and how cold differs from
    one wake-up to the next: a feed or a storm that starts right after a
    long sleep is timed ±15 % from slot to slot.  So the last ``WARM_S``
    before ``when`` are spent running canary passes, which also says how
    fast the machine is at that moment.
    """
    await asyncio.sleep(max(0.0, when - WARM_S - loop.time()))
    readings = [canary.spin(reps=1)]
    while loop.time() + readings[-1] < when - idle_s:
        readings.append(canary.spin(reps=1))
    await asyncio.sleep(max(0.0, when - loop.time()))
    return readings


def _register(loop, canary: Canary, origin: float, names: List[str], eta: float, delta: float):
    """Build a service and register ``names``; returns (service, wall
    seconds, the same at reference machine speed).

    A registration of 2·10^4 peers takes 0.7-1.5 s on the sizing
    machine, from one process to the next, whatever one canary reading
    taken after it says.  It is therefore timed in chunks of
    ``REGISTER_CHUNK`` peers, each put at reference speed by a canary
    pass of its own (not counted): the sum spread by 0.07 between ten
    processes where the whole, read once, spread by 0.15.
    """
    wall = ref = 0.0
    t0 = time.perf_counter()
    service = adapter.build_service(loop, origin, inbox_limit=len(names) + 1)
    factory = adapter.detector_factory("nfd-s", eta, delta)
    for lo in range(0, len(names), REGISTER_CHUNK):
        for name in names[lo : lo + REGISTER_CHUNK]:
            adapter.add_peer(service, name, factory, eta)
        took = time.perf_counter() - t0
        wall += took
        ref += took * Canary.to_ref(canary.spin(reps=1))
        t0 = time.perf_counter()
    return service, wall, ref


async def _run(
    result: RunResult, n_peers: int, lead_s: float, eta: float, registrations: int, slots: int = SLOTS
) -> None:
    delta = DELTA_OVER_ETA * eta
    cfg = result.config
    tracer, canary = result.tracer, result.canary
    loop = asyncio.get_running_loop()
    names = peer_names(n_peers)

    # Registration, several times over; memory is read off the first,
    # while the heap is still fresh.
    registration_s: List[float] = []  # wall seconds
    registration_ref: List[float] = []  # the same at reference machine speed
    rss0 = adapter.rss_kb()
    for k in range(registrations):
        spare, wall, ref = _register(loop, canary, loop.time() + 1.0e6, names, eta, delta)
        registration_s.append(wall)
        registration_ref.append(ref)
        if k == 0:
            result.put("rss_kb_per_peer", (adapter.rss_kb() - rss0) / n_peers)
        spare.start()
        await spare.aclose()
        del spare
        gc.collect()

    rss0 = adapter.rss_kb()
    origin = loop.time() + lead_s
    service, wall, ref = _register(loop, canary, origin, names, eta, delta)
    registration_s.append(wall)
    registration_ref.append(ref)
    t_rest = time.perf_counter()
    if not registrations:
        result.put("rss_kb_per_peer", (adapter.rss_kb() - rss0) / n_peers)
    local_now = service.local_now
    index_of = {name: i for i, name in enumerate(names)}
    encoders = [HeartbeatEncoder(name) for name in names]
    counters = adapter.CounterView(service)
    events: List[tuple] = []

    def subscriber(event, _append=events.append):
        _append((event.process, event.output, event.time, local_now(), event.administrative))

    on_burst = offer_burst
    engine = getattr(service, "soa_engine", None)
    if cfg.trace and engine is not None:
        on_burst = tracer.wrap("live.monitor.on_datagram_burst", offer_burst)
        engine.ingest = tracer.wrap("service.soa.ingest", engine.ingest)
        inner_advance = engine.advance
        # perf_counter reading at local time zero, to place the
        # subscriber's burst (stamped in local time) among the spans
        perf_zero = time.perf_counter() - local_now()

        def traced_advance(t):
            if not tracer.on:
                return inner_advance(t)
            mark = len(events)
            index = tracer.begin("service.soa.advance")
            try:
                return inner_advance(t)
            finally:
                tracer.end(index)
                if len(events) > mark:
                    tracer.add(
                        "subscriber",
                        perf_zero + events[mark][3],
                        perf_zero + events[-1][3],
                        parent=index,
                    )

        engine.advance = traced_advance
    service.subscribe(subscriber)
    service.start()
    rest_s = time.perf_counter() - t_rest
    rest_ref = rest_s * Canary.to_ref(canary.spin(reps=1))

    # First fed slot: the next grid point, never before slot 1.
    first_slot = max(1, int(local_now() // eta) + 1)
    plan = crash_plan(cfg.seed, n_peers, n_storms=slots - 2)
    offered = 0
    expected_trusts = 0
    storms: List[tuple] = []  # (lateness of every verdict, canary reading, traced)
    # what a correct monitor's output is, peer by peer (detectors start at S)
    suspected = np.ones(n_peers, dtype=bool)
    expected_suspicions = 0
    everyone = np.arange(n_peers)
    # The registered fleet is long-lived: it is moved out of the
    # collector's sight (as a monitor would after start-up), or each
    # paced collection would walk 2·10^4 peers' books, 0.05-0.1 s a time.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for step in range(1, plan.last_slot + 1):
            slot = first_slot + step - 1
            silent = plan.silent_in(step)
            alive = everyone if silent is None else np.setdiff1d(everyone, silent, assume_unique=True)
            sigma = slot * eta
            payloads = [encoders[i].encode(slot, sigma) for i in alive.tolist()]
            # Steps 3..SLOTS-1 are alike (a quarter returns, a quarter falls
            # silent); of those, every other one runs with spans on.
            alike = 3 <= step < slots
            traced = cfg.trace and alike and step % 2 == 0
            # A collection would otherwise land inside a feed or a storm
            # at random.  The collector is therefore off while slots run
            # and is called here, in the idle gap before each feed, where
            # a monitor that paces its own collections would call it.
            gc.collect()
            # One reading is ±10 % on its own; a slot's feed and storm
            # are both put at reference machine speed by the median of
            # all the readings taken around them (about eight).
            readings = await _arrive_warm(loop, canary, origin + sigma)
            tracer.set_segment(step, traced)
            cpu0 = time.process_time()
            wall = await offer_and_wait(service, counters, payloads, on_burst)
            cpu = time.process_time() - cpu0
            readings.append(canary.spin(reps=1))
            offered += len(payloads)
            expected_trusts += int(np.count_nonzero(suspected[alive]))
            suspected[alive] = False
            feed_done = local_now()
            # (Slot 1 may overrun: nobody is trusted yet, so nobody can be
            # suspected falsely.  The last slot has no freshness point.)
            if 1 < step < slots and feed_done > sigma + delta:
                result.fail(1, f"slot {slot}: feed ended {feed_done - sigma:.2f} s after σ, past its freshness point")
            lates: List[float] = []
            if silent is not None:
                # A peer still suspected from the previous storm stays S:
                # only the newly silent produce a transition.
                newly = silent[~suspected[silent]]
                suspected[silent] = True
                expected_suspicions += len(newly)
                mark = len(events)
                tau = sigma + delta
                ahead = await _arrive_warm(loop, canary, origin + tau, IDLE_S)
                # The wheel's timer was armed first, so the whole slice has
                # been delivered by the time this coroutine resumes; wait
                # on only if the timer itself is late.
                while len(events) - mark < len(newly) and local_now() < tau + (eta - delta) * 0.9:
                    await asyncio.sleep(0.005)
                storm = events[mark:]
                lates = _check_storm(result, storm, newly, index_of, slot, tau, eta - delta)
                after = canary.spin(reps=1)
                result.note_canary(step, summarize(ahead).median, after)
                readings += ahead + [after]
            reading = summarize(readings).median
            scale = Canary.to_ref(reading)
            if step == 1:
                # Set-up: a registration (each of them gives one value),
                # the rest of the construction, and the slot that brings
                # everyone up; each part at reference machine speed.
                result.put("setup_s", *(r + rest_ref + wall * scale for r in registration_ref))
                result.put_raw("setup_s", *(r + rest_s + wall for r in registration_s))
                result.info["registration_s"] = [round(x, 4) for x in registration_s]
                result.info["bring_up_s"] = wall
            elif alike and not traced:
                result.put("cpu_us_per_hb", 1e6 * cpu / len(payloads) * scale)
                result.put("hb_per_s", len(payloads) / wall / scale)
                result.put_raw("cpu_us_per_hb", 1e6 * cpu / len(payloads))
                result.put_raw("hb_per_s", len(payloads) / wall)
            if lates and alike:
                storms.append((lates, reading, traced))
            tracer.set_segment(-1, False)
    finally:
        gc.enable()
        gc.unfreeze()

    totals = counters.totals()
    if engine is not None:
        result.info["pending_deadlines"] = engine.pending_deadlines
    t_close = time.perf_counter()
    books = await service.aclose()
    result.info["close_s"] = time.perf_counter() - t_close

    result.attempted += offered
    expected = {
        "live_datagrams_received_total": offered,
        "live_heartbeats_dispatched_total": offered,
        'live_transitions_total{output="T"}': expected_trusts,
        'live_transitions_total{output="S"}': expected_suspicions,
    }
    result.check_counters(expected, totals)
    late_starters = sum(1 for b in books if b.first_seq != 1)
    if late_starters:
        result.notes.append(
            f"{late_starters} peers registered after local time zero (first_seq > 1); "
            f"feeding began at slot {first_slot}"
        )

    # A storm is CPU-bound from its first verdict to its last, so its
    # three numbers are reported at reference machine speed.
    per_verdict = {True: [], False: []}
    bound_ms = 1e3 * (eta + delta)
    late_p50: List[float] = []
    late_p99: List[float] = []
    for lates, reading, traced in storms:
        scale = Canary.to_ref(reading)
        us = 1e6 * max(lates) / len(lates)
        per_verdict[traced].append(us * scale)
        if traced:
            continue
        p50 = 1e3 * summarize(lates).median
        p99 = 1e3 * percentile(lates, 99, min_beyond=cfg.min_beyond)
        # detection time of the worst-placed crash: δ + η plus lateness
        result.put("detect_p50_ms", bound_ms + p50 * scale)
        result.put("detect_p99_ms", bound_ms + p99 * scale)
        result.put("storm_us_per_verdict", us * scale)
        result.put_raw("detect_p50_ms", bound_ms + p50)
        result.put_raw("detect_p99_ms", bound_ms + p99)
        result.put_raw("storm_us_per_verdict", us)
        late_p50.append(p50 * scale)
        late_p99.append(p99 * scale)
    if late_p50:
        result.info["verdict_late_p50_ms"] = summarize(late_p50).median
        result.info["verdict_late_p99_ms"] = summarize(late_p99).median
    result.info.update(
        peers=n_peers,
        eta=eta,
        delta=delta,
        first_slot=first_slot,
        offered_hb=offered,
        suspicions_expected=expected_suspicions,
        storms_timed=len(per_verdict[False]),
        verdicts_per_storm=[len(lates) for lates, _, _ in storms],
    )
    if per_verdict[True] and per_verdict[False]:
        result.layer["trace.overhead_frac"] = (
            summarize(per_verdict[True]).median / summarize(per_verdict[False]).median - 1.0
        )


def _check_storm(result, storm, silent, index_of, slot, tau, gap) -> List[float]:
    """Every silent peer, and nobody else, is suspected at exactly τ."""
    lates: List[float] = []
    seen = set()
    for name, output, when, delivered_at, administrative in storm:
        if administrative or output != "S":
            continue
        seen.add(index_of[name])
        if when != tau:
            result.fail(1, f"slot {slot}: {name} suspected at {when}, not at τ = {tau}")
        lates.append(delivered_at - when)
    want = set(silent.tolist())
    off = len(want ^ seen)
    result.fail(off, f"slot {slot}: suspicion set off by {off} peers ({len(seen)} seen, {len(want)} newly silent)")
    if lates:
        if min(lates) > FIRST_LIMIT_S:
            result.fail(1, f"slot {slot}: storm began {min(lates) * 1e3:.0f} ms after τ")
        if max(lates) > gap:
            result.notes.append(f"slot {slot}: storm still running when the next slot was due")
    return lates


def run(cfg: RunConfig) -> RunResult:
    result = RunResult(cfg)
    if cfg.smoke:
        asyncio.run(_run(result, 1_000, 0.0, eta=0.15, registrations=1, slots=SMOKE_SLOTS))
    else:
        asyncio.run(_run(result, N_PEERS, LEAD_S, eta=cfg.seconds / SLOTS, registrations=REGISTRATIONS))
    return result
