"""``steady_udp`` — open loop over a real socket, on wall-clock timers.

250 NFD-S peers (η = 0.2 s, δ = 0.18 s) are paced by one
``HeartbeatFanout`` in a separate sender process over UDP loopback into
``BatchedUdpMonitorTransport`` → ``LiveMonitorService``.  Both processes
derive local time from the host's wall clock (the ``epoch_origin``
regime, shifted so sequence numbers start at 1).  Traffic crosses the
host loopback interface, never a real link.

Why this workload: it is the only one that crosses the socket and runs
on wall-clock timers.  Per-heartbeat Python work is a few percent of a
core here, so the numbers isolate wake-up, syscall and timer cost, and
give the *detection time* in clean conditions: δ + η, which the paper
bounds it by, plus the *verdict lateness* — subscriber-callback local
time minus ``MonitorEvent.time`` (the freshness point τ).  250 is
deliberate: it is the largest synchronised burst the default UDP
receive buffer absorbs without kernel loss on the sizing machine.

Every slot is a value: CPU per heartbeat between two slot boundaries,
the median lateness of the slot's verdicts.  (Five segment values gave a
spread of 0.26-0.30 between identical runs; the lateness median itself
moves by 1.3-2.0 ms from run to run with the host's wake-up latency,
which is why the reported metric is the detection time.)

Why not the issue's (η, δ) = (0.1, 0.08) and 2 % drops: any stall longer
than δ, in either process, makes the whole fleet's next heartbeat late
and 250 peers are suspected falsely — one sizing run in ten failed that
way.  δ = 0.18 s more than doubles the stall the run survives while
keeping δ < η (so that every single drop is one suspicion), and the
drop rate is what it takes to collect the 1 000 suspicions a p99 needs.

The same fleet runner, at other sizes and a shorter span, is the
``live.transport.ladder_max_clean_peers`` probe of the traced run.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.live import BatchedUdpMonitorTransport, decode_heartbeat

from .. import adapter
from ..harness import REPO_ROOT, SEGMENTS, RunConfig, RunResult, diff_counters
from ..stats import Canary, TooFewSamples, percentile, summarize
from ..streams import SteadyPlan, steady_plan

ETA, DELTA = 0.2, 0.18
N_PEERS = 250
#: 12 % sender-side drops: ~1250 expected suspicions in a 10 s run, the
#: least that backs a p99 with ten samples beyond it
DROP_PER_10K = 1200
N_CRASHES = 10
#: seconds from the sender's "ready" to local time zero: registration
#: of 250 peers and the sender's 250 streams take ~20 ms
LEAD_S = 0.3
#: throwaway set-ups timed before the real one (setup_s is the median)
SETUP_REPEATS = 14
#: a slot's median lateness is taken from at least this many verdicts
MIN_SLOT_VERDICTS = 5
#: a verdict later than this past its freshness point is a failure
LATE_LIMIT_S = 0.250


@dataclass
class FleetOutcome:
    plan: SteadyPlan
    close_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: set-ups, the throwaway repeats then the real one: (wall seconds,
    #: canary reading taken right after)
    setup_samples: List[Tuple[float, float]] = field(default_factory=list)
    #: verdict lateness (s) of expected suspicions, per slot (slot k at k-1)
    late_by_slot: List[List[float]] = field(default_factory=list)
    #: per slot: (cpu_s, wall_s, dispatched, traced)
    slot_cost: List[Tuple[float, float, int, bool]] = field(default_factory=list)
    #: per segment: canary reading at its start and at its end
    canary_pairs: List[Tuple[float, float]] = field(default_factory=list)
    sender: dict = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    batch_mean: float = 0.0
    stamp_err_mean_ms: float = 0.0

    def all_late(self) -> List[float]:
        return [x for slot in self.late_by_slot for x in slot]


class FleetError(RuntimeError):
    """The two-process fleet could not be run at all (no verdict on the
    program under test): the sender died, a socket could not be had."""


def _sender_env() -> dict:
    env = dict(os.environ)
    parts = [str(REPO_ROOT), str(REPO_ROOT / "src")]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


async def _set_up(loop, origin: float, plan: SteadyPlan, on_datagram_of=None):
    """Everything the monitor does before it can receive: the service,
    its peers, the bound socket.  Returns (service, transport)."""
    service = adapter.build_service(loop, origin)
    factory = adapter.detector_factory("nfd-s", ETA, DELTA)
    for peer in range(plan.n_peers):
        adapter.add_peer(service, plan.peer_name(peer), factory, ETA)
    on_datagram = service.on_datagram if on_datagram_of is None else on_datagram_of(service)
    transport = BatchedUdpMonitorTransport("127.0.0.1", 0, on_datagram)
    try:
        await transport.start()
    except BaseException:
        await service.aclose()
        raise
    return service, transport


async def run_fleet(
    *,
    seed: int,
    n_peers: int,
    slots: int,
    drop_per_10k: int = DROP_PER_10K,
    n_crashes: int = N_CRASHES,
    lead_s: float = LEAD_S,
    setup_repeats: int = 0,
    result: Optional[RunResult] = None,
    traced: bool = False,
    stamp_probe: bool = False,
) -> FleetOutcome:
    """Run one open-loop UDP fleet and check it against its plan."""
    loop = asyncio.get_running_loop()
    plan = steady_plan(seed, n_peers, slots, drop_per_10k, n_crashes)
    out = FleetOutcome(plan=plan)
    tracer = result.tracer if result is not None else None
    canary = result.canary if result is not None else None

    # The sender's interpreter takes about a second to start (mostly
    # imports); it says when it is ready and then waits to be told the
    # port and the instant of local time zero.
    proc = await asyncio.create_subprocess_exec(
        sys.executable,
        "-m",
        "benchmarks.trajectory.udp_sender",
        *("--seed", str(seed), "--peers", str(n_peers), "--slots", str(slots)),
        *("--eta", repr(ETA), "--drop-per-10k", str(drop_per_10k)),
        *("--crashes", str(n_crashes)),
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
        cwd=str(REPO_ROOT),
        env=_sender_env(),
    )
    transport = None
    service = None
    books: list = []
    enqueue = [0.0, 0]
    ingest_calls = [0, 0]
    events: List[tuple] = []
    try:
        t_sender = time.perf_counter()
        ready = await asyncio.wait_for(proc.stdout.readline(), 120.0)
        if not ready.strip():
            raise FleetError("the sender process ended before it was ready")
        sender_up_s = time.perf_counter() - t_sender

        # Set-up is timed several times over, on services that are then
        # thrown away, after the sender's start-up has left the cores.
        for _ in range(setup_repeats):
            t0 = time.perf_counter()
            spare, spare_transport = await _set_up(loop, loop.time() + lead_s, plan)
            try:
                spare.start()
                took = time.perf_counter() - t0
                out.setup_samples.append((took, canary.spin(reps=1) if canary is not None else 0.0))
            finally:
                await spare_transport.aclose()
                await spare.aclose()

        # The ledger's fleet probe stamps each datagram's enqueue instant
        # so the chunk-constant receipt stamp can be priced
        # (stamp_err_mean_ms); it costs a full decode per datagram.
        def probed(service):
            offer, local_now = service.on_datagram, service.local_now

            def on_datagram(payload):
                if tracer.on:
                    enqueue[0] += local_now() - decode_heartbeat(payload).send_local_time
                    enqueue[1] += 1
                offer(payload)

            return on_datagram

        # Local time zero is fixed only now, `lead_s` ahead, so that a
        # slow process start cannot eat into the run; the monitor binds
        # its port before the sender is told of it.
        t0 = time.perf_counter()
        wall_zero = time.time() + lead_s
        origin = adapter.wall_origin(loop, wall_zero)
        service, transport = await _set_up(loop, origin, plan, probed if stamp_probe else None)
        local_now = service.local_now
        counters = adapter.CounterView(service)

        def subscriber(event, _append=events.append):
            _append((event.process, event.output, event.time, local_now(), event.administrative))

        if traced:
            subscriber = tracer.wrap("subscriber", subscriber)
            engine = getattr(service, "soa_engine", None)
            if engine is not None:
                inner_ingest = tracer.wrap("service.soa.ingest", engine.ingest)

                def counted_ingest(times, rows, seqs):
                    if tracer.on:
                        ingest_calls[0] += 1
                        ingest_calls[1] += len(rows)
                    return inner_ingest(times, rows, seqs)

                engine.ingest = counted_ingest
                engine.advance = tracer.wrap("service.soa.advance", engine.advance)
        service.subscribe(subscriber)
        service.start()
        took = time.perf_counter() - t0
        proc.stdin.write(f"{wall_zero!r} {transport.local_address[1]}\n".encode())
        await proc.stdin.drain()
        out.setup_samples.append((took, canary.spin(reps=1) if canary is not None else 0.0))
        if local_now() > 0.0:
            out.problems.append("set-up overran local time zero; early slots are lost")

        # Slot boundaries sit at (k + 0.95)·η: after slot k's freshness
        # point (+0.9 η), before slot k+1's heartbeats.  Every boundary
        # is marked (CPU, wall, dispatched); the canary runs at segment
        # boundaries only, between two marks, so its CPU is in no slot.
        per_segment = slots // SEGMENTS
        marks: List[tuple] = []
        spins: List[float] = []
        for k in range(slots + 1):
            await asyncio.sleep(max(0.0, origin + (k + 0.95) * ETA - loop.time()))
            cpu, wall = time.process_time(), time.perf_counter()
            dispatched = counters.get("live_heartbeats_dispatched_total")
            if k % per_segment == 0:
                spins.append(canary.spin(reps=1) if canary is not None else 0.0)
                if tracer is not None:
                    segment = k // per_segment
                    if segment < SEGMENTS:
                        tracer.set_segment(segment, traced and segment % 2 == 0)
                    else:
                        tracer.set_segment(-1, False)
            marks.append((cpu, wall, dispatched, time.process_time(), time.perf_counter()))
        for k in range(1, slots + 1):
            segment = min(SEGMENTS - 1, (k - 1) // per_segment)
            out.slot_cost.append(
                (
                    marks[k][0] - marks[k - 1][3],
                    marks[k][1] - marks[k - 1][4],
                    marks[k][2] - marks[k - 1][2],
                    traced and segment % 2 == 0,
                )
            )
        out.canary_pairs = list(zip(spins, spins[1:]))

        # The senders stop after slot `slots`; wait out the shutdown
        # storm at τ_{slots+1}, then let stragglers drain.
        await asyncio.sleep(max(0.0, origin + (slots + 1) * ETA + DELTA + 0.35 - loop.time()))
        report_line = await asyncio.wait_for(proc.stdout.readline(), 30.0)
        out.sender = json.loads(report_line) if report_line.strip() else {}
        out.sender["up_s"] = sender_up_s
        await asyncio.wait_for(proc.wait(), 30.0)
        out.counters = counters.totals()
        out.counters["kernel_received"] = transport.received
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
        t_close = time.perf_counter()
        if transport is not None:
            await transport.aclose()
        if service is not None:
            books = await service.aclose()
        out.close_s = time.perf_counter() - t_close
    if ingest_calls[0]:
        out.batch_mean = ingest_calls[1] / ingest_calls[0]
    if enqueue[1]:
        # What the estimators recorded as mean delay, minus what the
        # benchmark measured at the enqueue instant.
        observed = [
            b.observer.delay_stats.mean()
            for b in books
            if b.observer is not None and b.observer.delay_stats.n_samples
        ]
        if observed:
            out.stamp_err_mean_ms = 1e3 * (
                sum(observed) / len(observed) - enqueue[0] / enqueue[1]
            )
    _check(out, events)
    return out


def _check(out: FleetOutcome, events: List[tuple]) -> None:
    """Compare what happened with what the plan predicted."""
    plan = out.plan
    slots = plan.slots
    out.attempted = plan.total_sent
    index_of = {plan.peer_name(p): p for p in range(plan.n_peers)}
    forwarded = out.sender.get("forwarded")
    if forwarded != plan.sent:
        off = (
            sum(abs(a - b) for a, b in zip(forwarded, plan.sent))
            if forwarded is not None
            else plan.total_sent
        )
        out.failed += off
        out.problems.append(f"sender forwarded {off} heartbeats off its plan")
    expected = {
        "live_datagrams_received_total": plan.total_sent,
        "live_heartbeats_dispatched_total": plan.total_sent,
        'live_transitions_total{output="T"}': plan.trusts,
        'live_transitions_total{output="S"}': len(plan.suspicions),
        "kernel_received": plan.total_sent,
    }
    for key, (want, got) in diff_counters(expected, out.counters).items():
        out.failed += abs(want - got)
        out.problems.append(f"{key}: expected {want}, got {got}")

    out.late_by_slot = [[] for _ in range(slots)]
    want_s = set(plan.suspicions)
    seen_s = set()
    n_trust = 0
    for name, output, when, delivered_at, administrative in events:
        if administrative:
            continue
        if output == "T":
            n_trust += 1
            continue
        seq = int(round((when - DELTA) / ETA))
        key = (index_of[name], seq)
        seen_s.add(key)
        late = delivered_at - when
        if key in want_s and late > LATE_LIMIT_S:
            out.failed += 1
            out.problems.append(f"{name} τ_{seq}: verdict {late * 1e3:.1f} ms late")
        if key in want_s and 1 <= seq <= slots:
            out.late_by_slot[seq - 1].append(late)
    missing, unexpected = want_s - seen_s, seen_s - want_s
    if missing or unexpected:
        out.failed += len(missing) + len(unexpected)
        out.problems.append(
            f"suspicion set: {len(missing)} missing, {len(unexpected)} unexpected"
        )
    if n_trust != plan.trusts:
        out.failed += abs(n_trust - plan.trusts)
        out.problems.append(f"trust events: expected {plan.trusts}, got {n_trust}")


def slots_for(cfg: RunConfig) -> int:
    seconds = min(cfg.seconds, 1.0) if cfg.smoke else cfg.seconds
    return max(SEGMENTS, int(round(seconds / ETA)) // SEGMENTS * SEGMENTS)


def run(cfg: RunConfig) -> RunResult:
    result = RunResult(cfg)
    # A freeze of the VM longer than δ, in either process, gets the whole
    # fleet suspected and overflows the receive buffer; such a run fails
    # and the command line repeats it (cli.run_with_retries).
    out = asyncio.run(
        run_fleet(
            seed=cfg.seed,
            n_peers=N_PEERS,
            slots=slots_for(cfg),
            setup_repeats=2 if cfg.smoke else SETUP_REPEATS,
            result=result,
            traced=cfg.trace,
        )
    )
    result.attempted, result.failed = out.attempted, out.failed
    for problem in out.problems:
        result.notes.append(f"FAILED: {problem}")
    # Set-up is CPU-bound: each sample is put at reference machine speed
    # by the canary reading taken right after it.
    result.put("setup_s", *(took * Canary.to_ref(reading) for took, reading in out.setup_samples))
    result.put_raw("setup_s", *(took for took, _ in out.setup_samples))
    result.info["close_s"] = out.close_s
    for j, (before, after) in enumerate(out.canary_pairs):
        result.note_canary(j, before, after)
    # Per slot, as measured: the monitor is idle nine tenths of the time
    # here, and a canary pass after a sleep reads the wake-up, not the
    # machine (ten sizing runs: 0.12 with and without it).  CPU time is
    # blind to stalls, so the slots' trimmed mean is reported: it
    # spread by 0.08 where their median spread by 0.10-0.12.
    result.trimmed.append("cpu_us_per_hb")
    for cpu_s, wall_s, dispatched, traced in out.slot_cost:
        if dispatched and not traced:
            result.put("cpu_us_per_hb", 1e6 * cpu_s / dispatched)
            result.put("hb_per_s", dispatched / wall_s)
    per_segment_slots = max(1, out.plan.slots // SEGMENTS)
    # Detection time of the worst-placed crash: the paper's bound δ + η
    # plus how late the verdict ran.  p50: the median slot's median.
    # p99: the sample-count rule is applied to the pooled sample, the
    # value is the median of the per-segment p99s (one 230 ms freeze
    # would otherwise be the pooled p99 of a whole run).
    bound_ms = 1e3 * (ETA + DELTA)
    per_slot = [
        1e3 * summarize(lates).median
        for lates in out.late_by_slot
        if len(lates) >= MIN_SLOT_VERDICTS
    ]
    pooled = out.all_late()
    segments = [
        [x for slot in out.late_by_slot[j : j + per_segment_slots] for x in slot]
        for j in range(0, out.plan.slots, per_segment_slots)
    ]
    try:
        pooled_p99 = 1e3 * percentile(pooled, 99, min_beyond=cfg.min_beyond)
        try:
            tails = [1e3 * percentile(seg, 99, min_beyond=1) for seg in segments]
        except TooFewSamples:  # a smoke run's segments are too short
            tails = [pooled_p99]
    except TooFewSamples as exc:
        result.fail(1, f"detect_p99_ms refused: {exc}")
        tails = [1e3 * max(pooled, default=LATE_LIMIT_S)]
    if not per_slot:
        result.fail(1, "detect_p50_ms: no slot with enough verdicts")
        per_slot = [1e3 * LATE_LIMIT_S]
    result.put("detect_p50_ms", *(bound_ms + late for late in per_slot))
    result.put("detect_p99_ms", *(bound_ms + late for late in tails))
    result.info["verdict_late_p50_ms"] = summarize(per_slot).median
    result.info["verdict_late_p99_ms"] = summarize(tails).median
    result.info["_late_by_slot"] = out.late_by_slot
    result.info.update(
        peers=N_PEERS,
        slots=out.plan.slots,
        offered_hb=out.plan.total_sent,
        suspicions_expected=len(out.plan.suspicions),
        lateness_samples=len(pooled),
        sender_up_s=out.sender.get("up_s", 0.0),
        sender_cpu_us_per_hb=1e6 * out.sender.get("cpu_s", 0.0) / max(1, out.sender.get("paced", 1)),
        sender_tick_late_p50_ms=1e3 * summarize(out.sender.get("tick_late_s") or [0.0]).median,
    )
    if cfg.trace:
        costs = {t: [] for t in (True, False)}
        for cpu_s, _, dispatched, traced in out.slot_cost:
            if dispatched:
                costs[traced].append(cpu_s / dispatched)
        if costs[True] and costs[False]:
            result.layer["trace.overhead_frac"] = (
                summarize(costs[True]).median / summarize(costs[False]).median - 1.0
            )
    return result
