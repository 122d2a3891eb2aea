"""The per-layer ledger of a traced run.

Each row prices one hop of the heartbeat's journey *from outside*: the
seeded stream the closed-loop workload generates (10^4 peers, permuted
arrival order) is replayed through one public function of one layer,
alone, and the call is timed.  Nothing here reaches into a layer; spans
inside the program are a later change.

The rows sum (``ledger.sum_us``) to an end-to-end figure taken in the
same process a moment later (a short closed loop, the
``saturate_inbox`` path); what is left over is itself a row
(``ledger.residual_us``) and the run warns when it exceeds a quarter of
the end-to-end figure.

Every probe has a fixed size, independent of the workload being traced,
so the ledger of any two traced runs can be compared row by row.
"""

from __future__ import annotations

import asyncio
import socket
import struct
import time
import traceback
import tracemalloc
from typing import Callable, Dict, List

import numpy as np

from repro import NFDE, NFDS
from repro.estimation import HeartbeatObserver
from repro.live import (
    BatchedUdpMonitorTransport,
    HeartbeatBatchDecoder,
    HeartbeatEncoder,
    HeartbeatFanout,
    LoopWheelScheduler,
    SenderTransport,
    SoALiveHost,
    UdpSenderTransport,
    WireError,
    decode_heartbeat,
    encode_heartbeat,
)
from repro.service.soa import ManualScheduler, VectorMonitorEngine

from . import adapter
from .harness import OUT_DIR, RunConfig, RunResult, keep_heap_warm
from .stats import TooFewSamples, percentile, summarize
from .workloads import paper_tables, saturate_inbox, steady_udp

ETA, DELTA = 1.0, 0.5
N_PEERS = 10_000
SLOTS = 5
FAR_S = saturate_inbox.FAR_S


def _median_us(fn: Callable[[], int], repeats: int = 3) -> float:
    """Median µs per operation; ``fn`` returns how many it performed."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        n = fn()
        samples.append(1e6 * (time.perf_counter() - t0) / n)
    return summarize(samples).median


class Ledger:
    """Collects every per-layer metric of one traced run."""

    def __init__(self, cfg: RunConfig, result: RunResult) -> None:
        self.cfg = cfg
        self.result = result
        self.rows: Dict[str, float] = {}
        #: peers in every probe stream (a smoke run shrinks the probes)
        self.n = N_PEERS // 5 if cfg.smoke else N_PEERS
        rng = np.random.default_rng([cfg.seed, 0x1ED6E])
        self.names = saturate_inbox.peer_names(self.n)
        self.encoders = [HeartbeatEncoder(name) for name in self.names]
        #: per slot: arrival order (row ids) and the payloads
        self.orders: List[np.ndarray] = []
        self.slots: List[List[bytes]] = []
        for slot in range(1, SLOTS + 1):
            order = rng.permutation(self.n)
            sigma = slot * ETA
            self.orders.append(order)
            self.slots.append([self.encoders[i].encode(slot, sigma) for i in order])
        self.flat = [p for slot in self.slots for p in slot]

    # ------------------------------------------------------------------ #

    def collect(self) -> Dict[str, float]:
        """Run every probe.  One that raises costs its own rows (the
        command line reports each as not measured, and the run as
        failed); the rest of the ledger is still collected."""
        for probe in (
            self.wire,
            self.estimation,
            self.engine,
            self.telemetry,
            lambda: asyncio.run(self.monitor()),
            lambda: asyncio.run(self.loop_probes()),
            lambda: asyncio.run(self.udp()),
            lambda: asyncio.run(self.ladder()),
            self.offline,
            self.close_ledger,
        ):
            try:
                probe()
            except Exception:  # the boundary between one probe and the next
                self.result.fail(1, f"ledger probe raised:\n{traceback.format_exc()}")
        return self.rows

    def _percentile(self, name: str, samples: List[float], p: float) -> float:
        """``percentile`` under the run's sample-count rule; a probe a
        stall has left short of samples gives the same order statistic
        without the rule, and the run says so."""
        try:
            return percentile(samples, p, min_beyond=self.cfg.min_beyond)
        except TooFewSamples as exc:
            self.result.notes.append(f"{name}: {exc}; reported without the sample-count rule")
            if not samples:
                return float("nan")
            return percentile(samples, p, min_beyond=0)

    # ------------------------------------------------------------------ #
    # live.wire
    # ------------------------------------------------------------------ #

    def wire(self) -> None:
        rows, flat = self.rows, self.flat

        def encode() -> int:
            for slot, order in enumerate(self.orders, start=1):
                sigma = slot * ETA
                encoders = self.encoders
                for i in order:
                    encoders[i].encode(slot, sigma)
            return len(flat)

        rows["live.wire.encode_us"] = _median_us(encode)

        decoder = HeartbeatBatchDecoder()
        for payload in self.slots[0]:
            decoder.decode_fields(payload)

        def decode_hit() -> int:
            decode = decoder.decode_fields
            for payload in flat:
                decode(payload)
            return len(flat)

        rows["live.wire.decode_hit_us"] = _median_us(decode_hit)

        def decode_scalar() -> int:
            for payload in flat:
                decode_heartbeat(payload)
            return len(flat)

        rows["live.wire.decode_scalar_us"] = _median_us(decode_scalar)

        # Misses: never-seen names and junk, half and half.
        rng = np.random.default_rng([self.cfg.seed, 0x3155])
        fresh = [
            encode_heartbeat(f"ghost-{j}", 0, 1, ETA) for j in range(10_000)
        ] + [b"RQHB\xff" + rng.bytes(24) for _ in range(10_000)]

        def decode_miss() -> int:
            decode = HeartbeatBatchDecoder().decode_fields
            for payload in fresh:
                try:
                    decode(payload)
                except WireError:
                    pass
            return len(fresh)

        rows["live.wire.decode_miss_us"] = _median_us(decode_miss)

    # ------------------------------------------------------------------ #
    # estimation.observer, live.soa.prepare
    # ------------------------------------------------------------------ #

    def estimation(self) -> None:
        rows = self.rows
        observers = [HeartbeatObserver(eta=ETA) for _ in range(self.n)]
        slot_no = [0]

        def update() -> int:
            # one more slot for every observer, in the stream's order
            slot_no[0] += 1
            slot = slot_no[0]
            sigma = slot * ETA
            now = sigma + 0.01
            order = self.orders[(slot - 1) % SLOTS]
            for i in order:
                observers[i].observe_arrival(slot, sigma, now)
            return len(order)

        rows["estimation.observer.update_us"] = _median_us(update, repeats=5)

        # Memory: what 1 000 observers hold once the eq. 6.3 arrival
        # window (32) is full, by the allocator's own count.
        tracemalloc.start()
        sample = [HeartbeatObserver(eta=ETA) for _ in range(1_000)]
        for slot in range(1, 33):
            for observer in sample:
                observer.observe_arrival(slot, slot * ETA, slot * ETA + 0.01)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows["estimation.observer.kb_per_peer"] = held / 1024.0 / len(sample)
        del sample

        def snapshot() -> int:
            for observer in observers:
                observer.snapshot()
            return len(observers)

        rows["estimation.observer.snapshot_us"] = _median_us(snapshot)
        del observers

        engine = VectorMonitorEngine(ManualScheduler())
        hosts = [
            SoALiveHost(engine, NFDS(ETA, DELTA), keep_trace=False, observer=None)
            for _ in range(self.n)
        ]
        for host in hosts:
            host.start()

        def prepare() -> int:
            n = 0
            for slot, order in enumerate(self.orders, start=1):
                sigma = slot * ETA
                for i in order:
                    hosts[i].prepare(slot, sigma, sigma)
                n += len(order)
            return n

        rows["live.soa.prepare_us"] = _median_us(prepare)

    # ------------------------------------------------------------------ #
    # service.soa
    # ------------------------------------------------------------------ #

    def _engine(self, make, n: int, sink=None) -> VectorMonitorEngine:
        engine = VectorMonitorEngine(ManualScheduler())
        for _ in range(n):
            engine.start_row(engine.register(make(), on_transition=sink))
        return engine

    def _feed(self, engine: VectorMonitorEngine, slot: int, rows: np.ndarray, batch: int = 256) -> int:
        """One slot through ``ingest`` in drain-sized batches, each with
        a chunk-constant receipt time like the live drain's."""
        t = slot * ETA + 0.01
        seqs = np.full(batch, slot, dtype=np.int64)
        times = np.full(batch, t, dtype=np.float64)
        for lo in range(0, len(rows), batch):
            chunk = rows[lo : lo + batch]
            engine.ingest(times[: len(chunk)], chunk, seqs[: len(chunk)])
        return len(rows)

    def engine(self) -> None:
        rows, n = self.rows, self.n
        specs = [NFDS(ETA, DELTA) for _ in range(n)]
        engine = VectorMonitorEngine(ManualScheduler())
        t0 = time.perf_counter()
        for spec in specs:
            engine.start_row(engine.register(spec))
        rows["service.soa.register_us"] = 1e6 * (time.perf_counter() - t0) / n

        orders = [o.astype(np.int64) for o in self.orders]
        self._feed(engine, 1, orders[0])  # S -> T through the scalar lane
        slot = [1]

        def ingest(engine=engine) -> int:
            slot[0] += 1
            return self._feed(engine, slot[0], orders[slot[0] % SLOTS])

        rows["service.soa.ingest_us"] = _median_us(ingest, repeats=5)

        nfde = self._engine(lambda: NFDE(ETA, alpha=1.0), n)
        self._feed(nfde, 1, orders[0])
        slot[0] = 1
        rows["service.soa.ingest_nfde_us"] = _median_us(
            lambda: ingest(nfde), repeats=3
        )
        rows["service.soa.pending_deadlines"] = float(nfde.pending_deadlines)
        del nfde

        # advance: ticks with nobody stale, then slices with 10/50/90 %.
        verdicts = [0]

        def sink(real, local, output):
            verdicts[0] += 1

        engine = self._engine(lambda: NFDS(ETA, DELTA), n, sink)
        everyone = np.arange(n, dtype=np.int64)
        ahead = 1_000
        self._feed(engine, 1, everyone)
        engine.ingest(
            np.full(n, 1.02), everyone, np.full(n, ahead, dtype=np.int64)
        )
        t0 = time.perf_counter()
        ticks = 200
        engine.advance(ticks * ETA + DELTA)
        rows["service.soa.advance_us_per_tick"] = 1e6 * (time.perf_counter() - t0) / ticks
        if verdicts[0] != n:  # the S -> T of slot 1, nothing since
            self.result.fail(1, f"advance probe: {verdicts[0] - n} unexpected verdicts")
        rng = np.random.default_rng([self.cfg.seed, 0x511CE])
        tick = ahead
        for percent in (10, 50, 90):
            tick += 2
            stale = rng.permutation(n)[: n * percent // 100]
            fresh = np.setdiff1d(everyone, stale)
            # everyone is trusted and current up to tick-1 ...
            engine.ingest(
                np.full(n, (tick - 1) * ETA + 0.01),
                everyone,
                np.full(n, tick - 1, dtype=np.int64),
            )
            engine.advance((tick - 1) * ETA + DELTA)
            # ... then only the fresh ones send m_tick.
            engine.ingest(
                np.full(len(fresh), tick * ETA + 0.01),
                fresh,
                np.full(len(fresh), tick, dtype=np.int64),
            )
            verdicts[0] = 0
            t0 = time.perf_counter()
            engine.advance(tick * ETA + DELTA)
            elapsed = time.perf_counter() - t0
            if verdicts[0] != len(stale):
                self.result.fail(1, f"slice probe {percent} %: {verdicts[0]} verdicts, expected {len(stale)}")
            rows[f"service.soa.slice_us_per_verdict_{percent}"] = 1e6 * elapsed / len(stale)

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def telemetry(self) -> None:
        from repro.telemetry import MetricsRegistry, OnlineQoSEstimator

        counter = MetricsRegistry().counter("bench_probe_total")

        def inc() -> int:
            bump = counter.inc
            for _ in range(200_000):
                bump()
            return 200_000

        self.rows["telemetry.registry.counter_inc_ns"] = 1e3 * _median_us(inc)

        def observe() -> int:
            estimator = OnlineQoSEstimator()
            feed = estimator.observe
            for k in range(50_000):
                feed(k + 0.5, "T")
                feed(k + 1.0, "S")
            return 100_000

        self.rows["telemetry.qos_online.observe_us"] = _median_us(observe)

    # ------------------------------------------------------------------ #
    # live.monitor (needs a running loop)
    # ------------------------------------------------------------------ #

    async def _drain(self, observe: bool) -> float:
        """Queue the whole stream, start the consumer, time the drain."""
        loop = asyncio.get_running_loop()
        service = adapter.build_service(
            loop, loop.time() + FAR_S, inbox_limit=len(self.flat) + self.n + 1
        )
        factory = adapter.detector_factory("nfd-s", ETA, DELTA)
        for name in self.names:
            adapter.add_peer(service, name, factory, ETA, observe=observe)
        counters = adapter.CounterView(service)
        # first heartbeats (scalar lane, decoder misses) off the clock
        service.start()
        await saturate_inbox.offer_and_wait(service, counters, self.slots[0], saturate_inbox.offer_burst)
        rest = self.flat[self.n :]
        target = counters.accounted() + len(rest)
        for payload in rest:
            service.on_datagram(payload)
        t0 = time.perf_counter()
        while counters.accounted() < target:
            await asyncio.sleep(0)
        elapsed = time.perf_counter() - t0
        await service.aclose()
        return 1e6 * elapsed / len(rest)

    async def monitor(self) -> None:
        rows, flat = self.rows, self.flat
        loop = asyncio.get_running_loop()

        samples = []
        for _ in range(3):  # a fresh, never-started service each time
            offer = adapter.build_service(
                loop, loop.time() + FAR_S, inbox_limit=len(flat) + 1
            ).on_datagram
            t0 = time.perf_counter()
            for payload in flat:
                offer(payload)
            samples.append(1e6 * (time.perf_counter() - t0) / len(flat))
        rows["live.monitor.enqueue_us"] = summarize(samples).median

        rows["live.monitor.drain_full_us"] = await self._drain(observe=True)
        rows["live.monitor.drain_core_us"] = await self._drain(observe=False)
        rows["live.monitor.dispatch_self_us"] = (
            rows["live.monitor.drain_core_us"]
            - rows["live.wire.decode_hit_us"]
            - rows["service.soa.ingest_us"]
        )

        # Restarts: every datagram announces a higher incarnation.
        n_restart_peers, bumps = 500, 8
        service = adapter.build_service(
            loop, loop.time() + FAR_S, inbox_limit=n_restart_peers * (bumps + 1) + 1
        )
        factory = adapter.detector_factory("nfd-s", ETA, DELTA)
        names = self.names[:n_restart_peers]
        for name in names:
            adapter.add_peer(service, name, factory, ETA)
        counters = adapter.CounterView(service)
        for inc in range(1, bumps + 1):
            for name in names:
                service.on_datagram(encode_heartbeat(name, inc, inc, inc * ETA))
        target = n_restart_peers * bumps
        t0 = time.perf_counter()
        service.start()
        while counters.accounted() < target:
            await asyncio.sleep(0)
        rows["live.monitor.restart_us"] = 1e6 * (time.perf_counter() - t0) / target
        restarts = counters.get("live_incarnation_restarts_total")
        if restarts != target:
            self.result.fail(1, f"restart probe: {restarts} restarts, expected {target}")
        await service.aclose()

        # Shed path: a full inbox, every further datagram is decoded in
        # full and noted as a local drop.
        limit, extra = 1_000, 2 * self.n
        service = adapter.build_service(loop, loop.time() + FAR_S, inbox_limit=limit)
        for name in self.names:
            adapter.add_peer(service, name, factory, ETA)
        counters = adapter.CounterView(service)
        for payload in flat[:limit]:
            service.on_datagram(payload)
        offer = service.on_datagram
        t0 = time.perf_counter()
        for payload in flat[limit : limit + extra]:
            offer(payload)
        rows["live.monitor.shed_us"] = 1e6 * (time.perf_counter() - t0) / extra
        dropped = counters.get("live_inbox_dropped_total")
        rows["live.monitor.inbox_dropped"] = float(dropped)
        noted = counters.get("live_dropped_heartbeats_noted_total")
        if dropped != extra or noted != extra:
            self.result.fail(1, f"shed probe: dropped {dropped}, noted {noted}, expected {extra}")
        await service.aclose()

        for subscribers in (1, 8):
            rows[f"live.monitor.fanout_us_per_verdict_{subscribers}sub"] = (
                await self._fanout_storm(subscribers)
            )

    async def _fanout_storm(self, subscribers: int) -> float:
        """All ``n`` peers go stale at one freshness point; µs per
        verdict from the first subscriber call to the last."""
        loop = asyncio.get_running_loop()
        n = self.n // 2
        eta, delta = 0.2, 0.1
        service = adapter.build_service(loop, loop.time() + 0.05, inbox_limit=n + 1)
        factory = adapter.detector_factory("nfd-s", eta, delta)
        names = self.names[:n]
        for name in names:
            adapter.add_peer(service, name, factory, eta)
        stamps: List[float] = []

        def last(event):
            if event.output == "S" and not event.administrative:
                stamps.append(time.perf_counter())

        for _ in range(subscribers - 1):
            service.subscribe(lambda event: None)
        service.subscribe(last)
        counters = adapter.CounterView(service)
        service.start()
        slot = max(1, int(service.local_now() // eta) + 1)
        await asyncio.sleep(max(0.0, slot * eta - service.local_now()))
        payloads = [encode_heartbeat(name, 0, slot, slot * eta) for name in names]
        await saturate_inbox.offer_and_wait(service, counters, payloads, saturate_inbox.offer_burst)
        # nobody sends m_{slot+1}: everyone is suspected at τ_{slot+1}
        await asyncio.sleep(max(0.0, (slot + 1) * eta + delta + 0.02 - service.local_now()))
        deadline = time.perf_counter() + 2.0
        while len(stamps) < n and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        await service.aclose()
        if len(stamps) != n:
            self.result.fail(1, f"fan-out probe: {len(stamps)} suspicions, expected {n}")
            return float("nan")
        return 1e6 * (stamps[-1] - stamps[0]) / (n - 1)

    # ------------------------------------------------------------------ #
    # loop timers: LoopWheelScheduler, HeartbeatFanout
    # ------------------------------------------------------------------ #

    async def loop_probes(self) -> None:
        rows = self.rows
        loop = asyncio.get_running_loop()
        n = 1_000 if not self.cfg.smoke else 100

        # wake_at on an idle loop: the floor under every verdict.
        scheduler = LoopWheelScheduler(loop, loop.time())
        late: List[float] = []
        done = asyncio.Event()
        target = [0.0]

        def fire():
            late.append(scheduler.now() - target[0])
            if len(late) >= n:
                done.set()
                return
            target[0] = scheduler.now() + 0.001
            scheduler.wake_at(target[0], fire)

        target[0] = scheduler.now() + 0.001
        scheduler.wake_at(target[0], fire)
        await done.wait()
        scheduler.close()
        for p in (50, 99):
            name = f"live.soa.timer_late_p{p}_ms"
            rows[name] = 1e3 * self._percentile(name, late, p)

        # The generator alone: 250 streams, no socket, a 2 ms grid so a
        # two-second probe holds a thousand ticks.
        class Null(SenderTransport):
            def __init__(self, clock=None, out=None):
                self.clock, self.out = clock, out

            def send(self, payload):
                if self.out is not None:
                    self.out.append(self.clock())

        eta = 0.002
        fanout = HeartbeatFanout(loop=loop, origin=loop.time() + 0.05)
        tick_at: List[float] = []
        for i in range(250):
            transport = Null(fanout.local_now, tick_at) if i == 0 else Null()
            fanout.add_stream(f"f{i:03d}", transport, eta=eta)
        fanout.start()
        await asyncio.sleep(0.06)
        cpu0 = time.process_time()
        sent0 = fanout.sent_total
        await asyncio.sleep(eta * (n + 20))
        cpu = time.process_time() - cpu0
        sent = fanout.sent_total - sent0
        await fanout.aclose()
        rows["live.fanout.cpu_us_per_hb"] = 1e6 * cpu / max(1, sent)
        # a tick's lateness: distance past the grid point it belongs to
        tick_late = [t - eta * round(t / eta) for t in tick_at]
        tick_late = [t if t >= 0 else t + eta for t in tick_late]
        for p in (50, 99):
            name = f"live.fanout.tick_late_p{p}_ms"
            rows[name] = 1e3 * self._percentile(name, tick_late, p)

    # ------------------------------------------------------------------ #
    # live.transport over UDP loopback, one process
    # ------------------------------------------------------------------ #

    async def udp(self) -> None:
        rows = self.rows
        got: List[float] = []
        pack, unpack = struct.Struct("d").pack, struct.Struct("d").unpack_from
        clock = time.perf_counter

        def on_datagram(payload):
            got.append(clock() - unpack(payload)[0])

        monitor = BatchedUdpMonitorTransport("127.0.0.1", 0, on_datagram)
        await monitor.start()
        sender = UdpSenderTransport("127.0.0.1", monitor.local_address[1])
        await sender.start()
        try:
            burst, hops, oneway = 250, [], []
            for _ in range(12):
                got.clear()
                t0 = clock()
                for _ in range(burst):
                    sender.send(pack(clock()))
                deadline = t0 + 1.0
                while len(got) < burst and clock() < deadline:
                    await asyncio.sleep(0)
                hops.append(1e6 * (clock() - t0) / burst)
                oneway.extend(got)
                await asyncio.sleep(0.01)
            rows["live.transport.udp_hop_us"] = summarize(hops).median
            for p in (50, 99):
                name = f"live.transport.udp_oneway_p{p}_us"
                rows[name] = 1e6 * self._percentile(name, oneway, p)
        finally:
            await sender.aclose()

        # Burst ladder: a plain blocking socket writes the whole burst
        # before the loop gets to read any of it.
        raw = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        raw.connect(("127.0.0.1", monitor.local_address[1]))
        clean_max = 0
        try:
            for size in (64, 128, 256, 512, 1024, 2048, 4096):
                clean = True
                for _ in range(3):
                    got.clear()
                    for _ in range(size):
                        raw.send(pack(clock()))
                    deadline = clock() + 0.5
                    while len(got) < size and clock() < deadline:
                        await asyncio.sleep(0.001)
                    clean = clean and len(got) == size
                if not clean:
                    break
                clean_max = size
        finally:
            raw.close()
            await monitor.aclose()
        rows["live.transport.burst_clean_max"] = float(clean_max)

    async def ladder(self) -> None:
        """Fleet ladder: the largest synchronised fleet the two-process
        UDP path carries without loss and with p99 lateness <= 10 ms.
        The 250 rung is traced and yields the in-situ numbers (drain
        batches, receipt-stamp error, verdict lateness).  It is climbed
        from 250; 125 is tried only if 250 itself is not clean."""
        rows = self.rows
        slots = 5 if self.cfg.smoke else 10
        clean: Dict[int, bool] = {}
        for peers in (250, 500, 1000, 125):
            if peers == 125 and clean.get(250):
                break
            if peers > 250 and not clean.get(peers // 2):
                continue
            probe = RunResult(RunConfig("steady_udp", seed=self.cfg.seed, trace=True))
            try:
                out = await steady_udp.run_fleet(
                    seed=self.cfg.seed,
                    n_peers=peers,
                    slots=slots,
                    n_crashes=2,
                    result=probe,
                    traced=peers == 250,
                    stamp_probe=peers == 250,
                )
            except (steady_udp.FleetError, OSError, asyncio.TimeoutError, ValueError) as exc:
                clean[peers] = False
                self.result.info[f"ladder_{peers}"] = f"could not run: {exc!r}"
                continue
            lates = out.all_late()
            if len(lates) >= 100:
                p99 = percentile(lates, 99, min_beyond=1)
            else:  # too short a rung for a percentile: take the worst
                p99 = max(lates, default=float("inf"))
            clean[peers] = out.failed <= 0.001 * max(1, out.attempted) and p99 <= 0.010
            self.result.info[f"ladder_{peers}"] = (
                f"failed {out.failed}/{out.attempted}, p99 late {1e3 * p99:.2f} ms"
            )
            if peers == 250:
                rows["live.monitor.batch_mean"] = out.batch_mean
                rows["live.monitor.stamp_err_mean_ms"] = out.stamp_err_mean_ms
                # a rung is ~300 verdicts: the median, and the highest
                # percentile with ten samples beyond it
                for p in (50, 90):
                    name = f"live.monitor.verdict_late_p{p}_ms"
                    rows[name] = 1e3 * self._percentile(name, lates, p)
        rows["live.transport.ladder_max_clean_peers"] = float(
            max((peers for peers, ok in clean.items() if ok), default=0)
        )

    # ------------------------------------------------------------------ #
    # the offline path
    # ------------------------------------------------------------------ #

    def offline(self) -> None:
        from repro.analysis.configurator import configure_nfds
        from repro.analysis.nfds_theory import NFDSAnalysis
        from repro.metrics.qos import QoSRequirements
        from repro.net.delays import ExponentialDelay
        from repro.sim.batch import run_crash_runs_batched
        from repro.sim.fastsim import simulate_nfds_fast, simulate_sfd_fast
        from repro.sim.runner import SimulationConfig, run_crash_runs

        rows = self.rows
        keep_heap_warm()
        delay = ExponentialDelay(0.02)
        heartbeats = 400_000
        common = dict(
            eta=1.0,
            loss_probability=0.01,
            delay=delay,
            target_mistakes=10**9,  # heartbeat-bound: fixed work
            max_heartbeats=heartbeats,
            chunk_size=100_000,
        )
        seed = [self.cfg.seed]

        def nfds() -> int:
            seed[0] += 1
            simulate_nfds_fast(delta=1.0, seed=seed[0], **common)
            return heartbeats

        def sfd() -> int:
            seed[0] += 1
            simulate_sfd_fast(timeout=1.7, cutoff=0.3, seed=seed[0], **common)
            return heartbeats

        rows["sim.fastsim.nfds_hb_per_s"] = 1e6 / _median_us(nfds)
        rows["sim.fastsim.sfd_hb_per_s"] = 1e6 / _median_us(sfd)

        def crash(runner, n_runs, **extra) -> Callable[[], int]:
            def go() -> int:
                seed[0] += 1  # a fresh seed: no fate-cache reuse
                config = SimulationConfig(
                    eta=1.0, delay=delay, loss_probability=0.01, horizon=80.0, seed=seed[0]
                )
                runner(lambda: NFDS(eta=1.0, delta=1.0), config, n_runs=n_runs, settle_time=40.0, **extra)
                return n_runs

            return go

        rows["sim.batch.crash_runs_per_s"] = 1e6 / _median_us(crash(run_crash_runs_batched, 200))
        rows["sim.runner.crash_runs_per_s"] = 1e6 / _median_us(crash(run_crash_runs, 20))

        def cold() -> int:
            for k in range(20):
                NFDSAnalysis(1.0, 1.0 + 0.01 * k, 0.01, delay).predict()
            return 20

        rows["analysis.nfds_theory.predict_cold_us"] = _median_us(cold)
        warm = NFDSAnalysis(1.0, 1.0, 0.01, delay)
        warm.predict()

        def memo() -> int:
            for _ in range(2_000):
                warm.predict()
            return 2_000

        rows["analysis.nfds_theory.predict_memo_us"] = _median_us(memo)

        requirements = QoSRequirements(
            detection_time_upper=30.0,
            mistake_recurrence_lower=2_592_000.0,
            mistake_duration_upper=60.0,
        )

        def configure() -> int:
            for _ in range(5):
                configure_nfds(requirements, 0.01, delay)
            return 5

        rows["analysis.configurator.configure_us"] = _median_us(configure)

        fig12_rows = 1 if self.cfg.smoke else paper_tables.FIG12_ROWS
        if not self.cfg.smoke:  # like the workload: one warm-up pass first
            paper_tables.one_pass(OUT_DIR / "ledger_tables")
        per_driver, _, wrong = paper_tables.one_pass(OUT_DIR / "ledger_tables", None, fig12_rows)
        if wrong:
            self.result.fail(len(wrong), f"ledger tables pass: not byte-identical: {wrong}")
        rows["experiments.fig12_s"] = per_driver["fig12"]
        rows["experiments.detection_time_s"] = per_driver["detection-time"]
        rows["experiments.config_examples_s"] = per_driver["config-examples"]

    # ------------------------------------------------------------------ #
    # the sum and what is left over
    # ------------------------------------------------------------------ #

    def close_ledger(self) -> None:
        rows = self.rows
        probe = RunResult(RunConfig("saturate_inbox", seed=self.cfg.seed))
        asyncio.run(
            saturate_inbox.closed_loop(
                probe, n_peers=self.n, seconds=0.5 if self.cfg.smoke else 1.5, stat_bursts=None, traced=False
            )
        )
        # as measured, like every row it is compared with
        end_to_end_us = 1e6 / summarize(probe.raw["hb_per_s"]).median
        rows["ledger.sum_us"] = sum(
            rows[name]
            for name in (
                "live.monitor.enqueue_us",
                "live.wire.decode_hit_us",
                "live.monitor.dispatch_self_us",
                "live.soa.prepare_us",
                "estimation.observer.update_us",
                "service.soa.ingest_us",
            )
        )
        rows["ledger.residual_us"] = end_to_end_us - rows["ledger.sum_us"]
        self.result.info["ledger_end_to_end_us"] = end_to_end_us
        if abs(rows["ledger.residual_us"]) > 0.25 * end_to_end_us:
            self.result.notes.append(
                f"WARNING: ledger residual {rows['ledger.residual_us']:.2f} us is more "
                f"than 25 % of the end-to-end {end_to_end_us:.2f} us per heartbeat"
            )
