"""A restart storm: a restart is a cut in the drained chunk, not a flush.

Count-based: 10^4 peers, half NFD-S and half NFD-E, heartbeat once a
slot, and every slot 5 % of them restart (a higher incarnation), half
of those with a stale straggler of the superseded incarnation right
behind the restart.  However many peers restart in it, a drained chunk
is applied with one ``ObserverTable.observe_batch`` and one
``VectorMonitorEngine.ingest``, so both are called exactly as often as
the consumer drains a chunk (every chunk books receipts); and the
counters and every incarnation's books equal the stream's prediction.
The same stream without restarts is then timed beside it, and the
difference is printed as µs a restart, for the log, not gated.

The service's clock reads −10^6 s, so every incarnation's first_seq
is 1 and no freshness point comes due during the run.

Run from the repository root: ``PYTHONPATH=src python
.github/scripts/restart_storm.py``.
"""

import asyncio
import time
from collections import Counter

import numpy as np

from repro import NFDE, NFDS
from repro.live import LiveMonitorService
from repro.live.wire import encode_heartbeat

N_PEERS, SLOTS, ETA = 10**4, 12, 1.0
RESTART_SHARE = 0.05


def stream(restart_share):
    """The bursts, and the predicted counters and books."""
    rng = np.random.default_rng(5)
    names = [f"{kind}{i:05d}" for kind in "se" for i in range(N_PEERS // 2)]
    inc = [0] * N_PEERS
    delivered = Counter()
    counters = Counter()
    bursts = []
    k = int(N_PEERS * restart_share)
    for slot in range(1, SLOTS + 1):
        restarted = rng.choice(N_PEERS, size=k, replace=False).tolist()
        trailed = set(restarted[: k // 2])
        restarted = set(restarted)
        burst = []
        for i in rng.permutation(N_PEERS).tolist():
            if i in restarted:
                inc[i] += 1
                counters["live_incarnation_restarts_total"] += 1
            burst.append(encode_heartbeat(names[i], inc[i], slot, slot * ETA))
            delivered[i, inc[i]] += 1
            if i in trailed:
                burst.append(
                    encode_heartbeat(names[i], inc[i] - 1, slot, slot * ETA)
                )
                counters["live_stale_incarnation_total"] += 1
        bursts.append(burst)
    counters["live_heartbeats_dispatched_total"] = sum(delivered.values())
    books = sorted(
        (names[i], j, 1, delivered[i, j])
        for i in range(N_PEERS)
        for j in range(inc[i] + 1)
    )
    return names, bursts, counters, books


async def run(restart_share):
    names, bursts, want, want_books = stream(restart_share)
    loop = asyncio.get_running_loop()
    service = LiveMonitorService(
        loop=loop,
        origin=loop.time() + 1e6,
        keep_traces=False,
        inbox_limit=2 * N_PEERS,
    )
    for name in names:
        factory = (
            (lambda s: NFDS(ETA, 0.5 * ETA, first_seq=s))
            if name[0] == "s"
            else (lambda s: NFDE(ETA, 6.0, first_seq=s))
        )
        service.add_peer(name, factory, eta=ETA)
    calls = Counter()

    def spy(owner, method):
        inner = getattr(owner, method)

        def counted(*args, **kwargs):
            calls[method] += 1
            return inner(*args, **kwargs)

        setattr(owner, method, counted)

    spy(service, "_dispatch_batch")
    spy(service._observers, "observe_batch")
    spy(service.soa_engine, "ingest")
    registry = service.registry

    def processed():
        return sum(
            registry.get(f"live_{what}_total").value
            for what in ("heartbeats_dispatched", "stale_incarnation")
        )

    service.start()
    offered = 0
    took = 0.0
    for burst in bursts:
        t0 = time.perf_counter()
        for payload in burst:
            service.on_datagram(payload)
        offered += len(burst)
        while processed() < offered:
            await asyncio.sleep(0)
        took += time.perf_counter() - t0
    got = {
        key: registry.get(key).value
        for key in (
            "live_heartbeats_dispatched_total",
            "live_stale_incarnation_total",
            "live_incarnation_restarts_total",
        )
    }
    books = sorted(
        (r.name, r.incarnation, r.first_seq, r.delivered)
        for r in await service.aclose()
    )
    assert got == {key: want[key] for key in got}, (got, dict(want))
    assert books == want_books, "incarnation books differ from the prediction"
    chunks = calls.pop("_dispatch_batch")
    assert calls == {"observe_batch": chunks, "ingest": chunks}, (
        chunks,
        calls,
    )
    return took, chunks, want["live_incarnation_restarts_total"]


async def main():
    took, chunks, restarts = await run(RESTART_SHARE)
    plain, _, _ = await run(0.0)
    print(
        f"{N_PEERS} peers, {SLOTS} slots, {restarts} restarts in {chunks} "
        f"chunks: one observe_batch and one ingest a chunk; "
        f"{took:.2f} s against {plain:.2f} s without restarts, "
        f"{1e6 * (took - plain) / restarts:.0f} us a restart"
    )


asyncio.run(main())
