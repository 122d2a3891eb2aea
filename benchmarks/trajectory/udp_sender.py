"""The sender process of the UDP workloads (the second of two processes).

Paces ``--peers`` heartbeat streams with one :class:`HeartbeatFanout`
over real UDP loopback.  Which heartbeats never reach the wire is a pure
function of ``(seed, peer, seq)`` (:func:`streams.dropped`) and which
peers crash when is recomputed from the seed (:func:`streams.steady_plan`),
so the monitor process knows the expected suspicion set without any
channel besides the command line.

Protocol: the process prints ``{"ready": true}`` once its imports are
done, reads one line ``<wall-clock instant of local time zero> <port>``
from standard input (so a slow interpreter start never eats into the
run, and the monitor binds its port before anyone is told of it), and
prints one JSON report line after the last slot.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from repro.live import HeartbeatFanout, SenderTransport, UdpSenderTransport, decode_heartbeat

from .adapter import wall_origin
from .streams import dropped, steady_plan


class DroppingTransport(SenderTransport):
    """Forwards a stream's datagrams unless the seeded fate says drop."""

    def __init__(self, inner, seed: int, peer: int, per_10k: int, late=None, clock=None):
        self._inner = inner
        self._seed = seed
        self._peer = peer
        self._per_10k = per_10k
        self._late = late
        self._clock = clock
        self.forwarded = 0

    def send(self, payload: bytes) -> None:
        hb = decode_heartbeat(payload)
        if self._late is not None:
            # First stream of the cohort: how late did this tick run?
            self._late.append(self._clock() - hb.send_local_time)
        if dropped(self._seed, self._peer, hb.seq, self._per_10k):
            return
        self.forwarded += 1
        self._inner.send(payload)


async def run(args) -> dict:
    loop = asyncio.get_running_loop()
    plan = steady_plan(args.seed, args.peers, args.slots, args.drop_per_10k, args.crashes)
    sys.stdout.write(json.dumps({"ready": True}) + "\n")
    sys.stdout.flush()
    start_line = await loop.run_in_executor(None, sys.stdin.readline)
    if not start_line.strip():
        raise SystemExit("udp_sender: no start line, the monitor process went away")
    wall_zero, port = start_line.split()
    origin = wall_origin(loop, float(wall_zero))
    udp = UdpSenderTransport("127.0.0.1", int(port))
    await udp.start()
    fanout = HeartbeatFanout(loop=loop, origin=origin)
    tick_late: list = []
    transports = []
    for peer in range(args.peers):
        transport = DroppingTransport(
            udp,
            args.seed,
            peer,
            args.drop_per_10k,
            late=tick_late if peer == 0 else None,
            clock=fanout.local_now,
        )
        transports.append(transport)
        stream = fanout.add_stream(plan.peer_name(peer), transport, eta=args.eta)
        last = plan.crash_after.get(peer)
        if last is not None:
            # Crash half-way between two ticks: m_last is the final one.
            loop.call_at(origin + (last + 0.5) * args.eta, stream.stop)
    fanout.start()
    await asyncio.sleep(max(0.0, origin + 0.5 * args.eta - loop.time()))
    cpu0 = time.process_time()
    await asyncio.sleep(max(0.0, origin + (args.slots + 0.5) * args.eta - loop.time()))
    cpu1 = time.process_time()
    await fanout.aclose()
    await udp.aclose()
    paced = sum(fanout.stream(plan.peer_name(p)).sent_count for p in range(args.peers))
    return {
        "forwarded": [t.forwarded for t in transports],
        "paced": paced,
        "tick_late_s": tick_late,
        "cpu_s": cpu1 - cpu0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--peers", type=int, required=True)
    parser.add_argument("--slots", type=int, required=True)
    parser.add_argument("--eta", type=float, required=True)
    parser.add_argument("--drop-per-10k", type=int, required=True)
    parser.add_argument("--crashes", type=int, required=True)
    args = parser.parse_args(argv)
    report = asyncio.run(run(args))
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
