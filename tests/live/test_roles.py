"""The two-terminal roles over real loopback UDP (tier-1: sub-second)."""

from __future__ import annotations

import asyncio
import socket

from repro.live.roles import run_udp_monitor, run_udp_sender


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestTwoTerminals:
    def test_monitor_admits_trusts_then_suspects_the_sender(self):
        """``live monitor`` auto-admits ``live send``'s stream, trusts it
        while it heartbeats and suspects it once it stops: η = 50 ms,
        δ = 100 ms, the sender stops at about 0.42 s and is suspected by
        about 0.55 s; the monitor reports every 100 ms until 0.8 s."""
        eta = 0.05

        async def main():
            port = _free_port()
            lines = []
            monitor = asyncio.ensure_future(
                run_udp_monitor(
                    host="127.0.0.1",
                    port=port,
                    eta=eta,
                    delta=2 * eta,
                    duration=0.8,
                    report_every=0.1,
                    emit=lines.append,
                )
            )
            await asyncio.sleep(0.02)  # bound before the first heartbeat
            sent = await run_udp_sender(
                name="p0", host="127.0.0.1", port=port, eta=eta, duration=0.4
            )
            return sent, lines, await monitor

        sent, lines, service = asyncio.run(main())
        assert sent >= 5
        assert "[live-monitor] peers=1 suspected=[]" in lines, lines
        assert lines[-1] == "[live-monitor] peers=1 suspected=['p0']", lines
        (result,) = service.results
        assert result.name == "p0" and result.incarnation == 0
        assert 3 <= result.delivered <= sent
