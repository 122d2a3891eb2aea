"""Tests for ``live send``'s sender, a one-stream fan-out on the epoch
clock, over real loopback UDP (tier-1: sub-second)."""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.errors import InvalidParameterError
from repro.live.roles import run_udp_sender
from repro.live.wire import decode_heartbeat


def _bound_socket() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.setblocking(False)
    return sock


def _drain(sock: socket.socket) -> list:
    payloads = []
    while True:
        try:
            payloads.append(sock.recv(2048))
        except BlockingIOError:
            return payloads


class TestPacing:
    def test_nominal_sigma_stamps(self):
        """Messages carry σ_i = i·η on the epoch clock — the simulator's
        (and the paper's) semantics: the first is the current wall-time
        slot, and every later one is the next slot."""
        eta = 0.04
        sock = _bound_socket()
        try:
            port = sock.getsockname()[1]
            started = time.time()
            sent = asyncio.run(
                run_udp_sender(
                    name="p0",
                    host="127.0.0.1",
                    port=port,
                    eta=eta,
                    duration=0.30,
                )
            )
            stopped = time.time()
            heartbeats = [decode_heartbeat(p) for p in _drain(sock)]
        finally:
            sock.close()
        assert 4 <= sent <= 8
        assert len(heartbeats) == sent
        for hb in heartbeats:
            assert hb.sender == "p0"
            assert hb.incarnation == 0
            assert hb.send_local_time == pytest.approx(hb.seq * eta)
        seqs = [hb.seq for hb in heartbeats]
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
        assert started <= seqs[0] * eta < started + eta + 0.05
        assert seqs[-1] * eta <= stopped


class TestValidation:
    def test_parameters(self):
        for eta in (0.0, -0.05):
            with pytest.raises(InvalidParameterError):
                asyncio.run(
                    run_udp_sender(
                        name="p", host="127.0.0.1", port=9, eta=eta
                    )
                )
