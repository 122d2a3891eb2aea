"""Tests for the heartbeat wire format (tier-1: no event loop)."""

from __future__ import annotations

import struct

import pytest

from repro.live.wire import (
    _HEADER,
    _HEADER_DTYPE,
    _HEADER_FIELDS,
    MAGIC,
    VERSION,
    LiveHeartbeat,
    WireError,
    decode_heartbeat,
    encode_heartbeat,
)


class TestRoundTrip:
    def test_roundtrip(self):
        payload = encode_heartbeat("p-17", 3, 123456, 6172.8)
        hb = decode_heartbeat(payload)
        assert hb == LiveHeartbeat(
            sender="p-17", incarnation=3, seq=123456, send_local_time=6172.8
        )

    def test_roundtrip_unicode_name(self):
        payload = encode_heartbeat("pŋ-ü", 0, 1, 0.05)
        assert decode_heartbeat(payload).sender == "pŋ-ü"

    def test_large_seq_and_epoch_timestamp(self):
        # Epoch-anchored clocks carry multi-decade timestamps and the
        # sequence numbers to match (seq ~ now/eta).
        payload = encode_heartbeat("p", 0, 2**40, 1.7e9 + 0.125)
        hb = decode_heartbeat(payload)
        assert hb.seq == 2**40
        assert hb.send_local_time == 1.7e9 + 0.125

    def test_extra_trailing_bytes_tolerated(self):
        # Future versions may append fields; v1 decoders ignore them.
        payload = encode_heartbeat("p0", 0, 7, 0.35) + b"future-extension"
        assert decode_heartbeat(payload).seq == 7


class TestJunkRejection:
    def test_short_datagram(self):
        with pytest.raises(WireError):
            decode_heartbeat(b"x")

    def test_empty_datagram(self):
        with pytest.raises(WireError):
            decode_heartbeat(b"")

    def test_bad_magic(self):
        payload = bytearray(encode_heartbeat("p0", 0, 1, 0.05))
        payload[:4] = b"JUNK"
        with pytest.raises(WireError):
            decode_heartbeat(bytes(payload))

    def test_wrong_version(self):
        payload = bytearray(encode_heartbeat("p0", 0, 1, 0.05))
        payload[4] = VERSION + 1
        with pytest.raises(WireError):
            decode_heartbeat(bytes(payload))

    def test_truncated_name(self):
        payload = encode_heartbeat("a-long-sender-name", 0, 1, 0.05)
        with pytest.raises(WireError):
            decode_heartbeat(payload[:-3])

    def test_non_utf8_name(self):
        head = struct.pack("!4sBIQdH", MAGIC, VERSION, 0, 1, 0.05, 2)
        with pytest.raises(WireError):
            decode_heartbeat(head + b"\xff\xfe")

    def test_encode_validation(self):
        with pytest.raises(WireError):
            encode_heartbeat("p", -1, 1, 0.0)
        with pytest.raises(WireError):
            encode_heartbeat("p", 0, -1, 0.0)
        with pytest.raises(WireError):
            encode_heartbeat("x" * 70_000, 0, 1, 0.0)


class TestLayout:
    def test_record_dtype_is_the_struct_layout(self):
        """The chunk parser's packed record and the scalar codecs'
        ``struct`` put every field at the same offset."""
        assert _HEADER_DTYPE.itemsize == _HEADER.size == 27
        prefix = "!"
        for name, code, _ in _HEADER_FIELDS:
            dtype, offset = _HEADER_DTYPE.fields[name][:2]
            assert offset == struct.calcsize(prefix), name
            assert dtype.itemsize == struct.calcsize("!" + code), name
            prefix += code
        assert prefix == _HEADER.format
