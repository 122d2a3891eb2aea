"""Property tests for the live wire codec (hypothesis).

Three contracts, fuzzed rather than example-tested:

* **round-trip** — ``encode_heartbeat → decode_heartbeat`` is the
  identity on every representable heartbeat, and the cached
  :class:`~repro.live.wire.HeartbeatEncoder` produces byte-identical
  payloads;
* **decoder equivalence** — :meth:`HeartbeatBatchDecoder.decode_fields`
  and :func:`decode_heartbeat` agree on every input, valid or junk, as
  ``bytes``, ``bytearray`` or ``memoryview`` (same fields or both raise
  :class:`WireError`), and both are :func:`parse_heartbeat` plus UTF-8;
  :meth:`HeartbeatBatchDecoder.decode_chunk` marks *parsed* only what
  :func:`decode_heartbeat` reads the same way, and everything it
  accepts that ends with its name;
* **junk totality** — no input, however malformed, raises anything but
  :class:`WireError` out of any of the three decoders.
"""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.wire import (
    HeartbeatBatchDecoder,
    HeartbeatEncoder,
    WireError,
    decode_heartbeat,
    encode_heartbeat,
    name_bytes,
    parse_heartbeat,
)

names = st.text(min_size=1, max_size=40).filter(
    lambda s: len(s.encode("utf-8")) <= 0xFFFF
)
incarnations = st.integers(min_value=0, max_value=2**32 - 1)
seqs = st.integers(min_value=0, max_value=2**64 - 1)
sigmas = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datagrams(draw):
    """Arbitrary bytes, weighted towards near-heartbeats: a valid
    payload (any σ bit pattern, nan payloads included), or one
    truncated, extended or with a flipped byte."""
    kind = draw(st.sampled_from(["raw", "valid", "truncate", "extend", "flip"]))
    if kind == "raw":
        return draw(st.binary(max_size=80))
    sigma = struct.unpack("!d", draw(st.binary(min_size=8, max_size=8)))[0]
    payload = bytearray(
        encode_heartbeat(draw(names), draw(incarnations), draw(seqs), sigma)
    )
    if kind == "truncate":
        del payload[draw(st.integers(0, len(payload))) :]
    elif kind == "extend":
        payload += draw(st.binary(min_size=1, max_size=8))
    elif kind == "flip":
        pos = draw(st.integers(0, len(payload) - 1))
        payload[pos] ^= draw(st.integers(1, 255))
    return bytes(payload)


def _fields_of(payload, decoder):
    """Normalize both decoders to (outcome, fields-or-None)."""
    try:
        if decoder is decode_heartbeat:
            hb = decode_heartbeat(payload)
            return "ok", (hb.sender, hb.incarnation, hb.seq, hb.send_local_time)
        return "ok", tuple(decoder(payload))
    except WireError:
        return "junk", None


class TestRoundTrip:
    @given(name=names, inc=incarnations, seq=seqs, sigma=sigmas)
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_identity(self, name, inc, seq, sigma):
        hb = decode_heartbeat(encode_heartbeat(name, inc, seq, sigma))
        assert (hb.sender, hb.incarnation, hb.seq) == (name, inc, seq)
        assert hb.send_local_time == sigma

    @given(name=names, inc=incarnations, seq=seqs, sigma=sigmas)
    @settings(max_examples=200, deadline=None)
    def test_cached_encoder_byte_identity(self, name, inc, seq, sigma):
        encoder = HeartbeatEncoder(name, inc)
        assert encoder.encode(seq, sigma) == encode_heartbeat(
            name, inc, seq, sigma
        )

    @given(name=names, inc=incarnations, sigma=sigmas)
    @settings(max_examples=50, deadline=None)
    def test_encoder_snapshots_are_independent(self, name, inc, sigma):
        """Consecutive encodes must not alias one reused buffer — a
        transport may hold payloads until a delayed delivery fires."""
        encoder = HeartbeatEncoder(name, inc)
        first = encoder.encode(1, sigma)
        second = encoder.encode(2, sigma)
        assert decode_heartbeat(first).seq == 1
        assert decode_heartbeat(second).seq == 2

    def test_out_of_range_values_raise_wire_error(self):
        with pytest.raises(WireError):
            encode_heartbeat("p", 0, -1, 0.0)
        with pytest.raises(WireError):
            encode_heartbeat("p", -1, 1, 0.0)
        with pytest.raises(WireError):
            HeartbeatEncoder("p", -1)
        with pytest.raises(WireError):
            HeartbeatEncoder("p").encode(2**64, 0.0)
        with pytest.raises(WireError):
            encode_heartbeat("x" * 70000, 0, 1, 0.0)


class TestDecoderEquivalence:
    @given(name=names, inc=incarnations, seq=seqs, sigma=sigmas)
    @settings(max_examples=200, deadline=None)
    def test_valid_payloads_including_cache_hits(
        self, name, inc, seq, sigma
    ):
        """Repeated decodes and the bytearray/memoryview input forms, of
        both decoders, all agree with the reference decoder exactly."""
        payload = encode_heartbeat(name, inc, seq, sigma)
        expected = _fields_of(payload, decode_heartbeat)
        assert expected[0] == "ok"
        decoder = HeartbeatBatchDecoder()
        forms = (
            bytes,
            bytearray,
            memoryview,
            lambda p: memoryview(bytearray(p)),  # writable: unhashable
        )
        for _ in range(2):
            for form in forms:
                for decode in (decoder.decode_fields, decode_heartbeat):
                    assert _fields_of(form(payload), decode) == expected

    @given(
        name=names,
        inc=incarnations,
        seq=seqs,
        sigma=sigmas,
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_mutated_payloads_stay_equivalent(
        self, name, inc, seq, sigma, data
    ):
        """Decode a valid payload, then a mutation of it — truncated,
        extended, or with flipped bytes: both decoders agree on every
        mutant."""
        payload = encode_heartbeat(name, inc, seq, sigma)
        decoder = HeartbeatBatchDecoder()
        decoder.decode_fields(payload)
        mutant = bytearray(payload)
        kind = data.draw(
            st.sampled_from(["truncate", "extend", "flip"])
        )
        if kind == "truncate":
            cut = data.draw(
                st.integers(min_value=0, max_value=len(mutant))
            )
            mutant = mutant[:cut]
        elif kind == "extend":
            mutant = mutant + bytearray(
                data.draw(st.binary(min_size=1, max_size=8))
            )
        else:
            pos = data.draw(
                st.integers(min_value=0, max_value=len(mutant) - 1)
            )
            mutant[pos] ^= data.draw(
                st.integers(min_value=1, max_value=255)
            )
        mutant = bytes(mutant)
        assert _fields_of(mutant, decoder.decode_fields) == _fields_of(
            mutant, decode_heartbeat
        )

    @given(junk=st.binary(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_raise_past_wire_error(self, junk):
        decoder = HeartbeatBatchDecoder()
        assert _fields_of(junk, decoder.decode_fields) == _fields_of(
            junk, decode_heartbeat
        )

    @given(chunk=st.lists(datagrams(), max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_chunk_parser_marks_parsed_what_the_scalar_decoder_reads(
        self, chunk
    ):
        """The third decoder.  *Parsed* means: these are
        :func:`decode_heartbeat`'s fields (σ by its 8 bytes), the name —
        not validated here — is what follows the header, and the
        sequence number fits ``int64``.  Everything else is deferred;
        nothing :func:`decode_heartbeat` accepts that ends with its
        name may be."""
        incarnations, seqs, sigmas, parsed = (
            HeartbeatBatchDecoder.decode_chunk(chunk)
        )
        assert len(parsed) == len(chunk)
        for i, payload in enumerate(chunk):
            outcome, fields = _fields_of(payload, decode_heartbeat)
            if parsed[i]:
                name = name_bytes(payload)
                if outcome == "junk":
                    # the one check the parser leaves to its caller
                    with pytest.raises(UnicodeDecodeError):
                        name.decode("utf-8")
                    continue
                sender, incarnation, seq, sigma = fields
                assert sender.encode("utf-8") == name
                assert (incarnations[i], seqs[i]) == (incarnation, seq)
                assert struct.pack("!d", sigmas[i]) == struct.pack("!d", sigma)
            elif outcome == "ok":
                sender, incarnation, seq, sigma = fields
                ends_with_its_name = payload == encode_heartbeat(
                    sender, incarnation, seq, sigma
                )
                assert not ends_with_its_name or seq >= 2**63

    @given(payload=datagrams())
    @settings(max_examples=300, deadline=None)
    def test_parse_is_the_one_validator(self, payload):
        """:func:`parse_heartbeat` accepts exactly what the decoders
        accept but for a name that is not UTF-8, and hands out the name
        as ``bytes`` whatever the input form."""
        outcome, fields = _fields_of(payload, decode_heartbeat)
        try:
            name, incarnation, seq, sigma = parse_heartbeat(payload)
        except WireError:
            assert outcome == "junk"
            return
        assert parse_heartbeat(memoryview(bytearray(payload)))[0] == name
        assert type(name) is bytes
        try:
            sender = name.decode("utf-8")
        except UnicodeDecodeError:
            assert outcome == "junk"
            return
        assert fields[:3] == (sender, incarnation, seq)
        assert struct.pack("!d", fields[3]) == struct.pack("!d", sigma)

    def test_nan_sigma_round_trips_through_both_decoders(self):
        payload = encode_heartbeat("p", 0, 1, math.nan)
        assert math.isnan(decode_heartbeat(payload).send_local_time)
        fields = HeartbeatBatchDecoder().decode_fields(payload)
        assert math.isnan(fields[3])
