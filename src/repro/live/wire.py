"""Wire format for live heartbeat messages.

One heartbeat is one datagram.  The payload is a fixed header plus the
sender's name:

====== ======== ==========================================================
offset format   field
====== ======== ==========================================================
0      ``4s``   magic ``b"RQHB"``
4      ``B``    version (currently 1)
5      ``I``    incarnation (bumped on every restart; footnote 2 of the
                paper — a restarted process assumes a new identity)
9      ``Q``    sequence number ``i`` of message ``m_i``
17     ``d``    ``σ_i`` — p's local clock reading at the (nominal) send
25     ``H``    sender-name length ``L``
27     ``Ls``   sender name, UTF-8
====== ======== ==========================================================

All integers are network byte order.  The table exists once in code,
as ``_HEADER_FIELDS``: the scalar codecs' ``struct`` layout and the
chunk parser's packed record dtype are both derived from it, and no
other module knows a byte offset.  So are the checks: one payload is
validated by :func:`parse_heartbeat` alone, which every scalar decoder
calls, and a chunk by the same checks as columns.  The send timestamp is the
*nominal* ``σ_i = i·η`` of the sender's schedule, not the actual wall
time the datagram left the socket — exactly the semantics of the
simulator's :class:`~repro.sim.heartbeat.HeartbeatSender`, and what the
Section 5/6 estimators expect (``A − S`` measures delay *plus* any send
lateness, which is part of the end-to-end behaviour being estimated).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ReproError

__all__ = [
    "WireError",
    "LiveHeartbeat",
    "encode_heartbeat",
    "decode_heartbeat",
    "decode_fields",
    "parse_heartbeat",
    "HeartbeatEncoder",
    "HeartbeatBatchDecoder",
    "name_bytes",
]

MAGIC = b"RQHB"
VERSION = 1
#: the header, field by field: (name, ``struct`` code, NumPy code).  The
#: scalar codecs' ``struct`` layout and the chunk parser's packed record
#: dtype are both derived from this one table.
_HEADER_FIELDS = (
    ("magic", "4s", "S4"),
    ("version", "B", "u1"),
    ("incarnation", "I", ">u4"),
    ("seq", "Q", ">u8"),
    ("sigma", "d", ">f8"),
    ("name_len", "H", ">u2"),
)
_HEADER = struct.Struct("!" + "".join(code for _, code, _ in _HEADER_FIELDS))
_HEADER_DTYPE = np.dtype([(name, code) for name, _, code in _HEADER_FIELDS])
#: byte offset of the (seq, σ_i) pair inside the header: the only two
#: fields that change between a sender's consecutive heartbeats.
_SEQ_SIGMA_OFFSET = _HEADER_DTYPE.fields["seq"][1]
_SEQ_SIGMA = struct.Struct("!Qd")
_HEADER_BYTES = np.arange(_HEADER.size)
_INT64_MAX = np.uint64(np.iinfo(np.int64).max)
MAX_NAME_BYTES = 0xFFFF

#: the bytes after a payload's header — the sender's name, for a payload
#: :meth:`HeartbeatBatchDecoder.decode_chunk` marked parsed.
name_bytes = itemgetter(slice(_HEADER.size, None))


class WireError(ReproError):
    """A datagram could not be decoded as a live heartbeat."""


@dataclass(frozen=True)
class LiveHeartbeat:
    """A decoded heartbeat datagram."""

    sender: str
    incarnation: int
    seq: int
    send_local_time: float


def encode_heartbeat(
    sender: str, incarnation: int, seq: int, send_local_time: float
) -> bytes:
    """Serialize one heartbeat into a datagram payload."""
    name = sender.encode("utf-8")
    if len(name) > MAX_NAME_BYTES:
        raise WireError(f"sender name too long ({len(name)} bytes)")
    if seq < 0:
        raise WireError(f"seq must be >= 0, got {seq}")
    if incarnation < 0:
        raise WireError(f"incarnation must be >= 0, got {incarnation}")
    return (
        _HEADER.pack(
            MAGIC, VERSION, incarnation, seq, float(send_local_time), len(name)
        )
        + name
    )


def parse_heartbeat(payload) -> Tuple[bytes, int, int, float]:
    """The one header validator: ``(name bytes, incarnation, seq, σ)``.

    Raises :class:`WireError` on junk.  A monitor bound to a real UDP
    port will receive stray datagrams (port scans, misdirected traffic);
    decoding failures are ordinary events to be counted, not crashes.
    The name is not checked as UTF-8 here: a monitor probes it among the
    names it encoded itself, where invalid bytes cannot match.  Accepts
    ``bytes``, ``bytearray`` or ``memoryview``; the name is always
    ``bytes`` (a view's slice is a view, and a writable one does not
    hash).
    """
    if len(payload) < _HEADER.size:
        raise WireError(f"datagram too short ({len(payload)} bytes)")
    magic, version, incarnation, seq, send_local_time, name_len = (
        _HEADER.unpack_from(payload)
    )
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported version {version}")
    name = payload[_HEADER.size : _HEADER.size + name_len]
    if len(name) != name_len:
        raise WireError(
            f"truncated name: header says {name_len}, got {len(name)} bytes"
        )
    if type(name) is not bytes:
        name = bytes(name)
    return name, incarnation, seq, send_local_time


def decode_fields(payload) -> Tuple[str, int, int, float]:
    """:func:`parse_heartbeat` with the name decoded:
    ``(sender, incarnation, seq, σ)``; raises :class:`WireError` on junk,
    a name that is not UTF-8 included."""
    name, incarnation, seq, send_local_time = parse_heartbeat(payload)
    try:
        sender = name.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"sender name is not UTF-8: {exc}") from None
    return sender, incarnation, seq, send_local_time


def decode_heartbeat(payload) -> LiveHeartbeat:
    """Parse a datagram payload; raises :class:`WireError` on junk."""
    return LiveHeartbeat(*decode_fields(payload))


# ---------------------------------------------------------------------- #
# Allocation-light hot path
# ---------------------------------------------------------------------- #


class HeartbeatEncoder:
    """Per-sender cached encoder for the live hot path.

    A sender's magic, version, incarnation, name length and name never
    change between heartbeats — only ``(seq, σ_i)`` do.  The encoder
    packs the constant prefix once into a reused ``bytearray`` and
    ``pack_into``-s the two varying fields per message, so the per-send
    cost is one 16-byte struct pack plus one ``bytes`` snapshot (the
    snapshot is required: transports may hold the payload until a
    delayed delivery fires, so handing out the mutable buffer would
    corrupt in-flight datagrams).

    Produces byte-identical payloads to :func:`encode_heartbeat` — the
    compatibility surface — which the wire test suite pins.
    """

    __slots__ = ("_buf", "sender", "incarnation")

    def __init__(self, sender: str, incarnation: int = 0) -> None:
        name = sender.encode("utf-8")
        if len(name) > MAX_NAME_BYTES:
            raise WireError(f"sender name too long ({len(name)} bytes)")
        if incarnation < 0:
            raise WireError(
                f"incarnation must be >= 0, got {incarnation}"
            )
        self.sender = sender
        self.incarnation = int(incarnation)
        buf = bytearray(_HEADER.size + len(name))
        _HEADER.pack_into(
            buf, 0, MAGIC, VERSION, incarnation, 0, 0.0, len(name)
        )
        buf[_HEADER.size:] = name
        self._buf = buf

    def encode(self, seq: int, send_local_time: float) -> bytes:
        """One datagram payload for ``m_seq`` (a fresh bytes snapshot)."""
        try:
            _SEQ_SIGMA.pack_into(
                self._buf, _SEQ_SIGMA_OFFSET, seq, send_local_time
            )
        except struct.error as exc:
            raise WireError(f"cannot encode seq {seq}: {exc}") from None
        return bytes(self._buf)


class HeartbeatBatchDecoder:
    """Decoder for the monitor's drain loop: no per-message dataclass.

    Two entry points, neither with state.  :meth:`decode_chunk` parses
    the headers of a whole drained chunk as NumPy columns and says which
    payloads it could read without looking past the header;
    :meth:`decode_fields` is :func:`decode_fields`, one payload at a
    time.
    """

    __slots__ = ()

    decode_fields = staticmethod(decode_fields)

    @staticmethod
    def decode_chunk(
        payloads: Sequence[bytes],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Parse the headers of a whole drained chunk as columns.

        Returns ``(incarnation, seq, σ, parsed)``, one entry per payload
        (``int64``, ``int64``, ``float64``, ``bool``).  ``parsed[i]``
        means payload ``i`` passed exactly :func:`parse_heartbeat`'s
        checks *and ends with its name*: at least a header long,
        right magic and version, ``name_len`` equal to the bytes after
        the header, and a sequence number the ``int64`` column can carry
        (compared unsigned, before the cast).  Its name is then
        :func:`name_bytes` of the payload — not validated as UTF-8: the
        caller looks it up among names it encoded itself, where invalid
        bytes cannot match.  Where ``parsed[i]`` is False the other
        columns hold garbage and the payload is *deferred*, not junk:
        trailing bytes after the name, for one, are tolerated by
        :func:`parse_heartbeat`, which is where the caller sends it.

        One ``b"".join``, one fancy-index gather of the headers over
        ``np.frombuffer`` and five column comparisons per chunk, instead
        of a struct unpack per payload.
        """
        n = len(payloads)
        lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=n)
        whole = lengths >= _HEADER.size
        if not whole.any():
            zeros = np.zeros(n, dtype=np.int64)
            return zeros, zeros, np.zeros(n), whole
        buf = np.frombuffer(b"".join(payloads), dtype=np.uint8)
        # A short payload has no header to gather — its 27 bytes would
        # run into its neighbour's or, last in the chunk, past the
        # buffer.  It reads the chunk's first 27 bytes instead (some
        # payload is whole, so they exist) and is masked by ``whole``.
        starts = np.where(whole, np.cumsum(lengths) - lengths, 0)
        header = buf[starts[:, None] + _HEADER_BYTES].view(_HEADER_DTYPE)[:, 0]
        seq = header["seq"]
        parsed = (
            whole
            & (header["magic"] == MAGIC)
            & (header["version"] == VERSION)
            & (header["name_len"] == lengths - _HEADER.size)
            & (seq <= _INT64_MAX)
        )
        return (
            header["incarnation"].astype(np.int64),
            seq.astype(np.int64),
            header["sigma"].astype(np.float64),
            parsed,
        )
