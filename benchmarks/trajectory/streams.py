"""Seeded input generators and the outputs they predict.

The program under test receives only generated datagrams; everything
random is drawn here from ``--seed``.  Each generator also emits what a
correct monitor must report for its stream — the value of every
``live_*_total`` series, the incarnation books, the suspicion set — so
a run is checked before it is timed, and a mismatch counts as failed
operations.

Determinism: the same seed gives the same stream byte for byte
(:func:`stream_digest`; pinned by ``tests/test_streams.py``).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.live import HeartbeatEncoder, encode_heartbeat

__all__ = [
    "dropped",
    "SteadyPlan",
    "steady_plan",
    "saturate_slot",
    "MixSlot",
    "MixStream",
    "CrashPlan",
    "crash_plan",
    "stream_digest",
]

_MASK = (1 << 64) - 1


def dropped(seed: int, peer: int, seq: int, per_10k: int) -> bool:
    """Whether heartbeat ``seq`` of ``peer`` is dropped sender-side.

    A pure function of its arguments (splitmix64 finaliser), so the
    sender process and the monitor process agree on the fate of every
    heartbeat without exchanging a word.
    """
    z = (seed * 0x9E3779B97F4A7C15 + peer * 0xBF58476D1CE4E5B9 + seq) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z % 10_000 < per_10k


# ---------------------------------------------------------------------- #
# steady_udp
# ---------------------------------------------------------------------- #


@dataclass
class SteadyPlan:
    """What the open-loop UDP workload sends and what must follow."""

    n_peers: int
    slots: int
    seed: int
    drop_per_10k: int
    #: peer index -> last sequence number sent (crashed peers only)
    crash_after: Dict[int, int]
    #: heartbeats that reach the wire, per peer index
    sent: List[int] = field(default_factory=list)
    #: (peer index, seq) whose freshness point τ_seq must produce an S
    suspicions: List[Tuple[int, int]] = field(default_factory=list)
    #: number of S->T transitions a correct monitor reports
    trusts: int = 0

    @property
    def total_sent(self) -> int:
        return sum(self.sent)

    def peer_name(self, index: int) -> str:
        return f"u{index:03d}"


def steady_plan(
    seed: int, n_peers: int, slots: int, drop_per_10k: int, n_crashes: int
) -> SteadyPlan:
    """Fates of every heartbeat of the steady workload.

    Crashes are spread over the run (never in the first or last tenth)
    on seeded peers.  After slot ``slots`` every surviving sender stops,
    so each is suspected once more at ``τ_{slots+1}`` — the shutdown
    storm, checked but kept out of the lateness statistics.
    """
    rng = np.random.default_rng([seed, 0x5EAD])
    n_crashes = min(n_crashes, n_peers)
    crashed = rng.choice(n_peers, size=n_crashes, replace=False)
    lo, hi = max(2, slots // 10), max(3, slots - slots // 10)
    crash_slots = np.sort(rng.integers(lo, hi, size=n_crashes))
    plan = SteadyPlan(
        n_peers=n_peers,
        slots=slots,
        seed=seed,
        drop_per_10k=drop_per_10k,
        crash_after={int(p): int(s) for p, s in zip(crashed, crash_slots)},
    )
    for peer in range(n_peers):
        last = plan.crash_after.get(peer, slots)
        sent = 0
        trusted = False
        for seq in range(1, slots + 2):
            arrives = seq <= last and not dropped(seed, peer, seq, drop_per_10k)
            if arrives:
                sent += 1
                if not trusted:
                    plan.trusts += 1
                trusted = True
            elif trusted:
                # m_seq is missing at τ_seq while the output is T.
                plan.suspicions.append((peer, seq))
                trusted = False
        plan.sent.append(sent)
    return plan


# ---------------------------------------------------------------------- #
# saturate_inbox
# ---------------------------------------------------------------------- #


def saturate_slot(
    encoders: Sequence[HeartbeatEncoder], slot: int, eta: float, rng
) -> List[bytes]:
    """One slot of the closed-loop workload: every peer's heartbeat
    ``m_slot``, in a seeded arrival order."""
    sigma = slot * eta
    order = rng.permutation(len(encoders))
    return [encoders[i].encode(slot, sigma) for i in order]


# ---------------------------------------------------------------------- #
# slowlane_mix
# ---------------------------------------------------------------------- #


@dataclass
class MixSlot:
    """One burst of the slow-lane workload."""

    payloads: List[bytes]
    #: datagrams at the tail of ``payloads`` that find the inbox full
    shed: int = 0


class MixStream:
    """The slow-lane stream, one burst at a time, with its predicted
    outcome kept alongside.

    Half the peers run NFD-S (``s…``), half NFD-E (``e…``).  Per slot,
    on top of one heartbeat per peer in seeded order: 0.5 % of peers
    restart (higher incarnation), half of those trail a stale straggler
    from the old incarnation, 0.5 % junk datagrams, 0.5 % heartbeats
    from never-registered senders with fresh names, and 0.5 %
    out-of-order repeats of an older sequence number.

    ``next_slot(overflow=True)`` appends duplicate heartbeats until the
    burst exceeds :attr:`inbox_limit` by ``n_peers // 4``: the tail is
    shed, which runs the full-decode ``note_local_drop`` path.  Shed
    duplicates come only from peers that did not restart in that slot,
    so each decodes to the current incarnation and must be *noted*.
    """

    def __init__(self, seed: int, n_peers: int, eta: float) -> None:
        self._rng = np.random.default_rng([seed, 0x51073])
        self.n_peers = n_peers
        self.eta = eta
        half = n_peers // 2
        self.names_s = [f"s{i:05d}" for i in range(half)]
        self.names_e = [f"e{i:05d}" for i in range(n_peers - half)]
        self._names = self.names_s + self.names_e
        self._k = max(1, n_peers // 200)
        self._inc = [0] * n_peers
        self._delivered: Counter = Counter()
        self._counters: Counter = Counter()
        self.slot = 0
        self.offered = 0
        #: room for one ordinary burst plus a quarter of the peers
        self.inbox_limit = n_peers + 5 * self._k + n_peers // 4

    def next_slot(self, overflow: bool = False) -> MixSlot:
        rng, names, inc, k = self._rng, self._names, self._inc, self._k
        counters, delivered = self._counters, self._delivered
        n_peers, eta = self.n_peers, self.eta
        self.slot += 1
        slot = self.slot
        sigma = slot * eta
        restarted = set(int(i) for i in rng.choice(n_peers, size=k, replace=False))
        burst: List[bytes] = []
        for i in rng.permutation(n_peers):
            i = int(i)
            if i in restarted:
                inc[i] += 1
                counters["live_incarnation_restarts_total"] += 1
            burst.append(encode_heartbeat(names[i], inc[i], slot, sigma))
            delivered[(i, inc[i])] += 1
        stragglers = sorted(restarted)[: k // 2]
        for i in stragglers:
            burst.append(
                encode_heartbeat(names[i], inc[i] - 1, max(1, slot - 1), sigma - eta)
            )
        counters["live_stale_incarnation_total"] += len(stragglers)
        for j in range(k):
            junk = rng.bytes(int(rng.integers(3, 40)))
            # odd: random bytes; even: right magic, unsupported version
            burst.append(junk if j % 2 else b"RQHB\xff" + junk)
        counters["live_datagrams_invalid_total"] += k
        for j in range(k):
            burst.append(encode_heartbeat(f"ghost-{slot}-{j}", 0, slot, sigma))
        counters["live_unknown_sender_total"] += k
        if slot >= 3:
            for i in rng.choice(n_peers, size=k, replace=False):
                i = int(i)
                burst.append(
                    encode_heartbeat(names[i], inc[i], slot - 2, sigma - 2 * eta)
                )
                delivered[(i, inc[i])] += 1
        shed = 0
        if overflow:
            room = self.inbox_limit - len(burst)
            shed = n_peers // 4
            steady = [i for i in range(n_peers) if i not in restarted]
            for i in steady[: room + shed]:
                burst.append(encode_heartbeat(names[i], inc[i], slot, sigma))
            for i in steady[:room]:
                delivered[(i, inc[i])] += 1
            counters["live_inbox_dropped_total"] += shed
            counters["live_dropped_heartbeats_noted_total"] += shed
        if len(burst) - shed > self.inbox_limit:
            raise AssertionError("an ordinary burst must fit the inbox")
        self.offered += len(burst)
        return MixSlot(burst, shed)

    def expected_counters(self) -> Dict[str, int]:
        """Predicted value of every ``live_*_total`` series so far."""
        out = dict(self._counters)
        out["live_datagrams_received_total"] = self.offered
        out["live_heartbeats_dispatched_total"] = sum(self._delivered.values())
        out['live_transitions_total{output="T"}'] = sum(
            1 for count in self._delivered.values() if count
        )
        return out

    def expected_books(self) -> List[Tuple[str, int, int, int]]:
        """Predicted ``(name, incarnation, first_seq, delivered)`` of
        every incarnation, sorted.  An incarnation superseded before it
        heard a heartbeat still closes its books, with zero delivered."""
        return sorted(
            (self._names[i], incarnation, 1, self._delivered.get((i, incarnation), 0))
            for i in range(self.n_peers)
            for incarnation in range(self._inc[i] + 1)
        )


# ---------------------------------------------------------------------- #
# mass_crash
# ---------------------------------------------------------------------- #

@dataclass
class CrashPlan:
    """Which peers fall silent in which slot."""

    n_peers: int
    warm_slots: int
    #: per storm: (slot, sorted silent peer indices)
    storms: List[Tuple[int, np.ndarray]]

    @property
    def last_slot(self) -> int:
        return self.storms[-1][0] + 1 if self.storms else self.warm_slots

    def silent_in(self, slot: int) -> Optional[np.ndarray]:
        for s, silent in self.storms:
            if s == slot:
                return silent
        return None


def crash_plan(seed: int, n_peers: int, n_storms: int, warm_slots: int = 1) -> CrashPlan:
    """A seeded half of the peers is silent in each of ``n_storms``
    consecutive slots after ``warm_slots`` clean ones; the slot after
    the last storm brings everyone back.

    The half is drawn afresh for every slot, so from the second storm
    on each storm slot does the same three things in the same
    proportions: a quarter of the fleet *returns* (silent a slot ago,
    heard again now), a quarter falls *newly* silent and is suspected at
    the slot's freshness point, and a quarter stays suspected.  Equal
    storms are what lets a run report their median.
    """
    rng = np.random.default_rng([seed, 0xC4A54])
    storms = []
    for j in range(n_storms):
        silent = np.sort(rng.choice(n_peers, size=n_peers // 2, replace=False))
        storms.append((warm_slots + 1 + j, silent))
    return CrashPlan(n_peers=n_peers, warm_slots=warm_slots, storms=storms)


# ---------------------------------------------------------------------- #
# Determinism fingerprint
# ---------------------------------------------------------------------- #


def _hash_payloads(h, payloads: Iterator[bytes]) -> None:
    for p in payloads:
        h.update(len(p).to_bytes(2, "big"))
        h.update(p)


def stream_digest(workload: str, seed: int) -> str:
    """sha256 over a small, fixed-size instance of a workload's inputs."""
    h = hashlib.sha256(workload.encode())
    if workload == "steady_udp":
        plan = steady_plan(seed, n_peers=40, slots=60, drop_per_10k=400, n_crashes=4)
        h.update(repr((plan.sent, plan.suspicions, sorted(plan.crash_after.items()))).encode())
    elif workload == "saturate_inbox":
        rng = np.random.default_rng([seed, 0x5A7])
        encoders = [HeartbeatEncoder(f"p{i:05d}") for i in range(64)]
        for slot in range(1, 6):
            _hash_payloads(h, saturate_slot(encoders, slot, 1.0, rng))
    elif workload == "slowlane_mix":
        stream = MixStream(seed, n_peers=400, eta=1.0)
        for slot in range(1, 9):
            _hash_payloads(h, stream.next_slot(overflow=slot == 5).payloads)
        h.update(repr(sorted(stream.expected_counters().items())).encode())
    elif workload == "mass_crash":
        plan = crash_plan(seed, n_peers=1000, n_storms=6)
        for slot, silent in plan.storms:
            h.update(slot.to_bytes(4, "big") + silent.tobytes())
    elif workload == "paper_tables":
        # The tables are compared with committed files, so their inputs
        # are the repository's own fixed seeds, whatever --seed says.
        h.update(b"fixed")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return h.hexdigest()
