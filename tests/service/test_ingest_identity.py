"""The ingest lanes against the paper's algorithm, float for float.

:meth:`VectorMonitorEngine.ingest` applies a span of receipts on four
lanes — trusted NFD-S rows as a running max, trusted NFD-E rows as
eq. (6.3) columns, suspected NFD-S rows as the window index ``i(t)``
(S→T), everything else one receipt at a time — publishes their
transitions in arrival order, and keeps every NFD-U/E expiry in one
column behind one wheel entry.  The identity suites next door
drive the engine through ``deliver``, which never reaches the vector
lanes; here one stream is cut into chunks of every size and given to
``ingest``, and the same stream is given receipt by receipt to the
unmodified :mod:`repro.core` detectors, one per
:class:`~repro.sim.monitor.DetectorHost` (``tests/reference.py``).  The
transition log and, per row, ``ℓ``, ``τ_{ℓ+1}``, the eq. (6.3) window
and its running sum, and the delivered count must be equal — ``==`` on
floats, no tolerance.

A stream is data: receipts ``(time, row, seq)`` in arrival order and
:class:`Action` steps (a removal, a chunk boundary).  Both worlds obey
the rule the engine states: a deadline at ``t`` fires before a receipt
at ``t``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU
from repro.net.clocks import Clock, DriftingClock, SkewedClock
from repro.service.soa import (
    _NFDE_VECTOR_FROM,
    _RETURN_VECTOR_FROM,
    ManualScheduler,
    VectorMonitorEngine,
)
from repro.sim.engine import Simulator
from repro.sim.monitor import DetectorHost
from tests.reference import hosted

ETA = 1.0
#: every lane's edge: one receipt short of it, and on it
EDGES = sorted({_NFDE_VECTOR_FROM, _RETURN_VECTOR_FROM})
CHUNKINGS = (1, *(k for edge in EDGES for k in (edge - 1, edge)), 64, 256, None)


@dataclass(frozen=True)
class Spec:
    """One monitored row: ``kind`` E/U/S, ``shift`` = α (U/E) or δ (S)."""

    kind: str
    shift: float
    window: int = 6
    first_seq: int = 1
    clock: Optional[Clock] = None
    offset: float = 0.125  # NFD-U: EA_i = i·η + offset
    eta: float = ETA  # NFD-S only

    def detector(self):
        if self.kind == "E":
            return NFDE(
                ETA, self.shift, window=self.window, first_seq=self.first_seq
            )
        if self.kind == "U":
            offset = self.offset
            return NFDU(
                ETA,
                self.shift,
                expected_arrival=lambda i: i * ETA + offset,
                first_seq=self.first_seq,
            )
        return NFDS(self.eta, self.shift, first_seq=self.first_seq)


@dataclass(frozen=True)
class Action:
    """``run(world)`` at ``time``, between two chunks.  ``before_due``:
    ahead of the deadlines that fall on the same instant (the caller got
    there before the wheel's wake-up), else after them."""

    time: float
    run: Callable
    before_due: bool = False


def boundary(time):
    """A chunk boundary and nothing else."""
    return Action(time, lambda world: None)


class World:
    """What a stream and its listeners may do to either implementation.
    ``listeners`` maps ``(row, output)`` to ``callable(world)``, run
    inside that transition's emission."""

    def __init__(self, specs, listeners):
        self.listeners = listeners or {}
        self.specs = []
        self.removed = set()
        for spec in specs:
            self.add(spec)

    def add(self, spec) -> int:
        index = len(self.specs)
        self.specs.append(spec)
        self._host(index, spec)
        return index

    def remove(self, index):
        self.removed.add(index)
        self._stop(index)

    def _heard(self, index, output):
        listener = self.listeners.get((index, output))
        if listener is not None:
            listener(self)

    def play(self, stream, horizon, chunk=None):
        run = []
        for step in (*stream, boundary(horizon)):
            if isinstance(step, Action):
                if run:
                    self.receipts(run, chunk)
                    run = []
                self.act(step)
            else:
                run.append(step)
        return self


class Oracle(World):
    """``repro.core`` on reference hosts over a simulator."""

    def __init__(self, specs, listeners, stream, start=0.0):
        self.sim = Simulator()
        self.sim.run_until(start)
        self.log = []
        self.hosts = []
        super().__init__(specs, listeners)
        for step in stream:
            # ahead of any timer armed later for the same instant
            if isinstance(step, Action) and step.before_due:
                self.sim.schedule_at(step.time, lambda s=step: s.run(self))

    def _host(self, index, spec):
        host = DetectorHost(
            self.sim,
            hosted("object", spec.detector()),
            clock=spec.clock,
            on_transition=functools.partial(self._note, index),
        )
        self.hosts.append(host)
        host.start()

    def _note(self, index, local, output):
        self.log.append((self.sim.now, index, output))
        self._heard(index, output)

    def _stop(self, index):
        self.hosts[index].stop()

    def act(self, step):
        self.sim.run_until(step.time)
        if not step.before_due:
            step.run(self)

    def receipts(self, run, chunk):
        for t, index, seq in run:
            self.sim.run_until(t)  # the deadlines at t first
            self.hosts[index].deliver(seq, 0.0)

    def state(self, index):
        host = self.hosts[index]
        det = host.detector
        if self.specs[index].kind == "S":
            return (det._max_seq, host.delivered_count)
        window = ()
        if self.specs[index].kind == "E":
            est = det.estimator
            window = (
                [t - ETA * s for s, t in est._entries],
                est._normalized_sum,
            )
        return (det.max_seq, det.next_freshness_point, host.delivered_count, *window)


class Engine(World):
    """Rows of one ``VectorMonitorEngine`` fed through ``ingest``."""

    def __init__(self, specs, listeners, start=0.0):
        self.engine = VectorMonitorEngine(
            ManualScheduler(start), record_transitions=True
        )
        # rows each lane applied: the NFD-E columns, the S→T columns
        # (and, of those, the receipts that turned T), the scalar lane
        self.lanes = {"vector": [], "returns": [], "turned": [], "scalar": []}
        self.wheel_bound = 1
        eng = self.engine
        lane, returns = eng._ingest_nfde, eng._ingest_returns
        scalar_u, scalar_s = eng._deliver_nfdu, eng._deliver_nfds

        def counted_lane(times, rows, seqs, at, base):
            taken = lane(times, rows, seqs, at, base)
            self.lanes["vector"].extend(rows[taken].tolist())
            return taken

        def counted_returns(times, rows, seqs, at):
            taken, turned = returns(times, rows, seqs, at)
            self.lanes["returns"].extend(rows[taken].tolist())
            self.lanes["turned"].extend(rows[turned].tolist())
            return taken, turned

        def counted_scalar(scalar):
            def counted(row, *args):
                self.lanes["scalar"].append(row)
                return scalar(row, *args)

            return counted

        eng._ingest_nfde = counted_lane
        eng._ingest_returns = counted_returns
        eng._deliver_nfdu = counted_scalar(scalar_u)
        eng._deliver_nfds = counted_scalar(scalar_s)
        super().__init__(specs, listeners)

    @property
    def log(self):
        return self.engine.transition_log

    def _host(self, index, spec):
        row = self.engine.register(
            spec.detector(),
            clock=spec.clock,
            on_transition=lambda real, local, output: self._heard(
                index, output
            ),
        )
        assert row == index
        self.engine.start_row(row)
        if spec.kind == "S":
            # a clockless NFD-S row joins (or founds) a cohort entry, one
            # with a clock keeps an entry of its own
            self.wheel_bound = 1 + len(self.engine._cohorts) + sum(
                s.kind == "S" and s.clock is not None for s in self.specs
            )

    def _stop(self, index):
        self.engine.remove(index)

    def act(self, step):
        if not step.before_due:
            self.engine.advance(step.time)
        step.run(self)
        self.engine.advance(step.time)

    def receipts(self, run, chunk):
        times, rows, seqs = zip(*run)
        for lo in range(0, len(run), chunk or len(run)):
            cut = slice(lo, lo + (chunk or len(run)))
            self.engine.ingest(
                np.array(times[cut]),
                np.array(rows[cut], dtype=np.int64),
                np.array(seqs[cut], dtype=np.int64),
            )
            assert self.engine.pending_deadlines <= self.wheel_bound

    def state(self, index):
        eng = self.engine
        delivered = int(eng._delivered[index])
        if self.specs[index].kind == "S":
            return (int(eng._max_seq[index]), delivered)
        window = ()
        if self.specs[index].kind == "E":
            slot = eng._win_slot[index]
            head, width = eng._win_head[slot], eng._window[index]
            window = (
                [
                    float(eng._win_buf[slot, (head + j) % width])
                    for j in range(eng._win_count[slot])
                ],
                float(eng._win_sum[slot]),
            )
        return (
            int(eng._max_seq[index]),
            float(eng._tau_next[index]),
            delivered,
            *window,
        )


def assert_equal_to_oracle(specs, stream, horizon, *, start=0.0, listeners=None):
    """Play the stream receipt by receipt through ``repro.core`` and at
    every chunking through ``ingest``; returns the oracle and the engine
    worlds by chunking."""
    oracle = Oracle(specs, listeners, stream, start).play(stream, horizon)
    worlds = {}
    for chunk in CHUNKINGS:
        world = worlds[chunk] = Engine(specs, listeners, start).play(
            stream, horizon, chunk
        )
        assert world.log == oracle.log, chunk
        assert world.removed == oracle.removed
        for index in range(len(oracle.specs)):
            if index not in oracle.removed:
                assert world.state(index) == oracle.state(index), (chunk, index)
    return oracle, worlds


# ---------------------------------------------------------------------- #
# Seeded populations
# ---------------------------------------------------------------------- #

#: α: negative, all but −η (a receipt later than the window's mean is
#: stale on arrival), η, 6η
ALPHAS = (-0.2 * ETA, -0.95 * ETA, ETA, 6 * ETA)
SLOTS = 40


def random_stream(seed, window, first_seq, alpha, quantum):
    """A lossy, jittery population and its receipts.

    20 clockless NFD-E rows (every other one with half the slack, so an
    arm can land below the shared entry), NFD-U rows (``EA`` is a Python
    callable), NFD-E and NFD-S rows on skewed and drifting clocks, and
    24 clockless NFD-S rows in three cohorts (δ = η/4, η/2, 0.9η), all
    of them silent every seventh slot, so that the next one brings a
    crowd back — in a span of its own, the S→T lane.  Ten per cent
    loss; delays exponential with
    one in twenty an η or two late, so a heartbeat is overtaken (an
    out-of-order repeat) and a window's mean jumps; one in twenty
    duplicated, so rows are heard twice in a span.
    ``quantum`` rounds arrival times down to a grid, as a drain stamps a
    chunk with one clock read: receipts share instants with each other,
    with the cohort's freshness points and — for windows 1 and 2, where
    eq. (6.3) stays dyadic — with expiries.
    """
    rng = np.random.default_rng([seed, window, first_seq])
    half = alpha / 2 if alpha > 0 else alpha
    # NFD-E reads no clock of p's: two rows in three count from a number
    # of their own, so that A − η·s is thousands of η and the window's
    # running sum rounds (the order of its float operations shows)
    specs = [
        Spec("E", alpha if i % 2 else half, window, first_seq + i % 3 * 3000)
        for i in range(20)
    ] + [
        Spec("U", alpha, first_seq=first_seq),
        Spec("U", half, first_seq=first_seq, offset=0.25),
        Spec("E", alpha, window, first_seq + 7000, clock=SkewedClock(0.375)),
        Spec("E", alpha, window, first_seq, clock=DriftingClock(-0.25, 1e-3)),
        Spec("S", 0.5, first_seq=first_seq, clock=SkewedClock(0.125)),
        *(Spec("S", (0.5, 0.25, 0.9)[i % 3], first_seq=first_seq) for i in range(24)),
    ]
    outage = {i for i, spec in enumerate(specs) if spec.kind == "S" and spec.clock is None}
    receipts = []
    # q starts monitoring at (first_seq − 1)·η and every row's k-th
    # heartbeat is sent kη later: for NFD-S and NFD-U rows, which count
    # on it, m_i is sent at i·η
    start = (first_seq - 1) * ETA
    for k in range(1, SLOTS + 1):
        for index, spec in enumerate(specs):
            if rng.random() < 0.1 or (k % 7 == 0 and index in outage):
                continue
            delay = rng.exponential(0.15)
            if rng.random() < 0.05:
                delay += rng.uniform(1.0, 2.5) * ETA
            t = start + k * ETA + delay
            seq = spec.first_seq - 1 + k
            receipts.append((t, index, seq))
            if rng.random() < 0.05:
                receipts.append((t + rng.exponential(0.3), index, seq))
    if quantum:
        receipts = [
            (math.floor(t / quantum) * quantum, index, seq)
            for t, index, seq in receipts
        ]
    receipts.sort(key=lambda r: r[0])  # stable: ties keep send order
    return specs, receipts, start, start + (SLOTS + 12) * ETA


#: (window, α, quantum): every window with every α on raw arrival times,
#: and the dyadic windows again on a 1/16 grid
POPULATIONS = [
    pytest.param(
        seed, window, (1, 1000)[seed % 2], alpha, quantum,
        id=f"w{window}-a{alpha:g}-q{quantum or 0:g}",
    )
    for seed, (window, alpha, quantum) in enumerate(
        [(w, a, None) for w in (1, 2, 6, 32) for a in ALPHAS]
        + [(w, a, 1 / 16) for w in (1, 2) for a in ALPHAS]
    )
]


@pytest.mark.parametrize("seed, window, first_seq, alpha, quantum", POPULATIONS)
def test_seeded_population_equals_core(seed, window, first_seq, alpha, quantum):
    specs, receipts, start, horizon = random_stream(
        seed, window, first_seq, alpha, quantum
    )
    oracle, worlds = assert_equal_to_oracle(
        specs, receipts, horizon, start=start
    )
    assert len(oracle.log) > len(specs)  # verdicts flipped both ways
    nfds = {i for i, spec in enumerate(specs) if spec.kind == "S" and spec.clock is None}
    for chunk, world in worlds.items():
        assert world.lanes["scalar"], chunk
        if chunk is not None and chunk < _NFDE_VECTOR_FROM:
            assert not world.lanes["vector"], chunk
        if chunk is not None and chunk < _RETURN_VECTOR_FROM:
            assert not world.lanes["returns"], chunk
        else:
            # both lanes bring suspected NFD-S rows back
            assert set(world.lanes["turned"]) <= nfds
            assert nfds & set(world.lanes["scalar"]), chunk
            if chunk is None or chunk >= 64:
                assert world.lanes["turned"], chunk
            if alpha >= ETA and chunk in (64, 256):
                # rows that stay trusted from one heartbeat to the next
                heard = sum(specs[i].kind == "E" for _, i, _ in receipts)
                assert len(world.lanes["vector"]) > heard // 5, chunk


def test_populations_reach_the_corners():
    """The seeded streams contain what the docstring promises."""
    specs, receipts, start, _ = random_stream(9, 6, 1000, -0.95 * ETA, None)
    seen = {}
    dup = late = 0
    for t, index, seq in receipts:
        if seq == seen.get(index):
            dup += 1
        elif seq < seen.get(index, 0):
            late += 1
        seen[index] = max(seq, seen.get(index, 0))
    assert dup > 10 and late > 10
    # arms that land below the shared entry while it is armed
    world = Engine(specs, {}, start)
    lowered = 0
    for receipt in receipts:
        world.engine.advance(receipt[0])
        before = world.engine._expiry_bound
        world.receipts([receipt], 1)
        lowered += world.engine._expiry_bound < before < math.inf
    assert lowered > 50


streams = st.builds(
    random_stream,
    seed=st.integers(0, 2**32 - 1),
    window=st.sampled_from((1, 2, 6, 32)),
    first_seq=st.sampled_from((1, 1000)),
    alpha=st.sampled_from(ALPHAS),
    quantum=st.sampled_from((None, 1 / 16, 1 / 4)),
)
chunkings = st.lists(st.integers(1, 300), min_size=1, max_size=6)


class Ragged(Engine):
    """Chunks of the drawn lengths, cycled."""

    def __init__(self, specs, start, sizes):
        super().__init__(specs, {}, start)
        self.sizes = sizes

    def receipts(self, run, chunk):
        k = 0
        while run:
            size = self.sizes[k % len(self.sizes)]
            super().receipts(run[:size], None)
            run, k = run[size:], k + 1


@settings(max_examples=12)
@given(stream=streams, sizes=chunkings)
def test_fuzzed_stream_and_chunking_equal_core(stream, sizes):
    specs, receipts, start, horizon = stream
    oracle = Oracle(specs, {}, receipts, start).play(receipts, horizon)
    world = Ragged(specs, start, sizes).play(receipts, horizon)
    assert world.log == oracle.log
    for index in range(len(specs)):
        assert world.state(index) == oracle.state(index), index


# ---------------------------------------------------------------------- #
# Constructed ties
# ---------------------------------------------------------------------- #

#: enough trusted rows heard once a slot for the vector lane to run
FILLERS = [Spec("E", 6 * ETA) for _ in range(_NFDE_VECTOR_FROM + 2)]


def fillers(first, slot):
    """The fillers' heartbeat ``slot``, a few ticks into it."""
    return [
        (slot * ETA + (k + 1) / 256, first + k, slot)
        for k in range(len(FILLERS))
    ]


def sorted_stream(*parts):
    out = [step for part in parts for step in part]
    out.sort(key=lambda s: s.time if isinstance(s, Action) else s[0])
    return out


def suspicions_at(world, time):
    return [row for t, row, out in world.log if t == time and out == "S"]


@pytest.mark.parametrize("delta", [0.625, 0.75])
def test_equal_expiries_fire_in_arming_order_across_the_lanes(delta):
    """Four window-1 rows whose ``τ`` is bit-equal (``A − η·s + α`` is
    0.75 for each), armed in the order 1, 3, 0, 2 inside one span: 1 and
    2 are heard once (vector lane), 3 and 0 twice (scalar lane).  Row 4
    is an NFD-S cohort of one that misses ``m_3``, row 5 an NFD-E row
    with ``α = −η/4`` heard at 2.875 and 3.0.  With ``δ`` = 0.75 the
    cohort's ``τ_3`` and row 5's expiry are that same instant, 3.75:
    the cohort's timer was armed at ``τ_2``, after the four and before
    row 5's — and the shared entry, left at 3.625 by row 5's first
    heartbeat, finds nothing there and then fires inside a heap
    entry's slice, not on its own."""
    specs = [
        Spec("E", 0.25, window=1),
        Spec("E", 0.5, window=1),
        Spec("E", 0.25, window=1),
        Spec("E", 0.5, window=1),
        Spec("S", delta),
        Spec("E", -0.25, window=1),
        *FILLERS,
    ]

    def slot(s):
        return [
            (s + 0.125, 4, s),
            (s + 0.25, 1, s),
            (s + 0.25, 3, s),
            (s + 0.3125, 3, s),  # duplicate
            (s + 0.5, 0, s),
            (s + 0.5, 2, s),
            (s + 0.5625, 0, s),
        ]

    stream = sorted_stream(
        fillers(6, 1),
        slot(1),
        [boundary(1.875)],
        fillers(6, 2),
        slot(2),
        [(2.875, 5, 2), (3.0, 5, 3)],
    )
    oracle, worlds = assert_equal_to_oracle(specs, stream, 12.0)
    assert suspicions_at(oracle, 3.75) == (
        [1, 3, 0, 2, 4, 5] if delta == 0.75 else [1, 3, 0, 2, 5]
    )
    whole = worlds[None].lanes
    assert {1, 2} <= set(whole["vector"]) and not {0, 3} & set(whole["vector"])
    assert whole["scalar"].count(0) >= 3 and whole["scalar"].count(3) >= 3


def test_deadline_fires_before_a_receipt_on_its_instant():
    """Row 0 hears ``m_3`` exactly at ``τ_3`` (suspected, then trusted
    again on that instant); row 1 hears ``m_2`` exactly where the shared
    entry still sits after row 0's first expiry moved on — a deadline
    with nothing due."""
    specs = [Spec("E", 0.5, window=1), Spec("E", 0.5, window=1), *FILLERS]
    stream = sorted_stream(
        fillers(2, 1),
        [(1.25, 0, 1), (1.5, 1, 1)],  # τ_2 = 2.75 and 3.0
        [boundary(1.75)],
        fillers(2, 2),
        [(2.25, 0, 2)],  # τ_3 = 3.75; the entry stays at 2.75
        [(2.75, 1, 2)],  # τ_3 = 4.25
        fillers(2, 3),
        [(3.75, 0, 3)],  # τ_4 = 5.25
    )
    oracle, worlds = assert_equal_to_oracle(specs, stream, 12.0)
    assert [e for e in oracle.log if e[1] in (0, 1) and e[0] >= 2.0] == [
        (3.75, 0, "S"),
        (3.75, 0, "T"),
        (4.25, 1, "S"),
        (5.25, 0, "S"),
    ]
    assert 0 in worlds[None].lanes["vector"]  # m_2, trusted and fresh


def test_late_sample_leaves_the_window_of_a_trusted_row():
    """Window 2, α = η/2, a first heartbeat 8η late: when its sample is
    evicted eq. (6.3) drops by 4η, and what the next receipt does to a
    *trusted* row depends on it.  ``A − η·s`` of 8.25, 0.25 and then

    * 3.25 at 14.25: ``τ_{ℓ+1}`` = 1.75 + 12η + α = 14.25, *equal* to
      the receipt time — not fresh (Fig. 9 line 10 is ``<``), the
      verdict flips, the vector lane must leave the receipt alone;
    * 3.5 at 14.5: stale outright;
    * 0.25 at 11.25: fresh, and ``τ_{ℓ+1}`` falls from 15.75 to 12.75 —
      the one way a vector-lane arm lands below the shared entry.
    """
    specs = [Spec("E", 0.5, window=2)] * 3 + FILLERS
    opening = [(9.25, row, 1) for row in range(3)] + [
        (10.25, row, 10) for row in range(3)
    ]
    stream = sorted_stream(
        opening,
        [(14.25, 0, 11), (14.5, 1, 11), (11.25, 2, 11)],
        [boundary(10.0), boundary(11.0), boundary(14.0)],
        *(fillers(3, s) for s in range(9, 15)),
    )
    oracle, worlds = assert_equal_to_oracle(specs, stream, 30.0)
    assert [e for e in oracle.log if e[1] < 3 and e[2] == "S"] == [
        (12.75, 2, "S"),
        (14.25, 0, "S"),
        (14.5, 1, "S"),
    ]
    lanes = worlds[None].lanes
    assert lanes["vector"].count(2) == 2  # m_10 and m_11
    for row in (0, 1):
        assert lanes["vector"].count(row) == 1  # m_10
        assert lanes["scalar"].count(row) == 2  # m_1 and m_11


@pytest.mark.parametrize("before_due", [False, True])
def test_remove_on_the_instant_of_a_deadline(before_due):
    """After the deadline the row's S is out; before it, nothing is."""
    specs = [Spec("E", 0.5, window=1), Spec("U", 0.5), *FILLERS]
    stream = sorted_stream(
        fillers(2, 1),
        [(1.25, 0, 1), (1.25, 1, 1)],  # τ_2 = 2.75, 2.625
        fillers(2, 2),
        [
            Action(2.625, lambda world: world.remove(1), before_due),
            Action(2.75, lambda world: world.remove(0), before_due),
        ],
        fillers(2, 3),
    )
    oracle, _ = assert_equal_to_oracle(specs, stream, 12.0)
    assert oracle.removed == {0, 1}
    assert [e for e in oracle.log if e[2] == "S" and e[1] < 2] == (
        [] if before_due else [(2.625, 1, "S"), (2.75, 0, "S")]
    )


@pytest.mark.parametrize("first", [0, 1])
def test_listener_removes_another_due_row_inside_the_slice(first):
    """Rows 0 and 1 expire on one instant; whichever was armed first
    removes the other from inside its own S: one suspicion, not two."""
    other = 1 - first
    specs = [Spec("E", 0.5, window=1), Spec("E", 0.5, window=1), *FILLERS]

    def slot(s):
        return [(s + 0.25, first, s), (s + 0.25, other, s)]

    stream = sorted_stream(
        fillers(2, 1), slot(1), [boundary(1.75)], fillers(2, 2), slot(2)
    )
    oracle, worlds = assert_equal_to_oracle(
        specs,
        stream,
        12.0,
        listeners={(first, "S"): lambda world: world.remove(other)},
    )
    assert suspicions_at(oracle, 3.75) == [first]
    assert {0, 1} <= set(worlds[None].lanes["vector"])


def test_listener_acts_in_the_middle_of_a_span():
    """Row 0 returns from a suspicion in mid-span (the scalar lane's T).
    Its listener removes row 2, whose next receipt is further down the
    same span, and registers and starts a 65th row — every column is
    reallocated under the span — which then joins the stream."""
    padding = [Spec("S", 0.5) for _ in range(61 - len(FILLERS))]
    specs = [
        Spec("E", 0.5, window=1),
        Spec("U", 6.0),
        Spec("U", 6.0),
        *FILLERS,
        *padding,
    ]
    assert len(specs) == 64
    newcomer = Spec("E", 0.5, window=2, first_seq=4)

    def on_return(world):
        if [e[2] for e in world.log if e[1] == 0] == ["T", "S", "T"]:
            world.remove(2)
            assert world.add(newcomer) == 64

    stream = sorted_stream(
        fillers(3, 1),
        [(1.25, 0, 1), (1.5, 1, 1), (1.5, 2, 1)],  # row 0: τ_2 = 2.75
        fillers(3, 2),
        [boundary(2.875)],
        # one span: most fillers, row 0 back (T, and the listener), the
        # last fillers and two NFD-U receipts behind it
        fillers(3, 3),
        [(3.03125, 0, 3), (3.0625, 2, 3), (3.0625, 1, 3)],
        [boundary(3.5)],
        fillers(3, 4),
        [(4.25, 64, 4), (4.375, 0, 4)],
        [boundary(5.0)],
        fillers(3, 5),
        [(5.375, 64, 5)],
    )
    oracle, worlds = assert_equal_to_oracle(
        specs,
        stream,
        14.0,
        listeners={(0, "T"): on_return},
    )
    assert len(oracle.specs) == 65 and oracle.removed == {2}
    assert [e for e in oracle.log if e[1] == 64] == [
        (4.25, 64, "T"),
        (6.8125, 64, "S"),  # (0.25 + 0.375) / 2 + 6η + α
    ]
    assert len(worlds[None].engine._kind) == 128
    assert 64 in worlds[None].lanes["vector"]


# ---------------------------------------------------------------------- #
# The S→T lane
# ---------------------------------------------------------------------- #

#: enough suspected NFD-S rows heard once in a span for the lane to run
RETURNERS = [Spec("S", 0.5) for _ in range(_RETURN_VECTOR_FROM + 2)]


def test_return_lane_ties_at_the_window_index():
    """NFD-S, δ = η/2: ``τ_i = i + 0.5``.  At 3.25 (window 2) row 0
    hears ``m_2`` — ``seq == i``, it turns T — and row 1 hears ``m_1`` —
    ``seq == i − 1``, it stays S; row 3 is heard twice in the span and
    is left to the scalar lane.  Rows 2 and 3 and the returners are then
    silent up to ``τ_4`` = 4.5, are suspected there, and hear ``m_4``
    exactly at 4.5 and after: the deadline fires first, the receipt on
    its instant brings them back."""
    specs = [Spec("S", 0.5)] * 4 + RETURNERS
    first = 4

    def returners(seq, at):
        return [(at + k / 256, first + k, seq) for k in range(len(RETURNERS))]

    stream = sorted_stream(
        [(3.25, 0, 2), (3.25, 1, 1), (3.25, 3, 2), (3.3, 3, 3), (3.3, 2, 3)],
        returners(3, 3.25),
        [(4.5, 2, 4)],
        returners(4, 4.5),
    )
    oracle, worlds = assert_equal_to_oracle(specs, stream, 9.0)
    log = oracle.log
    assert (3.25, 0, "T") in log and (3.5, 0, "S") in log
    assert not [e for e in log if e[1] == 1]  # m_1 in window 2: S throughout
    at_tau = [e for e in log if e[0] == 4.5]
    suspected = [row for _, row, out in at_tau if out == "S"]
    assert suspected == [2, 3, *range(first, first + len(RETURNERS))]
    assert at_tau[len(suspected)] == (4.5, 2, "T")
    assert at_tau[len(suspected) + 1] == (4.5, first, "T")
    for chunk in (1, _RETURN_VECTOR_FROM - 1):
        assert not worlds[chunk].lanes["returns"], chunk
    lanes = worlds[None].lanes
    assert {0, 1, 2} <= set(lanes["returns"])
    assert {0, 2} <= set(lanes["turned"]) and 1 not in lanes["turned"]
    assert 3 not in lanes["returns"] and lanes["scalar"].count(3) == 2
    assert lanes["turned"].count(2) == 2  # at 3.3 and at τ_4 itself
    assert set(range(first, len(specs))) <= set(lanes["turned"])


@pytest.mark.parametrize("same_instant", [False, True])
def test_return_lane_publishes_in_arrival_order(same_instant):
    """Ten NFD-S rows, trusted, silent for ``m_13``, suspected at 13.5,
    come back in one span (the S→T lane).  Between their receipts the
    scalar lane turns NFD-E rows 0 and 1 S on a receipt stale on arrival
    (the construction of the late-sample test: ``τ`` falls on or before
    the receipt) and row 2 T on its first heartbeat.  Whether the span's
    receipts have distinct instants or one shared instant, as a drained
    chunk's do, the verdicts come out in arrival order."""
    specs = [Spec("E", 0.5, window=2)] * 3 + RETURNERS
    first = 3
    back = list(range(first, first + len(RETURNERS)))
    opening = [(9.25, row, 1) for row in (0, 1)] + [
        (10.25, row, 10) for row in (0, 1)
    ]
    trusted = [(s + 0.125, row, s) for s in range(9, 13) for row in back]
    arrivals = [back[0], 0, back[1], back[2], 2, back[3], 1, *back[4:]]
    slot = [
        (14.25 if same_instant else 14.25 + k / 128, row, 11 if row < 2 else 14)
        for k, row in enumerate(arrivals)
    ]
    stream = sorted_stream(opening, trusted, [boundary(14.0)], slot)
    oracle, worlds = assert_equal_to_oracle(specs, stream, 20.0)
    published = [(row, out) for t, row, out in oracle.log if 14.0 <= t < 14.5]
    assert published == [
        (row, "S" if row < 2 else "T") for row in arrivals
    ]
    lanes = worlds[None].lanes
    assert set(back) <= set(lanes["turned"])
    assert {0, 1, 2} <= set(lanes["scalar"])


def test_return_lane_window_index_rounding():
    """η = 0.1, δ = 0: ``(t − δ)/η`` rounds to the wrong side of an
    integer in both directions.  At 1.7, ``floor(1.7/0.1)`` = 17 but
    ``τ_17`` = 17·0.1 = 1.7000000000000002 is still ahead — window 16;
    at 4.3, ``floor(4.3/0.1)`` = 42 but ``τ_43`` = 4.3 — window 43.  Half
    the rows hear exactly the window's number (T), half one less (S)."""
    n = _RETURN_VECTOR_FROM + 2
    specs = [Spec("S", 0.0, eta=0.1)] * n
    stream = [(1.7, row, 16 - row % 2) for row in range(n)] + [
        (4.3, row, 43 - row % 2) for row in range(n)
    ]
    oracle, worlds = assert_equal_to_oracle(specs, stream, 5.0)
    trusted = [(t, row) for t, row, out in oracle.log if out == "T"]
    assert trusted == [(1.7, row) for row in range(0, n, 2)] + [
        (4.3, row) for row in range(0, n, 2)
    ]
    assert len(worlds[None].lanes["returns"]) == 2 * n
