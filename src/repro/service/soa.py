"""Vectorized many-sender monitor core: SoA state tables + one timer wheel.

The paper's algorithms are defined per monitored process, and the
per-detector host mirrors that: one detector instance, one
freshness-point timer chain, and one host per sender.  That design caps
a single monitor at a few thousand senders — the per-sender ``call_at``
chains alone put one live simulator/loop event per sender per ``η`` on
the heap.

:class:`VectorMonitorEngine` replaces the object-per-sender hot path
with a struct-of-arrays core:

* **state tables** — per-sender NFD-S/U/E state (highest sequence
  number, next freshness index, next freshness point, current verdict,
  incarnation, delivered count, NFD-U/E's expiry time and the stamp it
  was armed under, NFD-E's normalized-arrival window) lives in NumPy
  arrays indexed by a dense integer *row* id;
* **one timer wheel** — instead of N independent timer chains there is
  a single deadline heap with *one* scheduled wakeup (the earliest
  deadline).  Same-(η, δ) NFD-S senders on perfect clocks share a
  *cohort*: the whole cohort's freshness point ``τ_i`` is one heap entry
  processed with one vectorized pass, so the wakeup count is O(ticks),
  not O(senders × ticks).  All NFD-U/E rows share one entry too, kept
  beside the heap: a lower bound of the expiry column's minimum, which
  a heartbeat touches only by arming below it.  When it comes due the
  expiries that have passed, up to the heap's next entry, are one
  ``flatnonzero``, and it moves to the column's new minimum: the wheel
  holds cohorts + NFD-S rows with a clock + 1 entries at any age;
* **batched ingestion** — :meth:`VectorMonitorEngine.ingest` consumes a
  time-sorted array of heartbeats and, between wheel ticks, applies
  receipts as columns: trusted NFD-S rows with ``np.maximum.at``,
  trusted NFD-E rows (heard once in the span, a new number, fresh on
  arrival) with one pass of eq. (6.3) over the window tables, and
  suspected clockless NFD-S rows heard once in the span with one pass
  of the window index ``i(t)`` (those with ``max_seq ≥ i`` turn T).
  The rest goes one receipt at a time through the scalar procedure.
  A caller's *cuts* — callbacks at positions of the batch — run in the
  same arrival-order merge (the live service closes a restarted
  peer's old row in one);
* **transition batches** — a verdict leaves the engine as a batch
  ``(time, rows, output)``: one per wheel slice, one per instant of
  the shared NFD-U/E entry, and one per run of equal-time, equal-output
  transitions of an ``ingest`` span (or a ``deliver``).  A batch feeds
  :attr:`VectorMonitorEngine.transition_log`, then the engine's
  :class:`~repro.telemetry.qos_online.QoSTable` (the online QoS
  estimators of the rows that have one, as columns), then the one batch
  listener (:meth:`VectorMonitorEngine.listen`).  A row registered with
  its own ``on_transition`` sink gets it per row; while any row has one,
  every batch is published row by row — log, table, sink, listener —
  re-checking each row's liveness as it goes.  *Order rule:* a slice is
  in ``(stamp, row)`` order (below), a span in arrival order whichever
  lane turned the row — the vector lanes set a row's state at the start
  of its span, the scalar lane at its receipt — and a run is published
  before any receipt of a later instant is applied.

Correctness bar: the engine produces **bit-identical verdict streams**
to the reference host (:class:`~repro.sim.monitor.DetectorHost` running
the :mod:`repro.core` detectors) — same transition times, same outputs,
same ordering — which the identity suites in ``tests/service`` pin
under churn, restarts, scheduled crashes and fault scenarios.

Tie ordering: when several freshness deadlines land on the *identical*
timestamp they fire in the order their timers were armed, which is what
a simulator with one timer per detector does.  Every deadline carries
an arming stamp — a fresh one per initial arm, one shared by all re-arms
made inside a slice (the per-detector NFD-S timers re-arm together, in
start order, from inside the previous firing), and for an NFD-U/E
expiry the stamp column's entry: one per heartbeat that arms, numbered
in arrival order across the lanes of a span (a timer a listener arms
from inside a span's transition is stamped after the whole span) — and
a slice's suspicions are emitted in ``(stamp, row id)`` order, row ids
being assigned in registration order.  Deadlines at time ``t`` are
processed before heartbeats arriving at ``t``; the per-detector host
agrees because with ``δ < η`` the timer is always armed before a
colliding delivery is scheduled.  The only divergence is the contrived
``δ ≥ η`` configuration with a heartbeat arrival *exactly* equal to a
freshness point, where the per-detector path lets the delivery win; the
engine keeps the deadline-first rule.

The engine is scheduler-agnostic: the simulator drives it through
:class:`~repro.sim.engine.SimWheelScheduler`, the live runtime through
:class:`repro.live.soa.LoopWheelScheduler`, and batch callers through
:class:`ManualScheduler` with explicit arrival times.
:class:`SoAMonitorHost` hosts one incarnation as a row, under the host
contract stated in :mod:`repro.sim.monitor`.
"""

from __future__ import annotations

import bisect
import heapq
import math
from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.columns import Columns
from repro.core.base import HeartbeatFailureDetector
from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS, window_index, window_indices
from repro.core.nfd_u import NFDU
from repro.errors import InvalidParameterError, SimulationError
from repro.estimation.observer import HeartbeatObserver
from repro.estimation.table import ObserverRow
from repro.metrics.transitions import SUSPECT, TRUST, OutputTrace
from repro.net.clocks import Clock, PerfectClock
from repro.telemetry.qos_online import OnlineQoSEstimator, QoSTable

__all__ = [
    "VectorMonitorEngine",
    "ManualScheduler",
    "SoAMonitorHost",
    "supports_detector",
]

#: detector kinds held in the state tables
KIND_NFDS = 0
KIND_NFDU = 1
KIND_NFDE = 2

#: the exact detector types the tables model, and their kinds
_KIND_OF = {NFDS: KIND_NFDS, NFDU: KIND_NFDU, NFDE: KIND_NFDE}

#: heap-entry discriminators (third tuple element, after the deadline and
#: the arming stamp; value irrelevant to semantics — slices are gathered
#: whole — but keeps tuples comparable)
_ENTRY_ROW = 0
_ENTRY_COHORT = 1

#: receipts of trusted perfect-clock NFD-E rows in a span from which the
#: vector lane (about 40 µs a call) beats the scalar one.  µs per
#: heartbeat of ``ingest`` in chunks of that size (10^4 NFD-E rows, one
#: heartbeat each per slot, best of three medians over eight slots),
#: scalar → vector: 4: 9.8 → 11.7, 6: 6.6 → 7.8, 8: 5.8 → 5.5, 12: 5.0 →
#: 3.9, 16: 4.7 → 2.8, 32: 4.0 → 1.5, 64: 3.8 → 0.77, 256: 3.4 → 0.26.
_NFDE_VECTOR_FROM = 8

#: receipts of suspected clockless NFD-S rows in a span from which they
#: take the S→T lane instead of the scalar one.  µs per heartbeat of
#: ``ingest`` in chunks of that size, every receipt a return (4 096
#: NFD-S rows, median over 19 slots), scalar → vector: 4: 7.2 → 9.8,
#: 8: 4.5 → 4.9, 12: 3.5 → 3.3, 16: 3.0 → 2.5, 32: 2.3 → 1.3,
#: 64: 1.9 → 0.69, 256: 1.74 → 0.24.
_RETURN_VECTOR_FROM = 12

#: a row's columns and their fills: a fresh row is a detector at S with
#: nothing delivered and no expiry armed
_ROW_COLUMNS = (
    ("_kind", np.int8, 0),
    ("_active", bool, False),
    ("_trusted", bool, False),
    ("_eta", np.float64, 0.0),
    ("_shift", np.float64, 0.0),  # δ (S) or α (U/E)
    ("_max_seq", np.int64, 0),  # max seq (S) / ℓ (U/E)
    ("_next_check", np.int64, 0),  # S freshness index
    ("_tau_next", np.float64, 0.0),  # U/E τ_{ℓ+1} (local)
    # U/E: real time at which the row is suspected unless a fresher
    # heartbeat moves it (inf: none), and the stamp it was armed under
    ("_expiry_at", np.float64, math.inf),
    ("_expiry_stamp", np.int64, 0),
    ("_incarnation", np.int64, 0),
    ("_delivered", np.int64, 0),
    # the spec's first_seq and NFD-E window (:meth:`spec`)
    ("_first_seq", np.int64, 0),
    ("_window", np.int64, 0),
    # ``row not in _clocks`` as a column, for the ingest fast lane
    ("_clockless", bool, False),
    # scratch: position of a row's last receipt in the span at hand
    ("_mark", np.int64, 0),
    ("_win_slot", np.int64, -1),  # NFD-E window slot, -1: none
)

#: an NFD-E window slot's columns (its ring is a ``_win_buf`` row)
_WINDOW_COLUMNS = (
    ("_win_count", np.int64, 0),
    ("_win_head", np.int64, 0),
    ("_win_sum", np.float64, 0.0),
    # scratch: position of a slot's last receipt in the span at hand
    ("_win_mark", np.int64, 0),
)

#: per-row transition sink signature: (real_time, local_time, "T"/"S")
TransitionSink = Callable[[float, float, str], None]

#: batch listener signature: (real_time, rows, "T"/"S")
BatchListener = Callable[[float, np.ndarray, str], None]


def supports_detector(detector: HeartbeatFailureDetector) -> bool:
    """Whether the SoA engine can host this detector natively.

    The engine vectorizes exactly the paper's three NFD algorithms, so
    the test is on the exact type: a subclass may override
    ``_note_arrival`` / ``_expected_arrival`` (``AdaptiveNFDE`` does)
    and therefore takes the per-detector host, like every other
    detector the tables do not model (φ-accrual, Jacobson, SFD, …).
    """
    return type(detector) in _KIND_OF


# ---------------------------------------------------------------------- #
# Schedulers
# ---------------------------------------------------------------------- #


class ManualScheduler:
    """A scheduler for batch drivers: time advances only via ingestion.

    Wakeups are never armed — callers are expected to push time forward
    explicitly with :meth:`VectorMonitorEngine.ingest` /
    :meth:`VectorMonitorEngine.advance`.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.time = float(start)

    def now(self) -> float:
        return self.time

    def wake_at(self, time: float, callback: Callable[[], None]) -> None:
        pass  # batch drivers advance the wheel themselves


class _Cohort:
    """All perfect-clock NFD-S rows sharing one (η, δ) freshness grid."""

    __slots__ = ("eta", "delta", "rows", "n", "tick", "armed")

    def __init__(self, eta: float, delta: float) -> None:
        self.eta = eta
        self.delta = delta
        self.rows = np.empty(8, dtype=np.int64)
        self.n = 0
        self.tick = 0  # next freshness index with a pushed heap entry
        self.armed = False

    def add(self, row: int) -> None:
        if self.n == len(self.rows):
            grown = np.empty(2 * len(self.rows), dtype=np.int64)
            grown[: self.n] = self.rows[: self.n]
            self.rows = grown
        self.rows[self.n] = row
        self.n += 1

    def members(self) -> np.ndarray:
        return self.rows[: self.n]

    def freshness(self, i: int) -> float:
        return i * self.eta + self.delta


class VectorMonitorEngine:
    """Struct-of-arrays monitor core for NFD-S / NFD-U / NFD-E senders.

    Args:
        scheduler: wheel driver providing ``now()`` and ``wake_at()``.
        record_transitions: keep every transition in
            :attr:`transition_log` as ``(time, row, output)`` — for
            identity tests and benchmarks that run without sinks.

    Rows are registered with :meth:`register` (a fresh, unbound detector
    instance acts as the parameter spec), armed with :meth:`start_row`,
    fed through :meth:`deliver` (scalar) or :meth:`ingest` (batched,
    time-sorted), and retired with :meth:`remove` — which is idempotent
    and guarantees no further transitions are emitted for the row, even
    for deadlines already due in the wheel (the churn race the
    reference host guards with ``DetectorHost.stop``).
    """

    def __init__(self, scheduler, *, record_transitions: bool = False) -> None:
        self._scheduler = scheduler
        self._heap: List[Tuple] = []
        self._armed: Optional[float] = None
        self._stamp = 0  # arming-order counter for wheel entries
        self._time = float(scheduler.now())
        cap = 64
        #: online QoS estimators of the rows that have one, as columns
        self.qos = QoSTable(cap)
        self._rows = Columns(self, _ROW_COLUMNS, cap, (self.qos.columns,), ())
        # the wheel's one entry for every U/E row: a lower bound of
        # ``_expiry_at``'s minimum, kept beside the heap
        self._expiry_bound = math.inf
        # NFD-E rows' slots: slot ``s``'s ring is ``_win_buf[s, :window]``
        self._windows = Columns(
            self, _WINDOW_COLUMNS, 8, (), (("_win_buf", 0),)
        )
        # Per-row Python objects, by row, for the active rows that have
        # one (cold; scalar paths only): most rows have none of them
        self._clocks: Dict[int, Clock] = {}
        self._sinks: Dict[int, TransitionSink] = {}
        self._n_sinks = 0  # active rows with a sink of their own
        self._listener: Optional[BatchListener] = None
        # the scalar lane's pending run: rows that turned ``_run_out`` at
        # ``_run_t``, published as one batch when the run ends
        self._run: List[int] = []
        self._run_t = 0.0
        self._run_out = TRUST
        self._ea_fns: Dict[int, Callable[[int], float]] = {}
        self._cohorts: Dict[Tuple[float, float], _Cohort] = {}
        self.transition_log: Optional[List[Tuple[float, int, str]]] = (
            [] if record_transitions else None
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def scheduler(self):
        return self._scheduler

    @property
    def now(self) -> float:
        """Engine time: the later of the wheel's progress and the
        scheduler clock (batch drivers may run ahead of the latter)."""
        return max(self._time, self._scheduler.now())

    @property
    def n_rows(self) -> int:
        """Rows ever registered (row ids are never reused)."""
        return self._rows.n

    @property
    def pending_deadlines(self) -> int:
        """Wheel entries: the heap's, plus the one all NFD-U/E
        expiries share while any is armed."""
        return len(self._heap) + (self._expiry_bound < math.inf)

    def output_char(self, row: int) -> str:
        return TRUST if self._trusted[row] else SUSPECT

    def delivered_count(self, row: int) -> int:
        return int(self._delivered[row])

    def incarnation(self, row: int) -> int:
        return int(self._incarnation[row])

    # ------------------------------------------------------------------ #
    # Registration / removal
    # ------------------------------------------------------------------ #

    def _alloc_window(self, row: int, window: int) -> None:
        width = self._win_buf.shape[1]
        if window > width:
            n = self._windows.n
            buf = np.zeros((len(self._win_buf), max(window, 2 * width, 8)))
            buf[:n, :width] = self._win_buf[:n]
            self._win_buf = buf
        self._win_slot[row] = self._windows.alloc()

    def register(
        self,
        detector: HeartbeatFailureDetector,
        *,
        clock: Optional[Clock] = None,
        on_transition: Optional[TransitionSink] = None,
        incarnation: int = 0,
    ) -> int:
        """Add a sender row; the detector instance is the parameter spec.

        The detector must be fresh (unbound, unstarted): the engine owns
        the state from here on, and the instance is only read for its
        parameters (η, δ/α, window, first_seq) — :meth:`spec` rebuilds
        it from the columns, so nobody needs to keep it.
        """
        kind = _KIND_OF.get(type(detector))
        if kind is None:
            raise InvalidParameterError(
                f"SoA engine does not support {type(detector).__name__}; "
                f"host it in a DetectorHost instead"
            )
        if detector._runtime is not None or detector._started:
            raise SimulationError(
                "detector already bound/started; the SoA engine needs a "
                "fresh instance as its parameter spec"
            )
        row = self._rows.alloc()
        # A fresh row holds every column's fill value (a detector
        # starts at S, nothing delivered, no expiry): only what differs
        # is written.
        first = detector._first_seq
        self._active[row] = True
        self._eta[row] = detector._eta
        self._first_seq[row] = first
        if first != 1:
            self._max_seq[row] = first - 1  # NFD-S max seq, NFD-U/E ℓ
        if incarnation:
            self._incarnation[row] = incarnation
        if clock is None:
            self._clockless[row] = True
        else:
            self._clocks[row] = clock
        if on_transition is not None:
            self._sinks[row] = on_transition
            self._n_sinks += 1
        if kind == KIND_NFDS:
            self._shift[row] = detector._delta
            self._next_check[row] = first
            return row
        self._kind[row] = kind
        self._shift[row] = detector._alpha
        if kind == KIND_NFDE:
            window = detector._estimator.window
            self._window[row] = window
            self._alloc_window(row, window)
        else:
            self._ea_fns[row] = detector._expected_arrival
        return row

    def spec(self, row: int) -> HeartbeatFailureDetector:
        """A fresh, unbound detector with the row's parameters — the
        spec it was registered with, rebuilt from the columns (an NFD-U
        row's ``EA`` callable is gone once the row is removed)."""
        kind = self._kind.item(row)
        eta = self._eta.item(row)
        shift = self._shift.item(row)
        first = self._first_seq.item(row)
        if kind == KIND_NFDS:
            return NFDS(eta, shift, first_seq=first)
        if kind == KIND_NFDE:
            return NFDE(eta, shift, self._window.item(row), first_seq=first)
        return NFDU(eta, shift, self._ea_fns.get(row), first_seq=first)

    def listen(self, listener: Optional[BatchListener]) -> None:
        """Install the engine's one batch listener, called as
        ``listener(time, rows, output)`` after the log and the QoS
        table (module docstring).  ``rows`` were active when the batch
        was published; a listener that retires one of them does not
        shorten the batch it is handed."""
        self._listener = listener

    def remove(self, row: int) -> None:
        """Retire a row.  **Idempotent**; no transition is ever emitted
        for the row after this returns — deadlines already due in the
        wheel are invalidated, the SoA analogue of cancelling a removed
        sender's timer chain.  Nothing of the row's owner stays
        referenced, and an NFD-E row's window slot goes to the next one
        registered."""
        if row < 0 or row >= self._rows.n or not self._active[row]:
            return
        self._active[row] = False
        self._expiry_at[row] = math.inf
        self._n_sinks -= self._sinks.pop(row, None) is not None
        self._clocks.pop(row, None)
        self._ea_fns.pop(row, None)
        if self._win_slot[row] >= 0:
            self._windows.free(self._win_slot.item(row))
            self._win_slot[row] = -1

    # ------------------------------------------------------------------ #
    # Clock helpers (scalar paths)
    # ------------------------------------------------------------------ #

    def _local(self, row: int, real: float) -> float:
        clock = self._clocks.get(row)
        return real if clock is None else clock.local_time(real)

    def _real(self, row: int, local: float) -> float:
        clock = self._clocks.get(row)
        return local if clock is None else clock.real_time(local)

    # ------------------------------------------------------------------ #
    # Arming
    # ------------------------------------------------------------------ #

    def _next_stamp(self) -> int:
        self._stamp += 1
        return self._stamp

    def start_row(self, row: int, now: Optional[float] = None) -> None:
        """Arm the row's initial freshness deadline (detector start) at
        engine time; ``now`` is a reading of the scheduler's clock the
        caller has just taken (default: take one)."""
        if not self._active.item(row):
            return
        if now is None:
            now = self._scheduler.now()
        now_real = self._time = max(self._time, now)  # :attr:`now`
        kind = self._kind.item(row)
        if kind == KIND_NFDS:
            eta = self._eta.item(row)
            delta = self._shift.item(row)
            i = self._next_check.item(row)
            if row not in self._clocks:
                # Catch a stale first_seq up to the present (the object
                # host replays overdue freshness points asap; nothing is
                # emitted because the initial output is already S and no
                # heartbeat can have arrived before start).
                if i * eta + delta <= now_real:
                    i += 1
                    while i * eta + delta <= now_real:
                        i += 1
                    self._next_check[row] = i
                self._join_cohort(row, eta, delta, i)
            else:
                real = max(self._real(row, i * eta + delta), now_real)
                heapq.heappush(
                    self._heap, (real, self._next_stamp(), _ENTRY_ROW, row, i)
                )
        else:
            # NFD-U/E: τ_0 = 0; arm only if the local clock is behind it.
            tau = self._tau_next.item(row)
            if tau > self._local(row, now_real):
                real = max(self._real(row, tau), now_real)
                self._arm_expiry(row, real, self._next_stamp())
        self._request_wakeup()

    def _arm_expiry(self, row: int, real: float, stamp: int) -> None:
        """Set the NFD-U/E row's expiry, replacing the one it had; the
        shared entry moves only when this one lands below it."""
        self._expiry_at[row] = real
        self._expiry_stamp[row] = stamp
        if real < self._expiry_bound:
            self._expiry_bound = real

    def _next_deadline(self) -> float:
        """Earliest wheel entry (inf: none)."""
        if self._heap and self._heap[0][0] < self._expiry_bound:
            return self._heap[0][0]
        return self._expiry_bound

    def _join_cohort(
        self, row: int, eta: float, delta: float, first: int
    ) -> None:
        key = (eta, delta)
        cohort = self._cohorts.get(key)
        if cohort is None:
            cohort = _Cohort(eta, delta)
            self._cohorts[key] = cohort
        cohort.add(row)
        if not cohort.armed:
            cohort.tick = first
            cohort.armed = True
            heapq.heappush(
                self._heap,
                (
                    cohort.freshness(first),
                    self._next_stamp(),
                    _ENTRY_COHORT,
                    key,
                    first,
                ),
            )
        # An armed cohort's next tick is always <= any legal new member's
        # first index (first freshness points are in the future), so the
        # member is picked up when the shared grid reaches it.

    def _request_wakeup(self) -> None:
        t = self._next_deadline()
        if t == math.inf or (self._armed is not None and self._armed <= t):
            return
        self._armed = t
        self._scheduler.wake_at(t, self._on_wake)

    def _on_wake(self) -> None:
        self._armed = None
        try:
            self.advance(self._scheduler.now())
        finally:
            # whatever a sink raised, the wheel stays armed
            self._request_wakeup()

    # ------------------------------------------------------------------ #
    # Wheel
    # ------------------------------------------------------------------ #

    def advance(self, time: float) -> None:
        """Process every freshness deadline with ``deadline <= time``.

        Deadlines sharing a timestamp are gathered into one slice and
        their transitions published as one batch in arming order
        (module docstring).
        """
        if self._run:
            self._flush_run()
        heap = self._heap
        while True:
            ahead = heap[0][0] if heap else math.inf
            t0 = min(ahead, self._expiry_bound)
            if t0 > time or t0 == math.inf:
                break
            if t0 < ahead:
                self._expire_run(time, ahead)
                continue
            entries = []
            while heap and heap[0][0] == t0:
                entries.append(heapq.heappop(heap))
            self._time = max(self._time, t0)
            self._process_slice(t0, entries)
        self._time = max(self._time, time)

    def _expire_run(self, time: float, ahead: float) -> None:
        """The shared NFD-U/E entry with no heap entry on its instant:
        every expiry up to ``time`` and short of the heap's next entry
        ``ahead`` — however many instants they fall on — gathered once
        and published one batch an instant, in ``(stamp, row)`` order."""
        expiry = self._expiry_at[: self._rows.n]
        due = np.flatnonzero((expiry <= time) & (expiry < ahead))
        if len(due):
            at = expiry[due]
            order = np.lexsort((due, self._expiry_stamp[due], at))
            due, at = due[order], at[order]
            cuts = np.flatnonzero(at[1:] != at[:-1]) + 1
            instants = at[np.concatenate(([0], cuts))].tolist()
            for t, rows in zip(instants, np.split(due, cuts)):
                self._expiry_at[rows] = math.inf
                self._time = max(self._time, t)
                rows = rows[self._trusted[rows]]
                self._trusted[rows] = False
                self._publish(t, rows, SUSPECT)
        self._expiry_bound = float(self._expiry_at[: self._rows.n].min())

    def _process_slice(self, t0: float, entries: List[Tuple]) -> None:
        # suspicions as (stamps, rows) pieces, published in that order
        stamps: List[np.ndarray] = []
        suspects: List[np.ndarray] = []
        rearm: List[Tuple] = []
        rearm_stamp = self._next_stamp()  # shared: they re-arm together
        for entry in entries:
            _, stamp, etype, a, b = entry
            if etype == _ENTRY_COHORT:
                cohort = self._cohorts[a]
                tick = b
                if tick != cohort.tick:
                    continue  # superseded entry
                members = cohort.members()
                alive = members[self._active[members]]
                if alive.size == 0:
                    cohort.armed = False
                    cohort.n = 0
                    continue
                if alive.size * 2 < cohort.n:
                    cohort.rows = alive.copy()
                    cohort.n = alive.size
                    alive = cohort.members()
                due = alive[self._next_check[alive] == tick]
                if due.size:
                    stale = due[self._max_seq[due] < tick]
                    if stale.size:
                        newly = stale[self._trusted[stale]]
                        if newly.size:
                            self._trusted[newly] = False
                            stamps.append(np.full(newly.size, stamp))
                            suspects.append(newly)
                    self._next_check[due] = tick + 1
                cohort.tick = tick + 1
                rearm.append(
                    (
                        cohort.freshness(tick + 1),
                        rearm_stamp,
                        _ENTRY_COHORT,
                        a,
                        tick + 1,
                    )
                )
            else:
                # NFD-S row with a clock: b is the freshness index.
                row = a
                if not self._active[row] or b != self._next_check[row]:
                    continue
                if self._max_seq[row] < b and self._trusted[row]:
                    self._trusted[row] = False
                    stamps.append(np.array([stamp]))
                    suspects.append(np.array([row]))
                self._next_check[row] = b + 1
                eta = float(self._eta[row])
                delta = float(self._shift[row])
                real = max(self._real(row, (b + 1) * eta + delta), t0)
                rearm.append((real, rearm_stamp, _ENTRY_ROW, row, b + 1))
        for item in rearm:
            heapq.heappush(self._heap, item)
        if self._expiry_bound <= t0:
            # The shared NFD-U/E entry on a heap entry's instant: the
            # expiries that have come due join the slice, each under the
            # stamp it was armed with; then the column's new minimum.
            expiry = self._expiry_at[: self._rows.n]
            due = np.flatnonzero(expiry <= t0)
            expiry[due] = math.inf
            due = due[self._trusted[due]]
            self._trusted[due] = False
            stamps.append(self._expiry_stamp[due])
            suspects.append(due)
            self._expiry_bound = float(expiry.min())
        if suspects:
            rows = np.concatenate(suspects)
            stamps = np.concatenate(stamps)
            if len(rows) and stamps.min() == stamps.max():
                rows = np.sort(rows)  # one stamp: (stamp, row) is row
            else:
                rows = rows[np.lexsort((rows, stamps))]
            self._publish(t0, rows, SUSPECT)

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #

    def _emit(self, row: int, real: float, output: str) -> None:
        """Add a scalar-lane transition to the pending run, publishing
        the run first if it is of another instant or output."""
        if self._run and (real != self._run_t or output != self._run_out):
            self._flush_run()
        self._run_t = real
        self._run_out = output
        self._run.append(row)

    def _flush_run(self) -> None:
        run = self._run
        if run:
            self._run = []
            self._publish(
                self._run_t, np.array(run, dtype=np.int64), self._run_out
            )

    def _publish(self, real: float, rows: np.ndarray, output: str) -> None:
        """One transition batch: the log, the QoS table, the listener
        (module docstring).  Rows removed before it are left out."""
        rows = rows[self._active[rows]]
        if not len(rows):
            return
        if self._n_sinks:
            self._publish_rows(real, rows, output)
            return
        if self.transition_log is not None:
            self.transition_log.extend(
                zip(repeat(real), rows.tolist(), repeat(output))
            )
        self.qos.update(real, rows, output)
        if self._listener is not None:
            self._listener(real, rows, output)

    def _publish_rows(
        self, real: float, rows: np.ndarray, output: str
    ) -> None:
        """A batch row by row, while some row has a sink of its own."""
        for k, row in enumerate(rows.tolist()):
            if not self._active[row]:
                continue  # removed by a sink earlier in this batch
            if self.transition_log is not None:
                self.transition_log.append((real, row, output))
            one = rows[k : k + 1]
            self.qos.update(real, one, output)
            sink = self._sinks.get(row)
            if sink is not None:
                sink(real, self._local(row, real), output)
            if self._listener is not None:
                self._listener(real, one, output)

    # ------------------------------------------------------------------ #
    # Scalar delivery
    # ------------------------------------------------------------------ #

    def deliver(
        self,
        row: int,
        seq: int,
        at_real: Optional[float] = None,
    ) -> None:
        """Process one heartbeat receipt for ``row`` at ``at_real``
        (default: the scheduler's *now*).

        Freshness deadlines due at or before the receipt time fire
        first — the canonical deadline-before-delivery rule.
        """
        if row < 0 or row >= self._rows.n or not self._active[row]:
            return
        t = self._scheduler.now() if at_real is None else at_real
        self.advance(t)
        if not self._active[row]:
            return  # a deadline listener removed the row
        self._time = max(self._time, t)
        self._delivered[row] += 1
        kind = self._kind[row]
        if kind == KIND_NFDS:
            self._deliver_nfds(row, seq, t)
        else:
            self._deliver_nfdu(row, seq, t)
        self._flush_run()
        self._request_wakeup()

    def _deliver_nfds(self, row: int, seq: int, t: float) -> None:
        if seq > self._max_seq[row]:
            self._max_seq[row] = seq
        now_local = self._local(row, t)
        i = window_index(
            now_local, float(self._eta[row]), float(self._shift[row])
        )
        if self._max_seq[row] >= i and not self._trusted[row]:
            self._trusted[row] = True
            self._emit(row, t, TRUST)

    def _deliver_nfdu(
        self, row: int, seq: int, t: float, stamp: int = 0
    ) -> None:
        """One NFD-U/E receipt (Fig. 9 lines 8-11); ``stamp`` is the
        arming stamp :meth:`ingest` reserved for it (0: take the next)."""
        if seq <= self._max_seq[row]:
            return  # old or duplicate message: no effect (Fig. 9)
        self._max_seq[row] = seq
        now_local = self._local(row, t)
        eta = float(self._eta[row])
        if self._kind[row] == KIND_NFDE:
            ea = self._observe_window(row, seq, now_local, eta)
        else:
            ea = self._ea_fns[row](seq + 1)
        tau = ea + float(self._shift[row])
        self._tau_next[row] = tau
        if now_local < tau:
            if not self._trusted[row]:
                self._trusted[row] = True
                self._emit(row, t, TRUST)
            real = max(self._real(row, tau), t)
            self._arm_expiry(row, real, stamp or self._next_stamp())
        else:
            # m_ℓ already stale on arrival: remain (or become) suspect.
            self._expiry_at[row] = math.inf
            if self._trusted[row]:
                self._trusted[row] = False
                self._emit(row, t, SUSPECT)

    def _observe_window(
        self, row: int, seq: int, recv_local: float, eta: float
    ) -> float:
        """Feed the row's eq. (6.3) window and return EA_{seq+1}.

        Float-op order matches :class:`ArrivalTimeEstimator` exactly
        (append-then-evict), so estimates are bit-identical.
        """
        slot = self._win_slot[row]
        window = int(self._window[row])
        count = int(self._win_count[slot])
        head = int(self._win_head[slot])
        norm = recv_local - eta * seq
        total = float(self._win_sum[slot]) + norm
        if count == window:
            total -= float(self._win_buf[slot, head])
            self._win_buf[slot, head] = norm
            self._win_head[slot] = (head + 1) % window
        else:
            self._win_buf[slot, (head + count) % window] = norm
            self._win_count[slot] = count + 1
            count += 1
        self._win_sum[slot] = total
        return total / min(count, window) + eta * (seq + 1)

    # ------------------------------------------------------------------ #
    # Batched ingestion
    # ------------------------------------------------------------------ #

    def ingest(
        self,
        times: np.ndarray,
        rows: np.ndarray,
        seqs: np.ndarray,
        cuts: Sequence[Tuple[int, Callable[[], None]]] = (),
    ) -> None:
        """Consume a batch of heartbeats sorted by arrival time.

        Between consecutive wheel deadlines, receipts are applied as
        vector passes where a column says what the scalar procedure
        would do: those of *trusted* perfect-clock NFD-S rows (no
        verdict can flip), those of trusted perfect-clock NFD-E rows
        that are new, fresh on arrival and the row's only one in the
        span (none flips either), and those of *suspected* perfect-clock
        NFD-S rows heard once in the span (S→T where ``max_seq`` reaches
        the window index).  Everything else (suspected NFD-E rows,
        stale, old or repeated receipts, NFD-U rows — ``EA`` is a Python
        callable —, skewed clocks) replays through the exact scalar path
        in arrival order: bit-identical verdict streams, published in
        arrival order whichever lane turned them.

        ``cuts`` are ``(position, callback)`` pairs in position order,
        positions in ``[0, len(times)]``: a callback runs once every
        transition of the receipts before its position is published,
        and before any deadline fired at, or receipt applied from, its
        position on.  The live service closes a restarted peer's old
        row in one (:meth:`remove` and all), so a drained chunk is one
        ingest however many peers restart in it.  The callback must not
        touch a row that has receipts at or after its position.
        """
        times = np.ascontiguousarray(times, dtype=np.float64)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        seqs = np.ascontiguousarray(seqs, dtype=np.int64)
        n = len(times)
        if len(rows) != n or len(seqs) != n:
            raise InvalidParameterError("times/rows/seqs length mismatch")
        pos = cut = 0
        try:
            while True:
                while cut < len(cuts) and cuts[cut][0] <= pos:
                    cuts[cut][1]()
                    cut += 1
                if pos >= n:
                    break
                hi = int(np.searchsorted(times, self._next_deadline(), "left"))
                if hi > pos:
                    inner = cut
                    while inner < len(cuts) and cuts[inner][0] < hi:
                        inner += 1
                    self._ingest_chunk(
                        times[pos:hi],
                        rows[pos:hi],
                        seqs[pos:hi],
                        [(at - pos, then) for at, then in cuts[cut:inner]],
                    )
                    cut, pos = inner, hi
                    continue  # the cuts at ``hi`` go before its deadlines
                self.advance(times[pos])
        finally:
            self._request_wakeup()

    def _ingest_chunk(
        self,
        times: np.ndarray,
        rows: np.ndarray,
        seqs: np.ndarray,
        cuts: List[Tuple[int, Callable[[], None]]],
    ) -> None:
        """Apply a span of receipts that no deadline armed before it
        falls inside, running ``cuts`` (span positions, all inside it)
        in the arrival-order merge."""
        act = self._active[rows]
        if not act.all():
            if cuts:
                # a cut's position counts the receipts that stay
                kept = np.concatenate(([0], np.cumsum(act)))
                cuts = [(int(kept[at]), then) for at, then in cuts]
            times, rows, seqs = times[act], rows[act], seqs[act]
            if len(rows) == 0:
                for _, then in cuts:
                    then()
                return
        np.add.at(self._delivered, rows, 1)
        # One arming stamp a receipt, in arrival order whichever lane
        # takes it: expiries armed here that fall on one instant fire in
        # the order the per-detector timers were armed in.
        base = self._stamp
        self._stamp += len(rows)
        kind = self._kind[rows]
        nfds = kind == KIND_NFDS
        trusted = self._trusted[rows]
        clockless = self._clockless[rows]
        # A row keeps its verdict up to its receipt: the deadline that
        # could suspect a trusted one is not inside the span.
        calm = trusted & clockless
        fast = calm & nfds  # receipts reduce to a running max
        if fast.any():
            np.maximum.at(self._max_seq, rows[fast], seqs[fast])
        slow = ~fast
        if cuts or slow.any():
            nfde = np.flatnonzero(calm & (kind == KIND_NFDE))
            if len(nfde) >= _NFDE_VECTOR_FROM:
                slow[self._ingest_nfde(times, rows, seqs, nfde, base)] = False
            back = None  # span positions the S→T lane turned T
            returning = np.flatnonzero(~trusted & clockless & nfds)
            if len(returning) >= _RETURN_VECTOR_FROM:
                taken, back = self._ingest_returns(
                    times, rows, seqs, returning
                )
                slow[taken] = False
            index = np.flatnonzero(slow)
            # how many of the lane's T's come before each scalar receipt
            ahead = (
                repeat(0)
                if back is None
                else np.searchsorted(back, index).tolist()
            )
            staged = 0
            cut = 0
            next_cut = cuts[0][0] if cuts else math.inf
            for k, t, row, seq, upto in zip(
                index.tolist(),
                times[index].tolist(),
                rows[index].tolist(),
                seqs[index].tolist(),
                ahead,
            ):
                while k >= next_cut:
                    staged = self._cut(times, rows, back, staged, cuts[cut])
                    cut += 1
                    next_cut = cuts[cut][0] if cut < len(cuts) else math.inf
                if upto > staged:
                    self._stage_returns(times, rows, back[staged:upto])
                    staged = upto
                if self._run and t != self._run_t:
                    self._flush_run()
                if self._next_deadline() <= t:
                    self.advance(t)  # an expiry armed inside the span
                if not self._active[row]:
                    continue  # removed by a listener earlier in the span
                self._time = max(self._time, t)
                if self._kind[row] == KIND_NFDS:
                    self._deliver_nfds(row, seq, t)
                else:
                    self._deliver_nfdu(row, seq, t, base + 1 + k)
            for pending in cuts[cut:]:
                staged = self._cut(times, rows, back, staged, pending)
            if back is not None and staged < len(back):
                self._stage_returns(times, rows, back[staged:])
            self._flush_run()
        self._time = max(self._time, float(times[-1]))

    def _cut(
        self,
        times: np.ndarray,
        rows: np.ndarray,
        back: Optional[np.ndarray],
        staged: int,
        cut: Tuple[int, Callable[[], None]],
    ) -> int:
        """Run one cut of a span: the S→T lane's T's before its position
        staged, the pending run published, then its callback.  Returns
        how many of the lane's T's are staged now."""
        at, then = cut
        if back is not None:
            upto = int(np.searchsorted(back, at))
            if upto > staged:
                self._stage_returns(times, rows, back[staged:upto])
                staged = upto
        self._flush_run()
        then()
        return staged

    def _ingest_returns(
        self,
        times: np.ndarray,
        rows: np.ndarray,
        seqs: np.ndarray,
        at: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The S→T lane: :meth:`_deliver_nfds` as columns over the span
        positions ``at`` (receipts of suspected clockless NFD-S rows).
        A row heard more than once is left to the scalar lane.  Returns
        the positions applied and, of those, the ones that turned T —
        whose publication :meth:`_stage_returns` merges into the span's
        arrival order."""
        r = rows[at]
        order = np.arange(len(at))
        self._mark[r] = order
        once = self._mark[r] == order  # but for a row's last receipt
        if not once.all():
            once = ~np.isin(r, r[~once])
            at, r = at[once], r[once]
        t = times[at]
        seq = np.maximum(self._max_seq[r], seqs[at])
        turn = seq >= window_indices(t, self._eta[r], self._shift[r])
        self._max_seq[r] = seq
        self._trusted[r[turn]] = True
        return at, at[turn]

    def _stage_returns(
        self, times: np.ndarray, rows: np.ndarray, at: np.ndarray
    ) -> None:
        """Add the S→T lane's T's at span positions ``at`` to the pending
        run, instant by instant, each after the deadlines due at it."""
        instants = times[at].tolist()
        turned = rows[at].tolist()
        lo = 0
        while lo < len(instants):
            t = instants[lo]
            hi = bisect.bisect_right(instants, t, lo)
            if self._run and (t != self._run_t or self._run_out != TRUST):
                self._flush_run()
            if self._next_deadline() <= t:
                self.advance(t)  # an expiry armed inside the span
            self._time = max(self._time, t)
            self._run_t = t
            self._run_out = TRUST
            self._run.extend(turned[lo:hi])
            lo = hi

    def _ingest_nfde(
        self,
        times: np.ndarray,
        rows: np.ndarray,
        seqs: np.ndarray,
        at: np.ndarray,
        base: int,
    ) -> np.ndarray:
        """The NFD-E lane: eq. (6.3) and ``τ_{ℓ+1} = EA_{ℓ+1} + α`` as
        columns over the span positions ``at`` (receipts of trusted
        perfect-clock NFD-E rows), in :meth:`_observe_window`'s float-op
        order.  Returns the positions it applied; a row heard twice, an
        old or duplicate number and a receipt stale on arrival (the
        verdict flips) are left to the scalar lane, untouched.
        """
        slot = self._win_slot[rows[at]]
        order = np.arange(len(at))
        self._win_mark[slot] = order
        keep = self._win_mark[slot] == order  # but for a row's last receipt
        if not keep.all():
            keep = ~np.isin(slot, slot[~keep])
        while True:
            if not keep.all():
                at, slot = at[keep], slot[keep]
                if not len(at):
                    return at
            r, s, t = rows[at], seqs[at], times[at]
            eta = self._eta[r]
            width = self._window[r]
            count = self._win_count[slot]
            head = self._win_head[slot]
            full = count == width
            pos = (head + count) % width  # the oldest entry when full
            norm = t - eta * s
            total = self._win_sum[slot] + norm
            total = np.where(full, total - self._win_buf[slot, pos], total)
            count += ~full
            tau = total / count + eta * (s + 1) + self._shift[r]
            keep = (s > self._max_seq[r]) & (t < tau)
            if keep.all():
                break  # else nothing is written yet: take the rest again
        self._win_buf[slot, pos] = norm
        self._win_head[slot] = (head + full) % width
        self._win_count[slot] = count
        self._win_sum[slot] = total
        self._max_seq[r] = s
        self._tau_next[r] = tau
        self._expiry_at[r] = tau  # t < τ and no clock: real time τ
        self._expiry_stamp[r] = base + 1 + at
        self._expiry_bound = min(self._expiry_bound, float(tau.min()))
        return at


# ---------------------------------------------------------------------- #
# Row host
# ---------------------------------------------------------------------- #


class _RowDetectorView:
    """Read-only detector facade over one engine row, built on access.

    Presents the surface of a live :class:`HeartbeatFailureDetector`
    (``output``, ``suspects``, parameters, ``describe``) while the real
    state lives in the engine's tables; parameter attributes are read
    off the row's spec, rebuilt from the columns
    (:meth:`VectorMonitorEngine.spec`).
    """

    __slots__ = ("_engine", "_row")

    def __init__(self, engine: VectorMonitorEngine, row: int) -> None:
        self._engine = engine
        self._row = row

    @property
    def output(self) -> str:
        return self._engine.output_char(self._row)

    @property
    def suspects(self) -> bool:
        return self.output == SUSPECT

    def describe(self) -> str:
        return f"soa:{self._engine.spec(self._row).describe()}"

    def __getattr__(self, name):
        return getattr(self._engine.spec(self._row), name)


class SoAMonitorHost:
    """One monitored incarnation hosted as a row of a shared
    :class:`VectorMonitorEngine`, the engine's scheduler being the driver.

    Arguments, surface and time rule are the reference
    :class:`~repro.sim.monitor.DetectorHost`'s (see that module), plus
    ``incarnation`` for the engine's tables and ``now``, a reading of
    the driver's clock the caller has just taken (default: read it).
    The host owns the incarnation's trace; its online QoS estimator is
    the row's entry in the engine's
    :class:`~repro.telemetry.qos_online.QoSTable` (:attr:`estimator`
    exports it), detector state and freshness deadlines live in the
    engine.  Only a host that keeps a trace or has an
    ``on_transition`` hook gives its row a per-row sink: a service
    hosts its rows without either and hears them through the engine's
    batch listener.

    ``observer`` is anything with ``HeartbeatObserver``'s surface — the
    object itself, or a view of an
    :class:`~repro.estimation.ObserverTable` row, which is what
    :class:`~repro.live.monitor.LiveMonitorService` passes.  A view is
    kept as its table, slot and generation, and :attr:`observer` and
    :attr:`detector` build their views when read: a registered host is
    one object the collector tracks.  A simulator pipeline feeds
    receipts one at a time through :meth:`deliver`; the live inbox
    drain books a host's receipts itself (an inline of :meth:`prepare`
    without the observer call) and applies a chunk with one
    ``ObserverTable.observe_batch`` and one
    :meth:`VectorMonitorEngine.ingest`.
    """

    __slots__ = (
        "_engine",
        "_row",
        "_clock",
        "_observer",
        "_obs_slot",
        "_obs_gen",
        "_on_transition_hook",
        "_started",
        "_stopped",
        "_delivered",
        "_trace",
    )

    def __init__(
        self,
        engine: VectorMonitorEngine,
        detector: HeartbeatFailureDetector,
        clock: Optional[Clock] = None,
        *,
        warmup: Optional[float] = None,
        keep_trace: bool = True,
        observer: Optional[HeartbeatObserver] = None,
        on_transition: Optional[Callable[[float, str], None]] = None,
        incarnation: int = 0,
        now: Optional[float] = None,
    ) -> None:
        self._engine = engine
        # The tables' fast lane is keyed on "no clock object".
        self._clock = None if isinstance(clock, PerfectClock) else clock
        if type(observer) is ObserverRow:
            self._observer = observer._table
            self._obs_slot = observer.slot
            self._obs_gen = observer._gen
        else:
            self._observer = observer
            self._obs_slot = -1  # ``_observer`` is the observer itself
            self._obs_gen = 0
        self._on_transition_hook = on_transition
        self._started = False
        self._stopped = False
        self._delivered = 0
        start = engine.now if now is None else max(engine._time, now)
        # a fresh detector starts at S (register checks it is fresh)
        self._trace = (
            OutputTrace(start_time=start, initial_output=SUSPECT)
            if keep_trace
            else None
        )
        self._row = engine.register(
            detector,
            clock=self._clock,
            # the host itself, not a bound method: one object fewer a row
            on_transition=(
                self if keep_trace or on_transition is not None else None
            ),
            incarnation=incarnation,
        )
        if warmup is not None:
            engine.qos.open(self._row, start, SUSPECT, warmup)

    @property
    def row(self) -> int:
        return self._row

    @property
    def detector(self) -> _RowDetectorView:
        return _RowDetectorView(self._engine, self._row)

    @property
    def observer(self) -> Optional[HeartbeatObserver]:
        if self._obs_slot < 0:
            return self._observer
        return ObserverRow(self._observer, self._obs_slot, self._obs_gen)

    @property
    def estimator(self) -> Optional[OnlineQoSEstimator]:
        """The row's QoS accounting exported as an estimator object (a
        snapshot; None without ``warmup``)."""
        return self._engine.qos.export(self._row)

    @property
    def delivered_count(self) -> int:
        return self._delivered

    def local_now(self) -> float:
        now = self._engine.now
        return now if self._clock is None else self._clock.local_time(now)

    def start(self, now: Optional[float] = None) -> None:
        """Arm the row (``now`` as in the constructor)."""
        if self._started or self._stopped:
            raise SimulationError("host already started or stopped")
        self._started = True
        self._engine.start_row(self._row, now)

    def stop(self) -> None:
        """Retire the row; idempotent.  No transition follows, even for
        a deadline already due (:meth:`VectorMonitorEngine.remove`)."""
        self._stopped = True
        self._engine.remove(self._row)

    def prepare(
        self,
        seq: int,
        send_local_time: float,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Book-keep one receipt and return its engine receipt time —
        without applying it to the engine.

        Everything the reference host's ``deliver`` does *outside* its
        detector happens here, in the same order: delivered count, then
        observer (whose pre-window
        :class:`~repro.errors.EstimationError` propagates before any
        engine state moves).  The caller applies the receipt — at once
        (:meth:`deliver`) or, in the live inbox drain, with the rest of
        its chunk in one :meth:`VectorMonitorEngine.ingest`.  Returns
        None for a stopped host (the late arrival is swallowed).

        ``now`` lets the caller hoist the clock read: datagrams drained
        together were all already queued when the consumer woke, so one
        receipt timestamp per chunk is the honest reading — and saves a
        clock call per heartbeat.
        """
        if self._stopped:
            return None  # late arrival to a removed incarnation
        self._delivered += 1
        t = self._engine.now if now is None else now
        observer = self._observer
        if observer is not None:
            recv = t if self._clock is None else self._clock.local_time(t)
            if self._obs_slot < 0:
                observer.observe_arrival(seq, send_local_time, recv)
            else:  # a table row: no view a receipt
                observer.observe(self._obs_slot, seq, send_local_time, recv)
        return t

    def deliver(self, seq: int, send_local_time: float) -> None:
        """Book one receipt and apply it to the row now."""
        t = self.prepare(seq, send_local_time)
        if t is not None:
            self._engine.deliver(self._row, seq, t)

    def __call__(self, real: float, local: float, output: str) -> None:
        """The row's transition sink (a :data:`TransitionSink`)."""
        if self._trace is not None:
            self._trace.record(real, output)
        if self._on_transition_hook is not None:
            self._on_transition_hook(local, output)

    def finish(self, end: Optional[float] = None) -> Optional[OutputTrace]:
        """Snapshot the books at driver time ``end`` (default: now), as
        :meth:`repro.sim.monitor.DetectorHost.finish` does: the
        estimator closes once, the trace again on every call."""
        end = self._engine.now if end is None else end
        qos = self._engine.qos
        if qos.is_open(self._row):
            qos.close(self._row, end)
        if self._trace is not None:
            self._trace.close(end)
        return self._trace
