"""The Section 5/6 estimators for many monitored processes, in columns.

:class:`~repro.estimation.observer.HeartbeatObserver` is the paper's
estimator pipeline for one (p, q) pair: four objects, two deques and two
sets that every heartbeat crosses in eight Python calls.  A monitor of
10^4 processes pays that per heartbeat and per peer.
:class:`ObserverTable` keeps the same state for every monitored
incarnation in NumPy columns — one row (indexed by a *slot*) each — and
applies a drained chunk of heartbeats in one pass
(:meth:`ObserverTable.observe_batch`).

``HeartbeatObserver`` remains the oracle and the single-pair path, as
:mod:`repro.core` does for detectors.  The bar is **float-for-float
state equality** with it on every stream and every chunking:
:meth:`ObserverTable.export` turns a row back into a real
``HeartbeatObserver`` and ``tests/estimation/test_table_identity.py``
compares it with one fed the same receipts, field for field.

Layout.  Each column's fill (zero) is declared once, in a
:class:`~repro.columns.Columns` store the two rings share, so a
released slot equals a fresh one and opening a row writes only what
differs — η, ``first_seq``, the horizon and the two window lengths.  A
released slot's generation moves on, which is how a view taken before
the release knows it is stale.  Loss-estimator state
is integer columns; the per-row sets of missing and locally-shed
sequence numbers are rare (a loss-free stream never creates one) and
live in two dicts keyed by slot.  Each sliding window (delay samples;
eq. 6.3 normalized arrivals) is a ring in one *time-major* buffer
``buf[position, slot]`` whose depth grows with the fill (1, 2, 4, …):
opening a row touches no ring memory, and a held sample costs 8
bytes.  The arrival ring holds ``A − η·seq``, which is
all :class:`~repro.core.nfd_e.ArrivalTimeEstimator` ever uses of an
entry; an exported entry is therefore ``(0, A − η·seq)``.

Two lanes.  A receipt takes the vector lane when its row is heard once
in the chunk, the sequence number is a new highest and the delay sample
is finite.  A row not heard yet keeps ``first_seq − 1`` as its highest,
so its first receipt is a new highest like any other: the gap from
``first_seq`` opens, the row starts, and no compaction sweep runs (the
first receipt is the sweep mark).  Everything else — late and duplicate
numbers, rows heard several times in one chunk (NumPy scatter with
repeated indices is unordered), pre-window numbers and non-finite
samples, which raise — replays through the scalar lane in arrival
order, as does the whole of a chunk too small to repay a NumPy pass.
Rows are independent, so only per-row order matters.  Both lanes use
the oracle's float-op order: ``(sum + x) − old``, ``x * x``,
``A − η * seq``, and the exact ``math.fsum`` resync after ``window``
evictions.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.columns import Columns
from repro.errors import EstimationError, InvalidParameterError
from repro.estimation.observer import HeartbeatObserver, NetworkEstimate

__all__ = ["ObserverTable", "ObserverRow"]

#: chunk size from which a vector pass (about 40 µs a call, 0.1 µs a
#: receipt) beats replaying the chunk through the scalar lane (3.7 µs a
#: receipt); a monitor of a few peers drains chunks below it.
_VECTOR_FROM = 12

#: a row's columns, all at their fill in a slot nobody holds
_COLUMNS = (
    ("_eta", np.float64, 0.0),
    # LossRateEstimator's fields; ``_started`` is its ``highest is not
    # None``, a zero horizon its ``None``, and a row not started holds
    # ``first_seq − 1`` as its highest (module docstring).
    ("_first_seq", np.int64, 0),
    ("_started", bool, False),
    ("_highest", np.int64, 0),
    ("_received", np.int64, 0),
    ("_lost_compacted", np.int64, 0),
    ("_swept_at", np.int64, 0),
    ("_horizon", np.int64, 0),
    # scratch for spotting rows heard more than once in a chunk
    ("_mark", np.int64, 0),
    ("_repeated", bool, False),
)

#: a ring row's columns, all zero in a slot nobody holds
_RING_COLUMNS = (
    ("window", np.int64, 0),
    ("count", np.int64, 0),
    ("head", np.int64, 0),
    ("total", np.float64, 0.0),
    ("total_sq", np.float64, 0.0),
    ("evictions", np.int64, 0),
)


class _Rings:
    """One sliding window per row over a shared time-major buffer.

    A row's samples fill positions ``[0, count)`` until its window is
    full; from then on ``head`` is the oldest sample and the next to be
    overwritten.  ``squares`` adds the sum of squares and the
    evictions-since-resync counter of
    :class:`~repro.estimation.delay_stats.WindowedDelayStats`.
    """

    def __init__(self, squares: bool) -> None:
        self.squares = squares
        #: grown with the table's rows; ``buf`` is ``buf[position, slot]``
        self.columns = Columns(self, _RING_COLUMNS, 0, (), (("buf", 1),))

    def _deepen(self, need: int) -> None:
        depth, cap = self.buf.shape
        buf = np.zeros((max(need, 2 * depth), cap), dtype=np.float64)
        buf[:depth] = self.buf
        self.buf = buf

    def _resync(self, slot: int) -> None:
        """Recompute a full row's sums exactly (``fsum`` is order-free,
        so ring order does not matter)."""
        held = self.buf[: int(self.window[slot]), slot].tolist()
        self.total[slot] = math.fsum(held)
        self.total_sq[slot] = math.fsum(x * x for x in held)
        self.evictions[slot] = 0

    def push(self, slot: int, x: float) -> None:
        """Append one sample to one row (append, then evict)."""
        window = int(self.window[slot])
        count = int(self.count[slot])
        evicting = count == window
        total = float(self.total[slot]) + x
        if evicting:
            head = int(self.head[slot])
            old = float(self.buf[head, slot])
            self.buf[head, slot] = x
            self.head[slot] = (head + 1) % window
            total -= old
        else:
            if count >= len(self.buf):
                self._deepen(count + 1)
            self.buf[count, slot] = x
            self.count[slot] = count + 1
        self.total[slot] = total
        if not self.squares:
            return
        total_sq = float(self.total_sq[slot]) + x * x
        if evicting:
            total_sq -= old * old
        self.total_sq[slot] = total_sq
        if evicting:
            self.evictions[slot] += 1
            if self.evictions[slot] >= window:
                self._resync(slot)

    def push_many(self, slots: np.ndarray, xs: np.ndarray) -> None:
        """Append one sample to each of several *distinct* rows."""
        window = self.window[slots]
        count = self.count[slots]
        full = count == window
        pos = np.where(full, self.head[slots], count)
        need = int(pos.max()) + 1
        if need > len(self.buf):
            self._deepen(need)
        total = self.total[slots] + xs
        if self.squares:
            total_sq = self.total_sq[slots] + xs * xs
        due = ()
        if full.any():
            evicting = slots[full]
            at = pos[full]
            old = self.buf[at, evicting]
            total[full] -= old
            self.head[evicting] = (at + 1) % window[full]
            if self.squares:
                total_sq[full] -= old * old
                evictions = self.evictions[evicting] + 1
                self.evictions[evicting] = evictions
                due = evicting[evictions >= window[full]].tolist()
        self.buf[pos, slots] = xs
        self.count[slots] = count + ~full
        self.total[slots] = total
        if self.squares:
            self.total_sq[slots] = total_sq
            for slot in due:
                self._resync(slot)

    def held(self, slot: int) -> List[float]:
        """The row's samples, oldest first."""
        head = int(self.head[slot])
        ring = self.buf[: int(self.count[slot]), slot].tolist()
        return ring[head:] + ring[:head]


class ObserverTable:
    """Loss / delay / expected-arrival estimators for many rows.

    :meth:`add` opens a row and returns a live view of it (an
    :class:`ObserverRow`); :meth:`observe_batch` applies a chunk of receipts;
    :meth:`export` materializes a row as a ``HeartbeatObserver``;
    :meth:`release` does so one last time and frees the row's slot.
    """

    def __init__(self) -> None:
        self._missing: Dict[int, set] = {}
        self._local_drops: Dict[int, set] = {}
        self._delays = _Rings(squares=True)
        self._arrivals = _Rings(squares=False)
        linked = (self._delays.columns, self._arrivals.columns)
        self._rows = Columns(self, _COLUMNS, 64, linked, ())

    def __len__(self) -> int:
        """Rows currently open."""
        return len(self._rows)

    # ------------------------------------------------------------------ #
    # Rows
    # ------------------------------------------------------------------ #

    def add(
        self,
        eta: float,
        stats_window: int = 1000,
        arrival_window: int = 32,
        first_seq: int = 1,
        loss_reorder_horizon: Optional[int] = 1024,
    ) -> "ObserverRow":
        """Open a row; arguments and errors are ``HeartbeatObserver``'s."""
        if first_seq < 0:
            raise InvalidParameterError(
                f"first_seq must be >= 0, got {first_seq}"
            )
        if loss_reorder_horizon is not None and loss_reorder_horizon < 1:
            raise InvalidParameterError(
                f"reorder_horizon must be >= 1, got {loss_reorder_horizon}"
            )
        if stats_window < 2:
            raise InvalidParameterError(
                f"window must be >= 2, got {stats_window}"
            )
        if eta <= 0:
            raise InvalidParameterError(f"eta must be positive, got {eta}")
        if arrival_window < 1:
            raise InvalidParameterError(
                f"window must be >= 1, got {arrival_window}"
            )
        slot = self._rows.alloc()
        # Every other column of the slot is at its fill value.
        self._eta[slot] = eta
        if first_seq:
            self._first_seq[slot] = first_seq
        if first_seq != 1:
            self._highest[slot] = first_seq - 1
        if loss_reorder_horizon:
            self._horizon[slot] = loss_reorder_horizon
        self._delays.window[slot] = stats_window
        self._arrivals.window[slot] = arrival_window
        return ObserverRow(self, slot, self._rows.generation(slot))

    def release(self, row: "ObserverRow") -> HeartbeatObserver:
        """Close ``row``: return its final :meth:`export` and free its
        slot for reuse.  The view (and any sub-view taken from it, or
        any view of the slot built before) raises from then on."""
        slot = row.slot
        observer = self.export(slot)
        self._missing.pop(slot, None)
        self._local_drops.pop(slot, None)
        self._rows.free(slot)
        return observer

    def export(self, slot: int) -> HeartbeatObserver:
        """The row as a ``HeartbeatObserver`` in the state the oracle
        would be in after the same receipts (module docstring)."""
        observer = HeartbeatObserver(
            eta=float(self._eta[slot]),
            stats_window=int(self._delays.window[slot]),
            arrival_window=int(self._arrivals.window[slot]),
            first_seq=int(self._first_seq[slot]),
            loss_reorder_horizon=int(self._horizon[slot]) or None,
        )
        loss = observer.loss
        if self._started[slot]:
            loss._highest = int(self._highest[slot])
            loss._swept_at = int(self._swept_at[slot])
        loss._received_count = int(self._received[slot])
        loss._lost_compacted = int(self._lost_compacted[slot])
        loss._missing = set(self._missing.get(slot, ()))
        loss._local_drops = set(self._local_drops.get(slot, ()))
        stats = observer.delay_stats
        stats._samples.extend(self._delays.held(slot))
        stats._sum = float(self._delays.total[slot])
        stats._sum_sq = float(self._delays.total_sq[slot])
        stats._evictions_since_resync = int(self._delays.evictions[slot])
        arrival = observer.arrival
        arrival._entries.extend((0, x) for x in self._arrivals.held(slot))
        arrival._normalized_sum = float(self._arrivals.total[slot])
        return observer

    # ------------------------------------------------------------------ #
    # Loss estimator (LossRateEstimator, on columns)
    # ------------------------------------------------------------------ #

    def _open_gap(self, slot: int, lo: int, hi: int) -> None:
        """Mark ``[lo, hi)`` missing (``_add_missing_range``)."""
        if lo >= hi:
            return
        shed = ()
        drops = self._local_drops.get(slot)
        if drops:
            shed = {s for s in drops if lo <= s < hi}
            drops.difference_update(shed)
            if not drops:
                del self._local_drops[slot]
        horizon = int(self._horizon[slot])
        if horizon:
            cutoff = hi - horizon
            if cutoff > lo:
                compacted = cutoff - lo
                if shed:
                    compacted -= sum(1 for s in shed if s < cutoff)
                self._lost_compacted[slot] += compacted
                lo = cutoff
        missing = self._missing.setdefault(slot, set())
        if shed:
            missing.update(s for s in range(lo, hi) if s not in shed)
        else:
            missing.update(range(lo, hi))
        if not missing:
            del self._missing[slot]

    def _sweep(self, slot: int, highest: int) -> None:
        """A due compaction sweep (the body of ``_maybe_compact``)."""
        missing = self._missing.get(slot)
        if missing:
            cutoff = highest - int(self._horizon[slot])
            stale = [s for s in missing if s < cutoff]
            if stale:
                missing.difference_update(stale)
                self._lost_compacted[slot] += len(stale)
                if not missing:
                    del self._missing[slot]
        self._swept_at[slot] = highest

    def _observe_seq(self, slot: int, seq: int) -> None:
        first_seq = int(self._first_seq[slot])
        if seq < first_seq:
            raise EstimationError(
                f"sequence number {seq} below first_seq {first_seq}"
            )
        if not self._started[slot]:
            self._open_gap(slot, first_seq, seq)
            self._started[slot] = True
            self._highest[slot] = seq
            self._swept_at[slot] = seq  # no sweep on the first receipt
        else:
            highest = int(self._highest[slot])
            if seq > highest:
                self._open_gap(slot, highest + 1, seq)
                self._highest[slot] = seq
                horizon = int(self._horizon[slot])
                if horizon and seq - int(self._swept_at[slot]) >= horizon:
                    self._sweep(slot, seq)
            else:
                missing = self._missing.get(slot)
                if missing is None or seq not in missing:
                    return  # duplicate or beyond-horizon straggler
                missing.discard(seq)  # late arrival, not a loss
                if not missing:
                    del self._missing[slot]
        self._received[slot] += 1

    def note_local_drop(self, slot: int, seq: int) -> None:
        """``LossRateEstimator.note_local_drop`` for one row."""
        if seq < int(self._first_seq[slot]):
            return
        if self._started[slot] and seq <= int(self._highest[slot]):
            missing = self._missing.get(slot)
            if missing:
                missing.discard(seq)
                if not missing:
                    del self._missing[slot]
            return
        drops = self._local_drops.setdefault(slot, set())
        drops.add(seq)
        limit = (int(self._horizon[slot]) or 1024) * 2
        if len(drops) > limit:
            for stale in sorted(drops)[: len(drops) - limit]:
                drops.discard(stale)

    # ------------------------------------------------------------------ #
    # Receipts
    # ------------------------------------------------------------------ #

    def observe(
        self,
        slot: int,
        seq: int,
        send_local_time: float,
        receive_local_time: float,
    ) -> None:
        """One receipt, scalar: loss, then delay, then arrival — raising
        where ``HeartbeatObserver.observe_arrival`` raises, with the
        same state already moved."""
        self._observe_seq(slot, seq)
        sample = receive_local_time - send_local_time
        if not math.isfinite(sample):
            raise EstimationError(f"delay sample must be finite, got {sample}")
        self._delays.push(slot, sample)
        self._arrivals.push(
            slot, receive_local_time - float(self._eta[slot]) * seq
        )

    def observe_batch(
        self,
        slots: np.ndarray,
        seqs: np.ndarray,
        sends: np.ndarray,
        recvs: np.ndarray,
    ) -> np.ndarray:
        """Apply a chunk of receipts given in arrival order.

        Returns a boolean mask of the receipts the oracle would have
        rejected with :class:`~repro.errors.EstimationError` (pre-window
        sequence number; non-finite delay sample — the latter after the
        loss estimator has booked the number, as in the oracle).
        """
        n = len(slots)
        rejected = np.zeros(n, dtype=bool)
        index = range(n)
        if n >= _VECTOR_FROM:
            # NumPy warns where Python floats are silent (``x * x``
            # overflowing to inf, ``inf - inf``); the vector lane must
            # be exactly as quiet as the oracle.
            with np.errstate(over="ignore", invalid="ignore"):
                samples = recvs - sends
                # Rows heard more than once: every one of their
                # receipts goes down the scalar lane, in order.
                order = np.arange(n)
                self._mark[slots] = order
                vector = self._mark[slots] == order
                if not vector.all():
                    again = slots[~vector]
                    self._repeated[again] = True
                    vector = ~self._repeated[slots]
                    self._repeated[again] = False
                vector &= seqs > self._highest[slots]
                vector &= np.isfinite(samples)
                if vector.all():
                    self._apply(slots, seqs, samples, recvs)
                    return rejected
                if vector.any():
                    self._apply(
                        slots[vector],
                        seqs[vector],
                        samples[vector],
                        recvs[vector],
                    )
            scalar = np.flatnonzero(~vector)
            index = scalar.tolist()
            slots, seqs = slots[scalar], seqs[scalar]
            sends, recvs = sends[scalar], recvs[scalar]
        receipts = zip(
            slots.tolist(), seqs.tolist(), sends.tolist(), recvs.tolist()
        )
        for i, receipt in zip(index, receipts):
            try:
                self.observe(*receipt)
            except EstimationError:
                rejected[i] = True
        return rejected

    def _apply(
        self,
        slots: np.ndarray,
        seqs: np.ndarray,
        samples: np.ndarray,
        recvs: np.ndarray,
    ) -> None:
        """The vector lane: distinct rows, each with a new highest
        sequence number and a finite sample.  A row not started yet
        holds ``first_seq − 1`` as its highest, so its gap opens from
        ``first_seq``, as ``_observe_seq`` opens it."""
        highest = self._highest[slots]
        opening = seqs - 1 > highest
        if opening.any():
            # One call per re-opened gap, not per heartbeat: local
            # drops and compaction past the horizon are per-row sets.
            for slot, lo, hi in zip(
                slots[opening].tolist(),
                (highest[opening] + 1).tolist(),
                seqs[opening].tolist(),
            ):
                self._open_gap(slot, lo, hi)
        self._highest[slots] = seqs
        fresh = ~self._started[slots]
        if fresh.any():
            # First receipts: the row starts, and its sweep mark is the
            # receipt itself, so no sweep is due below.
            first = slots[fresh]
            self._started[first] = True
            self._swept_at[first] = seqs[fresh]
        horizon = self._horizon[slots]
        due = (horizon > 0) & (seqs - self._swept_at[slots] >= horizon)
        if due.any():
            for slot, seq in zip(slots[due].tolist(), seqs[due].tolist()):
                self._sweep(slot, seq)
        self._received[slots] += 1
        self._delays.push_many(slots, samples)
        self._arrivals.push_many(slots, recvs - self._eta[slots] * seqs)


class _LossView:
    """Read surface of a row's :class:`LossRateEstimator`."""

    __slots__ = ("_row",)

    def __init__(self, row: "ObserverRow") -> None:
        self._row = row

    def _column(self, name: str) -> int:
        row = self._row
        return int(getattr(row._table, name)[row.slot])

    @property
    def highest_seq(self) -> Optional[int]:
        row = self._row
        if not row._table._started[row.slot]:
            return None
        return self._column("_highest")

    @property
    def received_count(self) -> int:
        return self._column("_received")

    @property
    def compacted_count(self) -> int:
        return self._column("_lost_compacted")

    @property
    def pending_missing(self) -> int:
        row = self._row
        return len(row._table._missing.get(row.slot, ()))

    @property
    def missing_count(self) -> int:
        return self.pending_missing + self.compacted_count

    @property
    def reorder_horizon(self) -> Optional[int]:
        return self._column("_horizon") or None

    @property
    def n_observed(self) -> int:
        highest = self.highest_seq
        if highest is None:
            return 0
        return highest - self._column("_first_seq") + 1

    def estimate(self) -> float:
        n = self.n_observed
        if n == 0:
            return 0.0
        return self.missing_count / n


class _WindowView:
    """Read surface shared by a row's two sliding windows."""

    __slots__ = ("_row", "_rings")

    def __init__(self, row: "ObserverRow", rings: _Rings) -> None:
        self._row = row
        self._rings = rings

    @property
    def window(self) -> int:
        return int(self._rings.window[self._row.slot])

    @property
    def n_samples(self) -> int:
        return int(self._rings.count[self._row.slot])

    def _mean(self) -> float:
        return float(self._rings.total[self._row.slot]) / self.n_samples


class _DelayView(_WindowView):
    """Read surface of a row's :class:`WindowedDelayStats`."""

    __slots__ = ()

    @property
    def full(self) -> bool:
        return self.n_samples == self.window

    def mean(self) -> float:
        if self.n_samples == 0:
            raise EstimationError("no delay samples observed")
        return self._mean()

    def variance(self, ddof: int = 1) -> float:
        n = self.n_samples
        if n <= ddof:
            raise EstimationError(f"need more than {ddof} samples, have {n}")
        mean = self._mean()
        total_sq = float(self._rings.total_sq[self._row.slot])
        # Guard tiny negative values from floating-point rounding.
        return max(total_sq - n * mean * mean, 0.0) / (n - ddof)


class _ArrivalView(_WindowView):
    """Read surface of a row's :class:`ArrivalTimeEstimator`."""

    __slots__ = ()

    @property
    def ready(self) -> bool:
        return self.n_samples > 0

    def expected_arrival(self, seq: int) -> float:
        if self.n_samples == 0:
            raise InvalidParameterError(
                "no heartbeats observed yet; cannot estimate EA"
            )
        row = self._row
        return self._mean() + float(row._table._eta[row.slot]) * seq


class ObserverRow:
    """Live view of one :class:`ObserverTable` row, with the surface of
    a :class:`HeartbeatObserver` that hosts and their callers use.

    Reads go to the table's columns, so a view (or a sub-view such as
    ``row.loss``) taken once stays current across later chunks.  A view
    is of one generation of its slot: after :meth:`ObserverTable.release`
    every access raises, even once the slot holds another row.
    """

    __slots__ = ("_table", "_slot", "_gen")

    def __init__(self, table: ObserverTable, slot: int, gen: int) -> None:
        self._table = table
        self._slot = slot
        self._gen = gen

    @property
    def slot(self) -> int:
        if self._table._rows.generation(self._slot) != self._gen:
            raise EstimationError("observer row was released")
        return self._slot

    @property
    def loss(self) -> _LossView:
        return _LossView(self)

    @property
    def delay_stats(self) -> _DelayView:
        return _DelayView(self, self._table._delays)

    @property
    def arrival(self) -> _ArrivalView:
        return _ArrivalView(self, self._table._arrivals)

    def observe_arrival(
        self, seq: int, send_local_time: float, receive_local_time: float
    ) -> None:
        self._table.observe(
            self.slot, seq, send_local_time, receive_local_time
        )

    def note_local_drop(self, seq: int) -> None:
        self._table.note_local_drop(self.slot, seq)

    def expected_arrival(self, seq: int) -> float:
        return self.arrival.expected_arrival(seq)

    @property
    def ready(self) -> bool:
        return self.delay_stats.n_samples >= 2

    def snapshot(self) -> NetworkEstimate:
        if not self.ready:
            raise EstimationError(
                "need at least two delay samples before snapshotting"
            )
        stats = self.delay_stats
        return NetworkEstimate(
            loss_probability=self.loss.estimate(),
            mean_delay=stats.mean(),
            var_delay=stats.variance(),
            n_samples=stats.n_samples,
        )
