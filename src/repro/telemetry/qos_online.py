"""Online QoS estimators: the paper's accuracy metrics in O(1) memory.

:func:`repro.metrics.qos.estimate_accuracy` needs the full
:class:`~repro.metrics.transitions.OutputTrace` of a run — O(mistakes)
memory per monitored process, and an answer only after the run closes.
A monitoring *service* needs the same six numbers continuously, for
thousands of processes, without retaining traces.  This module computes
them incrementally from the transition stream:

* ``E(T_MR)`` — running sum/count of gaps between retained S-transitions;
* ``E(T_M)``  — running sum/count of *completed* mistake durations;
* ``E(T_G)``  — a :class:`~repro.telemetry.registry.Welford` accumulator
  over completed good periods (its variance feeds ``E(T_FG)`` through
  the Theorem 1.3c identity);
* ``P_A``     — accumulated trusted time over the observation window;
* ``λ_M``     — retained S-transition count over the observation window.

The estimator replicates :func:`estimate_accuracy`'s warmup semantics
exactly (S-times filtered to the post-warmup horizon *before*
differencing; interval samples kept iff their *start* is post-horizon;
``P_A`` over the post-horizon window), so a closed trace's transitions
observed one by one agree with the trace-based estimator to float
tolerance — the equivalence the test suite pins at
1e-9 relative.

:class:`QoSTable` keeps the same accumulators for many processes as
columns indexed by a dense row id (the engine's), and applies a batch
of transitions — one time, one output, many rows — with masked vector
operations in :meth:`OnlineQoSEstimator.observe`'s float-op order:
:meth:`QoSTable.export` is state-equal to the estimator fed the same
stream.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.columns import Columns
from repro.errors import InvalidParameterError, TraceError
from repro.metrics.relations import forward_good_period_mean
from repro.metrics.transitions import SUSPECT, TRUST
from repro.telemetry.registry import Welford

__all__ = ["OnlineQoSEstimator", "QoSTable"]


class OnlineQoSEstimator:
    """Streaming estimator of the six accuracy metrics for one process.

    Args:
        start_time: real time the observation begins (trace start).
        initial_output: output at ``start_time`` (paper detectors: S).
        warmup: initial span excluded from the accounting, mirroring
            ``estimate_accuracy(trace, warmup=...)``.

    Feed transitions through :meth:`observe` in nondecreasing time
    order, then :meth:`close` the window.  All properties are defined
    (possibly NaN) at any point; before :meth:`close` they reflect the
    window up to the last observed event.
    """

    __slots__ = (
        "_start",
        "_horizon",
        "_cur",
        "_cur_since",
        "_end",
        "_trusted",
        "_n_s",
        "_prev_s",
        "_sum_tmr",
        "_n_tmr",
        "_sum_tm",
        "_n_tm",
        "_open_m",
        "_open_t",
        "_tg",
        "_last_time",
    )

    def __init__(
        self,
        start_time: float = 0.0,
        initial_output: str = SUSPECT,
        warmup: float = 0.0,
    ) -> None:
        if initial_output not in (TRUST, SUSPECT):
            raise InvalidParameterError(
                f"initial_output must be 'T' or 'S', got {initial_output!r}"
            )
        if warmup < 0:
            raise InvalidParameterError(f"warmup must be >= 0, got {warmup}")
        self._start = float(start_time)
        self._horizon = self._start + float(warmup)
        self._cur = initial_output
        self._cur_since = self._start
        self._end: Optional[float] = None
        self._trusted = 0.0  # trusted time within [horizon, last event]
        self._n_s = 0  # S-transitions at/after the horizon
        self._prev_s: Optional[float] = None  # last retained S-time
        self._sum_tmr = 0.0
        self._n_tmr = 0
        self._sum_tm = 0.0
        self._n_tm = 0
        self._open_m: Optional[float] = None  # S-time of the open mistake
        self._open_t: Optional[float] = None  # T-time of the open good period
        self._tg = Welford()
        self._last_time = self._start

    # ------------------------------------------------------------------ #
    # Event stream
    # ------------------------------------------------------------------ #

    def observe(self, time: float, output: str) -> bool:
        """Record that the output is ``output`` from ``time`` on.

        Returns True iff this was an actual transition (mirrors
        :meth:`OutputTrace.record`).
        """
        if self._end is not None:
            raise TraceError("estimator already closed")
        if output not in (TRUST, SUSPECT):
            raise TraceError(f"output must be 'T' or 'S', got {output!r}")
        t = float(time)
        if t < self._last_time:
            raise TraceError(
                f"non-monotone transition time {t} < {self._last_time}"
            )
        if output == self._cur:
            return False
        self._last_time = t
        # Close the current occupancy segment's trusted-time contribution
        # (clipped to the post-warmup horizon).
        if self._cur == TRUST:
            seg = t - max(self._cur_since, self._horizon)
            if seg > 0.0:
                self._trusted += seg
        if output == SUSPECT:
            # S-transition: a new mistake begins; the good period (if one
            # was open) completes.
            if self._open_t is not None:
                if self._open_t >= self._horizon:
                    self._tg.push(t - self._open_t)
                self._open_t = None
            self._open_m = t
            if t >= self._horizon:
                if self._prev_s is not None:
                    self._sum_tmr += t - self._prev_s
                    self._n_tmr += 1
                self._prev_s = t
                self._n_s += 1
        else:
            # T-transition: the mistake (if one was open) completes; a
            # good period begins.
            if self._open_m is not None:
                if self._open_m >= self._horizon:
                    self._sum_tm += t - self._open_m
                    self._n_tm += 1
                self._open_m = None
            self._open_t = t
        self._cur = output
        self._cur_since = t
        return True

    def close(self, end_time: float) -> "OnlineQoSEstimator":
        """Close the observation window at ``end_time``; returns self."""
        t = float(end_time)
        if t < self._last_time:
            raise TraceError(
                f"end_time {t} before last transition {self._last_time}"
            )
        if self._cur == TRUST:
            seg = t - max(self._cur_since, self._horizon)
            if seg > 0.0:
                self._trusted += seg
        self._end = t
        return self

    @property
    def closed(self) -> bool:
        return self._end is not None

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    @property
    def observation_time(self) -> float:
        end = self._end if self._end is not None else self._last_time
        return end - self._horizon

    @property
    def n_mistakes(self) -> int:
        return self._n_s

    @property
    def e_tmr(self) -> float:
        return self._sum_tmr / self._n_tmr if self._n_tmr else math.nan

    @property
    def e_tm(self) -> float:
        return self._sum_tm / self._n_tm if self._n_tm else math.nan

    @property
    def e_tg(self) -> float:
        return self._tg.mean if self._tg.n else math.nan

    @property
    def query_accuracy(self) -> float:
        obs = self.observation_time
        if obs <= 0.0:
            return 1.0 if self._cur == TRUST else 0.0
        return self._trusted / obs

    @property
    def mistake_rate(self) -> float:
        obs = self.observation_time
        return self._n_s / obs if obs > 0 else math.nan

    @property
    def e_tfg(self) -> float:
        if self._tg.n >= 2 and self._tg.mean > 0:
            return forward_good_period_mean(self._tg.mean, self._tg.variance)
        if self._tg.n and self._tg.mean == 0:
            return 0.0
        return math.nan

    def metrics(self) -> dict:
        """All six metrics plus support counts, JSON-serializable."""
        return {
            "e_tmr": self.e_tmr,
            "e_tm": self.e_tm,
            "e_tg": self.e_tg,
            "query_accuracy": self.query_accuracy,
            "mistake_rate": self.mistake_rate,
            "e_tfg": self.e_tfg,
            "n_mistakes": self.n_mistakes,
            "observation_time": self.observation_time,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self.closed else "open"
        return (
            f"OnlineQoSEstimator({state}, n_mistakes={self._n_s}, "
            f"observation={self.observation_time:.6g})"
        )


#: batches shorter than this are applied row by row through the oracle
#: itself (export, ``observe``, store back: a few µs a row); longer ones
#: as masked columns (about 40 µs a batch, whatever its length)
_VECTOR_FROM = 8

#: (column, dtype, fill of a row never opened)
_COLUMNS = (
    ("_tracked", bool, False),
    ("_live", bool, False),  # tracked and not closed: a batch updates it
    ("_trust", bool, False),  # current output is T
    ("_start", np.float64, 0.0),
    ("_horizon", np.float64, 0.0),
    ("_since", np.float64, 0.0),
    ("_last", np.float64, 0.0),
    ("_end", np.float64, math.nan),
    ("_trusted", np.float64, 0.0),
    ("_n_s", np.int64, 0),
    ("_prev_s", np.float64, math.nan),  # nan: None
    ("_sum_tmr", np.float64, 0.0),
    ("_n_tmr", np.int64, 0),
    ("_sum_tm", np.float64, 0.0),
    ("_n_tm", np.int64, 0),
    ("_open_m", np.float64, math.nan),
    ("_open_t", np.float64, math.nan),
    ("_tg_n", np.int64, 0),
    ("_tg_mean", np.float64, 0.0),
    ("_tg_m2", np.float64, 0.0),
    ("_tg_min", np.float64, math.inf),
    ("_tg_max", np.float64, -math.inf),
)


class QoSTable:
    """:class:`OnlineQoSEstimator` for many rows, as columns.

    A row is opened once (:meth:`open`, which writes only the columns
    that differ from a never-opened row's), fed transition batches
    ``(time, rows, output)`` in nondecreasing time (:meth:`update`) and
    closed once (:meth:`close`); :meth:`export` returns the row as an
    estimator object, state-equal — every slot, ``==`` on floats — to
    one fed the same transitions.  A batch names each row at most once
    (one output per batch), so each row sees at most one push, in the
    estimator's float-op order: the columns are bit-identical to it.
    Rows never opened, and closed rows, are ignored by a batch.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.n_live = 0
        #: the rows: grown by :meth:`open`, or linked to an engine's
        self.columns = Columns(self, _COLUMNS, capacity, (), ())

    def open(
        self,
        row: int,
        start_time: float = 0.0,
        initial_output: str = SUSPECT,
        warmup: float = 0.0,
    ) -> None:
        """Start accounting for ``row``, as ``OnlineQoSEstimator(...)``."""
        if initial_output not in (TRUST, SUSPECT):
            raise InvalidParameterError(
                f"initial_output must be 'T' or 'S', got {initial_output!r}"
            )
        if warmup < 0:
            raise InvalidParameterError(f"warmup must be >= 0, got {warmup}")
        self.columns.grow(row + 1)
        if self._tracked.item(row):
            raise InvalidParameterError(f"row {row} already opened")
        # A row is opened once, so every other column holds its fill.
        start = float(start_time)
        self._tracked[row] = self._live[row] = True
        if initial_output == TRUST:
            self._trust[row] = True
        self._start[row] = self._since[row] = self._last[row] = start
        self._horizon[row] = start + float(warmup)
        self.n_live += 1

    def is_open(self, row: int) -> bool:
        return row < len(self._live) and self._live.item(row)

    # ------------------------------------------------------------------ #

    def export(self, row: int) -> Optional[OnlineQoSEstimator]:
        """The row as an estimator object (None: never opened)."""
        if row >= len(self._tracked) or not self._tracked.item(row):
            return None
        est = OnlineQoSEstimator.__new__(OnlineQoSEstimator)
        est._start = self._start.item(row)
        est._horizon = self._horizon.item(row)
        est._cur = TRUST if self._trust.item(row) else SUSPECT
        est._cur_since = self._since.item(row)
        est._end = None if self._live.item(row) else self._end.item(row)
        est._trusted = self._trusted.item(row)
        est._n_s = self._n_s.item(row)
        est._prev_s = _none_if_nan(self._prev_s.item(row))
        est._sum_tmr = self._sum_tmr.item(row)
        est._n_tmr = self._n_tmr.item(row)
        est._sum_tm = self._sum_tm.item(row)
        est._n_tm = self._n_tm.item(row)
        est._open_m = _none_if_nan(self._open_m.item(row))
        est._open_t = _none_if_nan(self._open_t.item(row))
        tg = est._tg = Welford()
        tg.n = self._tg_n.item(row)
        tg.mean = self._tg_mean.item(row)
        tg.m2 = self._tg_m2.item(row)
        tg.min = self._tg_min.item(row)
        tg.max = self._tg_max.item(row)
        est._last_time = self._last.item(row)
        return est

    def _store(self, row: int, est: OnlineQoSEstimator) -> None:
        """Write an (open) estimator's accumulators back into ``row``."""
        self._trust[row] = est._cur == TRUST
        self._since[row] = est._cur_since
        self._trusted[row] = est._trusted
        self._n_s[row] = est._n_s
        self._prev_s[row] = _nan_if_none(est._prev_s)
        self._sum_tmr[row] = est._sum_tmr
        self._n_tmr[row] = est._n_tmr
        self._sum_tm[row] = est._sum_tm
        self._n_tm[row] = est._n_tm
        self._open_m[row] = _nan_if_none(est._open_m)
        self._open_t[row] = _nan_if_none(est._open_t)
        tg = est._tg
        self._tg_n[row] = tg.n
        self._tg_mean[row] = tg.mean
        self._tg_m2[row] = tg.m2
        self._tg_min[row] = tg.min
        self._tg_max[row] = tg.max
        self._last[row] = est._last_time

    def close(self, row: int, end_time: float) -> None:
        """Close the row's observation window, as
        :meth:`OnlineQoSEstimator.close`; a closed row takes no batch."""
        if not self.is_open(row):
            raise TraceError(f"row {row} is not open")
        t = float(end_time)
        last = self._last.item(row)
        if t < last:
            raise TraceError(f"end_time {t} before last transition {last}")
        if self._trust.item(row):
            seg = t - max(self._since.item(row), self._horizon.item(row))
            if seg > 0.0:
                self._trusted[row] = self._trusted.item(row) + seg
        self._end[row] = t
        self._live[row] = False
        self.n_live -= 1

    # ------------------------------------------------------------------ #

    def update(self, time: float, rows: np.ndarray, output: str) -> None:
        """Record that each of ``rows`` outputs ``output`` from ``time``
        on (rows distinct and below the capacity; unopened and closed
        ones are skipped)."""
        if not self.n_live:
            return
        rows = rows[self._live[rows]]
        if len(rows) < _VECTOR_FROM:
            for row in rows.tolist():
                est = self.export(row)
                if est.observe(time, output):
                    self._store(row, est)
            return
        if output not in (TRUST, SUSPECT):
            raise TraceError(f"output must be 'T' or 'S', got {output!r}")
        t = float(time)
        if t < self._last[rows].max():
            raise TraceError(f"non-monotone transition time {t}")
        trust = output == TRUST
        r = rows[self._trust[rows] != trust]
        if not len(r):
            return
        horizon = self._horizon[r]
        if trust:
            # The open mistakes complete; good periods begin.
            open_m = self._open_m[r]
            done = open_m >= horizon  # False where none is open (nan)
            self._sum_tm[r[done]] += t - open_m[done]
            self._n_tm[r[done]] += 1
            self._open_m[r] = math.nan
            self._open_t[r] = t
        else:
            # Close the trusted segments (clipped to the horizon); the
            # open good periods complete; mistakes begin.
            seg = t - np.maximum(self._since[r], horizon)
            grew = seg > 0.0
            self._trusted[r[grew]] += seg[grew]
            open_t = self._open_t[r]
            good = open_t >= horizon
            if good.any():
                self._push_tg(r[good], t - open_t[good])
            self._open_t[r] = math.nan
            self._open_m[r] = t
            late = r[t >= horizon]
            prev = self._prev_s[late]
            had = ~np.isnan(prev)
            self._sum_tmr[late[had]] += t - prev[had]
            self._n_tmr[late[had]] += 1
            self._prev_s[late] = t
            self._n_s[late] += 1
        self._trust[r] = trust
        self._since[r] = t
        self._last[r] = t

    def _push_tg(self, rows: np.ndarray, x: np.ndarray) -> None:
        """:meth:`Welford.push` on each row's ``T_G`` accumulator."""
        n = self._tg_n[rows] + 1
        mean = self._tg_mean[rows]
        delta = x - mean
        mean = mean + delta / n
        self._tg_m2[rows] += delta * (x - mean)
        self._tg_n[rows] = n
        self._tg_mean[rows] = mean
        self._tg_min[rows] = np.minimum(self._tg_min[rows], x)
        self._tg_max[rows] = np.maximum(self._tg_max[rows], x)


def _none_if_nan(x: float) -> Optional[float]:
    return None if x != x else x


def _nan_if_none(x: Optional[float]) -> float:
    return math.nan if x is None else x
