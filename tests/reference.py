"""Reaching the reference host from a test.

The services host a detector in the shared vectorized engine exactly
when :func:`repro.service.soa.supports_detector` accepts it — the exact
types ``NFDS`` / ``NFDU`` / ``NFDE`` — and in the one per-detector
reference host, :class:`~repro.sim.monitor.DetectorHost`, otherwise
(simulated or live: only the driver differs).  A trivial subclass
overrides nothing, so it runs the unmodified :mod:`repro.core`
algorithm there: the oracle every identity test compares the engine
against, reached through the product's own observable selection.

:class:`SteppedLoop` is the loop-side counterpart of the simulator for
those comparisons: an asyncio-shaped clock and timer heap that the test
steps by hand.

:func:`observer_state` is the estimators' side of the same bar: every
field of a :class:`~repro.estimation.HeartbeatObserver`, so that a row
exported from an :class:`~repro.estimation.ObserverTable` can be
compared with the oracle fed the same receipts.

:func:`assert_row_fresh` checks the column store's invariant: a freed
row holds, in every declared column, what a fresh table's row holds.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU

__all__ = [
    "RefNFDS",
    "RefNFDU",
    "RefNFDE",
    "HOSTINGS",
    "hosted",
    "SteppedLoop",
    "observer_state",
    "active_rows",
    "assert_row_fresh",
]


class RefNFDS(NFDS):
    pass


class RefNFDU(NFDU):
    pass


class RefNFDE(NFDE):
    pass


_REFERENCE = {NFDS: RefNFDS, NFDU: RefNFDU, NFDE: RefNFDE}

#: where a plain detector runs: ``"object"`` — one core detector object
#: in its own host, the reference — or ``"soa"`` — a row of the engine.
HOSTINGS = ("object", "soa")


def hosted(hosting: str, detector):
    """A fresh plain NFD-S/U/E, left alone for ``"soa"`` and re-classed
    as its trivial subclass for ``"object"``."""
    if hosting == "object":
        detector.__class__ = _REFERENCE[type(detector)]
    else:
        assert hosting == "soa", hosting
    return detector


class SteppedLoop:
    """What a :class:`~repro.live.soa.LoopWheelScheduler` needs from its
    loop — ``time()`` and ``call_at()`` — on a clock the test owns.

    Assigning :attr:`now` moves the clock and fires nothing (a loop
    lagging behind its deadlines); :meth:`run_until` fires every due
    timer in ``(when, arming order)``, an overdue one as soon as
    possible, like asyncio — but an exception a callback raises reaches
    the caller.  What is handed to :meth:`call_exception_handler` is
    kept in :attr:`exceptions`.
    """

    class _Handle:
        def __init__(self, callback):
            self.callback = callback

        def cancel(self):
            self.callback = None

    def __init__(self):
        self.now = 0.0
        self.exceptions = []
        self._heap = []
        self._order = itertools.count()

    def time(self):
        return self.now

    def call_exception_handler(self, context):
        self.exceptions.append(context)

    def call_at(self, when, callback):
        handle = self._Handle(callback)
        heapq.heappush(self._heap, (when, next(self._order), handle))
        return handle

    def run_until(self, horizon):
        while self._heap and self._heap[0][0] <= horizon:
            when, _, handle = heapq.heappop(self._heap)
            if handle.callback is not None:
                self.now = max(self.now, when)
                handle.callback()
        self.now = horizon


def observer_state(observer) -> dict:
    """Every field of a ``HeartbeatObserver``'s three estimators, floats
    as ``float.hex`` (so a nan equals a nan)."""
    loss, stats, arrival = observer.loss, observer.delay_stats, observer.arrival
    eta = arrival._eta
    return {
        "first_seq": loss._first_seq,
        "horizon": loss._horizon,
        "highest": loss._highest,
        "swept_at": loss._swept_at,
        "received": loss._received_count,
        "lost_compacted": loss._lost_compacted,
        "missing": set(loss._missing),
        "local_drops": set(loss._local_drops),
        "stats_window": stats._window,
        "samples": [x.hex() for x in stats._samples],
        "sum": stats._sum.hex(),
        "sum_sq": stats._sum_sq.hex(),
        "evictions": stats._evictions_since_resync,
        "eta": eta.hex(),
        "arrival_window": arrival._window,
        # all the oracle ever uses of an entry is A − η·seq
        "entries": [(t - eta * s).hex() for s, t in arrival._entries],
        "normalized_sum": arrival._normalized_sum.hex(),
    }


def active_rows(engine) -> set:
    """Rows of a :class:`~repro.service.soa.VectorMonitorEngine` that
    are registered and not retired."""
    return set(np.flatnonzero(engine._active[: engine.n_rows]).tolist())


def assert_row_fresh(store, row: int, fresh) -> None:
    """Every column ``store`` (a :class:`~repro.columns.Columns`) and
    its linked stores declare holds at ``row`` the bytes a never-used
    row of ``fresh``, the same store of a new table, holds."""
    for name, _, _ in store._columns:
        got = getattr(store._owner, name)[row : row + 1].tobytes()
        assert got == getattr(fresh._owner, name)[:1].tobytes(), name
    assert len(store._linked) == len(fresh._linked)
    for linked, fresh_linked in zip(store._linked, fresh._linked):
        assert_row_fresh(linked, row, fresh_linked)
