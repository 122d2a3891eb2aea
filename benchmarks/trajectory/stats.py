"""Order statistics with sample-count guards, and the noise canary.

Every end-to-end number this benchmark prints is a median of per-segment
values (:func:`summarize`), because a neighbour's burst on a shared VM
lasts longer than any in-run average can absorb.  Percentiles are only
computed when enough samples lie *beyond* them (:func:`percentile`).
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

__all__ = [
    "MIN_BEYOND",
    "TooFewSamples",
    "Summary",
    "summarize",
    "trimmed_mean",
    "percentile",
    "quartile_spread",
    "Canary",
]

#: a percentile is printed only with this many samples beyond it
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was requested that the sample cannot support."""


@dataclass(frozen=True)
class Summary:
    """Median and quartiles of per-segment (or per-run) values."""

    median: float
    q1: float
    q3: float
    n: int

    def as_dict(self) -> dict:
        return {"median": self.median, "q1": self.q1, "q3": self.q3, "n": self.n}


def summarize(values: Iterable[float]) -> Summary:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    vals = [float(v) for v in values]
    if not vals:
        raise TooFewSamples("no values to summarize")
    if len(vals) == 1:
        return Summary(vals[0], vals[0], vals[0], 1)
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return Summary(med, q1, q3, len(vals))


def trimmed_mean(values: Iterable[float], trim: float = 0.1) -> float:
    """Mean of what is left after dropping the lowest and the highest
    ``trim`` share of the values.

    For CPU time per unit of work.  Process CPU time does not see the
    stalls a median is there to ignore, so the mean's efficiency can be
    had; trimming keeps the odd slot that caught a collection from
    deciding the number.
    """
    vals = sorted(float(v) for v in values)
    if not vals:
        raise TooFewSamples("no values to average")
    k = int(len(vals) * trim)
    kept = vals[k : len(vals) - k] if k else vals
    return statistics.fmean(kept)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 − Q1) / median — the spread the driver bounds."""
    s = summarize(values)
    return (s.q3 - s.q1) / s.median if s.median else math.inf


def percentile(
    samples: Sequence[float], p: float, *, min_beyond: int = MIN_BEYOND
) -> float:
    """The ``p``-th percentile (0 < p < 100), nearest-rank.

    Raises :class:`TooFewSamples` unless at least ``min_beyond`` samples
    lie at or beyond the returned rank on the far side (for ``p >= 50``
    the upper tail), so a printed p99 is never one outlier's value.
    """
    n = len(samples)
    tail = (100.0 - p) / 100.0 if p >= 50 else p / 100.0
    need = math.ceil(min_beyond / tail) if tail > 0 else math.inf
    if n < need:
        raise TooFewSamples(
            f"p{p:g} needs >= {need} samples "
            f"({min_beyond} beyond it), have {n}"
        )
    ordered = sorted(samples)
    rank = min(n - 1, max(0, math.ceil(p / 100.0 * n) - 1))
    return float(ordered[rank])


class _Cell:
    """What the canary's walk kernel touches: a small object holding a
    number, a list and a dict, like a peer's books."""

    __slots__ = ("count", "level", "items", "table")

    def __init__(self, i: int) -> None:
        self.count = i
        self.level = float(i)
        self.items = [i]
        self.table = {"k": i}


class Canary:
    """A fixed spin kernel that touches no product code.

    The sizing VM's speed moves by ±10-20 % from minute to minute and by
    more from second to second (a neighbour on the sibling hardware
    thread, or in the shared cache), in common for everything that runs
    on it.  The canary is the thermometer: about 10 ms a pass, run right
    beside every timed piece of work.  A pass is three kernels of about
    equal length, because no single one tracks the product's work:

    * an integer loop in pure Python (the interpreter's own speed);
    * NumPy reductions over a 1.6 MB array (cache and memory traffic);
    * a walk over a quarter of 20 000 small objects in a shuffled order,
      reading and updating attributes, a list and a dict each (pointer
      chasing, the shape of a monitor's per-peer work).

    Sized on 26 processes of the closed loop: bursts paired with the
    integer loop alone spread by 0.065 between processes, with this
    blend by 0.03 (unpaired: 0.15).

    It is used three ways:

    * **flagging** — a segment whose canary moved by more than
      ``TOLERANCE`` between its start and its end is flagged in the
      output (never dropped);
    * **normalising** — a CPU-bound timing is reported *at reference
      machine speed*: multiplied by ``REF_S / reading`` for the reading
      taken beside it (:meth:`to_ref`).  Raw values are printed beside
      the normalised ones;
    * **filling** — an end-to-end cell that does not apply to a
      workload holds the :meth:`placeholder`: a number no code change
      can move.
    """

    TOLERANCE = 0.10
    #: one pass on the sizing machine when nothing disturbs it
    REF_S = 0.010
    _CELLS = 20_000

    def __init__(self) -> None:
        self._arr = np.arange(200_000, dtype=np.float64)
        self._cells = [_Cell(i) for i in range(self._CELLS)]
        self._order = np.random.default_rng(0xCA9A).permutation(self._CELLS).tolist()
        self._quarter = 0
        self.readings: List[float] = []

    def _pass(self) -> float:
        quarter = self._CELLS // 4
        start = self._quarter * quarter
        self._quarter = (self._quarter + 1) % 4
        cells = self._cells
        t0 = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i & 0xFF
        for _ in range(9):
            acc += float(np.sqrt(self._arr).sum())
        for i in self._order[start : start + quarter]:
            cell = cells[i]
            cell.count += 1
            cell.level = cell.level * 0.5 + 1.0
            acc += cell.items[0] + cell.table["k"]
        return time.perf_counter() - t0

    def spin(self, reps: int = 3) -> float:
        """One reading in seconds: the median of ``reps`` passes, so a
        preemption inside one pass does not read as a slow machine."""
        reading = statistics.median(self._pass() for _ in range(reps))
        self.readings.append(reading)
        return reading

    @classmethod
    def to_ref(cls, reading: float) -> float:
        """Factor that turns a duration measured beside ``reading`` into
        the duration at reference machine speed (divide a rate by it)."""
        return cls.REF_S / reading

    @staticmethod
    def placeholder(quads: int = 500) -> float:
        """What an end-to-end cell holds on a workload it does not apply to.

        The time of a pure-Python loop over the time of the very same
        loop: ``quads`` times over the loop runs as A B B A, each B is
        divided by the A beside it, and the mean of the middle half of
        those ratios is the value.  It is measured, so it is not the
        same twice, but the machine's speed and state cancel: it reads
        1.00 within half a percent whatever the weather (sixteen
        processes: spread 0.003, range 0.010; A B A B and one quartile
        over the other, as first defined, spread by 0.008 and by 0.016
        inside a workload's process), and no change to the program
        under test can move it.
        """

        def loop() -> float:
            t0 = time.perf_counter()
            acc = 0
            for i in range(10_000):
                acc += i * i & 0xFF
            return time.perf_counter() - t0

        ratios = []
        for _ in range(quads):
            a1, b1, b2, a2 = loop(), loop(), loop(), loop()
            ratios += [b1 / a1, b2 / a2]
        ratios.sort()
        return statistics.fmean(ratios[quads // 2 : -(quads // 2)])

    @staticmethod
    def flagged(before: float, after: float) -> bool:
        ratio = after / before
        return ratio > 1 + Canary.TOLERANCE or ratio < 1 / (1 + Canary.TOLERANCE)
