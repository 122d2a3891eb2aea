"""Constant-memory metric primitives and the registry that names them.

The telemetry layer must never change what it observes: every primitive
here is O(1) memory and O(1) update, so it can sit on the hot paths of
the simulator and the vectorized kernels without altering their
complexity.

* :class:`Counter` — monotonically increasing total (events fired,
  heartbeats simulated, transitions seen).
* :class:`Gauge` — last-written value plus its historical extremes
  (heap depth, live process count).
* :class:`Welford` — streaming mean/variance/min/max via Welford's
  recurrence; mergeable across streams (Chan et al.), which is what the
  pooled QoS estimators use.
* :class:`P2Quantile` — the P² algorithm (Jain & Chlamtac 1985): a
  five-marker quantile sketch with bounded error and five floats of
  state, regardless of stream length.
* :class:`Histogram` — a Welford accumulator plus one P² sketch per
  requested quantile.
* :class:`MetricsRegistry` — the name → metric table; components create
  metrics idempotently (``registry.counter(name)`` returns the existing
  instance on repeat calls) so instrumentation sites need no setup
  phase.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import InvalidParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Welford",
    "P2Quantile",
    "Histogram",
    "MetricsRegistry",
]


def metric_key(name: str, labels: Optional[Mapping[str, str]] = None) -> str:
    """Flatten ``name`` + labels into the canonical registry key.

    Uses the Prometheus text convention ``name{k="v",...}`` with label
    keys sorted, so the same logical series always maps to one entry.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "_value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise InvalidParameterError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"value": self._value}


class Gauge:
    """A last-written value with historical min/max."""

    __slots__ = ("name", "help", "_value", "_min", "_max", "_written")

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._written = False

    def set(self, value: float) -> None:
        self._value = value
        self._written = True
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    @property
    def value(self) -> float:
        return self._value

    @property
    def max(self) -> float:
        return self._max if self._written else math.nan

    @property
    def min(self) -> float:
        return self._min if self._written else math.nan

    def snapshot(self) -> dict:
        return {"value": self._value, "min": self.min, "max": self.max}


class Welford:
    """Streaming mean/variance accumulator (Welford's recurrence).

    ``variance`` is the *population* variance (``ddof=0``), matching
    ``numpy.ndarray.var()`` — the convention the trace-based estimators
    use for ``V(T_G)`` in the ``E(T_FG)`` identity.
    """

    __slots__ = ("n", "mean", "m2", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def push(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def variance(self) -> float:
        if self.n == 0:
            return math.nan
        return self.m2 / self.n

    def merge(self, other: "Welford") -> "Welford":
        """Fold ``other`` into self (Chan et al. parallel combination)."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n = other.n
            self.mean = other.mean
            self.m2 = other.m2
            self.min = other.min
            self.max = other.max
            return self
        n = self.n + other.n
        delta = other.mean - self.mean
        self.m2 = self.m2 + other.m2 + delta * delta * self.n * other.n / n
        self.mean = self.mean + delta * other.n / n
        self.n = n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self


class P2Quantile:
    """P² single-quantile sketch (Jain & Chlamtac, CACM 1985).

    Maintains five markers tracking the ``p``-quantile of a stream in
    O(1) memory.  Until five observations have arrived the estimate is
    the exact order statistic of the buffered values.
    """

    __slots__ = ("p", "_q", "_n", "_np", "_dn", "_count")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise InvalidParameterError(f"quantile must be in (0,1), got {p}")
        self.p = float(p)
        self._q: List[float] = []  # marker heights
        self._n: List[float] = []  # marker positions (1-based)
        self._np: List[float] = []  # desired positions
        self._dn = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self._count = 0

    def add(self, x: float) -> None:
        self._count += 1
        if self._count <= 5:
            self._q.append(float(x))
            self._q.sort()
            if self._count == 5:
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                p = self.p
                self._np = [
                    1.0,
                    1.0 + 2.0 * p,
                    1.0 + 4.0 * p,
                    3.0 + 2.0 * p,
                    5.0,
                ]
            return
        q, n, np_ = self._q, self._n, self._np
        # Find the cell k with q[k] <= x < q[k+1]; clamp the extremes.
        if x < q[0]:
            q[0] = float(x)
            k = 0
        elif x >= q[4]:
            q[4] = float(x)
            k = 3
        else:
            k = 0
            while not (q[k] <= x < q[k + 1]):
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            np_[i] += self._dn[i]
        # Adjust the three interior markers if they drifted off target.
        for i in (1, 2, 3):
            d = np_[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                d = 1.0 if d >= 0 else -1.0
                qp = self._parabolic(i, d)
                if not (q[i - 1] < qp < q[i + 1]):
                    qp = self._linear(i, d)
                q[i] = qp
                n[i] += d

    def _parabolic(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        q, n = self._q, self._n
        j = i + int(d)
        return q[i] + d * (q[j] - q[i]) / (n[j] - n[i])

    @property
    def count(self) -> int:
        return self._count

    @property
    def value(self) -> float:
        """Current quantile estimate (NaN before the first observation)."""
        if self._count == 0:
            return math.nan
        if self._count <= 5:
            # Exact order statistic of the buffered values (nearest rank,
            # linear interpolation as numpy's default).
            idx = self.p * (len(self._q) - 1)
            lo = int(math.floor(idx))
            hi = int(math.ceil(idx))
            frac = idx - lo
            return self._q[lo] * (1.0 - frac) + self._q[hi] * frac
        return self._q[2]


class Histogram:
    """Streaming distribution summary: Welford moments + P² quantiles."""

    __slots__ = ("name", "help", "moments", "sketches", "_sum")

    kind = "histogram"

    DEFAULT_QUANTILES = (0.5, 0.9, 0.99)

    def __init__(
        self,
        name: str,
        help: str = "",
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
    ) -> None:
        self.name = name
        self.help = help
        self.moments = Welford()
        self.sketches: Dict[float, P2Quantile] = {
            float(p): P2Quantile(float(p)) for p in quantiles
        }
        self._sum = 0.0

    def observe(self, x: float) -> None:
        x = float(x)
        self.moments.push(x)
        self._sum += x
        for sketch in self.sketches.values():
            sketch.add(x)

    @property
    def count(self) -> int:
        return self.moments.n

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self.moments.mean if self.moments.n else math.nan

    def quantile(self, p: float) -> float:
        return self.sketches[float(p)].value

    def snapshot(self) -> dict:
        out = {
            "count": self.moments.n,
            "sum": self._sum,
            "mean": self.mean,
            "min": self.moments.min if self.moments.n else math.nan,
            "max": self.moments.max if self.moments.n else math.nan,
            "var": self.moments.variance,
        }
        for p, sketch in sorted(self.sketches.items()):
            out[f"p{int(round(p * 100)):02d}"] = sketch.value
        return out


class MetricsRegistry:
    """The name → metric table shared by all instrumented components.

    Creation is idempotent per (name, labels): instrumentation sites
    call ``registry.counter("sim_events_total")`` unconditionally and
    always receive the same instance.  Requesting an existing name with
    a different metric kind is an error — one name, one meaning.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get_or_create(self, cls, key: str, *args, **kwargs):
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(key, *args, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise InvalidParameterError(
                f"metric {key!r} already registered as {metric.kind}"
            )
        return metric

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        return self._get_or_create(Counter, metric_key(name, labels), help)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        return self._get_or_create(Gauge, metric_key(name, labels), help)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, metric_key(name, labels), help)

    def __contains__(self, key: str) -> bool:
        return key in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def items(self) -> Iterable[Tuple[str, object]]:
        return sorted(self._metrics.items())

    def get(self, name: str, labels: Optional[Mapping[str, str]] = None):
        return self._metrics.get(metric_key(name, labels))

    def snapshot(self) -> dict:
        """All metrics as one JSON-serializable dict, grouped by kind."""
        out: Dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for key, metric in self.items():
            group = {
                "counter": "counters",
                "gauge": "gauges",
                "histogram": "histograms",
            }[metric.kind]
            out[group][key] = metric.snapshot()
        return out
