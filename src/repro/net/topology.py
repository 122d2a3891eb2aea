"""Multi-hop path composition of link behaviours.

The paper's link "represents an end-to-end connection and does not
necessarily correspond to a physical link" (Section 3.1).  This module
derives that end-to-end behaviour from a hop-by-hop network description:

* end-to-end **loss**: a message survives iff it survives every hop —
  ``p_L = 1 − Π (1 − p_i)`` under independent per-hop loss;
* end-to-end **delay**: the sum of independent per-hop delays.  The sum
  has no closed-form CDF in general, but its **mean and variance are
  exactly additive** — which is precisely all the Section 5/6
  distribution-free configurators need.  (A neat consequence of the
  paper's design: you can configure a certified detector over a path
  you only know hop-by-hop, without ever computing the composite delay
  law.)  For the exact Section 4 route, :class:`PathDelay` supports
  sampling and a Monte-Carlo CDF.

Topologies are :mod:`networkx` graphs whose edges carry ``delay``
(a :class:`~repro.net.delays.DelayDistribution`) and ``loss``
attributes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import networkx as nx
import numpy as np

from repro.errors import InvalidParameterError
from repro.net.delays import DelayDistribution

__all__ = ["PathDelay", "compose_path", "end_to_end_behavior"]

ArrayLike = Union[float, np.ndarray]


class PathDelay(DelayDistribution):
    """Sum of independent per-hop delays.

    Mean and variance are exact (additivity of independent sums); the
    CDF is estimated by Monte-Carlo convolution with a cached sample —
    adequate for the Section 4 configurator's tail probabilities down to
    roughly ``10/sample_size``; for anything sharper, increase
    ``cdf_samples`` or use the distribution-free Section 5 route, which
    needs no CDF at all.
    """

    def __init__(
        self,
        hops: Sequence[DelayDistribution],
        cdf_samples: int = 200_000,
        seed: int = 0,
    ) -> None:
        if not hops:
            raise InvalidParameterError("a path needs at least one hop")
        if cdf_samples < 1000:
            raise InvalidParameterError("cdf_samples must be >= 1000")
        self._hops: Tuple[DelayDistribution, ...] = tuple(hops)
        self._cdf_samples = int(cdf_samples)
        self._seed = int(seed)
        self._cached_sorted: Optional[np.ndarray] = None

    @property
    def hops(self) -> Tuple[DelayDistribution, ...]:
        return self._hops

    @property
    def mean(self) -> float:
        return float(sum(h.mean for h in self._hops))

    @property
    def variance(self) -> float:
        return float(sum(h.variance for h in self._hops))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        total = np.zeros(size, dtype=float)
        for hop in self._hops:
            total += hop.sample(rng, size)
        return total

    def _samples_for_cdf(self) -> np.ndarray:
        if self._cached_sorted is None:
            rng = np.random.default_rng(self._seed)
            self._cached_sorted = np.sort(
                self.sample(rng, self._cdf_samples)
            )
        return self._cached_sorted

    def cdf(self, x: ArrayLike) -> ArrayLike:
        s = self._samples_for_cdf()
        xa = np.asarray(x, dtype=float)
        out = np.searchsorted(s, xa, side="right") / s.size
        return float(out) if np.ndim(x) == 0 else out


def compose_path(
    hops: Sequence[Tuple[DelayDistribution, float]],
) -> Tuple[PathDelay, float]:
    """Compose ``(delay, loss)`` pairs into end-to-end ``(delay, loss)``."""
    if not hops:
        raise InvalidParameterError("a path needs at least one hop")
    survive = 1.0
    delays: List[DelayDistribution] = []
    for delay, loss in hops:
        if not 0.0 <= loss < 1.0:
            raise InvalidParameterError(
                f"per-hop loss must be in [0,1), got {loss}"
            )
        survive *= 1.0 - loss
        delays.append(delay)
    return PathDelay(delays), 1.0 - survive


def end_to_end_behavior(
    graph: nx.Graph,
    source,
    target,
) -> Tuple[PathDelay, float, list]:
    """End-to-end ``(delay, loss, path)`` along the best route.

    Routes by the smallest total *mean* delay (the conventional routing
    metric); every edge must carry ``delay`` (a
    :class:`DelayDistribution`) and ``loss`` attributes.

    The input graph is read-only: routing weights are computed into a
    local dict, never written back as edge attributes (which would
    silently clobber a caller's pre-existing attribute of that name).

    Returns the composite :class:`PathDelay`, the end-to-end loss
    probability, and the node path used.
    """
    weights = {}
    for u, v, data in graph.edges(data=True):
        if "delay" not in data or "loss" not in data:
            raise InvalidParameterError(
                f"edge ({u!r}, {v!r}) missing 'delay'/'loss' attributes"
            )
        mean = data["delay"].mean
        weights[(u, v)] = mean
        if not graph.is_directed():
            weights[(v, u)] = mean
    path = nx.shortest_path(
        graph, source, target, weight=lambda u, v, d: weights[(u, v)]
    )
    if len(path) < 2:
        raise InvalidParameterError("source and target coincide")
    hops = [
        (graph.edges[u, v]["delay"], graph.edges[u, v]["loss"])
        for u, v in zip(path[:-1], path[1:])
    ]
    delay, loss = compose_path(hops)
    return delay, loss, path
