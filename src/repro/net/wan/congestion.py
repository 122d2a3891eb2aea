"""Correlated cross-link delay shocks from shared latent congestion.

Real WAN paths do not fail independently: two links that transit the
same backbone segment slow down *together* when that segment congests.
This module models exactly that: each :class:`~repro.net.wan.topology.
CongestionSpec` becomes one :class:`CongestionProcess` — an on/off
renewal process of congestion episodes, pre-sampled for the whole run
horizon from the dedicated ``STREAM_WAN_CONGESTION`` stream — and every
link loading on the spec reads the *same* process.  While an episode is
active, affected hop delays are multiplied by the spec's factor, so the
delay shocks are perfectly correlated across those links while the base
per-hop delay draws stay independent.

Pre-sampling the episodes (rather than stepping a Markov chain at
transmit time) keeps the run deterministic under any message
interleaving: the congestion state at time ``t`` is pure data, however
many links query it and in whatever order.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.net.wan.topology import CongestionSpec, WanTopology

__all__ = ["CongestionProcess", "CongestionField"]


class CongestionProcess:
    """Episodes of one latent congestion factor over ``[0, horizon]``.

    Gaps between episode starts are ``Exp(1/rate)``; episode durations
    are ``Exp(mean_duration)``.  Episodes may overlap their successor
    (heavy congestion); ``factor_at`` reports the spec factor while any
    episode covers ``t`` (shocks do not compound with themselves).
    """

    def __init__(
        self,
        spec: CongestionSpec,
        rng: np.random.Generator,
        horizon: float,
    ) -> None:
        if horizon <= 0 or not np.isfinite(horizon):
            raise InvalidParameterError(
                f"congestion needs a finite positive horizon, got {horizon}"
            )
        self._spec = spec
        episodes: List[Tuple[float, float]] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / spec.rate))
            if t >= horizon:
                break
            episodes.append(
                (t, t + float(rng.exponential(spec.mean_duration)))
            )
        self._starts = [s for s, _ in episodes]
        self._episodes = episodes
        # Running maximum of episode ends: an earlier episode may outlast
        # a later one, so "any episode covers t" needs the prefix max.
        self._max_end: List[float] = []
        running = -np.inf
        for _, end in episodes:
            running = max(running, end)
            self._max_end.append(running)

    @property
    def spec(self) -> CongestionSpec:
        return self._spec

    @property
    def episodes(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(self._episodes)

    def congested(self, t: float) -> bool:
        """Whether any episode covers time ``t``."""
        i = bisect.bisect_right(self._starts, t)
        return i > 0 and self._max_end[i - 1] > t

    def factor_at(self, t: float) -> float:
        return self._spec.factor if self.congested(t) else 1.0


class CongestionField:
    """All of a topology's congestion processes, instantiated for one run.

    The draw order is the topology's declaration order, so one seeded
    generator reproduces the whole field bit-identically.
    """

    def __init__(
        self,
        topology: WanTopology,
        rng: np.random.Generator,
        horizon: float,
    ) -> None:
        self._processes = [
            CongestionProcess(spec, rng, horizon)
            for spec in topology.congestions
        ]
        # Link key -> indices of the processes loading on it.
        self._by_link = {
            spec.key: topology.congestion_indices(spec.key)
            for spec in topology.links
        }

    def factor(self, key: Tuple[str, str], t: float) -> float:
        """Combined delay factor on link ``key`` at time ``t``.

        Distinct specs loading on the same link compound
        multiplicatively (independent shocks stack); a single spec never
        compounds with itself.
        """
        out = 1.0
        for i in self._by_link.get(key, ()):
            out *= self._processes[i].factor_at(t)
        return out
