"""Confidence intervals for estimated QoS metrics.

The paper's Fig. 12 plots point estimates over 500 mistake-recurrence
intervals; for a faithful *comparison* we additionally report confidence
intervals so that "NFD beats SFD by an order of magnitude" is a statistical
statement rather than an eyeball one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["ConfidenceInterval", "mean_ci"]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval around a point estimate."""

    point: float
    low: float
    high: float
    level: float

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2.0

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.point:.6g} "
            f"[{self.low:.6g}, {self.high:.6g}] @ {self.level:.0%}"
        )


def mean_ci(samples: np.ndarray, level: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval for the mean of i.i.d. samples.

    ``T_MR`` intervals of NFD-S are i.i.d. (Lemma 17: the S-transition
    process is a delayed renewal process), so the t interval is the right
    tool for ``E(T_MR)`` despite the heavy tail.
    """
    if not 0 < level < 1:
        raise InvalidParameterError(f"level must be in (0,1), got {level}")
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise InvalidParameterError("need at least one sample")
    point = float(arr.mean())
    if arr.size == 1:
        return ConfidenceInterval(point, -math.inf, math.inf, level)
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    if sem == 0.0:
        return ConfidenceInterval(point, point, point, level)
    from scipy import stats  # on first use: repro.live loads no SciPy

    t = float(stats.t.ppf(0.5 + level / 2.0, df=arr.size - 1))
    return ConfidenceInterval(point, point - t * sem, point + t * sem, level)
