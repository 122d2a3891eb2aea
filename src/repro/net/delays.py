"""Message-delay distributions.

The paper's network model (Section 3.1) characterizes the link by a loss
probability ``p_L`` and a delay random variable ``D`` with range ``(0, ∞)``
and finite mean and variance.  The model deliberately does *not* fix a
distribution family; the analysis of Theorem 5 only needs ``P(D > x)``.

This module provides the distribution families used across the evaluation
and ablations.  Every family implements :class:`DelayDistribution`:

* ``cdf(x)``/``sf(x)`` — ``P(D ≤ x)`` and ``P(D > x)``, vectorized;
* ``prob_less(x)`` — ``P(D < x)``, which differs from ``cdf`` only for
  distributions with atoms (needed for the paper's ``q_0``);
* ``mean``/``variance`` — the moments used by the Section 5/6 configurators;
* ``sample(rng, size)`` — i.i.d. samples for simulation;
* ``draw(rng)`` — one sample, equal to ``sample(rng, 1)[0]`` and
  consuming the same randomness (the link's per-message draw).

The Section 7 simulation study uses :class:`ExponentialDelay` with mean
0.02; the distribution-sensitivity ablation (E9 in DESIGN.md) exercises the
other families at matched mean and variance.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.errors import InvalidParameterError

__all__ = [
    "DelayDistribution",
    "ExponentialDelay",
    "ShiftedExponentialDelay",
    "UniformDelay",
    "ConstantDelay",
    "GammaDelay",
    "LogNormalDelay",
    "ParetoDelay",
    "MixtureDelay",
    "EmpiricalDelay",
]

ArrayLike = Union[float, np.ndarray]


def _as_array(x: ArrayLike) -> np.ndarray:
    return np.asarray(x, dtype=float)


class DelayDistribution(ABC):
    """A distribution of message delays on ``(0, ∞)``.

    Subclasses must have finite mean and variance, matching the paper's
    standing assumption that ``E(D)`` and ``V(D)`` exist.
    """

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expected delay ``E(D)``."""

    @property
    @abstractmethod
    def variance(self) -> float:
        """Delay variance ``V(D)``."""

    @property
    def std(self) -> float:
        """Standard deviation ``σ(D)``."""
        return math.sqrt(self.variance)

    @abstractmethod
    def cdf(self, x: ArrayLike) -> ArrayLike:
        """``P(D ≤ x)``; accepts scalars or arrays."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. delays.

        Returns a fresh float array the caller may overwrite: it shares
        no memory with the distribution, so writing into it (as
        :mod:`repro.sim.fastsim` does) cannot change a later draw.
        """

    def draw(self, rng: np.random.Generator) -> float:
        """One delay: ``sample(rng, 1)[0]`` as a float.

        An override must return the same value and leave ``rng`` in the
        same state (``tests/net/test_delays.py`` checks every family).
        """
        return float(self.sample(rng, 1)[0])

    def __init_subclass__(cls, **kwargs) -> None:
        # A subclass that redefines ``sample`` but not ``draw`` would
        # inherit a shortcut that skips its ``sample``: give it this one.
        super().__init_subclass__(**kwargs)
        if "sample" in vars(cls) and "draw" not in vars(cls):
            cls.draw = DelayDistribution.draw

    def sf(self, x: ArrayLike) -> ArrayLike:
        """Survival function ``P(D > x)``."""
        return 1.0 - self.cdf(x)

    def atom(self, x: ArrayLike) -> ArrayLike:
        """``P(D = x)`` — nonzero only for distributions with point masses."""
        return np.zeros_like(_as_array(x)) if np.ndim(x) else 0.0

    def prob_less(self, x: ArrayLike) -> ArrayLike:
        """``P(D < x)`` (strict).  Equals ``cdf`` for continuous laws."""
        return self.cdf(x) - self.atom(x)

    def kinks(self) -> Tuple[float, ...]:
        """Points where the CDF is non-smooth (atoms / support edges).

        Used by the quadrature in :mod:`repro.analysis` to split the
        integration interval of ``∫ u(x) dx`` so that adaptive quadrature
        does not silently step over a discontinuity.
        """
        return ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(mean={self.mean:.6g}, "
            f"variance={self.variance:.6g})"
        )


class ExponentialDelay(DelayDistribution):
    """Exponential delays, ``P(D ≤ x) = 1 - exp(-x / mean)``.

    This is the distribution used throughout the paper's Section 7
    simulations (mean 0.02 time units): most messages are fast, a small
    fraction is much slower — typical of Internet paths.
    """

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise InvalidParameterError(f"mean must be positive, got {mean}")
        self._mean = float(mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._mean**2

    def cdf(self, x: ArrayLike) -> ArrayLike:
        xa = _as_array(x)
        out = -np.expm1(-np.maximum(xa, 0.0) / self._mean)
        return float(out) if np.ndim(x) == 0 else out

    def sf(self, x: ArrayLike) -> ArrayLike:
        xa = _as_array(x)
        out = np.where(xa <= 0.0, 1.0, np.exp(-np.maximum(xa, 0.0) / self._mean))
        return float(out) if np.ndim(x) == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(self._mean, size)

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self._mean))


class ShiftedExponentialDelay(DelayDistribution):
    """A minimum propagation delay plus an exponential queueing tail.

    ``D = shift + Exp(scale)``.  Models links with a hard lower bound on
    latency (speed-of-light / transmission delay) — a common refinement of
    the plain exponential model.
    """

    def __init__(self, shift: float, scale: float) -> None:
        if shift < 0:
            raise InvalidParameterError(f"shift must be >= 0, got {shift}")
        if scale <= 0:
            raise InvalidParameterError(f"scale must be positive, got {scale}")
        self._shift = float(shift)
        self._scale = float(scale)

    @property
    def shift(self) -> float:
        return self._shift

    @property
    def mean(self) -> float:
        return self._shift + self._scale

    @property
    def variance(self) -> float:
        return self._scale**2

    def cdf(self, x: ArrayLike) -> ArrayLike:
        xa = _as_array(x)
        out = -np.expm1(-np.maximum(xa - self._shift, 0.0) / self._scale)
        return float(out) if np.ndim(x) == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._shift + rng.exponential(self._scale, size)

    def draw(self, rng: np.random.Generator) -> float:
        return self._shift + float(rng.exponential(self._scale))

    def kinks(self) -> Tuple[float, ...]:
        return (self._shift,)


class UniformDelay(DelayDistribution):
    """Delays uniform on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low < high:
            raise InvalidParameterError(
                f"need 0 <= low < high, got low={low}, high={high}"
            )
        self._low = float(low)
        self._high = float(high)

    @property
    def mean(self) -> float:
        return 0.5 * (self._low + self._high)

    @property
    def variance(self) -> float:
        return (self._high - self._low) ** 2 / 12.0

    def cdf(self, x: ArrayLike) -> ArrayLike:
        xa = _as_array(x)
        out = np.clip((xa - self._low) / (self._high - self._low), 0.0, 1.0)
        return float(out) if np.ndim(x) == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self._low, self._high, size)

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self._low, self._high))

    def kinks(self) -> Tuple[float, ...]:
        return (self._low, self._high)

    @classmethod
    def from_mean_std(cls, mean: float, std: float) -> "UniformDelay":
        """Build the uniform distribution with the given mean and std."""
        half_width = std * math.sqrt(3.0)
        low = mean - half_width
        if low < 0:
            raise InvalidParameterError(
                f"mean={mean}, std={std} would need negative support"
            )
        return cls(low, mean + half_width)


class ConstantDelay(DelayDistribution):
    """Degenerate distribution: every message takes exactly ``value``.

    Useful for deterministic unit tests — with constant delays the behavior
    of every detector in this library is exactly predictable.
    """

    def __init__(self, value: float) -> None:
        if value <= 0:
            raise InvalidParameterError(f"value must be positive, got {value}")
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    @property
    def mean(self) -> float:
        return self._value

    @property
    def variance(self) -> float:
        return 0.0

    def cdf(self, x: ArrayLike) -> ArrayLike:
        xa = _as_array(x)
        out = np.where(xa >= self._value, 1.0, 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def atom(self, x: ArrayLike) -> ArrayLike:
        xa = _as_array(x)
        out = np.where(xa == self._value, 1.0, 0.0)
        return float(out) if np.ndim(x) == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self._value)

    def kinks(self) -> Tuple[float, ...]:
        return (self._value,)


class GammaDelay(DelayDistribution):
    """Gamma-distributed delays with the given ``shape`` and ``scale``."""

    def __init__(self, shape: float, scale: float) -> None:
        if shape <= 0 or scale <= 0:
            raise InvalidParameterError(
                f"shape and scale must be positive, got {shape}, {scale}"
            )
        self._shape = float(shape)
        self._scale = float(scale)

    @property
    def mean(self) -> float:
        return self._shape * self._scale

    @property
    def variance(self) -> float:
        return self._shape * self._scale**2

    def cdf(self, x: ArrayLike) -> ArrayLike:
        from scipy.special import gammainc

        xa = _as_array(x)
        out = gammainc(self._shape, np.maximum(xa, 0.0) / self._scale)
        return float(out) if np.ndim(x) == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(self._shape, self._scale, size)

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.gamma(self._shape, self._scale))

    @classmethod
    def from_mean_std(cls, mean: float, std: float) -> "GammaDelay":
        shape = (mean / std) ** 2
        scale = std**2 / mean
        return cls(shape, scale)


class LogNormalDelay(DelayDistribution):
    """Log-normal delays — a heavy-ish tail often observed on WAN paths."""

    def __init__(self, mu: float, sigma: float) -> None:
        if sigma <= 0:
            raise InvalidParameterError(f"sigma must be positive, got {sigma}")
        self._mu = float(mu)
        self._sigma = float(sigma)

    @property
    def mean(self) -> float:
        return math.exp(self._mu + self._sigma**2 / 2.0)

    @property
    def variance(self) -> float:
        s2 = self._sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self._mu + s2)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        from scipy.special import ndtr

        xa = _as_array(x)
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(xa, 1e-300)) - self._mu) / self._sigma
        out = np.where(xa <= 0.0, 0.0, ndtr(z))
        return float(out) if np.ndim(x) == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.lognormal(self._mu, self._sigma, size)

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self._mu, self._sigma))

    @classmethod
    def from_mean_std(cls, mean: float, std: float) -> "LogNormalDelay":
        if mean <= 0 or std <= 0:
            raise InvalidParameterError("mean and std must be positive")
        s2 = math.log(1.0 + (std / mean) ** 2)
        mu = math.log(mean) - s2 / 2.0
        return cls(mu, math.sqrt(s2))


class ParetoDelay(DelayDistribution):
    """Pareto (power-law) delays: ``P(D > x) = (xm/x)^alpha`` for ``x ≥ xm``.

    ``alpha`` must exceed 2 so that the variance is finite (the paper's
    standing assumption).
    """

    def __init__(self, alpha: float, xm: float) -> None:
        if alpha <= 2:
            raise InvalidParameterError(
                f"alpha must be > 2 for finite variance, got {alpha}"
            )
        if xm <= 0:
            raise InvalidParameterError(f"xm must be positive, got {xm}")
        self._alpha = float(alpha)
        self._xm = float(xm)

    @property
    def mean(self) -> float:
        return self._alpha * self._xm / (self._alpha - 1.0)

    @property
    def variance(self) -> float:
        a, m = self._alpha, self._xm
        return m**2 * a / ((a - 1.0) ** 2 * (a - 2.0))

    def cdf(self, x: ArrayLike) -> ArrayLike:
        xa = _as_array(x)
        with np.errstate(divide="ignore"):
            out = np.where(
                xa < self._xm,
                0.0,
                1.0 - (self._xm / np.maximum(xa, self._xm)) ** self._alpha,
            )
        return float(out) if np.ndim(x) == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        return self._xm / (1.0 - u) ** (1.0 / self._alpha)

    def kinks(self) -> Tuple[float, ...]:
        return (self._xm,)

    @classmethod
    def from_mean_std(cls, mean: float, std: float) -> "ParetoDelay":
        """Solve for ``(alpha, xm)`` matching the given mean and std."""
        # variance/mean^2 = 1 / (alpha * (alpha - 2))
        ratio = (std / mean) ** 2
        # alpha^2 - 2 alpha - 1/ratio = 0  =>  alpha = 1 + sqrt(1 + 1/ratio)
        alpha = 1.0 + math.sqrt(1.0 + 1.0 / ratio)
        xm = mean * (alpha - 1.0) / alpha
        return cls(alpha, xm)


class MixtureDelay(DelayDistribution):
    """Finite mixture of delay distributions.

    Models bimodal paths — e.g. a fast direct route taken with probability
    0.95 and a slow fail-over route otherwise — and the "bursty traffic"
    regime of Section 8.1.2 where bursts are i.i.d. per message.
    """

    def __init__(
        self,
        components: Sequence[DelayDistribution],
        weights: Sequence[float],
    ) -> None:
        if len(components) == 0:
            raise InvalidParameterError("mixture needs at least one component")
        if len(components) != len(weights):
            raise InvalidParameterError(
                "components and weights must have the same length"
            )
        w = np.asarray(weights, dtype=float)
        if np.any(w < 0) or not math.isclose(float(w.sum()), 1.0, rel_tol=1e-9):
            raise InvalidParameterError("weights must be >= 0 and sum to 1")
        self._components: List[DelayDistribution] = list(components)
        self._weights = w

    @property
    def components(self) -> Tuple[DelayDistribution, ...]:
        return tuple(self._components)

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    @property
    def mean(self) -> float:
        return float(
            sum(w * c.mean for w, c in zip(self._weights, self._components))
        )

    @property
    def variance(self) -> float:
        # law of total variance
        m = self.mean
        second = sum(
            w * (c.variance + c.mean**2)
            for w, c in zip(self._weights, self._components)
        )
        return float(second - m**2)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        xa = _as_array(x)
        out = np.zeros_like(xa)
        for w, c in zip(self._weights, self._components):
            out = out + w * np.asarray(c.cdf(xa))
        return float(out) if np.ndim(x) == 0 else out

    def atom(self, x: ArrayLike) -> ArrayLike:
        xa = _as_array(x)
        out = np.zeros_like(xa)
        for w, c in zip(self._weights, self._components):
            out = out + w * np.asarray(c.atom(xa))
        return float(out) if np.ndim(x) == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        choice = rng.choice(len(self._components), size=size, p=self._weights)
        out = np.empty(size, dtype=float)
        for idx, comp in enumerate(self._components):
            mask = choice == idx
            n = int(mask.sum())
            if n:
                out[mask] = comp.sample(rng, n)
        return out

    def kinks(self) -> Tuple[float, ...]:
        pts: List[float] = []
        for c in self._components:
            pts.extend(c.kinks())
        return tuple(sorted(set(pts)))


class EmpiricalDelay(DelayDistribution):
    """Distribution defined by observed delay samples (a delay *trace*).

    This is the bridge for users who have measured real one-way delays and
    want to run the analysis / configurators on their own data: the CDF is
    the empirical CDF, sampling is bootstrap resampling.
    """

    def __init__(self, samples: Sequence[float]) -> None:
        arr = np.asarray(samples, dtype=float)
        if arr.size == 0:
            raise InvalidParameterError("need at least one sample")
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
            raise InvalidParameterError("samples must be positive and finite")
        self._sorted = np.sort(arr)

    @property
    def n_samples(self) -> int:
        return int(self._sorted.size)

    @property
    def mean(self) -> float:
        return float(self._sorted.mean())

    @property
    def variance(self) -> float:
        if self._sorted.size == 1:
            return 0.0
        return float(self._sorted.var(ddof=1))

    def cdf(self, x: ArrayLike) -> ArrayLike:
        xa = _as_array(x)
        out = np.searchsorted(self._sorted, xa, side="right") / self._sorted.size
        return float(out) if np.ndim(x) == 0 else out

    def atom(self, x: ArrayLike) -> ArrayLike:
        xa = _as_array(x)
        right = np.searchsorted(self._sorted, xa, side="right")
        left = np.searchsorted(self._sorted, xa, side="left")
        out = (right - left) / self._sorted.size
        return float(out) if np.ndim(x) == 0 else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(self._sorted, size=size, replace=True)

    def kinks(self) -> Tuple[float, ...]:
        # Cap the number of split points so quadrature stays tractable for
        # very large traces; the extremes and deciles capture the shape.
        if self._sorted.size <= 64:
            return tuple(np.unique(self._sorted))
        qs = np.quantile(self._sorted, np.linspace(0.0, 1.0, 65))
        return tuple(np.unique(qs))
