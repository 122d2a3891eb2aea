"""Named network workload profiles.

The paper's evaluation uses a single profile (exponential 20 ms delays,
1% loss).  Downstream users want to ask "what would my contract cost on
*my* network?" — these profiles give the ablations and examples a
shared, citable vocabulary of link behaviours.

Each profile bundles a delay distribution and a loss probability, plus
the paper-normalized version of the Section 7 settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.net.delays import (
    DelayDistribution,
    ExponentialDelay,
    LogNormalDelay,
    MixtureDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
    UniformDelay,
)

__all__ = ["NetworkProfile", "PROFILES"]


@dataclass(frozen=True)
class NetworkProfile:
    """A link behaviour: delay law + loss probability + provenance note."""

    name: str
    delay: DelayDistribution
    loss_probability: float
    note: str

    @property
    def mean_delay(self) -> float:
        return self.delay.mean

    @property
    def var_delay(self) -> float:
        return self.delay.variance


def _build_profiles() -> Dict[str, NetworkProfile]:
    profiles = [
        NetworkProfile(
            name="paper-section7",
            delay=ExponentialDelay(0.02),
            loss_probability=0.01,
            note=(
                "the paper's simulation settings: exponential delays, "
                "mean 20 ms, 1% loss (Internet-ish, heartbeats in seconds)"
            ),
        ),
        NetworkProfile(
            name="lan",
            delay=ShiftedExponentialDelay(shift=0.0002, scale=0.0003),
            loss_probability=0.0001,
            note="switched LAN: ~0.5 ms typical, hard 0.2 ms floor, rare loss",
        ),
        NetworkProfile(
            name="wan",
            delay=ShiftedExponentialDelay(shift=0.03, scale=0.02),
            loss_probability=0.005,
            note="continental WAN: 30 ms propagation floor + queueing tail",
        ),
        NetworkProfile(
            name="intercontinental",
            delay=LogNormalDelay.from_mean_std(0.15, 0.05),
            loss_probability=0.01,
            note="long-haul path: 150 ms mean, log-normal jitter",
        ),
        NetworkProfile(
            name="congested",
            delay=ParetoDelay.from_mean_std(0.08, 0.12),
            loss_probability=0.03,
            note="bufferbloated/congested link: heavy Pareto tail, 3% loss",
        ),
        NetworkProfile(
            name="bursty",
            delay=MixtureDelay(
                [ExponentialDelay(0.02), ExponentialDelay(0.5)],
                [0.95, 0.05],
            ),
            loss_probability=0.02,
            note=(
                "i.i.d. bursts (Section 8.1.2's tractable case): 95% fast "
                "path, 5% burst-delayed"
            ),
        ),
        NetworkProfile(
            name="satellite",
            delay=UniformDelay(0.24, 0.32),
            loss_probability=0.02,
            note="GEO satellite hop: ~280 ms, tight jitter band, 2% loss",
        ),
    ]
    return {p.name: p for p in profiles}


PROFILES: Dict[str, NetworkProfile] = _build_profiles()
