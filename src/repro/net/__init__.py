"""Probabilistic network substrate.

This package models the paper's network assumptions (Section 3.1): a link
between the monitored process *p* and the monitoring process *q* that may
*drop* each message independently with probability ``p_L`` and *delays* each
delivered message by an i.i.d. random variable ``D`` with finite mean and
variance.  It also provides the local-clock models used by the NFD-S
(synchronized), NFD-U and NFD-E (unsynchronized, drift-free) algorithms.
"""

from repro.net.clocks import (
    Clock,
    DriftingClock,
    FaultableClock,
    PerfectClock,
    SkewedClock,
)
from repro.net.delays import (
    ConstantDelay,
    DelayDistribution,
    EmpiricalDelay,
    ExponentialDelay,
    GammaDelay,
    LogNormalDelay,
    MixtureDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
    UniformDelay,
)
from repro.net.link import LinkStats, LossyLink, MessageRecord
from repro.net.topology import PathDelay, compose_path, end_to_end_behavior

__all__ = [
    "Clock",
    "PerfectClock",
    "SkewedClock",
    "DriftingClock",
    "FaultableClock",
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
    "LossyLink",
    "LinkStats",
    "MessageRecord",
    "PathDelay",
    "compose_path",
    "end_to_end_behavior",
]
