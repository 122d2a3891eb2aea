"""Analytic Theorem 5 cross-check for WAN routes.

The reduction is: a multi-hop route composes to a single ``(delay,
loss)`` pair by :func:`repro.net.topology.compose_path` additivity, and
that pair drops straight into the paper's NFD-S analysis —
:class:`~repro.analysis.nfds_theory.NFDSAnalysis` neither knows nor
cares that the "link" is three hops of WAN.  :func:`predict_route` does
the reduction, and
:func:`repro.analysis.nfds_theory.within_theorem5_band` gates pooled
simulation estimates against its ``prediction``;
:func:`prediction_errors` quantifies the *relay distortion* — how
far the hop-by-hop forwarding reality drifts from the composed
single-link idealisation (the two differ only through scheduled
partitions, congestion shocks and burstiness; fault-free they must
agree within Monte-Carlo noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.analysis.nfds_theory import NFDSAnalysis, QoSPrediction
from repro.errors import InvalidParameterError
from repro.net.topology import PathDelay
from repro.net.wan.topology import WanTopology

__all__ = [
    "WanPathPrediction",
    "predict_route",
    "detection_within_bound",
    "prediction_errors",
]


@dataclass(frozen=True)
class WanPathPrediction:
    """The Theorem 5 prediction for one WAN route.

    Attributes:
        source / target: the monitored pair of sites.
        path: the fault-free shortest route the composition reduced.
        delay: the composed end-to-end delay (exact additive moments,
            Monte-Carlo CDF).
        loss: the composed end-to-end loss ``1 − Π(1 − p_i)``.
        eta / delta: the NFD-S parameters the prediction assumes.
        prediction: the closed-form QoS of NFD-S over the composite.
    """

    source: str
    target: str
    path: Tuple[str, ...]
    delay: PathDelay
    loss: float
    eta: float
    delta: float
    prediction: QoSPrediction

    @property
    def detection_time_bound(self) -> float:
        """Theorem 5's worst-case detection time ``T_D = δ + η``."""
        return self.prediction.detection_time_bound


def predict_route(
    topology: WanTopology,
    source: str,
    target: str,
    eta: float,
    delta: float,
    down: frozenset = frozenset(),
) -> WanPathPrediction:
    """Reduce a WAN route to the paper's link model and run Theorem 5.

    ``down`` lets callers price a degraded topology: the prediction for
    "link X is partitioned" is the composition along the best *detour*.
    """
    delay, loss, path = topology.compose_route(source, target, down=down)
    prediction = NFDSAnalysis(
        eta=eta, delta=delta, loss_probability=loss, delay=delay
    ).predict()
    return WanPathPrediction(
        source=source,
        target=target,
        path=tuple(path),
        delay=delay,
        loss=loss,
        eta=eta,
        delta=delta,
        prediction=prediction,
    )


def detection_within_bound(
    prediction: WanPathPrediction,
    detection_times: Sequence[float],
) -> bool:
    """Whether every observed crash-detection time respects ``δ + η``.

    Theorem 5's ``T_D`` is a *sure* bound for NFD-S, so a single finite
    violation (or an undetected crash, encoded as ``inf``/``nan``)
    fails the gate.  The bound has a slack of 1e-9 for rounding.
    """
    bound = prediction.detection_time_bound + 1e-9
    times = np.asarray(list(detection_times), dtype=float)
    if times.size == 0:
        raise InvalidParameterError(
            "detection_within_bound needs at least one detection time"
        )
    if not np.all(np.isfinite(times)):
        return False
    return bool(np.all(times <= bound))


def prediction_errors(
    prediction: WanPathPrediction,
    tmr_samples: Sequence[float],
    tm_samples: Sequence[float],
) -> Dict[str, float]:
    """Signed relative errors of observation vs. prediction.

    ``(observed − predicted) / predicted`` for ``E(T_MR)``/``E(T_M)``,
    and the plain difference for ``P_A`` (already a probability).  Under
    scripted partitions/congestion these quantify the relay distortion;
    fault-free they sit within Monte-Carlo noise of zero.
    """
    p = prediction.prediction
    tmr = np.asarray(list(tmr_samples), dtype=float)
    tm = np.asarray(list(tm_samples), dtype=float)
    if tmr.size == 0 or tm.size == 0:
        raise InvalidParameterError(
            "prediction_errors needs non-empty T_MR and T_M samples"
        )
    obs_tmr = float(tmr.mean())
    obs_tm = float(tm.mean())
    obs_pa = 1.0 - obs_tm / obs_tmr if obs_tmr > 0 else math.nan
    return {
        "e_tmr": (obs_tmr - p.e_tmr) / p.e_tmr,
        "e_tm": (obs_tm - p.e_tm) / p.e_tm,
        "query_accuracy": obs_pa - p.query_accuracy,
    }
