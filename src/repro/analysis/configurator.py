"""Section 4: configuring NFD-S when the network behaviour is known.

Given QoS requirements ``(T_D^U, T_MR^L, T_M^U)`` and the network
behaviour ``(p_L, P(D ≤ x))``, compute parameters ``(η, δ)`` such that
NFD-S satisfies the requirements (Theorem 7), using as large an η — i.e.
as little bandwidth — as the procedure can certify:

* Step 1: ``q'_0 = (1−p_L)·P(D < T_D^U)``; ``η_max = q'_0 · T_M^U``.
  If ``η_max = 0``: *no failure detector whatsoever* can achieve the
  requirements (Theorem 7 case 2) — we raise
  :class:`~repro.errors.QoSUnachievableError`.
* Step 2: find the largest ``η ≤ η_max`` with ``f(η) ≥ T_MR^L`` where

  ``f(η) = η / (q'_0 · Π_{j=1}^{⌈T_D^U/η⌉−1} [p_L + (1−p_L)·P(D > T_D^U − jη)])``.

* Step 3: ``δ = T_D^U − η``.

The paper's worked example (T_D^U = 30 s, T_MR^L = 30 days, T_M^U = 60 s,
p_L = 0.01, exponential delays with mean 0.02 s) yields η ≈ 9.97,
δ ≈ 20.03 — reproduced in the test suite and benchmark E3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.search import largest_feasible_eta
from repro.errors import InvalidParameterError, QoSUnachievableError
from repro.metrics.qos import QoSRequirements
from repro.net.delays import DelayDistribution

__all__ = ["NFDSConfig", "configure_nfds"]


@dataclass(frozen=True)
class NFDSConfig:
    """Output of a configuration procedure for NFD-S."""

    eta: float
    delta: float
    eta_max: float
    requirements: QoSRequirements

    @property
    def detection_time_bound(self) -> float:
        return self.eta + self.delta


def configure_nfds(
    requirements: QoSRequirements,
    loss_probability: float,
    delay: DelayDistribution,
) -> NFDSConfig:
    """The Section 4 configuration procedure.

    Raises:
        QoSUnachievableError: when ``η_max = 0`` — by Theorem 7 no failure
            detector can achieve the requirements in this system.
    """
    if not 0.0 <= loss_probability < 1.0:
        raise InvalidParameterError(
            f"loss_probability must be in [0,1), got {loss_probability}"
        )
    t_d_u = requirements.detection_time_upper
    t_mr_l = requirements.mistake_recurrence_lower
    t_m_u = requirements.mistake_duration_upper

    # Step 1
    q0_prime = (1.0 - loss_probability) * float(delay.prob_less(t_d_u))
    eta_max = q0_prime * t_m_u
    if eta_max == 0.0:
        raise QoSUnachievableError(
            "q'_0 = 0: no message is ever received within T_D^U of being "
            "sent, so no failure detector can satisfy the requirements"
        )
    # η may not exceed T_D^U (δ = T_D^U − η must be >= 0).
    eta_max = min(eta_max, t_d_u)

    # Step 2 — log-space f to survive products of hundreds of factors.
    # The product over j is evaluated in one vectorized CDF call: the
    # bisection re-evaluates f dozens of times, and for tight requirements
    # n_terms runs into the hundreds.
    def log_f(eta: float) -> float:
        n_terms = int(math.ceil(t_d_u / eta - 1e-12)) - 1
        log_prod = 0.0
        if n_terms > 0:
            j = np.arange(1, n_terms + 1)
            sf = np.asarray(delay.sf(t_d_u - j * eta), dtype=float)
            terms = loss_probability + (1.0 - loss_probability) * sf
            if np.any(terms == 0.0):
                return math.inf  # perfect accuracy: every mistake impossible
            log_prod = float(np.sum(np.log(terms)))
        return math.log(eta) - math.log(q0_prime) - log_prod

    eta = largest_feasible_eta(log_f, eta_max, t_mr_l)

    # Step 3
    delta = t_d_u - eta
    return NFDSConfig(
        eta=eta, delta=delta, eta_max=eta_max, requirements=requirements
    )
