"""Section 5: configuring NFD-S when only ``p_L, E(D), V(D)`` are known.

When the delay *distribution* is unknown, the procedure replaces every
``P(D > t)`` in the Section 4 procedure with its Cantelli bound
(Theorem 9), so the computed ``(η, δ)`` is guaranteed for **every**
distribution with the given mean and variance:

* Step 1: ``γ' = (1−p_L)·(T_D^U−E(D))² / (V(D) + (T_D^U−E(D))²)``;
  ``η_max = min(γ'·T_M^U, T_D^U − E(D))``.  ``η_max = 0`` means no
  detector can achieve the QoS (Theorem 10 case 2).
* Step 2: find the largest ``η ≤ η_max`` with ``f(η) ≥ T_MR^L`` where

  ``f(η) = η · Π_{j=1}^{⌈(T_D^U−E(D))/η⌉−1}
          [V + (T̃−jη)²] / [V + p_L·(T̃−jη)²]``,  ``T̃ = T_D^U − E(D)``.

* Step 3: ``δ = T_D^U − η``.

The paper's worked example (same requirements as Section 4's but only
``E(D) = V(D) = 0.02`` known) yields η ≈ 9.71, δ ≈ 20.29: slightly more
bandwidth than the known-distribution case buys the same QoS without
distributional knowledge.
"""

from __future__ import annotations

from repro.analysis.configurator import NFDSConfig
from repro.analysis.search import _cantelli_eta
from repro.errors import InvalidParameterError
from repro.metrics.qos import QoSRequirements

__all__ = ["configure_nfds_unknown"]


def configure_nfds_unknown(
    requirements: QoSRequirements,
    loss_probability: float,
    mean_delay: float,
    var_delay: float,
) -> NFDSConfig:
    """The Section 5 configuration procedure (distribution-free).

    Args:
        requirements: the QoS contract ``(T_D^U, T_MR^L, T_M^U)``; needs
            ``T_D^U > E(D)`` (a detector required to detect faster than the
            average message delay would be useless anyway).
        loss_probability: ``p_L``.
        mean_delay: ``E(D)``.
        var_delay: ``V(D)``.

    Raises:
        QoSUnachievableError: when ``η_max = 0`` (Theorem 10 case 2).
    """
    if not 0.0 <= loss_probability < 1.0:
        raise InvalidParameterError(
            f"loss_probability must be in [0,1), got {loss_probability}"
        )
    if mean_delay <= 0:
        raise InvalidParameterError(
            f"mean_delay must be positive, got {mean_delay}"
        )
    if var_delay < 0:
        raise InvalidParameterError(
            f"var_delay must be >= 0, got {var_delay}"
        )
    t_d_u = requirements.detection_time_upper
    if t_d_u <= mean_delay:
        raise InvalidParameterError(
            f"the procedure assumes T_D^U > E(D); got T_D^U={t_d_u}, "
            f"E(D)={mean_delay}"
        )
    t_mr_l = requirements.mistake_recurrence_lower
    t_m_u = requirements.mistake_duration_upper

    t_tilde = t_d_u - mean_delay  # T̃ = T_D^U − E(D)
    eta, eta_max = _cantelli_eta(
        t_tilde, loss_probability, var_delay, t_mr_l, t_m_u
    )

    # Step 3
    delta = t_d_u - eta
    return NFDSConfig(
        eta=eta, delta=delta, eta_max=eta_max, requirements=requirements
    )
