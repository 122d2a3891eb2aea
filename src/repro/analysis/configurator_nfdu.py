"""Section 6: configuring NFD-U / NFD-E (unsynchronized clocks).

Without synchronized clocks the absolute detection bound becomes relative
to the (unknown) average delay: the contract is

    ``T_D ≤ T_D^u + E(D)``,  ``E(T_MR) ≥ T_MR^L``,  ``E(T_M) ≤ T_M^U``

(paper eq. 6.1) — no nontrivial detector using one-way messages can
enforce an *absolute* bound when clocks are unsynchronized.  The
procedure mirrors Section 5's with the effective shift ``T_D^u``
replacing ``T_D^U − E(D)``; remarkably, ``E(D)`` itself is never needed
(Theorem 11 uses only ``p_L`` and ``V(D)``):

* Step 1: ``γ' = (1−p_L)·(T_D^u)² / (V(D) + (T_D^u)²)``;
  ``η_max = min(γ'·T_M^U, T_D^u)``.
* Step 2: largest ``η ≤ η_max`` with
  ``f(η) = η·Π_{j=1}^{⌈T_D^u/η⌉−1} [V+(T_D^u−jη)²]/[V+p_L(T_D^u−jη)²]
  ≥ T_MR^L``.
* Step 3: ``α = T_D^u − η``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.search import _cantelli_eta
from repro.errors import InvalidParameterError
from repro.metrics.qos import QoSRequirements

__all__ = ["NFDUConfig", "configure_nfdu"]


@dataclass(frozen=True)
class NFDUConfig:
    """Output of the Section 6 configuration procedure."""

    eta: float
    alpha: float
    eta_max: float
    relative_detection_bound: float  # T_D^u; actual bound is T_D^u + E(D)
    requirements: QoSRequirements


def configure_nfdu(
    relative_detection_bound: float,
    mistake_recurrence_lower: float,
    mistake_duration_upper: float,
    loss_probability: float,
    var_delay: float,
) -> NFDUConfig:
    """The Section 6 configuration procedure for NFD-U/NFD-E.

    Args:
        relative_detection_bound: ``T_D^u`` — the detection bound *minus*
            the unknown average delay; the achieved guarantee is
            ``T_D ≤ T_D^u + E(D)``.
        mistake_recurrence_lower: ``T_MR^L``.
        mistake_duration_upper: ``T_M^U``.
        loss_probability: ``p_L``.
        var_delay: ``V(D)`` — note ``E(D)`` is *not* required.

    Raises:
        QoSUnachievableError: when ``η_max = 0`` (Theorem 12 case 2).
    """
    if relative_detection_bound <= 0:
        raise InvalidParameterError(
            f"T_D^u must be positive, got {relative_detection_bound}"
        )
    if not 0.0 <= loss_probability < 1.0:
        raise InvalidParameterError(
            f"loss_probability must be in [0,1), got {loss_probability}"
        )
    if var_delay < 0:
        raise InvalidParameterError(f"var_delay must be >= 0, got {var_delay}")
    t_d_u = float(relative_detection_bound)
    t_mr_l = float(mistake_recurrence_lower)
    t_m_u = float(mistake_duration_upper)
    if t_mr_l <= 0 or t_m_u <= 0:
        raise InvalidParameterError("T_MR^L and T_M^U must be positive")

    eta, eta_max = _cantelli_eta(
        t_d_u, loss_probability, var_delay, t_mr_l, t_m_u
    )

    # Step 3
    alpha = t_d_u - eta
    # The requirements tuple records the *relative* contract; detection
    # bound stored as T_D^u (callers add E(D) when it becomes known).
    requirements = QoSRequirements(
        detection_time_upper=t_d_u,
        mistake_recurrence_lower=t_mr_l,
        mistake_duration_upper=t_m_u,
    )
    return NFDUConfig(
        eta=eta,
        alpha=alpha,
        eta_max=eta_max,
        relative_detection_bound=t_d_u,
        requirements=requirements,
    )
