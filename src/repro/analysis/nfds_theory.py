"""Exact QoS analysis of NFD-S (Proposition 3 and Theorem 5).

Given the algorithm parameters ``(η, δ)`` and the network behaviour
``(p_L, D)``, the paper derives in closed form:

* ``k = ⌈δ/η⌉`` — the number of heartbeats beyond ``m_i`` that can still
  be "fresh" for window ``i``;
* ``p_j(x) = p_L + (1−p_L)·P(D > δ + x − jη)`` — probability that
  ``m_{i+j}`` has *not* been received by time ``τ_i + x``;
* ``q_0 = (1−p_L)·P(D < δ + η)`` — probability that ``m_{i-1}`` arrives
  before ``τ_i``;
* ``u(x) = Π_{j=0}^{k} p_j(x)`` — probability that q suspects p at
  ``τ_i + x``, for ``x ∈ [0, η)``;
* ``p_s = q_0 · u(0)`` — probability that an S-transition occurs at a
  given freshness point;

and then (Theorem 5):

* ``T_D ≤ δ + η`` (tight, deterministic);
* ``E(T_MR) = η / p_s``;
* ``E(T_M) = ∫₀^η u(x) dx / p_s``;
* hence ``P_A = 1 − (1/η)·∫₀^η u(x) dx`` (Lemma 15).

NFD-U with slack ``α`` has the same QoS with ``δ := E(D) + α``
(Section 6.2), provided by :func:`nfdu_analysis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.errors import InvalidParameterError
from repro.metrics.confidence import mean_ci
from repro.metrics.relations import forward_good_period_mean
from repro.net.delays import DelayDistribution

__all__ = [
    "QoSPrediction",
    "within_theorem5_band",
    "NFDSAnalysis",
    "nfdu_analysis",
]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class QoSPrediction:
    """The full analytic QoS of an NFD configuration.

    ``e_tmr`` and ``e_tm`` are the primary accuracy metrics of Theorem 5;
    the remaining fields follow via Theorem 1.  ``e_tfg`` is reported as
    the lower bound ``E(T_G)/2`` because Theorem 5 does not provide
    ``V(T_G)`` in closed form (the empirical estimators do).
    """

    detection_time_bound: float
    e_tmr: float
    e_tm: float
    query_accuracy: float
    mistake_rate: float
    e_tg: float
    e_tfg_lower: float
    p_s: float
    q_0: float
    u_0: float
    k: int


def within_theorem5_band(
    prediction: QoSPrediction,
    tmr_samples: Sequence[float],
    tm_samples: Sequence[float],
    level: float,
) -> bool:
    """Whether pooled simulation estimates are statistically consistent
    with the closed-form prediction.

    ``E(T_MR)``/``E(T_M)`` use t-intervals on the pooled i.i.d. samples
    (Lemma 17).  ``P_A = 1 − E(T_M)/E(T_MR)`` has no per-sample
    decomposition, so it is checked against the conservative interval
    obtained by combining the two mean CIs end-to-end.
    """
    tmr_ci = mean_ci(tmr_samples, level=level)
    tm_ci = mean_ci(tm_samples, level=level)
    if not tmr_ci.contains(prediction.e_tmr):
        return False
    if not tm_ci.contains(prediction.e_tm):
        return False
    pa_low = 1.0 - tm_ci.high / tmr_ci.low
    pa_high = 1.0 - tm_ci.low / tmr_ci.high
    return pa_low <= prediction.query_accuracy <= pa_high


class NFDSAnalysis:
    """Proposition 3 / Theorem 5 evaluator for one NFD-S configuration.

    Args:
        eta: heartbeat inter-sending time η.
        delta: freshness shift δ.
        loss_probability: message loss probability p_L.
        delay: delay distribution D.

    The degenerate cases called out by the paper are represented exactly:
    if ``p_0 = 0`` (a fresh message always arrives in time) then
    ``E(T_MR) = ∞`` and ``E(T_M) = 0``; if ``q_0 = 0`` (no message ever
    arrives within ``δ + η``) then q suspects forever: ``P_A = 0``.
    """

    def __init__(
        self,
        eta: float,
        delta: float,
        loss_probability: float,
        delay: DelayDistribution,
    ) -> None:
        if eta <= 0:
            raise InvalidParameterError(f"eta must be positive, got {eta}")
        if delta < 0:
            raise InvalidParameterError(f"delta must be >= 0, got {delta}")
        if not 0.0 <= loss_probability <= 1.0:
            raise InvalidParameterError(
                f"loss_probability must be in [0,1], got {loss_probability}"
            )
        self.eta = float(eta)
        self.delta = float(delta)
        self.p_l = float(loss_probability)
        self.delay = delay
        # Per-configuration memo of the expensive evaluations (adaptive
        # quadrature, CDF products).  The parameters above are fixed for
        # the lifetime of the instance, so each value is computed at most
        # once however many times predict()/e_tm()/query_accuracy() ask.
        self._memo: dict = {}

    # ------------------------------------------------------------------ #
    # Proposition 3
    # ------------------------------------------------------------------ #

    @property
    def k(self) -> int:
        """``k = ⌈δ/η⌉`` (Proposition 3.1)."""
        return int(math.ceil(self.delta / self.eta - 1e-12))

    def p_j(self, j: int, x: ArrayLike = 0.0) -> ArrayLike:
        """``p_j(x) = p_L + (1−p_L)·P(D > δ + x − j·η)`` (Prop. 3.2)."""
        if j < 0:
            raise InvalidParameterError(f"j must be >= 0, got {j}")
        t = self.delta + np.asarray(x, dtype=float) - j * self.eta
        out = self.p_l + (1.0 - self.p_l) * np.asarray(self.delay.sf(t))
        return float(out) if np.ndim(x) == 0 else out

    @property
    def p_0(self) -> float:
        """``p_0 = p_0(0)`` — P(m_i not received by τ_i)."""
        return float(self.p_j(0, 0.0))

    @property
    def q_0(self) -> float:
        """``q_0 = (1−p_L)·P(D < δ + η)`` (Prop. 3.3)."""
        if "q_0" not in self._memo:
            self._memo["q_0"] = (1.0 - self.p_l) * float(
                self.delay.prob_less(self.delta + self.eta)
            )
        return self._memo["q_0"]

    def u(self, x: ArrayLike) -> ArrayLike:
        """``u(x) = Π_{j=0}^{k} p_j(x)`` for ``x ∈ [0, η)`` (Prop. 3.4).

        Evaluated by broadcasting over ``j``: one CDF call on a
        ``x.shape + (k+1,)`` grid and a product along the last axis,
        instead of ``k+1`` separate passes over ``x``.
        """
        xa = np.asarray(x, dtype=float)
        t = self.delta + xa[..., None] - np.arange(self.k + 1) * self.eta
        factors = self.p_l + (1.0 - self.p_l) * np.asarray(
            self.delay.sf(t), dtype=float
        )
        out = np.multiply.reduce(factors, axis=-1)
        return float(out) if np.ndim(x) == 0 else out

    @property
    def u_0(self) -> float:
        """``u(0)`` — the suspicion probability at a freshness point."""
        if "u_0" not in self._memo:
            self._memo["u_0"] = float(self.u(0.0))
        return self._memo["u_0"]

    @property
    def p_s(self) -> float:
        """``p_s = q_0 · u(0)`` (Prop. 3.5)."""
        return self.q_0 * self.u_0

    # ------------------------------------------------------------------ #
    # Theorem 5
    # ------------------------------------------------------------------ #

    @property
    def detection_time_bound(self) -> float:
        """``T_D ≤ δ + η``, and the bound is tight (Theorem 5.1)."""
        return self.delta + self.eta

    def integral_u(self) -> float:
        """``∫₀^η u(x) dx`` by adaptive quadrature.

        The integrand has kinks wherever ``δ + x − jη`` crosses a
        non-smooth point of the delay CDF; those x are passed to ``quad``
        as mandatory split points.  The value is memoized: the paper's
        predictions need it in both ``E(T_M)`` and ``P_A``, and sweep
        tables re-query the same configuration repeatedly.
        """
        if "integral_u" in self._memo:
            return self._memo["integral_u"]
        pts = []
        for kink in self.delay.kinks():
            for j in range(self.k + 1):
                x = kink - self.delta + j * self.eta
                if 0.0 < x < self.eta:
                    pts.append(x)
        from scipy import integrate  # on first use: repro.live loads no SciPy

        value, _err = integrate.quad(
            lambda x: float(self.u(x)),
            0.0,
            self.eta,
            points=sorted(set(pts)) or None,
            limit=200,
        )
        self._memo["integral_u"] = float(value)
        return self._memo["integral_u"]

    def e_tmr(self) -> float:
        """``E(T_MR) = η / p_s`` (Theorem 5.2); ``inf`` if ``p_s = 0``."""
        p_s = self.p_s
        if p_s == 0.0:
            return math.inf
        return self.eta / p_s

    def e_tm(self) -> float:
        """``E(T_M) = ∫₀^η u(x)dx / p_s`` (Theorem 5.3).

        In the degenerate case ``p_0 = 0`` no mistakes happen and the
        mistake duration is 0 by convention; if ``q_0 = 0`` q suspects
        forever and ``E(T_M) = ∞``.
        """
        if self.p_0 == 0.0:
            return 0.0
        if self.q_0 == 0.0:
            return math.inf
        p_s = self.p_s
        if p_s == 0.0:
            # u(0) underflowed (mistakes rarer than ~1e-300 per window):
            # the ratio ∫u/p_s is still finite; report the Proposition 21
            # upper bound E(T_M) <= η/q_0, which is tight in this regime
            # (u(x)/u(0) ≈ 1 over the window when u is this small).
            return self.eta / self.q_0
        return self.integral_u() / p_s

    def query_accuracy(self) -> float:
        """``P_A = 1 − (1/η)·∫₀^η u(x) dx`` (Lemma 15)."""
        return 1.0 - self.integral_u() / self.eta

    def predict(self) -> QoSPrediction:
        """Evaluate the full analytic QoS of this configuration."""
        e_tmr = self.e_tmr()
        e_tm = self.e_tm()
        p_a = self.query_accuracy()
        if math.isinf(e_tmr):
            e_tg = math.inf
            rate = 0.0
        else:
            # E(T_M) <= E(T_MR) holds mathematically (each mistake lies
            # inside its recurrence interval); clamp the tiny negative
            # values quadrature error can produce when the two coincide.
            e_tg = max(e_tmr - e_tm, 0.0)
            rate = 1.0 / e_tmr
        return QoSPrediction(
            detection_time_bound=self.detection_time_bound,
            e_tmr=e_tmr,
            e_tm=e_tm,
            query_accuracy=p_a,
            mistake_rate=rate,
            e_tg=e_tg,
            e_tfg_lower=(
                math.inf
                if math.isinf(e_tg)
                else forward_good_period_mean(e_tg, 0.0)
            ),
            p_s=self.p_s,
            q_0=self.q_0,
            u_0=self.u_0,
            k=self.k,
        )


def nfdu_analysis(
    eta: float,
    alpha: float,
    loss_probability: float,
    delay: DelayDistribution,
) -> NFDSAnalysis:
    """QoS of NFD-U: substitute ``δ = E(D) + α`` into the NFD-S analysis.

    Section 6.2: NFD-U's freshness points are ``τ_i = EA_i + α =
    σ_i + E(D) + α``, i.e. exactly NFD-S's with ``δ = E(D) + α``.  The
    effective shift must be nonnegative for the analysis to apply.
    """
    delta = delay.mean + alpha
    if delta < 0:
        raise InvalidParameterError(
            f"effective shift E(D)+alpha = {delta} must be >= 0"
        )
    return NFDSAnalysis(
        eta=eta, delta=delta, loss_probability=loss_probability, delay=delay
    )
