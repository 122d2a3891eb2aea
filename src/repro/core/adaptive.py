"""Adaptive failure detection (Section 8.1 of the paper).

The paper's recipe for networks whose behaviour changes gradually (e.g.
peak vs. off-peak hours): *periodically re-execute the configuration
pipeline* of Fig. 11 — estimate the current ``p_L`` and ``V(D)`` from the
``n`` most recent heartbeats, feed them to the Section 6 configurator,
and apply the resulting ``(η, α)``.

Two pieces implement this:

* :class:`AdaptiveController` — the pure decision logic: consumes
  :class:`~repro.estimation.observer.NetworkEstimate` snapshots, re-runs
  :func:`~repro.analysis.configurator_nfdu.configure_nfdu`, and reports a
  new configuration when it differs from the current one by more than a
  hysteresis threshold (avoiding reconfiguration churn on estimation
  noise).
* :class:`AdaptiveNFDE` — an NFD-E whose slack ``α`` tracks the
  controller's output *live*.  The heartbeat *rate* ``η`` is owned by the
  sender, so η changes cannot be applied unilaterally by the monitor; the
  controller's recommended η is surfaced through ``on_reconfigure`` for
  the deployment (or the experiment driver) to apply at an epoch
  boundary.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analysis.configurator_nfdu import NFDUConfig, configure_nfdu
from repro.core.base import Heartbeat
from repro.core.nfd_e import NFDE
from repro.errors import InvalidParameterError, QoSUnachievableError
from repro.estimation.observer import HeartbeatObserver, NetworkEstimate

__all__ = ["AdaptiveController", "AdaptiveNFDE"]


class AdaptiveController:
    """Re-runs the Section 6 configurator on fresh network estimates.

    Args:
        relative_detection_bound: ``T_D^u`` of the QoS contract.
        mistake_recurrence_lower: ``T_MR^L``.
        mistake_duration_upper: ``T_M^U``.
        hysteresis: minimum relative change in η or α that justifies a
            reconfiguration (default 5%).
    """

    def __init__(
        self,
        relative_detection_bound: float,
        mistake_recurrence_lower: float,
        mistake_duration_upper: float,
        hysteresis: float = 0.05,
    ) -> None:
        if hysteresis < 0:
            raise InvalidParameterError(
                f"hysteresis must be >= 0, got {hysteresis}"
            )
        self._t_d_u = float(relative_detection_bound)
        self._t_mr_l = float(mistake_recurrence_lower)
        self._t_m_u = float(mistake_duration_upper)
        self._hysteresis = float(hysteresis)
        self._current: Optional[NFDUConfig] = None

    def update(self, estimate: NetworkEstimate) -> Optional[NFDUConfig]:
        """Recompute the configuration; return it if it changed enough.

        Raises:
            QoSUnachievableError: when the *current* network conditions
                make the contract unachievable by any detector — callers
                should surface this to the application rather than
                silently keep a stale configuration.
        """
        candidate = configure_nfdu(
            relative_detection_bound=self._t_d_u,
            mistake_recurrence_lower=self._t_mr_l,
            mistake_duration_upper=self._t_m_u,
            loss_probability=min(estimate.loss_probability, 0.999),
            var_delay=estimate.var_delay,
        )
        if self._current is not None and not self._changed(candidate):
            return None
        self._current = candidate
        return candidate

    def _changed(self, candidate: NFDUConfig) -> bool:
        assert self._current is not None
        cur = self._current

        def rel(a: float, b: float) -> float:
            scale = max(abs(a), abs(b), 1e-12)
            return abs(a - b) / scale

        return (
            rel(candidate.eta, cur.eta) > self._hysteresis
            or rel(candidate.alpha, cur.alpha) > self._hysteresis
        )


class AdaptiveNFDE(NFDE):
    """NFD-E that periodically re-estimates and re-configures itself.

    Every ``reconfig_every`` received heartbeats the embedded
    :class:`HeartbeatObserver` is snapshotted and handed to the
    :class:`AdaptiveController`; if a new configuration results, the
    slack ``α`` is applied immediately and ``on_reconfigure`` is invoked
    with the full :class:`NFDUConfig` (including the recommended η).

    Args:
        eta: the sender's (current) inter-sending time.
        initial_alpha: slack until the first reconfiguration.
        controller: the adaptation policy.
        reconfig_every: reconfiguration period, in received heartbeats.
        window: EA-estimation window (n of eq. 6.3).
        stats_window: delay-statistics window for p_L / V(D).
        on_reconfigure: callback invoked with each adopted NFDUConfig.
    """

    name = "adaptive-nfd-e"

    def __init__(
        self,
        eta: float,
        initial_alpha: float,
        controller: AdaptiveController,
        reconfig_every: int = 100,
        window: int = 32,
        stats_window: int = 1000,
        on_reconfigure: Optional[Callable[[NFDUConfig], None]] = None,
    ) -> None:
        if reconfig_every < 1:
            raise InvalidParameterError(
                f"reconfig_every must be >= 1, got {reconfig_every}"
            )
        super().__init__(eta=eta, alpha=initial_alpha, window=window)
        self._controller = controller
        self._observer = HeartbeatObserver(
            eta=eta, stats_window=stats_window, arrival_window=window
        )
        self._reconfig_every = int(reconfig_every)
        self._since_reconfig = 0
        self._on_reconfigure = on_reconfigure

    @property
    def observer(self) -> HeartbeatObserver:
        return self._observer

    @property
    def controller(self) -> AdaptiveController:
        return self._controller

    def _note_arrival(self, heartbeat: Heartbeat) -> None:
        super()._note_arrival(heartbeat)
        self._observer.loss.observe(heartbeat.seq)
        self._observer.delay_stats.observe(
            heartbeat.receive_local_time - heartbeat.send_local_time
        )
        self._since_reconfig += 1
        if self._since_reconfig >= self._reconfig_every and self._observer.ready:
            self._since_reconfig = 0
            self._reconfigure()

    def _reconfigure(self) -> None:
        try:
            config = self._controller.update(self._observer.snapshot())
        except QoSUnachievableError:
            return  # unachievable under current estimates: keep α
        if config is None:
            return
        # α applies immediately; the very next freshness point computed on
        # a heartbeat receipt uses it.
        self._alpha = config.alpha
        if self._on_reconfigure is not None:
            self._on_reconfigure(config)

    def describe(self) -> str:
        return (
            f"AdaptiveNFD-E(eta={self.eta:g}, alpha={self.alpha:g}, "
            f"reconfig_every={self._reconfig_every})"
        )
