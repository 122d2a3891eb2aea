"""Online estimation of the network's probabilistic behaviour.

Section 5.2 / 6.2.2 of the paper: the configurators need ``p_L``, ``E(D)``
and ``V(D)`` (or just ``p_L`` and ``V(D)`` for NFD-U), all of which are
estimated from the heartbeat stream itself:

* ``p_L`` — count "missing" sequence numbers below the highest received
  (:class:`LossRateEstimator`);
* ``E(D)``, ``V(D)`` — statistics of (receive time − sender timestamp).
  With unsynchronized clocks that difference is delay **plus a constant
  skew**, so its *variance* still estimates ``V(D)`` exactly — the paper's
  key observation enabling Section 6 (:class:`DelayStatsEstimator`);
* expected arrival times — eq. (6.3), in
  :class:`repro.core.nfd_e.ArrivalTimeEstimator` (re-exported here);
* all three for one (p, q) pair in :class:`HeartbeatObserver`, and for
  every process a monitor tracks in the columns of
  :class:`ObserverTable` — state-equal to one observer per row;
* the Section 8.1.2 short-term/long-term combiner for bursty networks
  (:class:`ShortLongCombiner`).
"""

from repro.core.nfd_e import ArrivalTimeEstimator
from repro.estimation.combined import CombinedEstimate, ShortLongCombiner
from repro.estimation.delay_stats import DelayStatsEstimator, WindowedDelayStats
from repro.estimation.loss import LossRateEstimator
from repro.estimation.observer import HeartbeatObserver, NetworkEstimate
from repro.estimation.table import ObserverRow, ObserverTable

__all__ = [
    "LossRateEstimator",
    "DelayStatsEstimator",
    "WindowedDelayStats",
    "ArrivalTimeEstimator",
    "HeartbeatObserver",
    "NetworkEstimate",
    "ObserverTable",
    "ObserverRow",
    "ShortLongCombiner",
    "CombinedEstimate",
]
