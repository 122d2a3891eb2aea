"""Multi-datacenter WAN topologies for the failure-detector experiments.

The paper's link "represents an end-to-end connection and does not
necessarily correspond to a physical link" (Section 3.1).  This package
grows that abstraction into a *wide-area* substrate the experiments can
stress-test Theorem 5 against:

* :mod:`repro.net.wan.topology` — named **sites** and inter-site links
  carrying per-link delay/loss regimes (i.i.d. or Gilbert–Elliott
  bursty loss, reusing :mod:`repro.faults`), plus fault-free route
  composition via :func:`repro.net.topology.compose_path`;
* :mod:`repro.net.wan.congestion` — **correlated cross-link delay
  shocks**: a shared latent on/off congestion factor declared per site
  pair, inflating the delays of every link that loads on it;
* :mod:`repro.net.wan.schedule` — scripted **partition/heal schedules**
  per inter-site link, layered on :class:`repro.faults.FaultScenario`
  (the same event dataclasses, compiled to time-indexed queries);
* :mod:`repro.net.wan.relay` — the **relay forwarding model**: a
  :class:`RoutedWanLink` is a drop-in for
  :class:`~repro.net.link.LossyLink` whose heartbeats traverse the
  current shortest live route hop by hop, re-routing mid-flight when a
  partition cuts a link under them (Sens et al., partial connectivity);
* :mod:`repro.net.wan.analysis` — the **analytic cross-check**: derive
  the Theorem 5 prediction for a WAN path from its per-hop
  distributions; :func:`repro.analysis.nfds_theory.within_theorem5_band`
  gates simulated QoS against it.
"""

from repro.net.wan.analysis import (
    WanPathPrediction,
    detection_within_bound,
    prediction_errors,
    predict_route,
)
from repro.net.wan.congestion import CongestionField, CongestionProcess
from repro.net.wan.relay import RoutedWanLink, WanNetwork
from repro.net.wan.schedule import WanSchedule, periodic_partitions
from repro.net.wan.topology import CongestionSpec, LinkSpec, WanTopology

__all__ = [
    "WanTopology",
    "LinkSpec",
    "CongestionSpec",
    "CongestionProcess",
    "CongestionField",
    "WanSchedule",
    "periodic_partitions",
    "WanNetwork",
    "RoutedWanLink",
    "WanPathPrediction",
    "predict_route",
    "detection_within_bound",
    "prediction_errors",
]
