"""repro.election — Omega leader election on top of the failure detectors.

The first *consumer* of the monitoring stack: an eventual-leader-election
(Omega) layer in the style of Reis & Vieira, "Quality of Service of an
Asynchronous Crash-Recovery Leader Election Algorithm" (PAPERS.md).  The
elector applies the classic reduction from an eventually-accurate
failure detector to Omega — *elect the smallest trusted process* — and
therefore inherits the detector's QoS directly: every detector mistake
on the current leader is a (possibly spurious) demotion, and every real
leader crash costs one detection time before a new leader can emerge.

* :mod:`repro.election.omega` — the elector state machine plus adapters
  for :class:`~repro.service.monitor_service.MonitorService` (sim) and
  :class:`~repro.live.monitor.LiveMonitorService` (wall clock);
* :mod:`repro.election.metrics` — consumer-level QoS: leader stability,
  election latency after a leader crash, spurious-demotion rate, scored
  against a crash/recovery ground truth;
* :mod:`repro.election.cluster` — an n-process simulated cluster where
  every process runs its own monitor + elector, with crash/recovery
  drivers for the property suites and the E17 experiment.
"""

from repro.election.cluster import ClusterResult, ElectionCluster
from repro.election.metrics import (
    ElectionQoS,
    GroundTruth,
    score_election,
)
from repro.election.omega import (
    LeaderEvent,
    LiveElector,
    OmegaCore,
    ServiceElector,
)

__all__ = [
    "LeaderEvent",
    "OmegaCore",
    "ServiceElector",
    "LiveElector",
    "ElectionQoS",
    "GroundTruth",
    "score_election",
    "ElectionCluster",
    "ClusterResult",
]
