"""A shared failure-detection service (the paper's Section 8.1 outlook).

The paper's algorithms monitor a single process; real deployments (the
cluster-management and group-membership applications motivating the
paper, and the failure detection *service* of [15] the authors were
building) monitor many.  This package scales the two-process core up:

* :class:`MonitorService` — one detector instance per monitored process,
  each with its own link characteristics, QoS contract and adaptive
  configuration; a single place to query "whom do I suspect?".
* :class:`GroupMembership` — a simple membership view on top: the set of
  trusted processes, with a monotonically increasing view identifier and
  change notifications (crash-recovery under a new identity, per the
  paper's footnote 2, is modelled by re-adding a process under a fresh
  incarnation).
"""

from repro.service.contracts import (
    ConfiguredDetector,
    detector_for_contract,
    detector_for_contract_unsync,
)
from repro.service.events import MembershipEvent, MonitorEvent
from repro.service.membership import GroupMembership, MembershipView
from repro.service.monitor_service import MonitoredProcess, MonitorService
from repro.service.soa import (
    ManualScheduler,
    SoAMonitorHost,
    VectorMonitorEngine,
)
from repro.sim.engine import SimWheelScheduler

__all__ = [
    "MonitorService",
    "MonitoredProcess",
    "VectorMonitorEngine",
    "SoAMonitorHost",
    "SimWheelScheduler",
    "ManualScheduler",
    "GroupMembership",
    "MembershipView",
    "MonitorEvent",
    "MembershipEvent",
    "ConfiguredDetector",
    "detector_for_contract",
    "detector_for_contract_unsync",
]
