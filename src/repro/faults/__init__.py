"""Deterministic fault injection for the failure-detector simulations.

The paper's analysis (§3.1, Theorem 5) assumes i.i.d. message loss,
i.i.d. delays, no duplication, no clock faults, and a never-pausing
sender.  This package scripts violations of each assumption onto a
running simulation — reproducibly, from dedicated seeded streams — so
the experiments can chart QoS degradation against the analytic
fault-free prediction:

* :mod:`repro.faults.links` — Gilbert–Elliott bursty loss; a wrapper
  link adding partitions, duplication, and reordering;
* :mod:`repro.faults.scenario` — timed fault events, the canonical
  scenario container, the engine that compiles a scenario onto the
  discrete-event simulator (with telemetry + a queryable timeline), and
  per-fault-window QoS segmentation.

A scenario runs as data on the one simulated pipeline: set
``SimulationConfig.scenario`` and :mod:`repro.sim.runner` (serial or
fanned out, failure-free or crash runs) calls
:meth:`FaultScenario.attach`, the one place the fault layer is wired;
:meth:`repro.service.MonitorService.add_process` calls it too.  An empty
scenario changes no draw: its runs are bit-identical to ``scenario=None``.
"""

from repro.faults.links import FaultyLink, GilbertElliottLink
from repro.faults.scenario import (
    ClockJump,
    DelayRegime,
    DriftOnset,
    Duplication,
    FaultEvent,
    FaultScenario,
    FaultTimeline,
    FaultWindow,
    LossRegime,
    Partition,
    Reordering,
    ScenarioEngine,
    Stall,
    windowed_suspicion,
)

__all__ = [
    "GilbertElliottLink",
    "FaultyLink",
    "LossRegime",
    "DelayRegime",
    "Partition",
    "Duplication",
    "Reordering",
    "ClockJump",
    "DriftOnset",
    "Stall",
    "FaultEvent",
    "FaultScenario",
    "FaultTimeline",
    "FaultWindow",
    "ScenarioEngine",
    "windowed_suspicion",
]
