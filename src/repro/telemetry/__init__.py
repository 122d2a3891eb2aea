"""repro.telemetry — streaming instrumentation for the monitoring stack.

The paper defines its QoS metrics over complete output traces; a
running service cannot afford to keep those.  This package provides the
online counterpart:

* a **metrics registry** (:mod:`repro.telemetry.registry`) of counters,
  gauges and streaming histograms (Welford moments + P² quantile
  sketches) — O(1) memory and update per series;
* **online QoS estimators** (:mod:`repro.telemetry.qos_online`)
  computing ``E(T_MR)``, ``E(T_M)``, ``E(T_G)``, ``P_A``, ``λ_M`` and
  ``E(T_FG)`` incrementally from transition events, validated against
  the trace-based :func:`repro.metrics.qos.estimate_accuracy` — one
  object a process, or a :class:`~repro.telemetry.qos_online.QoSTable`
  of rows fed transition batches;
* **hooks** — the fastsim/batch/parallel executors' recording into the
  process-global registry (:mod:`repro.telemetry.runtime`);
* **export** (:mod:`repro.telemetry.export`): JSON-lines snapshots
  (schema ``repro.telemetry/1``; CLI flag ``--telemetry-out``) and the
  Prometheus text exposition format.

Telemetry is off by default and zero-cost when off: hot paths check
:func:`repro.telemetry.active` once per kernel call and skip all
recording when it returns ``None``.  The ``telemetry.*`` rows of the
``benchmarks/trajectory`` ledger measure the enabled overhead on the
fastsim hot path (<5% budget).
"""

from repro.telemetry.export import (
    SCHEMA,
    append_jsonl,
    snapshot_record,
    to_prometheus,
    validate_record,
)
from repro.telemetry.hierarchy import HierarchyTelemetry
from repro.telemetry.qos_online import OnlineQoSEstimator, QoSTable
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    Welford,
)
from repro.telemetry.runtime import active, disable, enable, enabled

__all__ = [
    # registry
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "P2Quantile",
    "Welford",
    # runtime switch
    "active",
    "disable",
    "enable",
    "enabled",
    # online QoS
    "OnlineQoSEstimator",
    "QoSTable",
    # hierarchy
    "HierarchyTelemetry",
    # export
    "SCHEMA",
    "append_jsonl",
    "snapshot_record",
    "to_prometheus",
    "validate_record",
]
