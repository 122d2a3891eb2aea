"""Per-level telemetry for hierarchical monitoring topologies.

One :class:`HierarchyTelemetry` instruments one monitoring tree: every
series carries a ``level`` label (``"0"`` = senders→leaf heartbeat
tier, ``"1"`` = leaf→root digest tier, and so on for deeper trees), so
a single registry can hold the full vertical decomposition of a
federation's message budget and suspicion state — which is exactly the
split the E16 budget-matched comparison reads back out.

Zero-cost-when-off contract: the federation holds ``None`` instead of
an instance when telemetry is disabled and pays one ``is None`` check
per hook, same as every other instrumented component.
"""

from __future__ import annotations

from typing import Dict

from repro.telemetry.registry import Counter, Gauge, MetricsRegistry

__all__ = ["HierarchyTelemetry"]


class HierarchyTelemetry:
    """Labeled counters/gauges for one monitoring hierarchy."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self._published: Dict[int, Counter] = {}
        self._messages: Dict[int, Counter] = {}
        self._bytes: Dict[int, Counter] = {}
        self._nodes: Dict[int, Gauge] = {}
        self.digests_applied = registry.counter(
            "hier_digests_applied_total",
            "digests merged at an aggregator",
        )
        self.status_changes = registry.counter(
            "hier_status_changes_total",
            "per-sender merged-status changes at an aggregator",
        )
        self.root_suspected = registry.gauge(
            "hier_root_suspected_senders",
            "senders currently suspected at the root",
        )
        self.stale_leaves = registry.gauge(
            "hier_stale_leaves",
            "leaves currently gossip-suspected at the root",
        )

    def _leveled(self, cache: Dict[int, Counter], name: str, help: str, level: int):
        metric = cache.get(level)
        if metric is None:
            metric = self._registry.counter(
                f"hier_{name}", help, labels={"level": str(level)}
            )
            cache[level] = metric
        return metric

    def digests_published(self, level: int) -> Counter:
        return self._leveled(
            self._published,
            "digests_published_total",
            "digests published upward from this level",
            level,
        )

    def messages(self, level: int) -> Counter:
        return self._leveled(
            self._messages,
            "messages_total",
            "messages sent within this level's plane",
            level,
        )

    def bytes(self, level: int) -> Counter:
        return self._leveled(
            self._bytes,
            "bytes_total",
            "payload bytes sent within this level's plane",
            level,
        )

    def level_nodes(self, level: int) -> Gauge:
        gauge = self._nodes.get(level)
        if gauge is None:
            gauge = self._registry.gauge(
                "hier_level_nodes",
                "processes participating at this level",
                labels={"level": str(level)},
            )
            self._nodes[level] = gauge
        return gauge
