"""Process-wide telemetry switch.

Instrumentation sites on hot paths (the fastsim kernels, the parallel
executor, the batch kernels) look up the *active* registry once per
call via :func:`active`; when telemetry is disabled that is a single
module-global read returning ``None`` and the instrumented code takes
the identical path it took before telemetry existed — this is the
"zero-cost when disabled" contract the perf trajectory keeps honest.

The switch is deliberately process-global rather than threaded through
every function signature: the experiment drivers call deep into the
kernels, and a contextual registry would otherwise have to be plumbed
through a dozen layers that do not care about it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.telemetry.registry import MetricsRegistry

__all__ = ["enable", "disable", "active", "enabled"]

_ACTIVE: Optional[MetricsRegistry] = None


def enable() -> MetricsRegistry:
    """Turn telemetry on, returning the now-active registry.

    A fresh :class:`MetricsRegistry` is created; enabling twice keeps
    the existing registry.
    """
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = MetricsRegistry()
    return _ACTIVE


def disable() -> None:
    """Turn telemetry off (instrumented code reverts to zero-cost)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when telemetry is disabled."""
    return _ACTIVE


@contextmanager
def enabled() -> Iterator[MetricsRegistry]:
    """Scoped telemetry: enable a fresh registry on entry, restore the
    prior state on exit."""
    global _ACTIVE
    prior = _ACTIVE
    reg = MetricsRegistry()
    _ACTIVE = reg
    try:
        yield reg
    finally:
        _ACTIVE = prior
