"""The one module that builds the service and its peers.

Every workload gets its ``LiveMonitorService`` from here, through names
exported by ``repro`` and ``repro.live`` only (the ledger's probes add
``repro.service.soa`` and ``repro.estimation``, also by exported name).  The ROADMAP plans
to delete the ``engine=``, ``drain_batch=`` and ``observe=`` switches;
a change that does so may not edit the benchmark, so each is passed
only while ``inspect.signature`` still shows it.  Counters are read by
series name through ``service.registry.items()`` — never through a
private attribute (``tests/test_adapter.py`` fails on any ``._name``
access on a ``repro`` object anywhere in this package).

The live path built here is the one the ROADMAP calls "the real one":
SoA engine, batched drain at its default, estimators attached.
"""

from __future__ import annotations

import inspect
import resource
import time
from typing import Callable, Dict

from repro import NFDE, NFDS
from repro.live import LiveMonitorService

__all__ = [
    "ACCOUNTED_SERIES",
    "accepts",
    "build_service",
    "add_peer",
    "detector_factory",
    "CounterView",
    "wall_origin",
    "rss_kb",
]

#: every datagram taken off the inbox ends in exactly one of these
ACCOUNTED_SERIES = (
    "live_heartbeats_dispatched_total",
    "live_datagrams_invalid_total",
    "live_unknown_sender_total",
    "live_stale_incarnation_total",
    "live_prewindow_heartbeats_total",
)


def accepts(fn: Callable, name: str) -> bool:
    """Whether ``fn`` still takes a parameter called ``name``."""
    return name in inspect.signature(fn).parameters


def build_service(loop, origin: float, **wanted) -> LiveMonitorService:
    """A :class:`LiveMonitorService` on the fast path.

    ``wanted`` may carry ``inbox_limit`` / ``auto_admit`` / ``registry``;
    the SoA engine is requested and full output traces are switched off
    (a monitor that runs indefinitely) while those options exist.
    ``drain_batch`` is deliberately left at the constructor's default.
    """
    ctor = LiveMonitorService.__init__
    kwargs = {"loop": loop, "origin": origin}
    for name, value in {"engine": "soa", "keep_traces": False, **wanted}.items():
        if accepts(ctor, name):
            kwargs[name] = value
    return LiveMonitorService(**kwargs)


def detector_factory(kind: str, eta: float, shift: float) -> Callable:
    """``factory(first_seq)`` for NFD-S (``shift`` = δ) or NFD-E (α)."""
    if kind == "nfd-s":
        return lambda first_seq: NFDS(eta, shift, first_seq=first_seq)
    if kind == "nfd-e":
        return lambda first_seq: NFDE(eta, alpha=shift, first_seq=first_seq)
    raise ValueError(f"unknown detector kind {kind!r}")


def add_peer(
    service: LiveMonitorService,
    name: str,
    factory: Callable,
    eta: float,
    *,
    observe: bool = True,
) -> bool:
    """Register a peer; estimators are attached unless ``observe`` is
    False *and* the option to detach them still exists.  Returns whether
    the estimators are attached."""
    if not observe and accepts(service.add_peer, "observe"):
        service.add_peer(name, factory, eta=eta, observe=False)
        return False
    service.add_peer(name, factory, eta=eta)
    return True


class CounterView:
    """The service's ``live_*`` series, resolved once by name.

    ``registry.items()`` is walked at construction; afterwards a read
    is one ``.value`` per series, cheap enough for a closed loop to
    poll between event-loop turns.
    """

    def __init__(self, service: LiveMonitorService) -> None:
        self._metrics = {
            key: metric
            for key, metric in service.registry.items()
            if key.startswith("live_")
        }
        self._accounted = [
            self._metrics[k] for k in ACCOUNTED_SERIES if k in self._metrics
        ]
        self._dropped = self._metrics.get("live_inbox_dropped_total")

    def accounted(self) -> int:
        """Datagrams fully accounted for: drained and classified, or
        shed at the inbox."""
        total = sum(m.value for m in self._accounted)
        if self._dropped is not None:
            total += self._dropped.value
        return int(total)

    def totals(self) -> Dict[str, int]:
        """Every ``live_*_total`` series by its registry key."""
        return {
            key: int(metric.value)
            for key, metric in self._metrics.items()
            if "_total" in key
        }

    def get(self, key: str) -> int:
        metric = self._metrics.get(key)
        return 0 if metric is None else int(metric.value)


def wall_origin(loop, wall_zero: float) -> float:
    """Loop-time origin at which local time reads ``wall - wall_zero``.

    Two processes given the same ``wall_zero`` (a Unix timestamp) share
    a local clock exactly as well as the host clock lets them — the
    ``epoch_origin`` regime of the two-terminal roles, shifted so that
    sequence numbers start at 1.
    """
    return loop.time() - time.time() + wall_zero


def rss_kb() -> float:
    """Resident set size of this process in KiB (its peak, where the
    kernel does not publish ``/proc/self/statm``)."""
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
    except (OSError, ValueError, IndexError):
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return pages * resource.getpagesize() / 1024.0
