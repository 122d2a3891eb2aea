"""Deterministic multiprocessing executor for experiment fan-out.

The paper's evaluation is embarrassingly parallel — hundreds of
independent crash runs, failure-free runs, and sweep points — but naive
parallelization breaks the one property this reproduction cannot give
up: *bit-identical results for the same seed*.  This module provides the
fan-out while keeping that guarantee, for any job count and any chunking:

* **Index-keyed streams.**  Every work item's RNG stream is derived from
  ``SeedSequence([seed, STREAM_TAG, index])`` (:mod:`repro.sim.seeds`),
  so a run's randomness depends only on its absolute index — never on
  which worker or chunk computed it.  Shared one-shot draws (the
  crash-time vector) happen once, in the parent, before the fan-out.
* **Chunked scheduling.**  Items are grouped into contiguous chunks
  (default: ~4 chunks per worker) and distributed dynamically; results
  are reassembled by index, so completion order is irrelevant.
* **Fork-based workers.**  Workers are forked, so detector factories may
  be arbitrary closures/lambdas; only chunk descriptors travel to the
  workers and only results travel back.  Where ``fork`` is unavailable
  (non-Unix platforms, daemon processes) execution silently falls back
  to in-process serial — which is bit-identical by construction.
* **Per-chunk instrumentation.**  Each chunk is timed where it runs;
  the parent records the timings in the ``parallel_*`` telemetry series
  (``--telemetry-out``).  ``tests/sim/test_parallel.py`` asserts the
  bit-identity contract.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.telemetry.runtime import active as _telemetry_active
from repro.sim.runner import (
    CrashRunResult,
    DetectorFactory,
    FailureFreeResult,
    SimulationConfig,
    _prepare_crash_runs,
    _run_single_crash,
    run_failure_free,
)

__all__ = [
    "resolve_jobs",
    "chunk_spans",
    "parallel_map",
    "run_crash_runs_parallel",
    "run_failure_free_parallel",
]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Worker count: ``None``/``0`` means all cores, otherwise ``jobs``."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise InvalidParameterError(f"jobs must be >= 0 or None, got {jobs}")
    return int(jobs)


def chunk_spans(n_items: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` spans covering ``range(n_items)``."""
    if chunk_size < 1:
        raise InvalidParameterError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    return [
        (start, min(start + chunk_size, n_items))
        for start in range(0, n_items, chunk_size)
    ]


def default_chunk_size(n_items: int, jobs: int) -> int:
    """~4 chunks per worker: coarse enough to amortize IPC, fine enough
    to balance load when chunk costs vary."""
    return max(1, math.ceil(n_items / (jobs * 4)))


# --------------------------------------------------------------------- #
# Core chunk executor
# --------------------------------------------------------------------- #

# The per-item callable for the fan-out in flight.  Set in the parent
# immediately before the worker pool forks, so workers inherit it via
# copy-on-write memory — this is what lets detector factories be
# closures/lambdas without any pickling of the work payload.
_ITEM_FN: Optional[Callable[[int], Any]] = None


def _run_chunk(fn: Callable[[int], Any], span: Tuple[int, int]):
    """``(start, stop, results, seconds)`` of one chunk, timed where it
    runs."""
    start, stop = span
    t0 = time.perf_counter()
    out = [fn(i) for i in range(start, stop)]
    return start, stop, out, time.perf_counter() - t0


def _invoke_chunk(span: Tuple[int, int]):
    fn = _ITEM_FN
    assert fn is not None, "worker forked without a payload"
    return _run_chunk(fn, span)


def _fork_available() -> bool:
    try:
        if "fork" not in multiprocessing.get_all_start_methods():
            return False
        # Daemonic workers cannot have children: nested fan-out runs
        # serially inside an outer parallel region.
        return not multiprocessing.current_process().daemon
    except Exception:  # pragma: no cover - platform quirks
        return False


def _execute(
    item_fn: Callable[[int], Any],
    n_items: int,
    jobs: Optional[int],
    chunk_size: Optional[int],
) -> List[Any]:
    """Run ``item_fn`` over ``range(n_items)``; results in item order.

    Deterministic by construction: ``item_fn`` must derive all of its
    randomness from the item index (see :mod:`repro.sim.seeds`), and the
    results list is reassembled by index, so jobs/chunking only affect
    wall time.
    """
    global _ITEM_FN
    jobs_resolved = max(1, min(resolve_jobs(jobs), n_items))
    if chunk_size is None:
        chunk_size = default_chunk_size(n_items, jobs_resolved)
    spans = chunk_spans(n_items, chunk_size)
    wall0 = time.perf_counter()
    use_pool = jobs_resolved > 1 and len(spans) > 1 and _fork_available()
    if not use_pool:
        chunks = [_run_chunk(item_fn, span) for span in spans]
    else:
        ctx = multiprocessing.get_context("fork")
        _ITEM_FN = item_fn  # must be set before the pool forks
        try:
            with ctx.Pool(processes=jobs_resolved) as pool:
                chunks = sorted(
                    pool.imap_unordered(_invoke_chunk, spans),
                    key=lambda chunk: chunk[0],
                )
        finally:
            _ITEM_FN = None
    wall_seconds = time.perf_counter() - wall0
    results: List[Any] = [None] * n_items
    for start, stop, out, _seconds in chunks:
        results[start:stop] = out
    reg = _telemetry_active()
    if reg is not None:
        # Chunk timings are gathered in the parent, so this records even
        # when the items themselves ran in forked workers (whose own
        # process-global registries are discarded with the fork).
        reg.counter("parallel_items_total").inc(n_items)
        reg.counter("parallel_chunks_total").inc(len(chunks))
        reg.gauge("parallel_jobs").set(jobs_resolved)
        chunk_hist = reg.histogram("parallel_chunk_seconds")
        for _start, _stop, _out, seconds in chunks:
            chunk_hist.observe(seconds)
        reg.histogram("parallel_wall_seconds").observe(wall_seconds)
    return results


# --------------------------------------------------------------------- #
# Public fan-out APIs
# --------------------------------------------------------------------- #


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Map ``fn`` over ``items`` across worker processes, order-preserving.

    The experiments layer uses this for sweep-point fan-out (Fig. 12
    ``T_D^U`` grid, cutoff/window sweeps).  ``fn`` must be deterministic
    given its item (derive any randomness from per-item seeds); then the
    result is identical for every ``jobs``/``chunk_size`` combination.
    """
    items = list(items)
    if not items:
        return []

    def item_fn(i: int):
        return fn(items[i])

    return _execute(item_fn, len(items), jobs, chunk_size)


def run_crash_runs_parallel(
    detector_factory: DetectorFactory,
    config: SimulationConfig,
    n_runs: int,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    settle_time: Optional[float] = None,
    keep_traces: bool = False,
) -> CrashRunResult:
    """Fan :func:`repro.sim.runner.run_crash_runs` out over workers.

    Bit-identical to the serial function for the same config and seed:
    crash times come from one namespaced draw in the parent, and run
    *i*'s stream is keyed by ``i`` — so scheduling cannot change any
    result.  ``jobs=1`` runs in-process (no pool).
    """
    crash_times, settle = _prepare_crash_runs(config, n_runs, None, settle_time)

    def item_fn(i: int):
        return _run_single_crash(
            detector_factory,
            config,
            i,
            float(crash_times[i]),
            settle,
            keep_traces,
        )

    outs = _execute(item_fn, n_runs, jobs, chunk_size)
    detections = np.fromiter(
        (d for d, _ in outs), dtype=float, count=n_runs
    )
    traces = [t for _, t in outs] if keep_traces else []
    return CrashRunResult(
        detection_times=detections, crash_times=crash_times, traces=traces
    )


def run_failure_free_parallel(
    detector_factory: DetectorFactory,
    config: SimulationConfig,
    n_runs: int,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[FailureFreeResult]:
    """Run ``n_runs`` failure-free runs (indices ``0..n_runs-1``) fanned
    out over workers; returns the :class:`FailureFreeResult` list in run
    order, bit-identical to calling :func:`run_failure_free` serially."""
    if n_runs < 1:
        raise InvalidParameterError(f"n_runs must be >= 1, got {n_runs}")

    def item_fn(i: int) -> FailureFreeResult:
        return run_failure_free(detector_factory, config, run_index=i)

    return _execute(item_fn, n_runs, jobs, chunk_size)
