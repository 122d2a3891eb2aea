"""Batched crash runs: many independent replicas per NumPy pass.

The Section 7 detection-time study (E7) averages hundreds of crash
runs, and :func:`repro.sim.runner.run_crash_runs` executes one
event-driven Python replica at a time.
:func:`run_crash_runs_batched` evaluates whole batches of crash runs at
once, **bit-identical** to the serial runner for the same seed (asserted
in ``tests/sim/test_batch.py``).  A crash run's randomness is exactly
the fates of the heartbeats sent before the crash, drawn from the run's
namespaced stream (``SeedSequence([seed, STREAM_CRASH_RUN,
run_index])``).  The kernel replays those fates by calling the link's
own fate rule, :func:`repro.net.link.message_delay`, on that stream
once per heartbeat, as :meth:`LossyLink.transmit` does; it assembles an
arrival matrix of shape ``(n_replicas, n_messages)`` and evaluates each
detector's final output and last S-transition in closed form over the
whole matrix — no event loop.  Because every replica is seeded by its
absolute run index, neither the batch size (:data:`_BATCH`) nor the
worker count can change a result.

Closed-form detection recipes (all proved against the event-driven
implementations; ``end = crash_time + settle`` is the simulated horizon,
events at exactly ``end`` still fire):

* **NFD-S** — freshness points ``τ_i = i·η_d + δ`` fire up to
  ``i_end = max{i ≥ 1 : τ_i ≤ end}`` (the detector's own
  :func:`~repro.core.nfd_s.window_indices`).  The run ends trusting iff
  some delivered sequence number is ``≥ i_end``.  Otherwise the final
  S-transition is at ``τ_{L+1}`` where ``L`` is the last window index
  with ``F_L < τ_{L+1}`` (``F_i`` = earliest delivered arrival among
  sequences ``≥ max(i, 1)``, a suffix minimum); no such ``L`` means the
  detector never trusted and the detection time clamps to 0.
* **SFD** — with the running-maximum property of identical timeouts the
  final timer expires at ``max(accepted arrivals) + TO``; the run ends
  trusting iff that expiry lands past ``end``.
* **NFD-U / NFD-E** — receipts sorted by arrival (ties in sequence
  order, matching the engine's scheduling order); *effective* receipts
  are the running sequence maxima.  Each effective receipt ``m`` at time
  ``t_m`` computes its freshness point ``τ_m`` (NFD-U from the
  expected-arrival table, NFD-E from the eq. 6.3 rolling mean evaluated
  with the estimator's exact float grouping); the run ends trusting iff
  the last ``τ_M > end``, and otherwise the final S-transition is at
  ``min(τ_{m'}, t_{m'+1})`` for the last fresh receipt ``m'``
  (``t_{m'} < τ_{m'}``).

Runs that end suspecting with no transition after the crash (the
detector was already suspecting when the crash landed) report a
detection time of exactly ``0.0``, matching the serial clamp of
:func:`repro.metrics.qos.detection_time`.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS, window_indices
from repro.core.nfd_u import NFDU
from repro.core.simple import SimpleFD
from repro.net.clocks import PerfectClock
from repro.net.link import message_delay
from repro.sim.parallel import chunk_spans, parallel_map
from repro.sim.runner import (
    CrashRunResult,
    DetectorFactory,
    SimulationConfig,
    _prepare_crash_runs,
    run_crash_runs,
)
from repro.sim.seeds import STREAM_CRASH_RUN, derive_rng
from repro.telemetry.runtime import active as _telemetry_active

__all__ = [
    "CrashKernelSpec",
    "crash_kernel_spec",
    "run_crash_runs_batched",
]


# --------------------------------------------------------------------- #
# Crash-run kernel: detector introspection
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class CrashKernelSpec:
    """Closed-form detection recipe derived from a detector factory."""

    kind: str  # "nfds" | "nfdu" | "nfde" | "sfd"
    eta: float = 0.0  # detector-side eta (NFD family)
    delta: float = 0.0  # NFD-S freshness shift
    alpha: float = 0.0  # NFD-U/E slack
    window: int = 0  # NFD-E estimator window
    timeout: float = 0.0  # SFD timeout
    cutoff: Optional[float] = None  # SFD cutoff
    expected_arrival: Optional[Callable[[int], float]] = None  # NFD-U


def crash_kernel_spec(
    detector_factory: DetectorFactory, config: SimulationConfig
) -> Optional[CrashKernelSpec]:
    """Derive the batched-kernel recipe for a factory, or ``None``.

    The kernel covers the library's four detectors under perfect clocks,
    on the config's own i.i.d. link (no ``link_factory``, no fault
    ``scenario``), with the paper's sequence numbering (``first_seq =
    1``) and a fresh probe instance.  Exact types only: a subclass may override behaviour
    the closed forms do not model.  For NFD-U the ``expected_arrival``
    callable must be pure and identical across factory invocations (it
    is tabulated once per batch); NFD-E — whose estimator state the
    kernel models explicitly — is matched before its NFD-U base.
    Anything unrecognized falls back to the event-driven path.
    """
    if config.link_factory is not None or config.scenario is not None:
        return None
    for clock in (config.sender_clock, config.monitor_clock):
        if clock is not None and type(clock) is not PerfectClock:
            return None
    probe = detector_factory()
    t = type(probe)
    if t is NFDE:
        if probe._first_seq != 1 or probe._ell != 0:
            return None
        if probe.estimator.n_samples != 0:
            return None
        return CrashKernelSpec(
            kind="nfde",
            eta=probe._eta,
            alpha=probe._alpha,
            window=probe.estimator.window,
        )
    if t is NFDU:
        if probe._first_seq != 1 or probe._ell != 0:
            return None
        return CrashKernelSpec(
            kind="nfdu",
            eta=probe._eta,
            alpha=probe._alpha,
            expected_arrival=probe._expected_arrival,
        )
    if t is NFDS:
        if probe._first_seq != 1:
            return None
        return CrashKernelSpec(kind="nfds", eta=probe._eta, delta=probe._delta)
    if t is SimpleFD:
        return CrashKernelSpec(
            kind="sfd", timeout=probe._timeout, cutoff=probe._cutoff
        )
    return None


# --------------------------------------------------------------------- #
# Crash-run kernel: RNG replay and arrival matrices
# --------------------------------------------------------------------- #


def _send_schedule(eta: float, max_crash: float) -> np.ndarray:
    """Real send times ``σ_j = η + (j−1)·η``, covering every crash time.

    The arithmetic mirrors :meth:`HeartbeatSender.send_local_time`
    (``origin + (seq − first_seq)·η`` with the default origin
    ``1·η``) term for term, so the schedule is bit-equal to the times
    at which the engine hands messages to the link.
    """
    n = int(math.ceil(max_crash / eta)) + 2
    sends = eta + np.arange(n, dtype=np.int64) * eta
    while sends[-1] < max_crash:  # float-edge paranoia
        n *= 2
        sends = eta + np.arange(n, dtype=np.int64) * eta
    return sends


class _FateStream:
    """One run's replayed message fates, extendable on demand."""

    __slots__ = ("rng", "fates", "n")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.fates = np.empty(128, dtype=float)
        self.n = 0


# Replayed fate prefixes, shared across run_crash_runs_batched calls:
# delay instance (weakly held) -> (seed, p_L) -> run_index -> stream.
# Experiments that evaluate several detectors over one link — the four
# cases of the detection-time study, say — reuse the same crash-run
# streams, so each stream is replayed once instead of once per case.
_FATES_CACHE: "weakref.WeakKeyDictionary[Any, Dict]" = (
    weakref.WeakKeyDictionary()
)
_FATES_CACHE_MAX_STREAMS = 65536


class _FateReplayer:
    """Replays :meth:`LossyLink.transmit` draw for draw, with caching.

    Each heartbeat's fate is one :func:`~repro.net.link.message_delay`
    call on the run's stream, the call the event-driven link makes, so
    the values are exactly the ones the engine would consume.  With loss
    the stream interleaving is data-dependent (a lost message draws no
    delay), hence one call per message.
    """

    def __init__(self, config: SimulationConfig) -> None:
        self._seed = config.seed
        self._delay = config.delay
        self._p_l = config.loss_probability
        try:
            per_delay = _FATES_CACHE.setdefault(config.delay, {})
        except TypeError:  # non-weakrefable delay object: skip the cache
            self._streams: Dict[int, _FateStream] = {}
        else:
            bucket = per_delay.setdefault((self._seed, self._p_l), {})
            if len(bucket) > _FATES_CACHE_MAX_STREAMS:
                bucket.clear()
            self._streams = bucket

    def fates(self, run_index: int, n_sent: int) -> np.ndarray:
        """Delays of the ``n_sent`` pre-crash heartbeats (``inf`` = lost)."""
        st = self._streams.get(run_index)
        if st is None:
            st = _FateStream(
                derive_rng(self._seed, STREAM_CRASH_RUN, run_index)
            )
            self._streams[run_index] = st
        if n_sent > st.n:
            self._extend(st, n_sent)
        return st.fates[:n_sent]

    def _extend(self, st: _FateStream, need: int) -> None:
        if need > st.fates.size:
            grown = np.empty(max(need, 2 * st.fates.size), dtype=float)
            grown[: st.n] = st.fates[: st.n]
            st.fates = grown
        f, rng, p_l, delay = st.fates, st.rng, self._p_l, self._delay
        for m in range(st.n, need):
            f[m] = message_delay(rng, p_l, delay)
        st.n = need


# --------------------------------------------------------------------- #
# Crash-run kernel: closed-form detection per algorithm
# --------------------------------------------------------------------- #


def _detect_nfds(
    A: np.ndarray,
    ends: np.ndarray,
    crash: np.ndarray,
    eta: float,
    delta: float,
) -> np.ndarray:
    """Detection times for NFD-S replicas from their arrival matrices."""
    n_rows, n_cols = A.shape
    if n_cols == 0:
        return np.zeros(n_rows, dtype=float)
    delivered = A <= ends[:, None]

    # Last freshness point that fires: i_end = max{i : i·η + δ ≤ end},
    # clamped to 0 — the window the detector's own rule puts ``end`` in.
    i_end = window_indices(ends, eta, delta)

    # Final output: trusting iff some delivered sequence number ≥ i_end
    # (any delivery at all when i_end = 0).
    any_del = delivered.any(axis=1)
    max_seq = np.where(
        any_del, n_cols - np.argmax(delivered[:, ::-1], axis=1), 0
    )
    trusting = any_del & (max_seq >= i_end)

    # F_i = earliest delivered arrival among seqs ≥ max(i, 1): a suffix
    # minimum over the arrival matrix (column c holds seq c+1).
    a_del = np.where(delivered, A, np.inf)
    sufmin = np.minimum.accumulate(a_del[:, ::-1], axis=1)[:, ::-1]
    i_max = int(i_end.max())
    idx = np.arange(i_max + 1, dtype=np.int64)
    src = np.maximum(idx, 1) - 1
    in_range = src < n_cols
    f_mat = np.full((n_rows, i_max + 1), np.inf)
    f_mat[:, in_range] = sufmin[:, src[in_range]]

    # Last window trusted just before its successor freshness point.
    tau_next = (idx + 1) * eta + delta
    qual = (f_mat < tau_next[None, :]) & (idx[None, :] <= i_end[:, None])
    has_l = qual.any(axis=1)
    last_l = i_max - np.argmax(qual[:, ::-1], axis=1)
    t_star = (last_l + 1) * eta + delta
    return np.where(
        trusting,
        np.inf,
        np.where(has_l, np.maximum(0.0, t_star - crash), 0.0),
    )


def _detect_sfd(
    A: np.ndarray,
    sends: np.ndarray,
    ends: np.ndarray,
    crash: np.ndarray,
    timeout: float,
    cutoff: Optional[float],
) -> np.ndarray:
    """Detection times for SFD replicas from their arrival matrices."""
    n_rows, n_cols = A.shape
    if n_cols == 0:
        return np.zeros(n_rows, dtype=float)
    accepted = A <= ends[:, None]
    if cutoff is not None:
        # The detector measures the delay as receive − send on the float
        # values it sees, so the filter uses A − σ rather than the raw
        # drawn delay (the round-trip can differ in the last ulp).
        accepted &= (A - sends[None, :]) <= cutoff
    has = accepted.any(axis=1)
    b_last = np.max(np.where(accepted, A, -np.inf), axis=1)
    expiry = b_last + timeout
    return np.where(
        ~has,
        0.0,
        np.where(expiry > ends, np.inf, np.maximum(0.0, expiry - crash)),
    )


def _detect_freshness(
    A: np.ndarray,
    ends: np.ndarray,
    crash: np.ndarray,
    spec: CrashKernelSpec,
) -> np.ndarray:
    """Detection times for NFD-U / NFD-E replicas."""
    n_rows, n_cols = A.shape
    if n_cols == 0:
        return np.zeros(n_rows, dtype=float)
    # Receipts in arrival order; the stable sort keeps equal arrivals in
    # sequence order, which is the engine's scheduling order for them.
    a_del = np.where(A <= ends[:, None], A, np.inf)
    order = np.argsort(a_del, axis=1, kind="stable")
    e_t = np.take_along_axis(a_del, order, axis=1)
    e_seq = order + 1  # column c carries seq c+1
    valid = np.isfinite(e_t)

    # Effective receipts: strict running maxima of the sequence number.
    seq_v = np.where(valid, e_seq, 0)
    cummax = np.maximum.accumulate(seq_v, axis=1)
    prev = np.concatenate(
        [np.zeros((n_rows, 1), dtype=cummax.dtype), cummax[:, :-1]], axis=1
    )
    eff = valid & (seq_v > prev)
    count = eff.sum(axis=1)

    # Left-pack the effective receipts so receipt ordinal = column.
    pack = np.argsort(~eff, axis=1, kind="stable")
    t = np.take_along_axis(e_t, pack, axis=1)
    s = np.take_along_axis(e_seq, pack, axis=1)
    pos = np.arange(n_cols)[None, :]
    active = pos < count[:, None]
    t = np.where(active, t, np.inf)
    s = np.where(active, s, 0)

    # τ per effective receipt, with the detectors' exact float grouping.
    if spec.kind == "nfdu":
        ea_fn = spec.expected_arrival
        assert ea_fn is not None
        ea_tab = np.array(
            [float(ea_fn(j)) for j in range(2, n_cols + 2)], dtype=float
        )
        tau = np.where(
            active, ea_tab[np.maximum(s, 1) - 1] + spec.alpha, -np.inf
        )
    else:
        win = spec.window
        eta = spec.eta
        norm = np.where(active, t - eta * s, 0.0)
        tau = np.empty((n_rows, n_cols), dtype=float)
        rolling = np.zeros(n_rows, dtype=float)
        for r in range(int(count.max())):
            rolling = rolling + norm[:, r]
            if r >= win:
                rolling = rolling - norm[:, r - win]
            n_r = min(r + 1, win)
            tau[:, r] = (rolling / n_r + eta * (s[:, r] + 1)) + spec.alpha
        tau = np.where(active, tau, -np.inf)

    rows = np.arange(n_rows)
    has = count > 0
    last = np.maximum(count - 1, 0)
    undetected = has & (tau[rows, last] > ends)

    # Last *fresh* receipt (arrived before its own freshness point); the
    # trust it establishes ends at its timer or at the next effective
    # receipt (then stale), whichever the engine reaches first.
    fresh = active & (tau > t)
    has_m = fresh.any(axis=1)
    m_prime = n_cols - 1 - np.argmax(fresh[:, ::-1], axis=1)
    t_ext = np.concatenate([t, np.full((n_rows, 1), np.inf)], axis=1)
    t_star = np.minimum(tau[rows, m_prime], t_ext[rows, m_prime + 1])
    return np.where(
        ~has,
        0.0,
        np.where(
            undetected,
            np.inf,
            np.where(has_m, np.maximum(0.0, t_star - crash), 0.0),
        ),
    )


def _crash_batch(
    spec: CrashKernelSpec,
    replayer: _FateReplayer,
    crash_times: np.ndarray,
    index0: int,
    settle: float,
    sends: np.ndarray,
) -> np.ndarray:
    """Detection times for one contiguous batch of crash runs."""
    ends = crash_times + settle
    n_sent = np.searchsorted(sends, crash_times, side="left")
    n_cols = int(n_sent.max()) if n_sent.size else 0
    n_rows = crash_times.size
    A = np.full((n_rows, n_cols), np.inf)
    for r in range(n_rows):
        n = int(n_sent[r])
        d = replayer.fates(index0 + r, n)
        A[r, :n] = sends[:n] + d
    if spec.kind == "nfds":
        return _detect_nfds(A, ends, crash_times, spec.eta, spec.delta)
    if spec.kind == "sfd":
        return _detect_sfd(
            A, sends[:n_cols], ends, crash_times, spec.timeout, spec.cutoff
        )
    return _detect_freshness(A, ends, crash_times, spec)


# Crash runs per kernel pass.  A pure execution choice: the tests patch
# it to show that no batch size changes a result.
_BATCH = 64


def run_crash_runs_batched(
    detector_factory: DetectorFactory,
    config: SimulationConfig,
    n_runs: int,
    jobs: Optional[int] = 1,
    settle_time: Optional[float] = None,
    keep_traces: bool = False,
) -> CrashRunResult:
    """Batched :func:`repro.sim.runner.run_crash_runs` — same results.

    Replicas are grouped into batches of :data:`_BATCH` and each batch
    is evaluated by one vectorized kernel pass; batches fan out over
    ``jobs`` workers (batch within a worker × workers across cores).
    Crash times, per-run streams and the detection semantics are those
    of the serial runner, so the output is bit-identical for every
    batch size and every ``jobs``.

    When no closed-form kernel applies — unknown detector type,
    non-perfect clocks, a ``link_factory`` or fault ``scenario`` on the
    config, or ``keep_traces=True`` (the kernel never builds traces) —
    this transparently falls back to
    :func:`repro.sim.runner.run_crash_runs` with the same ``jobs``.
    """
    spec = (
        None if keep_traces else crash_kernel_spec(detector_factory, config)
    )
    if spec is None:
        return run_crash_runs(
            detector_factory,
            config,
            n_runs,
            settle_time=settle_time,
            keep_traces=keep_traces,
            jobs=jobs,
        )
    crash_times, settle = _prepare_crash_runs(config, n_runs, None, settle_time)
    sends = _send_schedule(config.eta, float(crash_times.max()))
    spans = chunk_spans(n_runs, _BATCH)
    replayer = _FateReplayer(config)

    def span_fn(span: Tuple[int, int]) -> np.ndarray:
        start, stop = span
        return _crash_batch(
            spec, replayer, crash_times[start:stop], start, settle, sends
        )

    outs = parallel_map(span_fn, spans, jobs=jobs, chunk_size=1)
    detections = np.concatenate(outs)
    reg = _telemetry_active()
    if reg is not None:
        labels = {"kernel": spec.kind}
        reg.counter("batch_crash_runs_total", labels=labels).inc(n_runs)
        reg.counter("batch_crash_batches_total", labels=labels).inc(
            len(spans)
        )
    return CrashRunResult(
        detection_times=detections, crash_times=crash_times, traces=[]
    )

