"""Vectorized failure-detector simulators for benchmark-scale statistics.

The paper's Fig. 12 measures ``E(T_MR)`` over 500 mistake-recurrence
intervals per point.  At ``T_D^U = 3.5`` (η = 1, p_L = 0.01, exponential
delays with mean 0.02) the analytic ``E(T_MR)`` is ≈ 10⁶ heartbeat
periods, so one point needs ≈ 5·10⁸ simulated heartbeats — far beyond an
event-driven loop in Python.  This module exploits structural properties
of each algorithm to reduce a whole run to a handful of NumPy passes.

One driver, :func:`_run`, does everything the four kernels share: it
validates, seeds the generator, draws the arrival vector
``A_j = j·η + d_j`` (``∞`` for lost messages) chunk by chunk within the
heartbeat budget, tallies S-transitions, mistake durations, suspect and
total time, and records telemetry.  It tests its stopping rule only
between draws of ``chunk_size`` heartbeats: a run ends after the first
draw that brings the S-transition count to ``target_mistakes``, keeping
every S-transition of that draw, or once ``max_heartbeats`` are drawn.
So the count can pass the target by up to a draw's worth: Fig. 12's
row at ``T_D^U = 1.25`` asks for 200 and its NFD-S run tallies 39 899
in one 4·10⁶ draw.  Each kernel hands the driver a per-block closure
that holds only its closed form and the exact state it carries across
block boundaries (O(block) memory):

**NFD-S** (Proposition 13): within window ``[τ_i, τ_{i+1})`` only
messages ``m_i … m_{i+k}`` matter, so the entire output trace is a
function of the *windowed minimum* ``F_i = min(A_i, …, A_{i+k})`` of the
arrival-time vector (carry: the trailing ``k`` arrivals):

* q trusts during window i from ``max(τ_i, F_i)`` (if ``F_i < τ_{i+1}``);
* an S-transition occurs at ``τ_i`` iff ``F_{i-1} < τ_i ≤ F_i``
  (trusting just before ``τ_i``, nothing fresh at ``τ_i``);
* the mistake starting at ``τ_i`` ends at ``F_m`` for the first
  ``m ≥ i`` with ``F_m < τ_{m+1}``.

**NFD-U / NFD-E**: the output between consecutive *effective* receipts
(messages advancing the max sequence number ℓ) is fully determined by the
receipt time ``t_m`` and the freshness point ``τ_m`` computed at that
receipt — for NFD-U a constant shift, for NFD-E the eq. (6.3) rolling
mean over the last n effective receipts (carry: the pending immature
arrivals, ℓ and the rolling window).

**SFD** (fixed timeout TO restarted on every accepted receipt, optional
cutoff c): with identical timeouts, the expiry deadline is a running
maximum, so suspicion periods are exactly the gaps ``> TO`` in the sorted
accepted arrival times (carry: the sorted pending accepts).

NFD-S and NFD-U/E close their mistakes by one rule,
:meth:`_Tally.mistakes`.  The kernels are cross-validated against the
event-driven implementations in ``tests/sim/test_fastsim_exact.py``.

**Draws and blocks.**  A draw is the unit of randomness and of the
stopping rule; a block of :data:`_BLOCK` heartbeats is the unit of
work.  :func:`_draw_blocks` takes a draw's delays in one call and its
loss uniforms block by block (the generator yields the same stream
either way), so the RNG is consumed exactly as by a whole-draw fold.
Every closed form then runs on one block at a time: its dozen passes
stay in L2 instead of streaming draw-sized arrays from L3, and a call
holds the delay draw plus a few blocks.  The closures carry the same
exact state across a block edge as across a draw edge, and one float
grouping is kept on purpose: eq. (6.3)'s cumulative sum runs on across
the blocks of a draw (a block starts from the last partial sum and
keeps the last ``window`` of them) and restarts from the carried window
at a draw edge.  So every τ, S-transition time and mistake duration is
the float a whole-draw fold computes.  The one difference left is
``suspect_time`` and ``total_time``: float sums regrouped per block,
equal to a whole-draw fold's within a few ulps.

Each block costs a few passes, and the kernels skip the ones the input
makes moot while keeping every floating-point operation and its
grouping.  A stable sort of an ordered array is the identity: NFD-U/E
sort their receipts, and SFD its accepts, only when one
``x[1:] >= x[:-1]`` pass finds an inversion, and when the receipts'
sequence numbers ascend too, every receipt is effective.  At Fig. 12's
settings a delay longer than η has probability e⁻⁵⁰, so every block
takes the ordered path.  :func:`_draw_blocks` writes ``∞`` into the
delay draw it owns and adds the send times in one block-sized buffer,
and eq. (6.3)'s window means are the difference of two slices of one
cumulative sum.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.net.delays import DelayDistribution
from repro.telemetry.runtime import active as _telemetry_active

__all__ = [
    "FastAccuracyResult",
    "simulate_nfds_fast",
    "simulate_nfdu_fast",
    "simulate_nfde_fast",
    "simulate_sfd_fast",
]


@dataclass
class FastAccuracyResult:
    """Accuracy statistics from one vectorized failure-free run.

    ``e_tmr``/``e_tm`` are NaN when no (or not enough) mistakes were
    observed — which for large ``T_D^U`` is itself the headline result.
    """

    algorithm: str
    n_heartbeats: int
    total_time: float
    suspect_time: float
    s_transition_times: np.ndarray
    mistake_durations: np.ndarray
    truncated: bool  # hit max_heartbeats before target_mistakes

    @property
    def n_mistakes(self) -> int:
        return int(self.s_transition_times.size)

    @property
    def tmr_samples(self) -> np.ndarray:
        return np.diff(self.s_transition_times)

    @property
    def e_tmr(self) -> float:
        samples = self.tmr_samples
        return float(samples.mean()) if samples.size else math.nan

    @property
    def e_tm(self) -> float:
        if self.mistake_durations.size == 0:
            return math.nan
        return float(self.mistake_durations.mean())

    @property
    def query_accuracy(self) -> float:
        if self.total_time <= 0:
            return math.nan
        return 1.0 - self.suspect_time / self.total_time

    @property
    def mistake_rate(self) -> float:
        if self.total_time <= 0:
            return math.nan
        return self.n_mistakes / self.total_time


def _kernel_timer() -> Optional[float]:
    """Start-of-kernel timestamp, or ``None`` when telemetry is off.

    The disabled path is a single global read per *kernel call* (not per
    heartbeat), which is what keeps the instrumented-off overhead under
    the perf-trajectory budget.
    """
    return time.perf_counter() if _telemetry_active() is not None else None


# Metric handles per (registry, algorithm): the registry lookup formats
# a label string on every call, which is most of the recording cost on a
# kernel that finishes in a millisecond.  Weak keys let a discarded
# registry (and its cache entry) be collected normally.
_KERNEL_METRICS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _record_kernel(result: "FastAccuracyResult", t0: Optional[float]) -> None:
    """Record one kernel run into the active registry (if any)."""
    reg = _telemetry_active()
    if reg is None or t0 is None:
        return
    cache = _KERNEL_METRICS.get(reg)
    if cache is None:
        cache = _KERNEL_METRICS[reg] = {}
    handles = cache.get(result.algorithm)
    if handles is None:
        labels = {"algorithm": result.algorithm}
        handles = cache[result.algorithm] = (
            reg.counter("fastsim_runs_total", labels=labels),
            reg.counter("fastsim_heartbeats_total", labels=labels),
            reg.counter("fastsim_mistakes_total", labels=labels),
            reg.histogram("fastsim_run_seconds", labels=labels),
        )
    runs, heartbeats, mistakes, seconds = handles
    runs.inc()
    heartbeats.inc(result.n_heartbeats)
    mistakes.inc(result.n_mistakes)
    seconds.observe(time.perf_counter() - t0)




def _validate_common(
    eta: float,
    loss_probability: float,
    target_mistakes: int,
    max_heartbeats: int,
    warmup: float,
    cutoff: Optional[float],
) -> None:
    if eta <= 0:
        raise InvalidParameterError(f"eta must be positive, got {eta}")
    if not 0.0 <= loss_probability < 1.0:
        raise InvalidParameterError(
            f"loss_probability must be in [0,1), got {loss_probability}"
        )
    if target_mistakes < 1:
        raise InvalidParameterError(
            f"target_mistakes must be >= 1, got {target_mistakes}"
        )
    if max_heartbeats < 1:
        raise InvalidParameterError(
            f"max_heartbeats must be >= 1, got {max_heartbeats}"
        )
    if warmup < 0:
        raise InvalidParameterError(f"warmup must be >= 0, got {warmup}")
    if cutoff is not None and cutoff <= 0:
        raise InvalidParameterError(f"cutoff must be positive, got {cutoff}")


#: Heartbeats a kernel folds at a time.  A draw of ``chunk_size`` is cut
#: into blocks this long, so the dozen passes a block costs stay in a
#: 2 MiB L2 instead of streaming 32 MB arrays from L3.  Swept over
#: 2¹³–2¹⁸ on Fig. 12 row 2 (T_D^U = 1.25, 4·10⁶ heartbeats a kernel,
#: best of 5, summed over the four kernels; median of five rounds on a
#: 2-core Xeon VM with 2 MiB L2 a core): 2¹³ 456 ms, 2¹⁴ 435, 2¹⁵ 404,
#: 2¹⁶ 427, 2¹⁷ 477, 2¹⁸ 483 (the whole draw at once: 737–837).
_BLOCK = 1 << 15


def _draw_blocks(
    delay: DelayDistribution,
    loss_probability: float,
    rng: np.random.Generator,
    first: int,
    size: int,
    eta: float,
    cutoff: Optional[float],
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """One draw of ``size`` heartbeats from sequence number ``first``,
    as ``(seqs, arrivals)`` blocks of at most :data:`_BLOCK`.

    The arrivals are ``A_j = j·η + d_j``, ``∞`` for lost messages and,
    under an SFD cutoff ``c``, for messages delayed past ``c``.  The
    generator is consumed as one ``size`` draw: all delays first, then
    the loss uniforms, which ``Generator.random`` yields alike in one
    call or block by block.  The delay draw is the caller's to
    overwrite (the ``sample`` contract), so each block's dropped
    messages become ``∞`` in place through one mask.
    """
    d = delay.sample(rng, size).astype(float, copy=False)
    for lo in range(0, size, _BLOCK):
        block = d[lo : lo + _BLOCK]
        drop = None
        if loss_probability > 0.0:
            drop = rng.random(block.size) < loss_probability
        if cutoff is not None:
            late = block > cutoff
            drop = late if drop is None else np.logical_or(drop, late, out=drop)
        if drop is not None:
            np.copyto(block, np.inf, where=drop)
        seqs = np.arange(first + lo, first + lo + block.size, dtype=np.int64)
        arrivals = seqs * eta
        arrivals += block
        yield seqs, arrivals


def _ascending(x: np.ndarray) -> bool:
    """Whether ``x`` is non-decreasing — a stable sort of it is then the
    identity, so the kernels sort only a block with an inversion."""
    return bool(np.all(x[1:] >= x[:-1]))


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two individually sorted arrays into one sorted array.

    A stable mergesort on the concatenation detects the two pre-sorted
    runs and merges them in O(n), so callers that keep their buffers
    sorted never pay for a full re-sort.
    """
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    out = np.concatenate([a, b])
    out.sort(kind="stable")
    return out


# --------------------------------------------------------------------- #
# The driver
# --------------------------------------------------------------------- #


class _Tally:
    """What a run has measured so far; the driver stops on ``n_s``."""

    def __init__(self) -> None:
        self.s_times: List[np.ndarray] = []
        self.durations: List[np.ndarray] = []
        self.n_s = 0
        self.suspect_time = 0.0
        self.total_time = 0.0
        # Start of the mistake no trust resumption has closed yet.
        self.open_start: Optional[float] = None

    def add(self, starts: np.ndarray, durations: np.ndarray) -> None:
        self.s_times.append(starts)
        self.durations.append(durations)
        self.n_s += int(starts.size)

    def mistakes(
        self,
        starts: np.ndarray,
        s_idx: np.ndarray,
        resumes: np.ndarray,
        g_idx: np.ndarray,
        side: str,
    ) -> None:
        """Tally the S-transitions at ``starts[s_idx]`` against the trust
        resumptions at ``resumes[g_idx]`` (both index vectors ascending).

        A mistake that starts at an S-transition ends at the first
        resumption at (``side="left"``) or after (``"right"``) its
        index; a mistake left open closes at the next chunk's first
        resumption.
        """
        if self.open_start is not None and g_idx.size:
            end = float(resumes[g_idx[0]])
            self.durations.append(np.array([end - self.open_start]))
            self.open_start = None
        if s_idx.size:
            pos = np.searchsorted(g_idx, s_idx, side=side)
            closed = pos < g_idx.size
            ends = resumes[g_idx[pos[closed]]]
            if not closed[-1]:
                # Only the *last* S-transition can be unresolved: any
                # earlier one is followed by a trust resumption before
                # the next S-transition, which closes it.
                self.open_start = float(starts[s_idx[-1]])
            self.add(starts[s_idx], ends - starts[s_idx[closed]])


#: ``chunk(tally, seqs, arrivals, draw_start)`` folds the next block into
#: the tally; ``draw_start`` marks the first block of a draw
_Chunk = Callable[[_Tally, np.ndarray, np.ndarray, bool], None]


def _run(
    algorithm: str,
    kernel: Callable[[], Tuple[_Chunk, int]],
    eta: float,
    loss_probability: float,
    delay: DelayDistribution,
    seed: int,
    target_mistakes: int,
    max_heartbeats: int,
    chunk_size: int,
    warmup: float,
    cutoff: Optional[float] = None,
) -> FastAccuracyResult:
    """Drive one kernel over the chunked heartbeat stream.

    ``kernel()`` runs once the common parameters are valid and returns
    the per-block closure and the number of heartbeats its first window
    needs — the one draw allowed past ``max_heartbeats``, when the cap
    itself is smaller.

    The run draws ``chunk_size`` heartbeats at a time and checks its
    stopping rule only between draws: it ends after the first draw that
    brings the S-transition count to ``target_mistakes`` (every
    S-transition of that draw is kept, so the count may exceed the
    target by up to a draw's worth), or once ``max_heartbeats`` are
    drawn.
    """
    _validate_common(
        eta, loss_probability, target_mistakes, max_heartbeats, warmup, cutoff
    )
    chunk, floor = kernel()
    t0 = _kernel_timer()
    rng = np.random.default_rng(seed)
    tally = _Tally()
    heartbeats = 0
    truncated = False
    while tally.n_s < target_mistakes:
        if heartbeats >= max_heartbeats:
            truncated = True
            break
        # Top a draw up only to the floor, so the final chunk never
        # overshoots the documented heartbeat budget.
        draw = max(
            int(min(chunk_size, max_heartbeats - heartbeats)),
            floor - heartbeats,
        )
        blocks = _draw_blocks(
            delay, loss_probability, rng, heartbeats + 1, draw, eta, cutoff
        )
        heartbeats += draw
        for i, (seqs, arrivals) in enumerate(blocks):
            chunk(tally, seqs, arrivals, i == 0)

    def joined(parts: List[np.ndarray]) -> np.ndarray:
        return np.concatenate(parts) if parts else np.empty(0, dtype=float)

    result = FastAccuracyResult(
        algorithm=algorithm,
        n_heartbeats=heartbeats,
        total_time=tally.total_time,
        suspect_time=tally.suspect_time,
        s_transition_times=joined(tally.s_times),
        mistake_durations=joined(tally.durations),
        truncated=truncated,
    )
    _record_kernel(result, t0)
    return result


# --------------------------------------------------------------------- #
# NFD-S
# --------------------------------------------------------------------- #


def _nfds_chunks(
    eta: float, delta: float, warmup: float
) -> Tuple[_Chunk, int]:
    """The windowed-minimum kernel; its first window needs ``k+1``
    arrivals."""
    if delta < 0:
        raise InvalidParameterError(f"delta must be >= 0, got {delta}")
    k = int(math.ceil(delta / eta - 1e-12))
    carry = np.empty(0, dtype=float)  # A for trailing k seqs
    prev_f: Optional[float] = None  # F_{i-1} of the first window this chunk
    warming = warmup > 0.0
    windows = 0

    def chunk(
        tally: _Tally, seqs: np.ndarray, new: np.ndarray, _draw_start: bool
    ) -> None:
        nonlocal carry, prev_f, warming, windows
        start_seq = int(seqs[0]) - carry.size  # seq of arrivals[0]
        arrivals = np.concatenate([carry, new])
        m = arrivals.size - k  # windows computable: i = start_seq .. +m-1
        if m <= 0:
            carry = arrivals
            return
        # The carry for the next chunk is fixed by the *full* window
        # count, before any warmup trimming below.
        carry = arrivals[m:].copy()
        f = arrivals[:m]  # F is only read, so a view serves when k = 0
        for j in range(1, k + 1):
            f = np.minimum(f, arrivals[j : j + m], out=f if j > 1 else None)

        tau = np.arange(start_seq, start_seq + m, dtype=float)
        tau *= eta
        tau += delta
        tau_next = tau + eta

        # Steady-state guard: drop leading windows whose freshness point
        # precedes the warmup (their arrivals still feed the windowed
        # minimum via prev_f, so the first retained window joins the
        # stream mid-steady-state rather than at a fake cold start).
        if warming:
            nskip = int(np.searchsorted(tau, warmup, side="left"))
            if nskip >= m:
                prev_f = float(f[-1])
                return
            if nskip:
                prev_f = float(f[nskip - 1])
                f = f[nskip:]
                tau = tau[nskip:]
                tau_next = tau_next[nskip:]
                m -= nskip
            warming = False

        # Suspect time per window: from τ_i until trust (capped at τ_{i+1}).
        sus = np.minimum(f, tau_next)
        sus -= tau
        tally.suspect_time += float(np.sum(np.clip(sus, 0.0, eta, out=sus)))
        windows += m
        tally.total_time = windows * eta

        # S-transitions at τ_i: trusted just before (F_{i-1} < τ_i) and no
        # fresh message at τ_i (F_i > τ_i).  Before τ_1 the output is S by
        # initialization, so no S-transition can occur at τ_1 itself.
        s_at = f > tau
        s_at[1:] &= f[:-1] < tau[1:]
        s_at[0] &= prev_f is not None and prev_f < tau[0]
        s_local = np.nonzero(s_at)[0]
        # Trust resumes in window m at F_m when F_m < τ_{m+1}.
        g_local = np.nonzero(f < tau_next)[0]
        tally.mistakes(tau, s_local, f, g_local, side="left")
        prev_f = float(f[-1])

    return chunk, k + 1


def simulate_nfds_fast(
    eta: float,
    delta: float,
    loss_probability: float,
    delay: DelayDistribution,
    seed: int = 0,
    target_mistakes: int = 500,
    max_heartbeats: int = 200_000_000,
    chunk_size: int = 4_000_000,
    warmup: float = 0.0,
) -> FastAccuracyResult:
    """Failure-free NFD-S run until a draw reaches ``target_mistakes``
    S-transitions (the stopping rule in the module docstring).

    Measurement starts at the first freshness point ``τ_1`` (NFD-S is in
    steady state from there, Section 3.2) or, if later, at the first
    freshness point ``≥ warmup`` — the arrivals before it still seed the
    windowed minimum, they are just excluded from the accounting.
    """
    return _run(
        "nfd-s",
        lambda: _nfds_chunks(eta, delta, warmup),
        eta,
        loss_probability,
        delay,
        seed,
        target_mistakes,
        max_heartbeats,
        chunk_size,
        warmup,
    )


# --------------------------------------------------------------------- #
# NFD-U / NFD-E (shared interval machinery)
# --------------------------------------------------------------------- #


def _freshness_chunks(
    eta: float,
    alpha: float,
    ea_offset: Optional[float],
    window: Optional[int],
    warmup: float,
) -> Tuple[_Chunk, int]:
    """The effective-receipt kernel of NFD-U (``ea_offset`` known) and
    NFD-E (rolling ``window``).

    Works on the stream of *effective* receipts (sequence-number maxima
    in arrival order).  For each effective receipt ``(t_m, s_m)`` the
    next freshness point is

        NFD-U:  ``τ_m = (s_m + 1)·η + ea_offset + α``
        NFD-E:  ``τ_m = mean(last n normalized receipts) + (s_m+1)·η + α``

    and the output on ``[t_m, t_{m+1})`` is T on ``[t_m, τ_m)`` (when
    nonempty) and S on ``[max(t_m, τ_m), t_{m+1})``.

    ``warmup`` additionally drops effective receipts before that time
    from the accounting (they still feed the EA estimator), as a
    steady-state guard on top of the window-fill warmup.
    """
    ell = 0  # running max sequence number received
    # Messages received but not yet *mature*: a message arriving after
    # the chunk's last send time may still be overtaken by arrivals from
    # the next chunk, so it is buffered until the boundary passes it.
    pend_seq = np.empty(0, dtype=np.int64)
    pend_t = np.empty(0, dtype=float)
    # Rolling normalized-receipt window for NFD-E (most recent last).
    norm_carry = np.empty(0, dtype=float)
    # Eq. (6.3)'s cumulative sum runs over a whole draw: `sums` holds its
    # last `window` partial sums, the last of them over `pos` entries.
    # A draw restarts it from `norm_carry` (`sums` None until then).
    sums: Optional[np.ndarray] = None
    pos = 0
    # Interval carried across chunks: last effective receipt + its τ.
    t_prev: Optional[float] = None
    tau_prev: Optional[float] = None
    # Warmup: skip accounting until the NFD-E window has filled once (for
    # NFD-U a single effective receipt suffices).
    warm_needed = window if window is not None else 1
    warm_seen = 0
    warming_time = warmup > 0.0

    def chunk(
        tally: _Tally, seqs: np.ndarray, arrivals: np.ndarray, draw_start: bool
    ) -> None:
        nonlocal ell, pend_seq, pend_t, norm_carry, sums, pos, t_prev, tau_prev
        nonlocal warm_seen, warming_time
        if draw_start:
            sums = None
        received = np.isfinite(arrivals)
        all_seq = np.concatenate([pend_seq, seqs[received]])
        all_t = np.concatenate([pend_t, arrivals[received]])
        # Arrival order (delays can reorder messages).  A stable sort
        # keeps ties in stream order, so the pending tail it leaves
        # sorted meets the next chunk in the same order as unsorted.
        if not _ascending(all_t):
            order = np.argsort(all_t, kind="stable")
            all_seq = all_seq[order]
            all_t = all_t[order]
        # Only arrivals at or before this chunk's last send time are
        # final — later ones may interleave with the next chunk's
        # messages, so they stay pending.
        split = int(np.searchsorted(all_t, int(seqs[-1]) * eta, side="right"))
        pend_seq = all_seq[split:].copy()
        pend_t = all_t[split:].copy()
        if split == 0:
            return
        r_seq = all_seq[:split]
        r_t = all_t[:split]
        # Effective receipts: sequence number exceeds everything before.
        if r_seq[0] > ell and bool(np.all(r_seq[1:] > r_seq[:-1])):
            e_seq, e_t = r_seq, r_t  # every receipt advances ℓ
        else:
            cummax = np.maximum.accumulate(r_seq)
            eff = np.empty(r_seq.size, dtype=bool)
            eff[0] = r_seq[0] > ell
            eff[1:] = (r_seq[1:] == cummax[1:]) & (r_seq[1:] > cummax[:-1])
            if ell > 0:
                eff &= r_seq > ell
            e_seq = r_seq[eff]
            e_t = r_t[eff]
            if e_seq.size == 0:
                return
        ell = int(e_seq[-1])

        # τ for each effective receipt: (s+1)·η (exact in float below
        # 2⁵³) plus the EA offset — a constant for NFD-U, NFD-E's eq. 6.3
        # window mean — plus α.
        tau = e_seq + 1.0
        tau *= eta
        if ea_offset is not None:
            tau += ea_offset
        else:
            assert window is not None
            if sums is None:
                # A draw's sum starts over its carried window.
                sums = np.zeros(norm_carry.size + 1, dtype=float)
                np.cumsum(norm_carry, out=sums[1:])
                pos = norm_carry.size
            # The normalized receipts t − s·η after the carried sums;
            # csum[j] of entry j of the draw is buf[j − base].
            c = sums.size
            m = e_seq.size
            base = pos + 1 - c
            buf = np.empty(c + m, dtype=float)
            buf[:c] = sums
            norm = np.multiply(e_seq, eta, out=buf[c:])
            np.subtract(e_t, norm, out=norm)
            if m >= window:
                norm_carry = norm[m - window :].copy()
            else:
                norm_carry = np.concatenate([norm_carry, norm])[-window:]
            np.cumsum(buf[c - 1 :], out=buf[c - 1 :])
            # Entry q averages the last min(window, q+1) entries: a full
            # window is the difference of two slices of the sum; only the
            # first window−1 receipts of a run divide by their count.
            end = pos + m
            q0 = min(max(pos, window - 1), end)
            q = np.arange(pos, q0)
            tau[: q0 - pos] += buf[q + 1 - base] / (q + 1)
            lo, hi = q0 + 1 - base, end + 1 - base
            means = buf[lo:hi] - buf[lo - window : hi - window]
            means /= window
            tau[q0 - pos :] += means
            pos = end
            sums = buf[-min(window, end + 1) :].copy()
        tau += alpha

        # Warmup: the first `warm_needed` effective receipts feed the
        # estimator but are excluded from accounting (steady-state guard).
        if warm_seen < warm_needed:
            take = min(warm_needed - warm_seen, int(e_t.size))
            warm_seen += take
            e_t = e_t[take:]
            tau = tau[take:]
            # Measurement (re)starts at the first retained receipt; any
            # pre-warm carry interval must not count.
            t_prev = None
            tau_prev = None
            if e_t.size == 0:
                return

        # Time-based steady-state guard: drop receipts before `warmup`
        # (a prefix, since e_t is ascending); measurement restarts at the
        # first retained receipt.
        if warming_time:
            nskip = int(np.searchsorted(e_t, warmup, side="left"))
            if nskip:
                e_t = e_t[nskip:]
                tau = tau[nskip:]
                t_prev = None
                tau_prev = None
            if e_t.size == 0:
                return
            warming_time = False

        # Build the interval stream: carry + this chunk's receipts.
        if t_prev is not None:
            ts = np.concatenate([[t_prev], e_t])
            taus = np.concatenate([[tau_prev], tau])
        else:
            ts = e_t
            taus = tau
        # The trailing interval [ts[-1], ?) closes in a later chunk.
        t_prev = float(ts[-1])
        tau_prev = float(taus[-1])
        if ts.size < 2:
            return

        # Intervals [ts[m], ts[m+1]) with freshness point taus[m].
        t_start = ts[:-1]
        t_end = ts[1:]
        tq = taus[:-1]
        tally.total_time += float(t_end[-1] - t_start[0])
        trust_at = tq > t_start
        # Suspect time per interval: from max(t, τ) on (all of it when
        # τ ≤ t, as the receipts are ascending).
        sus = np.maximum(tq, t_start)
        np.subtract(t_end, sus, out=sus)
        tally.suspect_time += float(np.sum(np.clip(sus, 0.0, None, out=sus)))

        # S-transitions: τ falls strictly inside a trusted interval; the
        # mistake starting at τ_m (inside interval m) ends at the first
        # interval start m' > m that starts trusting.
        s_local = np.nonzero(trust_at & (tq < t_end))[0]
        g_local = np.nonzero(trust_at)[0]
        tally.mistakes(tq, s_local, t_start, g_local, side="right")

    return chunk, 1


def simulate_nfdu_fast(
    eta: float,
    alpha: float,
    loss_probability: float,
    delay: DelayDistribution,
    ea_offset: Optional[float] = None,
    seed: int = 0,
    target_mistakes: int = 500,
    max_heartbeats: int = 200_000_000,
    chunk_size: int = 4_000_000,
    warmup: float = 0.0,
) -> FastAccuracyResult:
    """Failure-free NFD-U run (expected arrival times *known*).

    ``ea_offset`` is the constant by which expected arrivals trail the
    nominal send times — ``E(D)`` plus any clock skew; defaults to the
    delay distribution's mean (perfectly known EA, as the paper assumes).
    """
    offset = delay.mean if ea_offset is None else float(ea_offset)
    return _run(
        "nfd-u",
        lambda: _freshness_chunks(eta, alpha, offset, None, warmup),
        eta,
        loss_probability,
        delay,
        seed,
        target_mistakes,
        max_heartbeats,
        chunk_size,
        warmup,
    )


def simulate_nfde_fast(
    eta: float,
    alpha: float,
    loss_probability: float,
    delay: DelayDistribution,
    window: int = 32,
    seed: int = 0,
    target_mistakes: int = 500,
    max_heartbeats: int = 200_000_000,
    chunk_size: int = 4_000_000,
    warmup: float = 0.0,
) -> FastAccuracyResult:
    """Failure-free NFD-E run (expected arrival times *estimated*,
    eq. 6.3, over the ``window`` most recent heartbeats)."""
    if window < 1:
        raise InvalidParameterError(f"window must be >= 1, got {window}")
    return _run(
        "nfd-e",
        lambda: _freshness_chunks(eta, alpha, None, int(window), warmup),
        eta,
        loss_probability,
        delay,
        seed,
        target_mistakes,
        max_heartbeats,
        chunk_size,
        warmup,
    )


# --------------------------------------------------------------------- #
# SFD (the common algorithm)
# --------------------------------------------------------------------- #


def _sfd_chunks(
    eta: float, timeout: float, warmup: float
) -> Tuple[_Chunk, int]:
    """The sorted-gap kernel over the accepted receipts."""
    if timeout <= 0:
        raise InvalidParameterError(f"timeout must be positive, got {timeout}")
    last_accept: Optional[float] = None
    # Arrivals past the chunk's last send time may be overtaken by the
    # next chunk's messages; buffer them (sorted) until mature.
    pend = np.empty(0, dtype=float)
    warming = warmup > 0.0

    def chunk(
        tally: _Tally, seqs: np.ndarray, arrivals: np.ndarray, _draw_start: bool
    ) -> None:
        nonlocal last_accept, pend, warming
        new = arrivals[np.isfinite(arrivals)]
        if not _ascending(new):
            new.sort()
        boundary = int(seqs[-1]) * eta
        # ``pend`` is kept sorted, so the mature/immature split of both
        # buffers is a prefix slice and the combination is a linear merge
        # of sorted runs — only this chunk's fresh arrivals ever get a
        # full sort.
        split_new = int(np.searchsorted(new, boundary, side="right"))
        split_pend = int(np.searchsorted(pend, boundary, side="right"))
        b = _merge_sorted(pend[:split_pend], new[:split_new])
        pend = _merge_sorted(pend[split_pend:], new[split_new:])
        if b.size == 0:
            return
        # Steady-state guard: measurement starts at the first accepted
        # receipt >= warmup; earlier accepts are discarded outright.
        if warming:
            b = b[int(np.searchsorted(b, warmup, side="left")) :]
            if b.size == 0:
                return
            warming = False
        if last_accept is not None:
            b = np.concatenate([[last_accept], b])
        last_accept = float(b[-1])
        if b.size < 2:
            return
        gaps = np.diff(b)
        tally.total_time += float(b[-1] - b[0])
        over = gaps > timeout
        excess = gaps[over] - timeout
        tally.suspect_time += float(np.sum(excess))
        starts = b[:-1][over] + timeout
        if starts.size:
            tally.add(starts, excess)

    return chunk, 1


def simulate_sfd_fast(
    eta: float,
    timeout: float,
    loss_probability: float,
    delay: DelayDistribution,
    cutoff: Optional[float] = None,
    seed: int = 0,
    target_mistakes: int = 500,
    max_heartbeats: int = 200_000_000,
    chunk_size: int = 4_000_000,
    warmup: float = 0.0,
) -> FastAccuracyResult:
    """Failure-free run of the common algorithm (optional cutoff).

    Suspicion periods are the gaps ``> TO`` between consecutive *accepted*
    receipts (sorted by arrival time): the S-transition fires at
    ``B_t + TO`` and the next accepted receipt at ``B_{t+1}`` retracts it,
    so ``T_M = B_{t+1} − B_t − TO`` exactly.

    ``warmup`` starts the measurement at the first accepted receipt at
    or after that time (steady-state guard).
    """
    return _run(
        "sfd" if cutoff is None else "sfd-cutoff",
        lambda: _sfd_chunks(eta, timeout, warmup),
        eta,
        loss_probability,
        delay,
        seed,
        target_mistakes,
        max_heartbeats,
        chunk_size,
        warmup,
        cutoff,
    )
