"""Exact (not statistical) fastsim ↔ event-driven cross-validation.

A replay 'distribution' feeds the *same* per-message delays to the
vectorized simulator and to the event-driven detectors, so their output
traces must match transition-for-transition (not just in expectation).
This pins down the fastsim semantics far harder than moment comparisons.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU
from repro.core.simple import SimpleFD
from repro.metrics.qos import window_samples
from repro.net.delays import DelayDistribution
from repro.sim import fastsim
from repro.sim.engine import Simulator
from repro.sim.fastsim import (
    simulate_nfde_fast,
    simulate_nfds_fast,
    simulate_nfdu_fast,
    simulate_sfd_fast,
)
from repro.sim.monitor import DetectorHost


class ReplayDelay(DelayDistribution):
    """Replays a fixed sequence of delays, in order, across sample() calls."""

    def __init__(self, delays: np.ndarray) -> None:
        self._delays = np.asarray(delays, dtype=float)
        self._pos = 0

    @property
    def mean(self) -> float:
        return float(self._delays.mean())

    @property
    def variance(self) -> float:
        return float(self._delays.var())

    def cdf(self, x):  # pragma: no cover - not used by fastsim
        return np.clip(
            np.searchsorted(np.sort(self._delays), x, side="right")
            / self._delays.size,
            0,
            1,
        )

    def sample(self, rng, size: int) -> np.ndarray:
        out = self._delays[self._pos : self._pos + size]
        if out.size < size:
            raise RuntimeError("replay exhausted")
        self._pos += size
        return out.copy()

    def reset(self) -> "ReplayDelay":
        self._pos = 0
        return self


def run_event_driven(detector, delays, eta, horizon):
    """Drive a detector with arrivals A_j = j*eta + delays[j-1]."""
    sim = Simulator()
    host = DetectorHost(sim, detector)
    host.start()
    for j, d in enumerate(delays, start=1):
        if np.isfinite(d):
            sim.schedule_at(
                j * eta + float(d),
                lambda s=j, t=j * eta: host.deliver(s, t),
            )
    sim.run_until(horizon)
    return host.finish()


def random_delays(rng, n, mean, loss):
    d = rng.exponential(mean, n)
    d[rng.random(n) < loss] = np.inf
    return d


@pytest.mark.slow
class TestExactAgreement:
    """Transition-for-transition agreement on replayed workloads."""

    def test_nfds_exact(self, rng):
        eta, delta = 1.0, 1.3
        n = 5_000
        delays = random_delays(rng, n, 0.3, 0.1)
        fast = simulate_nfds_fast(
            eta,
            delta,
            0.0,  # losses are already inf in the replayed delays
            ReplayDelay(delays),
            target_mistakes=10**9,
            max_heartbeats=n,
            chunk_size=613,  # deliberately awkward chunking
        )
        trace = run_event_driven(
            NFDS(eta=eta, delta=delta), delays, eta, horizon=(n + 3) * eta
        )
        # Compare S-transition times after steady state (τ_1).
        des_s = trace.s_transition_times
        des_s = des_s[des_s > eta + delta]
        fast_s = fast.s_transition_times
        # fastsim processes windows 1..n-k; trim the DES tail past that.
        limit = (n - 2) * eta + delta
        np.testing.assert_allclose(
            fast_s[fast_s < limit], des_s[des_s < limit], atol=1e-9
        )

    def test_nfds_mistake_durations_exact(self, rng):
        eta, delta = 1.0, 0.7
        n = 5_000
        delays = random_delays(rng, n, 0.4, 0.15)
        fast = simulate_nfds_fast(
            eta,
            delta,
            0.0,
            ReplayDelay(delays),
            target_mistakes=10**9,
            max_heartbeats=n,
            chunk_size=977,
        )
        trace = run_event_driven(
            NFDS(eta=eta, delta=delta), delays, eta, horizon=(n + 3) * eta
        )
        # Pair durations by their S-transition start times.
        starts = trace.s_transition_times
        durations = window_samples(trace, trace.start_time)[1]
        des = {
            round(float(s), 9): float(d)
            for s, d in zip(starts[: durations.size], durations)
        }
        matched = 0
        for s, d in zip(fast.s_transition_times, fast.mistake_durations):
            key = round(float(s), 9)
            if key in des:
                assert d == pytest.approx(des[key], abs=1e-9)
                matched += 1
        assert matched >= fast.n_mistakes - 2  # boundary effects only

    def test_nfdu_exact(self, rng):
        eta, alpha, offset = 1.0, 0.5, 0.25
        n = 4_000
        delays = random_delays(rng, n, 0.3, 0.1)
        fast = simulate_nfdu_fast(
            eta,
            alpha,
            0.0,
            ReplayDelay(delays),
            ea_offset=offset,
            target_mistakes=10**9,
            max_heartbeats=n,
            chunk_size=499,
        )
        det = NFDU(
            eta=eta,
            alpha=alpha,
            expected_arrival=lambda i: i * eta + offset,
        )
        trace = run_event_driven(det, delays, eta, horizon=(n + 3) * eta)
        des_s = trace.s_transition_times
        # fastsim starts accounting at its warmup receipt; compare on the
        # overlap, ending before the stream tail.
        start = float(fast.s_transition_times[0]) - 1e-9
        limit = (n - 2) * eta
        des_s = des_s[(des_s >= start) & (des_s < limit)]
        fast_s = fast.s_transition_times
        fast_s = fast_s[fast_s < limit]
        np.testing.assert_allclose(fast_s, des_s, atol=1e-9)

    def test_nfde_exact(self, rng):
        eta, alpha, window = 1.0, 0.6, 16
        n = 4_000
        delays = random_delays(rng, n, 0.25, 0.08)
        fast = simulate_nfde_fast(
            eta,
            alpha,
            0.0,
            ReplayDelay(delays),
            window=window,
            target_mistakes=10**9,
            max_heartbeats=n,
            chunk_size=737,
        )
        det = NFDE(eta=eta, alpha=alpha, window=window)
        trace = run_event_driven(det, delays, eta, horizon=(n + 3) * eta)
        des_s = trace.s_transition_times
        if fast.n_mistakes == 0:
            return
        start = float(fast.s_transition_times[0]) - 1e-9
        limit = (n - 2) * eta
        des_s = des_s[(des_s >= start) & (des_s < limit)]
        fast_s = fast.s_transition_times
        fast_s = fast_s[fast_s < limit]
        np.testing.assert_allclose(fast_s, des_s, atol=1e-6)

    def test_sfd_exact(self, rng):
        eta, timeout, cutoff = 1.0, 1.4, 0.8
        n = 4_000
        delays = random_delays(rng, n, 0.4, 0.1)
        fast = simulate_sfd_fast(
            eta,
            timeout,
            0.0,
            ReplayDelay(delays),
            cutoff=cutoff,
            target_mistakes=10**9,
            max_heartbeats=n,
            chunk_size=311,
        )
        trace = run_event_driven(
            SimpleFD(timeout=timeout, cutoff=cutoff),
            delays,
            eta,
            horizon=(n + 3) * eta,
        )
        des_s = trace.s_transition_times
        # DES records the initial pre-first-heartbeat suspicion as the
        # initial output, not an S-transition, so the arrays align
        # directly; trim tails past the last mature arrival.
        limit = (n - 1) * eta
        des_s = des_s[des_s < limit]
        fast_s = fast.s_transition_times
        fast_s = fast_s[fast_s < limit]
        np.testing.assert_allclose(
            fast_s, des_s[: fast_s.size], atol=1e-9
        )


#: chunk size of the edge test; late delays sit on its chunk edges
EDGE_CHUNK = 31
EDGE_N = EDGE_CHUNK * 40


def chunk_edge_delays(rng):
    """Exp(0.02) delays, except the first and last message of a few
    chunks of 31, which take a delay in (η, 3η) with η = 1: the first is
    overtaken inside its chunk, the last across the chunk boundary."""
    d = rng.exponential(0.02, EDGE_N)
    for c in (2, 5, 9, 14, 20, 27, 33):
        d[c * EDGE_CHUNK] = rng.uniform(1.05, 2.95)
        d[(c + 1) * EDGE_CHUNK - 1] = rng.uniform(1.05, 2.95)
    return d


EDGE_RUN = dict(
    target_mistakes=10**9, max_heartbeats=EDGE_N, chunk_size=EDGE_CHUNK
)
EDGE_CASES = {
    "nfd-u": (
        lambda replay, **run: simulate_nfdu_fast(
            1.0, 0.3, 0.0, replay, ea_offset=0.02, **run
        ),
        lambda: NFDU(eta=1.0, alpha=0.3, expected_arrival=lambda i: i + 0.02),
    ),
    "nfd-e-1": (
        lambda replay, **run: simulate_nfde_fast(
            1.0, 0.3, 0.0, replay, window=1, **run
        ),
        lambda: NFDE(eta=1.0, alpha=0.3, window=1),
    ),
    "nfd-e-32": (
        lambda replay, **run: simulate_nfde_fast(
            1.0, 0.3, 0.0, replay, window=32, **run
        ),
        lambda: NFDE(eta=1.0, alpha=0.3, window=32),
    ),
    "sfd": (
        lambda replay, **run: simulate_sfd_fast(1.0, 1.2, 0.0, replay, **run),
        lambda: SimpleFD(timeout=1.2),
    ),
    "sfd-cutoff": (
        lambda replay, **run: simulate_sfd_fast(
            1.0, 1.2, 0.0, replay, cutoff=2.0, **run
        ),
        lambda: SimpleFD(timeout=1.2, cutoff=2.0),
    ),
}


@pytest.fixture
def guard_outcomes(monkeypatch):
    """The outcomes of the kernels' ordered-input guard: a chunk already
    in arrival order skips its sort, any other is sorted."""
    seen = set()
    ascending = fastsim._ascending

    def spy(x):
        out = ascending(x)
        seen.add(out)
        return out

    monkeypatch.setattr(fastsim, "_ascending", spy)
    return seen


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_inversions_at_chunk_edges(case, rng, guard_outcomes):
    """Messages overtaken at the first and last position of a chunk:
    the kernels take both the ordered and the sorting path of their
    guards and still match the event-driven detector mistake for
    mistake."""
    fast_run, detector = EDGE_CASES[case]
    delays = chunk_edge_delays(rng)
    fast = fast_run(ReplayDelay(delays), **EDGE_RUN)
    trace = run_event_driven(detector(), delays, 1.0, horizon=EDGE_N + 3.0)

    assert guard_outcomes == {True, False}
    assert_matches_event_driven(fast, trace)


def assert_matches_event_driven(fast, trace):
    """S-transitions and mistake durations of a kernel run over the
    edge stream equal the event-driven detector's."""
    # Compare from the kernel's first mistake (NFD-E's window warmup is
    # not accounted) to before the stream tail still pending.
    start = float(fast.s_transition_times[0]) - 1e-9
    limit = EDGE_N - 3.0
    des_s = trace.s_transition_times
    des_s = des_s[(des_s >= start) & (des_s < limit)]
    fast_s = fast.s_transition_times[fast.s_transition_times < limit]
    assert fast_s.size >= 10
    np.testing.assert_allclose(fast_s, des_s, atol=1e-9)
    des_tm = {
        round(float(t), 9): float(d)
        for t, d in zip(
            trace.s_transition_times, window_samples(trace, trace.start_time)[1]
        )
    }
    for s, d in zip(fast_s, fast.mistake_durations):
        assert d == pytest.approx(des_tm[round(float(s), 9)], abs=1e-9)


#: the edge stream in one draw, which the kernels fold in blocks
ONE_DRAW = dict(
    target_mistakes=10**9, max_heartbeats=EDGE_N, chunk_size=EDGE_N
)
BLOCK_CASES = {
    **EDGE_CASES,
    "nfd-s-1": (
        lambda replay, **run: simulate_nfds_fast(1.0, 0.5, 0.0, replay, **run),
        lambda: NFDS(eta=1.0, delta=0.5),
    ),
    "nfd-s-3": (
        lambda replay, **run: simulate_nfds_fast(1.0, 2.5, 0.0, replay, **run),
        lambda: NFDS(eta=1.0, delta=2.5),
    ),
}


def assert_bit_equal(fast, whole):
    """The same S-transition times and mistake durations, bit for bit."""
    for field in ("s_transition_times", "mistake_durations"):
        assert getattr(fast, field).tobytes() == getattr(whole, field).tobytes()


def block_edge_delays(rng):
    """:func:`chunk_edge_delays`, plus four messages lost around twelve
    other edges of 31, so that NFD-S with k = 3 (which needs three
    messages missing in a row) errs across an edge too."""
    d = chunk_edge_delays(rng)
    for c in (4, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35, 37):
        d[c * EDGE_CHUNK - 2 : c * EDGE_CHUNK + 2] = np.inf
    return d


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_inversions_at_block_edges(case, rng, guard_outcomes, monkeypatch):
    """One draw folded in blocks of 31: the late and lost messages sit
    on block edges.  The run is bit-equal to the same draw folded as
    one block (eq. 6.3's sum runs on across blocks) and matches the
    event-driven detector."""
    fast_run, detector = BLOCK_CASES[case]
    delays = block_edge_delays(rng)
    monkeypatch.setattr(fastsim, "_BLOCK", EDGE_N)
    whole = fast_run(ReplayDelay(delays), **ONE_DRAW)
    monkeypatch.setattr(fastsim, "_BLOCK", EDGE_CHUNK)
    guard_outcomes.clear()
    fast = fast_run(ReplayDelay(delays), **ONE_DRAW)

    assert_bit_equal(fast, whole)
    if not case.startswith("nfd-s"):  # NFD-S sorts nothing, so has no guard
        assert guard_outcomes == {True, False}
    trace = run_event_driven(detector(), delays, 1.0, horizon=EDGE_N + 3.0)
    assert_matches_event_driven(fast, trace)


@pytest.mark.parametrize("window", [1, 32])
def test_eq63_sum_runs_on_across_blocks(window, rng, monkeypatch):
    """Eq. (6.3)'s cumulative sum is carried across the blocks of a
    draw, not restarted per block: with delays near 40η the partial
    sums outgrow τ, so a restart would move τ by an ulp or more."""
    delays = 40.0 + rng.exponential(0.02, EDGE_N)
    delays[rng.random(EDGE_N) < 0.05] = np.inf

    def run(block):
        monkeypatch.setattr(fastsim, "_BLOCK", block)
        return simulate_nfde_fast(
            1.0, 0.3, 0.0, ReplayDelay(delays), window=window, **ONE_DRAW
        )

    whole, fast = run(EDGE_N), run(EDGE_CHUNK)
    assert fast.n_mistakes >= 10
    assert_bit_equal(fast, whole)
