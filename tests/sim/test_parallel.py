"""Determinism tests for the parallel executor and seed derivation.

The invariant under test: for a fixed seed, every result — detection
times, S-transition times, experiment table rows — is *bit-identical*
whether computed serially, with ``jobs=4``, or with any chunk size.
Plus regression tests pinning the namespaced seed-derivation scheme so
RNG streams can never silently collide again.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.errors import InvalidParameterError
from repro.net.delays import ExponentialDelay
from repro.sim.fastsim import simulate_nfds_fast, simulate_sfd_fast
from repro.sim.parallel import (
    chunk_spans,
    default_chunk_size,
    parallel_map,
    resolve_jobs,
)
from repro.sim.runner import (
    SimulationConfig,
    run_crash_runs,
    run_failure_free,
    run_failure_free_parallel,
)
from repro.telemetry.runtime import enabled as telemetry_enabled
from repro.sim.seeds import (
    STREAM_CRASH_RUN,
    STREAM_CRASH_TIMES,
    STREAM_FAILURE_FREE,
    STREAM_FASTSIM,
    derive_rng,
    seed_sequence,
    stream_key,
)


def _config(seed: int = 42, horizon: float = 200.0) -> SimulationConfig:
    return SimulationConfig(
        eta=1.0,
        delay=ExponentialDelay(0.3),
        loss_probability=0.1,
        horizon=horizon,
        warmup=5.0,
        seed=seed,
    )


def _factory():
    return NFDS(eta=1.0, delta=1.0)


# --------------------------------------------------------------------- #
# Seed derivation: the namespacing scheme is part of the repo's
# reproducibility contract.  These values are pinned; changing any of
# them silently changes every published number.
# --------------------------------------------------------------------- #


class TestSeedDerivation:
    def test_stream_tags_are_pinned(self):
        assert STREAM_FAILURE_FREE == 0xF1EE
        assert STREAM_CRASH_RUN == 0xC0DE
        assert STREAM_CRASH_TIMES == 0xC4A54
        assert STREAM_FASTSIM == 0xFA57

    def test_stream_tags_are_distinct(self):
        tags = {
            STREAM_FAILURE_FREE,
            STREAM_CRASH_RUN,
            STREAM_CRASH_TIMES,
            STREAM_FASTSIM,
        }
        assert len(tags) == 4

    def test_keys_disjoint_across_streams_and_indices(self):
        # Enumerate every key a realistic experiment would derive and
        # check global uniqueness — the property the old scheme lacked.
        seed = 7
        keys = set()
        for stream in (
            STREAM_FAILURE_FREE,
            STREAM_CRASH_RUN,
            STREAM_FASTSIM,
        ):
            for index in range(2000):
                keys.add(stream_key(seed, stream, index))
        keys.add(stream_key(seed, STREAM_CRASH_TIMES))
        assert len(keys) == 3 * 2000 + 1

    def test_regression_crash_run_vs_failure_free_collision(self):
        # Old bug: crash run i used SeedSequence([seed, i + 1]) while
        # failure-free run run_index used SeedSequence([seed, run_index]),
        # so crash run 0 and failure-free run 1 shared a stream.  The
        # namespaced keys must differ for *every* index pair.
        seed = 123
        crash_keys = {stream_key(seed, STREAM_CRASH_RUN, i) for i in range(500)}
        ff_keys = {
            stream_key(seed, STREAM_FAILURE_FREE, i) for i in range(500)
        }
        assert not crash_keys & ff_keys

    def test_regression_crash_times_tag_vs_large_run_index(self):
        # Old bug: the crash-time draw used SeedSequence([seed, 0xC4A54]),
        # colliding with a (hypothetical) run index of 0xC4A54.
        seed = 5
        assert stream_key(seed, STREAM_CRASH_TIMES) != stream_key(
            seed, STREAM_FAILURE_FREE, 0xC4A54
        )
        assert stream_key(seed, STREAM_CRASH_TIMES) != stream_key(
            seed, STREAM_CRASH_RUN, 0xC4A54
        )

    def test_streams_produce_distinct_draws(self):
        a = derive_rng(0, STREAM_CRASH_RUN, 0).random(8)
        b = derive_rng(0, STREAM_FAILURE_FREE, 1).random(8)
        c = derive_rng(0, STREAM_CRASH_RUN, 0).random(8)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)  # same key => same stream

    def test_seed_sequence_entropy_is_the_key(self):
        ss = seed_sequence(9, STREAM_FASTSIM, 3)
        assert tuple(ss.entropy) == stream_key(9, STREAM_FASTSIM, 3)

    def test_negative_inputs_rejected(self):
        with pytest.raises(InvalidParameterError):
            stream_key(-1, STREAM_CRASH_RUN, 0)
        with pytest.raises(InvalidParameterError):
            stream_key(0, STREAM_CRASH_RUN, -2)


# --------------------------------------------------------------------- #
# Scheduling plumbing
# --------------------------------------------------------------------- #


class TestChunking:
    def test_spans_cover_range_exactly(self):
        spans = chunk_spans(10, 3)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]
        covered = [i for start, stop in spans for i in range(start, stop)]
        assert covered == list(range(10))

    def test_invalid_chunk_size(self):
        with pytest.raises(InvalidParameterError):
            chunk_spans(10, 0)

    def test_default_chunk_size_targets_four_chunks_per_worker(self):
        assert default_chunk_size(100, 4) == 7  # ceil(100 / 16)
        assert default_chunk_size(3, 8) == 1  # never zero

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)
        with pytest.raises(InvalidParameterError):
            resolve_jobs(-1)


class TestParallelMap:
    def test_order_preserved_across_jobs_and_chunking(self):
        items = list(range(37))
        expected = [i * i for i in items]
        for jobs in (1, 4):
            for chunk_size in (None, 1, 5, 64):
                got = parallel_map(
                    lambda x: x * x, items, jobs=jobs, chunk_size=chunk_size
                )
                assert got == expected

    def test_empty_items(self):
        assert parallel_map(lambda x: x, [], jobs=4) == []

    def test_stats_account_for_every_item(self):
        # The fan-out reports itself through the parallel_* telemetry
        # series, one chunk timing each, even when the chunks ran in
        # forked workers.
        with telemetry_enabled() as reg:
            results = parallel_map(
                lambda x: -x, list(range(20)), jobs=2, chunk_size=3
            )
        assert results == [-i for i in range(20)]
        assert reg.counter("parallel_items_total").value == 20
        assert reg.counter("parallel_chunks_total").value == 7
        assert reg.histogram("parallel_chunk_seconds").count == 7
        assert reg.histogram("parallel_chunk_seconds").sum >= 0.0
        assert reg.histogram("parallel_wall_seconds").count == 1


# --------------------------------------------------------------------- #
# Bit-identity: the acceptance property of the whole executor
# --------------------------------------------------------------------- #


class TestCrashRunDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        config = _config(seed=11)
        serial = run_crash_runs(_factory, config, n_runs=12)
        for jobs in (1, 4):
            for chunk_size in (None, 1, 5):
                par = run_crash_runs(
                    _factory,
                    config,
                    n_runs=12,
                    jobs=jobs,
                    chunk_size=chunk_size,
                )
                assert np.array_equal(
                    par.detection_times, serial.detection_times
                )
                assert np.array_equal(par.crash_times, serial.crash_times)

    def test_traces_survive_the_fan_out(self):
        config = _config(seed=11)
        serial = run_crash_runs(_factory, config, n_runs=4, keep_traces=True)
        par = run_crash_runs(
            _factory, config, n_runs=4, keep_traces=True, jobs=4, chunk_size=1
        )
        assert len(par.traces) == 4
        for a, b in zip(par.traces, serial.traces):
            assert [
                (t.time, t.kind) for t in a.transitions
            ] == [(t.time, t.kind) for t in b.transitions]

    def test_stats_report_the_fan_out(self):
        config = _config(seed=3)
        with telemetry_enabled() as reg:
            result = run_crash_runs(
                _factory, config, n_runs=8, jobs=2, chunk_size=2
            )
        assert result.detection_times.size == 8
        assert reg.counter("parallel_items_total").value == 8
        assert reg.counter("parallel_chunks_total").value == 4


class TestFailureFreeDeterminism:
    def test_parallel_matches_serial_per_index(self):
        config = _config(seed=21)
        serial = [
            run_failure_free(_factory, config, run_index=i) for i in range(6)
        ]
        par = run_failure_free_parallel(
            _factory, config, n_runs=6, jobs=4, chunk_size=2
        )
        assert len(par) == 6
        for a, b in zip(par, serial):
            assert a.accuracy.n_mistakes == b.accuracy.n_mistakes
            assert a.accuracy.query_accuracy == b.accuracy.query_accuracy
            assert a.heartbeats_sent == b.heartbeats_sent
            assert a.heartbeats_delivered == b.heartbeats_delivered

    def test_rejects_zero_runs(self):
        with pytest.raises(InvalidParameterError):
            run_failure_free_parallel(_factory, _config(), n_runs=0)


class TestFastsimSweepDeterminism:
    def test_s_transition_times_identical_across_jobs(self):
        delay = ExponentialDelay(0.3)

        def point(seed: int):
            return simulate_nfds_fast(
                1.0,
                0.8,
                0.1,
                delay,
                seed=seed,
                target_mistakes=60,
                max_heartbeats=200_000,
            )

        seeds = [101, 102, 103, 104, 105]
        serial = [point(s) for s in seeds]
        for jobs in (1, 4):
            for chunk_size in (None, 2):
                par = parallel_map(
                    point, seeds, jobs=jobs, chunk_size=chunk_size
                )
                for a, b in zip(par, serial):
                    assert np.array_equal(
                        a.s_transition_times, b.s_transition_times
                    )
                    assert a.query_accuracy == b.query_accuracy

    def test_experiment_table_rows_identical_across_jobs(self):
        from repro.experiments.optimality import run_optimality

        t1 = run_optimality(
            target_mistakes=150, max_heartbeats=2_000_000, jobs=1
        )
        t4 = run_optimality(
            target_mistakes=150, max_heartbeats=2_000_000, jobs=4
        )
        assert t1.to_text() == t4.to_text()


# --------------------------------------------------------------------- #
# Satellite fixes: undetected-run accounting and warmup bias
# --------------------------------------------------------------------- #


class TestUndetectedAccounting:
    def test_undetected_runs_are_counted_not_inf(self):
        # A delta far beyond the horizon: the crash can never be
        # suspected, so every run is undetected.
        config = SimulationConfig(
            eta=1.0,
            delay=ExponentialDelay(0.1),
            horizon=60.0,
            warmup=2.0,
            seed=17,
        )
        res = run_crash_runs(
            lambda: NFDS(eta=1.0, delta=1e6),
            config,
            n_runs=5,
            crash_window=(20.0, 30.0),
            settle_time=1.0,
        )
        assert res.n_undetected == 5
        assert res.detected_times.size == 0
        assert math.isnan(res.mean_detection_time)
        assert math.isnan(res.max_detection_time)

    def test_detected_statistics_exclude_undetected(self):
        config = _config(seed=29)
        res = run_crash_runs(_factory, config, n_runs=10)
        assert res.n_undetected == 0
        assert res.detected_times.size == 10
        assert res.mean_detection_time == pytest.approx(
            float(np.mean(res.detection_times))
        )
        assert np.isfinite(res.max_detection_time)


class TestWarmupBias:
    def test_event_driven_estimates_diverge_for_short_horizons(self):
        # NFD-E's EA estimate is noisy until its window fills; on a short
        # horizon the transient is a visible fraction of the estimate.
        base = dict(
            eta=1.0,
            delay=ExponentialDelay(0.3),
            loss_probability=0.1,
            horizon=60.0,
            seed=1,
        )
        factory = lambda: NFDE(eta=1.0, alpha=0.5, window=8)
        cold = run_failure_free(
            factory, SimulationConfig(warmup=0.0, **base)
        )
        warm = run_failure_free(
            factory, SimulationConfig(warmup=10.0, **base)
        )
        assert (
            cold.accuracy.query_accuracy != warm.accuracy.query_accuracy
        )
        assert cold.accuracy.n_mistakes > warm.accuracy.n_mistakes

    def test_fastsim_warmup_shifts_measurement_start(self):
        delay = ExponentialDelay(0.3)
        common = dict(
            seed=5, target_mistakes=50, max_heartbeats=100_000
        )
        cold = simulate_sfd_fast(1.0, 1.5, 0.1, delay, cutoff=None, **common)
        warm = simulate_sfd_fast(
            1.0, 1.5, 0.1, delay, cutoff=None, warmup=20.0, **common
        )
        # Same sample path; the warm run just starts measuring later.
        assert warm.total_time < cold.total_time
        assert warm.s_transition_times.size > 0
        assert float(warm.s_transition_times[0]) >= 20.0

    def test_nfds_warmup_delta_eta_is_noop(self):
        # tau_1 = delta + eta is the first freshness point, so a warmup
        # of exactly delta + eta discards nothing — the guarantee that
        # the default fig12 numbers did not move.
        delay = ExponentialDelay(0.2)
        common = dict(seed=9, target_mistakes=80, max_heartbeats=100_000)
        a = simulate_nfds_fast(1.0, 0.7, 0.1, delay, **common)
        b = simulate_nfds_fast(1.0, 0.7, 0.1, delay, warmup=1.7, **common)
        assert np.array_equal(a.s_transition_times, b.s_transition_times)
        assert a.query_accuracy == b.query_accuracy
