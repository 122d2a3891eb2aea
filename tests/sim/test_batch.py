"""Bit-identity tests for the batched replica kernels.

The invariant under test: for a fixed seed, every result of
:mod:`repro.sim.batch` — crash detection times and the experiment table
built from them — is *bit-identical* to the serial/event-driven path,
for every batch size (``sim.batch._BATCH``, patched here) and every
``jobs`` value.  Batching is a pure execution strategy; it must never be
observable in the numbers.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.core.base import HeartbeatFailureDetector, SUSPECT
from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU
from repro.core.simple import SimpleFD
from repro.net.clocks import DriftingClock
from repro.net.delays import (
    ConstantDelay,
    ExponentialDelay,
    MixtureDelay,
    UniformDelay,
)
from repro.sim import batch as batch_mod
from repro.sim.batch import (
    crash_kernel_spec,
    run_crash_runs_batched,
)
from repro.sim.runner import CrashRunResult, SimulationConfig, run_crash_runs

BATCH_SIZES = [1, 3, 64]
JOBS = [1, 2]


def _config(seed: int = 42, **kw) -> SimulationConfig:
    base = dict(
        eta=1.0,
        delay=ExponentialDelay(0.02),
        loss_probability=0.01,
        horizon=80.0,
        warmup=0.0,
        seed=seed,
    )
    base.update(kw)
    return SimulationConfig(**base)


DETECTORS = {
    "nfds": lambda: NFDS(eta=1.0, delta=1.0),
    "nfde": lambda: NFDE(eta=1.0, alpha=0.9, window=8),
    "nfdu": lambda: NFDU(
        eta=1.0, alpha=0.9, expected_arrival=lambda s: s * 1.0 + 0.02
    ),
    "sfd_cutoff": lambda: SimpleFD(timeout=1.7, cutoff=0.3),
    "sfd_plain": lambda: SimpleFD(timeout=2.0),
}


def _assert_same_result(a: CrashRunResult, b: CrashRunResult) -> None:
    assert np.array_equal(a.crash_times, b.crash_times)
    assert np.array_equal(a.detection_times, b.detection_times)


class TestCrashKernelBitIdentity:
    @pytest.mark.parametrize("name", sorted(DETECTORS))
    def test_matches_event_driven_all_batch_sizes(self, name, monkeypatch):
        factory = DETECTORS[name]
        config = _config()
        ref = run_crash_runs(factory, config, n_runs=24, settle_time=40.0)
        for batch_size in BATCH_SIZES:
            monkeypatch.setattr(batch_mod, "_BATCH", batch_size)
            for jobs in JOBS:
                got = run_crash_runs_batched(
                    factory,
                    config,
                    n_runs=24,
                    jobs=jobs,
                    settle_time=40.0,
                )
                _assert_same_result(ref, got)

    @pytest.mark.parametrize("name", sorted(DETECTORS))
    def test_matches_under_heavy_loss(self, name, monkeypatch):
        # Heavy loss exercises the premature-suspicion and no-delivery
        # branches, and the data-dependent RNG interleave of LossyLink.
        factory = DETECTORS[name]
        config = _config(
            seed=7,
            delay=ExponentialDelay(0.3),
            loss_probability=0.35,
            horizon=60.0,
        )
        ref = run_crash_runs(factory, config, n_runs=20, settle_time=6.0)
        monkeypatch.setattr(batch_mod, "_BATCH", 7)
        got = run_crash_runs_batched(
            factory, config, n_runs=20, settle_time=6.0
        )
        _assert_same_result(ref, got)
        # Regime check: some run was already suspecting at the crash
        # (detection time clamped to 0), so that branch was exercised.
        assert (ref.detection_times == 0.0).any()

    def test_matches_with_mixture_delay_and_undetected(self):
        # Mixture delays draw a different RNG pattern per sample; a long
        # tail plus a short settle also produces never-detected runs.
        mix = MixtureDelay(
            [ExponentialDelay(0.05), UniformDelay(0.5, 2.5)], [0.7, 0.3]
        )
        config = _config(
            seed=9, eta=0.5, delay=mix, loss_probability=0.1, horizon=60.0
        )
        factory = DETECTORS["nfds"]
        ref = run_crash_runs(factory, config, n_runs=20, settle_time=6.0)
        got = run_crash_runs_batched(
            factory, config, n_runs=20, settle_time=6.0
        )
        _assert_same_result(ref, got)
        assert ref.n_undetected > 0  # regime check

    def test_matches_with_constant_delay_ties(self, monkeypatch):
        # Constant delays make arrivals land exactly on freshness points
        # and timer deadlines — the tie cases of the closed forms.
        config = _config(
            seed=11, delay=ConstantDelay(0.25), loss_probability=0.2,
            horizon=60.0,
        )
        monkeypatch.setattr(batch_mod, "_BATCH", 5)
        for name in sorted(DETECTORS):
            ref = run_crash_runs(
                DETECTORS[name], config, n_runs=16, settle_time=8.0
            )
            got = run_crash_runs_batched(
                DETECTORS[name], config, n_runs=16, settle_time=8.0
            )
            _assert_same_result(ref, got)

    def test_batch_size_never_changes_results(self, monkeypatch):
        config = _config(seed=3)
        factory = DETECTORS["sfd_cutoff"]
        results = []
        for bs in (1, 2, 5, 17, 1000):
            monkeypatch.setattr(batch_mod, "_BATCH", bs)
            results.append(
                run_crash_runs_batched(
                    factory, config, n_runs=17, settle_time=40.0
                ).detection_times
            )
        for other in results[1:]:
            assert np.array_equal(results[0], other)


class TestCrashKernelSpec:
    def test_known_detectors_supported(self):
        config = _config()
        for name, factory in DETECTORS.items():
            spec = crash_kernel_spec(factory, config)
            assert spec is not None, name

    def test_unknown_detector_falls_back(self):
        class OddDetector(HeartbeatFailureDetector):
            def _on_start(self):
                self._set_output(SUSPECT)

            def on_heartbeat(self, heartbeat):
                pass

        config = _config()
        assert crash_kernel_spec(OddDetector, config) is None
        # The public API still works — via the event-driven fallback.
        ref = run_crash_runs(OddDetector, config, n_runs=5, settle_time=10.0)
        got = run_crash_runs_batched(
            OddDetector, config, n_runs=5, settle_time=10.0
        )
        _assert_same_result(ref, got)

    def test_subclass_not_matched(self):
        # Exact types only: a subclass may override behaviour the closed
        # forms do not model.
        class TweakedNFDS(NFDS):
            pass

        assert (
            crash_kernel_spec(lambda: TweakedNFDS(eta=1.0, delta=1.0), _config())
            is None
        )

    def test_nonperfect_clock_falls_back(self):
        config = _config(monitor_clock=DriftingClock(drift=1e-4))
        assert crash_kernel_spec(DETECTORS["nfds"], config) is None
        ref = run_crash_runs(
            DETECTORS["nfds"], config, n_runs=6, settle_time=10.0
        )
        got = run_crash_runs_batched(
            DETECTORS["nfds"], config, n_runs=6, settle_time=10.0
        )
        _assert_same_result(ref, got)

    def test_link_factory_falls_back(self):
        """The kernel replays the config's i.i.d. ``LossyLink`` fates; a
        ``link_factory`` transport (here bursty Gilbert–Elliott loss) is
        not that link, so the batch must take the event path."""
        from repro.faults import GilbertElliottLink

        config = _config(
            seed=5,
            loss_probability=0.3,
            link_factory=lambda rng: GilbertElliottLink.from_average(
                ExponentialDelay(0.02), 0.3, 8.0, rng=rng
            ),
        )
        assert crash_kernel_spec(DETECTORS["nfds"], config) is None
        ref = run_crash_runs(
            DETECTORS["nfds"], config, n_runs=40, settle_time=40.0
        )
        got = run_crash_runs_batched(
            DETECTORS["nfds"], config, n_runs=40, settle_time=40.0
        )
        _assert_same_result(ref, got)

    def test_keep_traces_falls_back(self):
        got = run_crash_runs_batched(
            DETECTORS["nfds"],
            _config(),
            n_runs=4,
            settle_time=10.0,
            keep_traces=True,
        )
        assert len(got.traces) == 4


class TestPrematureProperty:
    def test_counts_exact_zeros(self):
        """A premature detection (exactly ``0.0``: already suspecting
        at the crash) counts as detected; only ``inf`` does not."""
        result = CrashRunResult(
            detection_times=np.array([0.0, 1.5, np.inf, 0.0]),
            crash_times=np.zeros(4),
        )
        assert result.n_undetected == 1
        assert sorted(result.detected_times) == [0.0, 0.0, 1.5]


class TestBatchedExperiments:
    def test_detection_time_kernel_equals_event_driven(self, monkeypatch):
        from repro.experiments import detection_time
        kernel = detection_time.run_detection_time(n_runs=12)
        monkeypatch.setattr(
            detection_time, "run_crash_runs_batched", run_crash_runs
        )
        serial = detection_time.run_detection_time(n_runs=12)
        assert serial.to_text() == kernel.to_text()


class TestFastReplay:
    """The fate-stream cache."""

    def test_fate_cache_reuse_is_bit_identical(self, monkeypatch):
        """A second batched call over the same link reuses cached
        prefixes (and extends them for longer runs) without changing a
        single value — the detection-time experiment's access pattern."""
        config = _config(seed=99)
        factory = DETECTORS["nfds"]
        ref = run_crash_runs(factory, config, n_runs=24, settle_time=40.0)
        batch_mod._FATES_CACHE.clear()
        monkeypatch.setattr(batch_mod, "_BATCH", 4)
        first = run_crash_runs_batched(
            factory, config, n_runs=10, settle_time=40.0
        )
        monkeypatch.setattr(batch_mod, "_BATCH", 7)
        cached = run_crash_runs_batched(
            factory, config, n_runs=24, settle_time=40.0
        )
        assert np.array_equal(first.crash_times, ref.crash_times[:10])
        assert np.array_equal(
            first.detection_times, ref.detection_times[:10]
        )
        _assert_same_result(cached, ref)

    def test_fate_cache_shared_across_detector_cases(self):
        """Different detectors over the same link replay each stream
        once; the second case must still match its own serial run."""
        config = _config(seed=7)
        batch_mod._FATES_CACHE.clear()
        for name in ("nfds", "sfd_cutoff", "nfde"):
            factory = DETECTORS[name]
            ref = run_crash_runs(factory, config, n_runs=16, settle_time=40.0)
            got = run_crash_runs_batched(
                factory, config, n_runs=16, settle_time=40.0
            )
            _assert_same_result(got, ref)
