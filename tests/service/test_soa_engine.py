"""Unit tests for the vectorized monitor core (repro.service.soa).

The engine's contract is *bit-identity* with the object detectors: every
test here either pins an engine-only behaviour (canonical tie ordering,
idempotent removal, batch/scalar equivalence) or replays the same
schedule through a per-sender :class:`DetectorHost` and demands the
exact same transition stream, float for float.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU
from repro.errors import InvalidParameterError, SimulationError
from repro.live.soa import LoopWheelScheduler
from repro.net.clocks import DriftingClock, SkewedClock
from repro.service.soa import (
    ManualScheduler,
    VectorMonitorEngine,
    supports_detector,
)
from repro.sim.engine import Simulator, SimWheelScheduler
from repro.sim.monitor import DetectorHost
from tests.reference import SteppedLoop, active_rows

ETA, DELTA = 1.0, 0.5


def engine(record=True, start=0.0):
    return VectorMonitorEngine(
        ManualScheduler(start), record_transitions=record
    )


def object_stream(detector_factories, schedule, horizon, clocks=None):
    """Replay ``schedule`` = [(time, index, seq), ...] through object
    DetectorHosts; returns [(real_time, index, output), ...]."""
    sim = Simulator()
    log = []
    hosts = []
    for i, factory in enumerate(detector_factories):
        hosts.append(
            DetectorHost(
                sim,
                factory(),
                clock=clocks[i] if clocks else None,
                on_transition=lambda local, out, i=i: log.append(
                    (sim.now, i, out)
                ),
            )
        )
    for host in hosts:
        host.start()
    for t, i, seq in schedule:
        sim.schedule_at(t, lambda h=hosts[i], s=seq: h.deliver(s, 0.0))
    sim.run_until(horizon)
    return log


def engine_stream(detector_factories, schedule, horizon, clocks=None):
    """The same replay through the SoA engine's scalar deliver path."""
    eng = engine()
    for i, factory in enumerate(detector_factories):
        row = eng.register(
            factory(), clock=clocks[i] if clocks else None
        )
        assert row == i
        eng.start_row(row)
    for t, i, seq in schedule:
        eng.deliver(i, seq, at_real=t)
    eng.advance(horizon)
    return eng.transition_log


class TestRegistration:
    def test_unsupported_detector_rejected(self):
        with pytest.raises(InvalidParameterError):
            engine().register(object())
        assert not supports_detector(object())
        assert supports_detector(NFDS(eta=1.0, delta=0.5))
        assert supports_detector(
            NFDU(eta=1.0, alpha=0.5, expected_arrival=lambda i: float(i))
        )
        assert supports_detector(NFDE(eta=1.0, alpha=0.5, window=4))

    def test_bound_detector_rejected(self):
        sim = Simulator()
        det = NFDS(eta=ETA, delta=DELTA)
        DetectorHost(sim, det)  # binds
        with pytest.raises(SimulationError):
            engine().register(det)

    def test_row_ids_never_reused(self):
        eng = engine()
        a = eng.register(NFDS(eta=ETA, delta=DELTA))
        eng.remove(a)
        b = eng.register(NFDS(eta=ETA, delta=DELTA))
        assert b == a + 1
        assert eng.n_rows == 2
        assert len(active_rows(eng)) == 1

    def test_capacity_growth_preserves_state(self):
        eng = engine()
        rows = [
            eng.register(NFDS(eta=ETA, delta=DELTA), incarnation=i)
            for i in range(200)  # crosses the initial 64-capacity twice
        ]
        for row in rows:
            eng.start_row(row)
            eng.deliver(row, 1, at_real=0.01)
        assert len(active_rows(eng)) == 200
        assert all(eng.incarnation(r) == r for r in rows)
        assert all(eng.output_char(r) == "T" for r in rows)


class TestSingleRowSemantics:
    """One row must behave exactly like one object detector."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: NFDS(eta=ETA, delta=DELTA),
            lambda: NFDU(
                eta=ETA, alpha=DELTA, expected_arrival=lambda i: i * ETA
            ),
            lambda: NFDE(eta=ETA, alpha=0.3, window=4),
        ],
        ids=["nfds", "nfdu", "nfde"],
    )
    def test_random_schedule_matches_object(self, factory):
        rng = np.random.default_rng(7)
        schedule = []
        for seq in range(1, 60):
            if rng.random() < 0.15:
                continue  # lost
            schedule.append((seq * ETA + rng.exponential(0.2), 0, seq))
        schedule.sort()
        horizon = 62.0
        obj = object_stream([factory], schedule, horizon)
        soa = engine_stream([factory], schedule, horizon)
        assert obj == soa
        assert len(obj) > 4  # the lossy link produced real churn

    def test_reordered_and_duplicated_deliveries(self):
        factory = lambda: NFDE(eta=ETA, alpha=0.2, window=3)
        # Stale, duplicate and out-of-order sequence numbers exercise
        # the ℓ-cutoff (stale seq ≤ ℓ must be ignored *entirely*).
        schedule = [
            (1.1, 0, 1),
            (2.05, 0, 2),
            (2.50, 0, 1),  # stale duplicate
            (4.02, 0, 4),  # 3 overtaken
            (4.60, 0, 3),  # late: below ℓ, ignored
            (5.30, 0, 5),
            (5.31, 0, 5),  # duplicate
        ]
        horizon = 9.0
        assert object_stream([factory], schedule, horizon) == engine_stream(
            [factory], schedule, horizon
        )


class TestTieOrdering:
    def test_simultaneous_suspicions_ordered_by_row_id(self):
        """Rows sharing a freshness grid suspect at the same instant;
        the canonical order is (time, row id) — regardless of whether
        the row sits in the vector cohort or on an individual timer."""
        factories = [lambda: NFDS(eta=ETA, delta=DELTA) for _ in range(5)]
        # Row 2 gets a zero-skew clock: real == local, but it is forced
        # onto the individual-entry path rather than the cohort.
        clocks = [None, None, SkewedClock(0.0), None, None]
        schedule = [(1.0 + 0.001 * i, i, 1) for i in range(5)]
        soa = engine_stream(factories, schedule, 4.0, clocks)
        suspicions = [(t, row) for t, row, out in soa if out == "S"]
        assert len(suspicions) == 5
        assert all(t == suspicions[0][0] for t, _ in suspicions)
        assert [row for _, row in suspicions] == [0, 1, 2, 3, 4]
        # And the object path agrees on the whole stream.
        assert soa == object_stream(factories, schedule, 4.0, clocks)

    def test_deterministic_across_registration_interleavings(self):
        """The same population in a different registration order yields
        the same (time, sender) verdict sets."""

        def run(order):
            eng = engine()
            label_of = {}
            for label in order:
                row = eng.register(NFDS(eta=ETA, delta=DELTA))
                label_of[row] = label
                eng.start_row(row)
                eng.deliver(row, 1, at_real=1.0 + 0.01 * label)
            eng.advance(5.0)
            return sorted(
                (t, label_of[row], out)
                for t, row, out in eng.transition_log
            )

        assert run([0, 1, 2, 3]) == run([3, 1, 0, 2])


class TestRemoval:
    def test_remove_is_idempotent(self):
        eng = engine()
        row = eng.register(NFDS(eta=ETA, delta=DELTA))
        eng.start_row(row)
        eng.remove(row)
        eng.remove(row)  # no error
        assert row not in active_rows(eng)

    def test_no_transition_after_removal_even_for_due_deadline(self):
        """The churn race: a freshness deadline already in the wheel
        must not fire a final S for a removed sender."""
        eng = engine()
        row = eng.register(NFDS(eta=ETA, delta=DELTA))
        eng.start_row(row)
        eng.deliver(row, 1, at_real=1.0)  # trusts; next deadline 2.5
        eng.remove(row)
        eng.advance(10.0)
        assert [e for e in eng.transition_log if e[1] == row] == [
            (1.0, row, "T")
        ]

    def test_delivery_to_removed_row_is_ignored(self):
        eng = engine()
        row = eng.register(NFDS(eta=ETA, delta=DELTA))
        eng.start_row(row)
        eng.remove(row)
        eng.deliver(row, 1, at_real=1.0)
        assert eng.delivered_count(row) == 0
        assert eng.transition_log == []

    def test_listener_removing_sibling_suppresses_its_emission(self):
        """Reentrancy: a sink that removes another row during a shared
        deadline slice must suppress the sibling's pending emission."""
        events = []
        eng = VectorMonitorEngine(ManualScheduler(0.0))
        rows = {}

        def sink_a(real, local, out):
            events.append(("a", real, out))
            if out == "S":
                eng.remove(rows["b"])

        def sink_b(real, local, out):
            events.append(("b", real, out))

        rows["a"] = eng.register(NFDS(eta=ETA, delta=DELTA), on_transition=sink_a)
        rows["b"] = eng.register(NFDS(eta=ETA, delta=DELTA), on_transition=sink_b)
        for row in rows.values():
            eng.start_row(row)
            eng.deliver(row, 1, at_real=1.0)
        eng.advance(5.0)  # both due to suspect at 2.5; a's sink kills b
        assert ("a", 2.5, "S") in events
        assert ("b", 2.5, "S") not in events
        assert rows["b"] not in active_rows(eng)

    def test_cohort_compacts_after_mass_removal(self):
        eng = engine(record=False)
        rows = [eng.register(NFDS(eta=ETA, delta=DELTA)) for _ in range(64)]
        for row in rows:
            eng.start_row(row)
            eng.deliver(row, 1, at_real=1.0)
        for row in rows[:60]:
            eng.remove(row)
        eng.advance(3.0)  # the 2.5 tick triggers lazy compaction
        eng.advance(100.0)
        assert len(active_rows(eng)) == 4
        # A fully-populated wheel still only holds O(cohorts + skewed
        # rows) entries, not O(removed rows).
        assert eng.pending_deadlines <= 4

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: NFDU(eta=ETA, alpha=DELTA, expected_arrival=lambda i: i * ETA),
            lambda: NFDE(eta=ETA, alpha=DELTA, window=4),
        ],
        ids=["nfdu", "nfde"],
    )
    def test_expiries_share_one_entry_whatever_was_heard_or_removed(
        self, factory
    ):
        eng = engine()
        rows = [eng.register(factory()) for _ in range(64)]
        for row in rows:
            eng.start_row(row)
        for seq in range(1, 6):  # five heartbeats a row: 320 arms
            for row in rows:
                eng.deliver(row, seq, at_real=seq * ETA + 0.001 * row)
            assert eng.pending_deadlines == 1
        for row in rows[:60]:
            eng.remove(row)
        assert eng.pending_deadlines <= 1
        eng.advance(100.0)
        assert len(active_rows(eng)) == 4
        # the removed rows' expiries went with them: four suspicions
        assert [(row, out) for _, row, out in eng.transition_log[64:]] == [
            (row, "S") for row in rows[60:]
        ]
        assert eng.pending_deadlines == 0  # nothing armed, nothing held


class TestBatchIngest:
    def test_batch_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(13)
        n, slots = 40, 50

        def factories():
            return [
                (lambda: NFDS(eta=ETA, delta=DELTA))
                if i % 3
                else (lambda: NFDE(eta=ETA, alpha=0.3, window=4))
                for i in range(n)
            ]

        times, rows, seqs = [], [], []
        for s in range(1, slots + 1):
            keep = rng.random(n) >= 0.1
            t = s * ETA + rng.exponential(0.15, n)
            for i in np.nonzero(keep)[0]:
                times.append(t[i])
                rows.append(i)
                seqs.append(s)
        order = np.argsort(times, kind="stable")
        times = np.asarray(times)[order]
        rows = np.asarray(rows)[order]
        seqs = np.asarray(seqs)[order]
        horizon = (slots + 2) * ETA

        scalar = engine()
        for f in factories():
            scalar.start_row(scalar.register(f()))
        for t, r, s in zip(times, rows, seqs):
            scalar.deliver(int(r), int(s), at_real=float(t))
        scalar.advance(horizon)

        batch = engine()
        for f in factories():
            batch.start_row(batch.register(f()))
        batch.ingest(times, rows, seqs)
        batch.advance(horizon)

        assert scalar.transition_log == batch.transition_log
        assert len(batch.transition_log) > n  # real churn happened

    def test_cuts_run_where_a_split_ingest_would_return(self):
        """A cut at position k runs once every transition of the
        receipts before k is published and before any deadline or
        receipt at k — where an ingest split at k returns.  Each cut
        here retires a row that is silent from its position on, and
        the stream has deadlines, S→T returns and NFD-E rows inside the
        spans the cuts fall in."""
        rng = np.random.default_rng(41)
        n, slots = 120, 12
        times, rows, seqs = [], [], []
        for s in range(1, slots + 1):
            keep = rng.random(n) >= 0.4
            t = s * ETA + rng.exponential(0.15, n)
            for i in np.flatnonzero(keep):
                times.append(t[i])
                rows.append(i)
                seqs.append(s)
        order = np.argsort(times, kind="stable")
        times = np.asarray(times)[order]
        rows = np.asarray(rows)[order]
        seqs = np.asarray(seqs)[order]
        at = np.sort(rng.choice(len(times), 30, replace=False))
        at[0], at[-1] = 0, len(times)
        retired = rng.choice(n, len(at), replace=False)
        silent = np.zeros(len(times), dtype=bool)
        for k, row in zip(at, retired):
            silent |= (rows == row) & (np.arange(len(times)) >= k)
        keep = ~silent
        cuts_at = np.concatenate(([0], np.cumsum(keep)))[at]
        times, rows, seqs = times[keep], rows[keep], seqs[keep]

        def run(split):
            eng = engine()
            for i in range(n):
                spec = (
                    NFDE(eta=ETA, alpha=0.3, window=4)
                    if i % 3 == 0
                    else NFDS(eta=ETA, delta=DELTA)
                )
                eng.start_row(eng.register(spec))
            seen = []

            def cut(row):
                seen.append(len(eng.transition_log))
                eng.remove(int(row))

            if split:
                lo = 0
                for k, row in zip(cuts_at, retired):
                    eng.ingest(times[lo:k], rows[lo:k], seqs[lo:k])
                    cut(row)
                    lo = k
                eng.ingest(times[lo:], rows[lo:], seqs[lo:])
            else:
                eng.ingest(
                    times,
                    rows,
                    seqs,
                    cuts=[
                        (int(k), lambda row=row: cut(row))
                        for k, row in zip(cuts_at, retired)
                    ],
                )
            eng.advance((slots + 2) * ETA)
            return eng.transition_log, seen

        log, seen = run(split=False)
        assert (log, seen) == run(split=True)
        assert len(seen) == len(at) and len(set(seen)) > len(at) // 2
        assert {out for _, _, out in log} == {"S", "T"}

    def test_ingest_validates_lengths(self):
        eng = engine()
        eng.start_row(eng.register(NFDS(eta=ETA, delta=DELTA)))
        with pytest.raises(InvalidParameterError):
            eng.ingest(
                np.array([1.0, 2.0]),
                np.array([0]),
                np.array([1]),
            )


class TestSchedulers:
    def test_manual_scheduler_time_tracks_advance(self):
        eng = engine()
        assert eng.now == 0.0
        eng.advance(7.5)
        assert eng.now == 7.5

    def test_sim_wheel_scheduler_single_armed_wakeup(self):
        """N cohort members share one simulator event, not N chains."""
        sim = Simulator()
        eng = VectorMonitorEngine(
            SimWheelScheduler(sim), record_transitions=True
        )
        rows = [eng.register(NFDS(eta=ETA, delta=DELTA)) for _ in range(50)]
        for row in rows:
            eng.start_row(row)
            eng.deliver(row, 1, at_real=0.01)
        pending_with_fifty = sim.pending
        sim.run_until(10.0)
        suspicions = [e for e in eng.transition_log if e[2] == "S"]
        assert len(suspicions) == 50
        assert all(t == 2.5 for t, _, _ in suspicions)
        # The wheel arms one wakeup regardless of population size.
        assert pending_with_fifty <= 2

    def test_drifting_clock_row_matches_object(self):
        factories = [lambda: NFDS(eta=ETA, delta=DELTA)]
        clocks = [DriftingClock(skew=0.1, drift=1e-3)]
        schedule = [(s * ETA + 0.07, 0, s) for s in range(1, 20) if s % 5]
        obj = object_stream(factories, schedule, 25.0, clocks)
        soa = engine_stream(factories, schedule, 25.0, clocks)
        assert obj == soa
        assert any(out == "S" for _, _, out in obj)

    def test_wheel_stays_armed_when_a_sink_raises(self):
        """A sink raising inside the wheel's wake-up reaches the loop,
        and the wheel is armed for the next deadline all the same: row 1,
        heard once more than row 0, is suspected one freshness point
        later with nothing else to wake the engine."""
        loop = SteppedLoop()
        eng = VectorMonitorEngine(LoopWheelScheduler(loop, 0.0))
        seen = []

        def sink(real, local, output):
            seen.append((real, output))
            if output == "S" and len(seen) == 3:
                raise RuntimeError("sink bug")

        rows = [eng.register(NFDS(eta=ETA, delta=DELTA), on_transition=sink) for _ in range(2)]
        for row in rows:
            eng.start_row(row)
        eng.deliver(rows[0], 1, at_real=1.1)
        eng.deliver(rows[1], 2, at_real=1.1)
        with pytest.raises(RuntimeError):
            loop.run_until(2 * ETA + DELTA)
        loop.run_until(10.0)
        assert seen == [(1.1, "T"), (1.1, "T"), (2.5, "S"), (3.5, "S")]


class TestBatches:
    def test_listener_hears_one_batch_per_slice_and_per_run(self):
        """A slice is one batch, in row order; a span's transitions are
        one batch per instant and output, in arrival order, whichever
        lane turned them; the QoS table is up to date when it is heard."""
        eng = engine()
        batches = []
        eng.listen(
            lambda t, rows, out: batches.append(
                (t, rows.tolist(), out, eng.qos.export(int(rows[0])).n_mistakes)
            )
        )
        n = 12
        for row in range(n):
            eng.register(NFDS(eta=ETA, delta=DELTA))
            eng.qos.open(row, 0.0)
            eng.start_row(row)
        order = [5, 3, 11, 0, 7, 1, 2, 4, 6, 8, 9, 10]
        eng.ingest(np.full(n, 1.25), np.array(order), np.ones(n, dtype=np.int64))
        eng.advance(2.5)
        later = [4, 2, 9]
        eng.ingest(
            np.array([3.125, 3.125, 3.25]),
            np.array(later),
            np.full(3, 3, dtype=np.int64),
        )
        assert batches == [
            (1.25, order, "T", 0),
            (2.5, list(range(n)), "S", 1),
            (3.125, [4, 2], "T", 1),
            (3.25, [9], "T", 1),
        ]
        assert eng.transition_log == [
            (t, row, out) for t, rows, out, _ in batches for row in rows
        ]
