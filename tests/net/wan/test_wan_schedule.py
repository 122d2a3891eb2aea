"""Tests for scripted WAN partition/heal schedules."""

from __future__ import annotations

import pytest

from repro.errors import InvalidParameterError
from repro.faults import (
    ClockJump,
    DelayRegime,
    Duplication,
    FaultScenario,
    LossRegime,
    Partition,
    Stall,
)
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.net.wan import WanSchedule, WanTopology, periodic_partitions
from repro.net.wan.topology import pair_key


def line() -> WanTopology:
    t = WanTopology("line")
    for s in ("A", "B", "C"):
        t.add_site(s)
    t.add_link("A", "B", ExponentialDelay(0.01), loss=0.01)
    t.add_link("B", "C", ExponentialDelay(0.01), loss=0.01)
    return t


class TestCompilation:
    def test_unknown_link_rejected(self):
        with pytest.raises(InvalidParameterError):
            WanSchedule(line(), {("A", "C"): FaultScenario([])})

    def test_pair_canonicalization_detects_duplicates(self):
        with pytest.raises(InvalidParameterError):
            WanSchedule(
                line(),
                {
                    ("A", "B"): FaultScenario([]),
                    ("B", "A"): FaultScenario([]),
                },
            )

    @pytest.mark.parametrize(
        "event",
        [
            Duplication(start=1.0, duration=1.0, probability=0.5),
            ClockJump(time=1.0, offset=0.5),
            Stall(start=1.0, duration=1.0),
        ],
    )
    def test_per_process_events_rejected(self, event):
        with pytest.raises(InvalidParameterError):
            WanSchedule(line(), {("A", "B"): FaultScenario([event])})

    def test_total_loss_regime_rejected(self):
        scenario = FaultScenario([LossRegime(time=1.0, loss_probability=1.0)])
        with pytest.raises(InvalidParameterError):
            WanSchedule(line(), {("A", "B"): scenario})


class TestQueries:
    def test_partition_window_is_half_open(self):
        sched = WanSchedule(
            line(),
            {("A", "B"): FaultScenario([Partition(start=10.0, duration=5.0)])},
        )
        key = ("A", "B")
        assert not sched.down(key, 9.999)
        assert sched.down(key, 10.0)
        assert sched.down(key, 14.999)
        assert not sched.down(key, 15.0)

    def test_down_accepts_either_key_order(self):
        sched = WanSchedule(
            line(),
            {("A", "B"): FaultScenario([Partition(start=0.0, duration=1.0)])},
        )
        assert sched.down(("B", "A"), 0.5)

    def test_overlapping_partitions_merge(self):
        sched = WanSchedule(
            line(),
            {
                ("A", "B"): FaultScenario(
                    [
                        Partition(start=0.0, duration=10.0),
                        Partition(start=5.0, duration=10.0),
                    ]
                )
            },
        )
        assert sched.down(("A", "B"), 0.0)
        assert sched.down(("A", "B"), 12.0)
        assert not sched.down(("A", "B"), 15.0)

    def test_regime_steps_apply_from_their_time(self):
        d = ConstantDelay(0.5)
        sched = WanSchedule(
            line(),
            {
                ("B", "C"): FaultScenario(
                    [
                        LossRegime(time=10.0, loss_probability=0.2),
                        LossRegime(time=20.0, loss_probability=0.05),
                        DelayRegime(time=10.0, delay=d),
                    ]
                )
            },
        )
        key = ("B", "C")
        assert sched.loss_at(key, 5.0) is None
        assert sched.loss_at(key, 10.0) == pytest.approx(0.2)
        assert sched.loss_at(key, 25.0) == pytest.approx(0.05)
        assert sched.delay_at(key, 5.0) is None
        assert sched.delay_at(key, 10.0) is d
        # An unscripted link never reports overrides.
        assert sched.loss_at(("A", "B"), 15.0) is None

    def test_down_set_collects_cut_links(self):
        sched = WanSchedule(
            line(),
            {
                ("A", "B"): FaultScenario([Partition(start=0.0, duration=5.0)]),
                ("B", "C"): FaultScenario([Partition(start=3.0, duration=5.0)]),
            },
        )
        assert sched.down_set(1.0) == frozenset({pair_key("A", "B")})
        assert sched.down_set(4.0) == frozenset(
            {pair_key("A", "B"), pair_key("B", "C")}
        )
        assert sched.down_set(9.0) == frozenset()

    def test_end_time_covers_all_scripts(self):
        sched = WanSchedule(
            line(),
            {
                ("A", "B"): FaultScenario([Partition(start=0.0, duration=5.0)]),
                ("B", "C"): FaultScenario([LossRegime(time=40.0, loss_probability=0.1)]),
            },
        )
        assert sched.end_time == pytest.approx(40.0)


class TestPeriodicPartitions:
    def test_builds_count_windows(self):
        scenario = periodic_partitions(10.0, 20.0, 5.0, 3)
        downs = WanSchedule(line(), {("A", "B"): scenario})
        for start in (10.0, 30.0, 50.0):
            assert downs.down(("A", "B"), start + 2.0)
            assert not downs.down(("A", "B"), start + 6.0)
        assert not downs.down(("A", "B"), 72.0)

    def test_duration_must_allow_heal(self):
        with pytest.raises(InvalidParameterError):
            periodic_partitions(0.0, 10.0, 10.0, 2)

    def test_count_validated(self):
        with pytest.raises(InvalidParameterError):
            periodic_partitions(0.0, 10.0, 1.0, 0)
