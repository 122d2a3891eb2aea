"""Seed determinism of every generator, and the plans' own consistency."""

import pytest

from benchmarks.trajectory import streams
from benchmarks.trajectory.workloads import WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_stream(workload):
    assert streams.stream_digest(workload, 7) == streams.stream_digest(workload, 7)


@pytest.mark.parametrize("workload", [w for w in WORKLOADS if w != "paper_tables"])
def test_other_seed_other_stream(workload):
    assert streams.stream_digest(workload, 7) != streams.stream_digest(workload, 8)


def test_paper_tables_inputs_do_not_follow_the_seed():
    # its outputs are compared with committed files
    assert streams.stream_digest("paper_tables", 7) == streams.stream_digest("paper_tables", 8)


def test_drop_fate_is_pure_and_near_its_rate():
    fates = [streams.dropped(3, peer, seq, 500) for peer in range(50) for seq in range(1, 401)]
    again = [streams.dropped(3, peer, seq, 500) for peer in range(50) for seq in range(1, 401)]
    assert fates == again
    assert 0.04 < sum(fates) / len(fates) < 0.06


def test_steady_plan_predicts_one_suspicion_per_gap():
    plan = streams.steady_plan(seed=5, n_peers=30, slots=50, drop_per_10k=500, n_crashes=3)
    assert len(plan.crash_after) == 3
    for peer in range(plan.n_peers):
        last = plan.crash_after.get(peer, plan.slots)
        arrived = [
            seq <= last and not streams.dropped(5, peer, seq, 500)
            for seq in range(1, plan.slots + 2)
        ]
        assert plan.sent[peer] == sum(arrived)
        # a suspicion is predicted exactly where a run of missing
        # heartbeats begins after at least one arrival
        gaps = [
            seq
            for seq in range(2, plan.slots + 2)
            if not arrived[seq - 1] and arrived[seq - 2]
        ]
        assert [s for p, s in plan.suspicions if p == peer] == gaps
    # every sender stops after the last slot: one shutdown suspicion each,
    # unless the peer was already suspected then
    assert all(seq <= plan.slots + 1 for _, seq in plan.suspicions)


def test_mix_stream_books_balance():
    stream = streams.MixStream(seed=2, n_peers=400, eta=0.25)
    offered = 0
    shed = 0
    for slot in range(1, 9):
        burst = stream.next_slot(overflow=slot == 5)
        offered += len(burst.payloads)
        shed += burst.shed
        assert len(burst.payloads) - burst.shed <= stream.inbox_limit
    counters = stream.expected_counters()
    assert counters["live_datagrams_received_total"] == offered == stream.offered
    assert counters["live_inbox_dropped_total"] == shed == 100
    classified = sum(
        counters.get(key, 0)
        for key in (
            "live_heartbeats_dispatched_total",
            "live_datagrams_invalid_total",
            "live_unknown_sender_total",
            "live_stale_incarnation_total",
            "live_inbox_dropped_total",
        )
    )
    assert classified == offered
    books = stream.expected_books()
    assert sum(delivered for *_, delivered in books) == counters["live_heartbeats_dispatched_total"]
    assert len(books) == 400 + counters["live_incarnation_restarts_total"]


def test_crash_plan_draws_equal_halves():
    plan = streams.crash_plan(seed=1, n_peers=1000, n_storms=3)
    assert [len(silent) for _, silent in plan.storms] == [500, 500, 500]
    assert [slot for slot, _ in plan.storms] == [2, 3, 4]
    assert plan.last_slot == 5
    # a fresh half every slot: about a quarter of the fleet is newly silent
    (_, first), (_, second), _ = plan.storms
    newly = len(set(second.tolist()) - set(first.tolist()))
    assert 200 <= newly <= 300
