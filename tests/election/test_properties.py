"""Property suite for the Omega election layer (tier-1).

Fuzzed over random crash/recovery schedules, loss bursts and clock
skew:

* **at-most-one leader** among mutually-trusted up processes at every
  instant — the structural Omega safety property of the min rule;
* **eventual leader agreement** after the last crash/recovery event,
  on runs whose loss bursts end before the tail;
* **election latency** after a real leader crash is bounded by the
  detector's worst-case detection time (the elector reads its local
  detector, so dissemination adds nothing) on loss-free runs.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nfd_s import NFDS
from repro.election import ElectionCluster
from repro.faults import FaultScenario, LossRegime
from repro.net.clocks import SkewedClock
from repro.net.delays import ConstantDelay

ETA = 1.0
DELTA = 0.5
DELAY = ConstantDelay(0.05)
HORIZON = 120.0
#: worst-case NFD-S detection plus re-trust of a fresh incarnation.
SETTLE = 3.0 * (ETA + DELTA)


def nfds_factory(m, subject):
    return NFDS(ETA, DELTA)


def build_cluster(n, seed, loss, schedule, *, scenario=None, skews=None):
    """A cluster plus a valid crash/recovery schedule applied to it.

    ``schedule`` is a list of ``(index, crash_time, down_time)``
    episodes; at most one per process (the last process never crashes so
    an up observer always exists), recoveries clipped inside the run.
    """
    names = tuple(f"p{i}" for i in range(n))
    clock_factory = None
    if skews:
        clock_factory = lambda m, subject: (  # noqa: E731
            SkewedClock(skews.get(subject, 0.0)),
            SkewedClock(skews.get(m, 0.0)),
        )
    cluster = ElectionCluster(
        names,
        nfds_factory,
        eta=ETA,
        delay=DELAY,
        loss_probability=loss,
        seed=seed,
        scenario_factory=(lambda m, subject: scenario) if scenario else None,
        clock_factory=clock_factory,
    )
    seen = set()
    last_event = 0.0
    for index, crash_time, down_time in schedule:
        index = index % (n - 1)  # the last process never crashes
        if index in seen:
            continue
        seen.add(index)
        recover_time = crash_time + down_time
        cluster.crash(names[index], crash_time)
        cluster.recover(names[index], recover_time)
        last_event = max(last_event, recover_time)
    return cluster, last_event


episodes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=10.0, max_value=60.0),
        st.floats(min_value=2.0, max_value=15.0),
    ),
    min_size=0,
    max_size=3,
)


def record_states(cluster):
    """Log each elector's ``(time, trusted, leader)`` after every input
    its core is fed (a transition or a reset), keyed by monitor."""
    histories = {}
    for m, elector in cluster.electors.items():
        core = elector.core
        history = histories[m] = []
        for method in ("on_transition", "reset"):

            def logged(time, *args, _inner=getattr(core, method), _core=core,
                       _history=history):
                _inner(time, *args)
                _history.append((time, _core.trusted, _core.leader))

            setattr(core, method, logged)
    return histories


def state_timeline(core, history):
    """Piecewise-constant ``(trusted, leader)`` lookup from a logged
    history."""

    def at(t):
        state = (frozenset({core.self_name}), core.self_name)
        for time, trusted, leader in history:
            if time > t:
                break
            state = (trusted, leader)
        return state

    return at


def leader_at(events, time, initial):
    """The elected leader at ``time`` (right-continuous, like the
    detector output convention)."""
    leader = initial
    for ev in events:
        if ev.time > time:
            break
        leader = ev.leader
    return leader


def up_set(truth, t):
    return frozenset(n for n in truth.names if truth.up(n, t))


def agree_from(res, lo):
    """Whether every up monitor holds the same up leader at ``lo`` and
    at every later leader change through the end of the run: the Omega
    liveness property made measurable."""
    timelines = {m: e.events for m, e in res.electors.items()}
    checkpoints = {lo} | {
        ev.time
        for events in timelines.values()
        for ev in events
        if lo < ev.time <= res.end
    }
    for t in sorted(checkpoints):
        up = up_set(res.truth, t)
        leaders = {
            leader_at(events, t, m)
            for m, events in timelines.items()
            if m in up
        }
        if len(leaders) != 1:
            return False
        leader = next(iter(leaders))
        if leader is None or leader not in up:
            return False
    return True


class TestAtMostOneLeader:
    @given(
        n=st.integers(min_value=3, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        loss=st.floats(min_value=0.0, max_value=0.08),
        schedule=episodes,
        skew_list=st.lists(
            st.floats(min_value=-0.2, max_value=0.2), min_size=0, max_size=4
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_mutually_trusted_self_leaders_are_unique(
        self, n, seed, loss, schedule, skew_list
    ):
        skews = {f"p{i}": s for i, s in enumerate(skew_list)}
        cluster, _ = build_cluster(n, seed, loss, schedule, skews=skews)
        histories = record_states(cluster)
        cluster.run_until(HORIZON)
        res = cluster.result()
        lookups = {
            m: state_timeline(e.core, histories[m])
            for m, e in res.electors.items()
        }
        instants = sorted(
            {t for history in histories.values() for t, _, _ in history}
        )
        for t in instants:
            up = up_set(res.truth, t)
            states = {m: lookups[m](t) for m in up}
            self_leaders = [
                m for m, (_, leader) in states.items() if leader == m
            ]
            for i, m1 in enumerate(self_leaders):
                for m2 in self_leaders[i + 1 :]:
                    mutually_trusted = (
                        m2 in states[m1][0] and m1 in states[m2][0]
                    )
                    assert not mutually_trusted, (
                        f"{m1} and {m2} both self-elected while mutually "
                        f"trusted at t={t}"
                    )


class TestEventualAgreement:
    @given(
        n=st.integers(min_value=3, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        schedule=episodes,
        burst_start=st.floats(min_value=10.0, max_value=40.0),
        burst_len=st.floats(min_value=1.0, max_value=10.0),
        burst_loss=st.floats(min_value=0.2, max_value=0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_up_monitors_agree_after_last_event(
        self, n, seed, schedule, burst_start, burst_len, burst_loss
    ):
        # Loss-free base links; one scripted loss burst that ends well
        # before the tail of the run.
        burst = FaultScenario(
            [
                LossRegime(burst_start, burst_loss),
                LossRegime(burst_start + burst_len, 0.0),
            ],
            name="burst",
        )
        cluster, last_event = build_cluster(
            n, seed, 0.0, schedule, scenario=burst
        )
        cluster.run_until(HORIZON)
        res = cluster.result()
        after = max(last_event, burst_start + burst_len) + SETTLE
        # From one settling span past the last disturbance, every up
        # monitor holds the same up leader through the end of the run.
        assert agree_from(res, after)

    @given(
        n=st.integers(min_value=3, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        schedule=episodes,
    )
    @settings(max_examples=15, deadline=None)
    def test_agreed_leader_is_smallest_up_process(self, n, seed, schedule):
        cluster, last_event = build_cluster(n, seed, 0.0, schedule)
        cluster.run_until(HORIZON)
        res = cluster.result()
        t = last_event + SETTLE
        up = up_set(res.truth, t)
        expected = min(up)
        for m in up:
            assert res.electors[m].leader == expected


class TestElectionLatencyBound:
    @given(
        n=st.integers(min_value=3, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        crash_time=st.floats(min_value=20.0, max_value=50.0),
        down_time=st.floats(min_value=5.0, max_value=20.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_latency_bounded_by_detection_time_loss_free(
        self, n, seed, crash_time, down_time
    ):
        # Crash the stable leader (p0, the smallest name) once; the
        # observer (largest name, never crashes) must install an up
        # leader within the NFD-S worst-case detection time — the next
        # leader (p1) is already trusted, so repair = local detection.
        cluster, _ = build_cluster(
            n, seed, 0.0, [(0, crash_time, down_time)]
        )
        cluster.run_until(HORIZON)
        res = cluster.result()
        qos = res.qos(f"p{n - 1}", start=SETTLE)
        assert qos.latencies.size == 1
        latency = float(qos.latencies[0])
        assert math.isfinite(latency)
        assert 0.0 <= latency <= ETA + DELTA + 1e-9
        # Loss-free: no spurious demotions of an up leader, ever.
        assert qos.n_spurious_demotions == 0
